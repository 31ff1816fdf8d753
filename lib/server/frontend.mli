(** The connection front end shared by {!Server}, the cluster router and
    the shard workers: the only code that accepts, handshakes, reads
    frames and pushes to subscribers.

    A front end is parameterised by a request handler and a subscriber
    registry. Each accepted connection gets a thread that runs the
    handshake and then one request/response frame exchange at a time
    until EOF. An undecodable frame is answered with an [Error] and ends
    the connection (the stream offset can no longer be trusted). A
    [Subscribe] answered with [Subscribed] hands the socket over to the
    registry, which receives every later {!push}; a served [Shutdown]
    starts a graceful {!stop}. A connection ends quietly on a peer that
    disconnects, resets or sends a corrupt frame — never the process:
    [SIGPIPE] is ignored, so a vanished peer surfaces as [EPIPE].

    {b Stopping.} Both stops shut down the listening socket, which ends
    [accept]. A graceful {!stop} then half-closes the read side of every
    live connection: idle readers see EOF at once, while a connection
    inside a request still writes its reply before it reads that EOF.
    {!run} returns once every connection thread has exited, closing the
    subscribers last (they read EOF). An abrupt {!kill} shuts down both
    directions of every live connection and subscriber and does not
    wait. There is no read deadline: a deadline on idle reads would also
    drop the router's pooled worker connections between requests. *)

(** {1 Subscribers} *)

type subscribers
(** Sockets handed off by [Subscribe]. Thread-safe. *)

val subscribers : unit -> subscribers

val push : subscribers -> Protocol.response -> unit
(** Encode the response once and write it to every subscriber; a
    subscriber whose write fails is closed and dropped, the rest still
    get the frame. *)

(** {1 Serving} *)

type handler = client_version:int -> Protocol.request -> Protocol.response
(** Dispatch one decoded request at the connection's negotiated protocol
    version. Must not raise for request-level failures. *)

type t

val create : handler -> subscribers -> Unix.file_descr -> t
(** A front end over a listening socket (see {!Server.listen}). Ignores
    [SIGPIPE] for the process. Accepts nothing until {!run}. *)

val run : t -> unit
(** The accept loop: one thread per connection. Returns after {!stop},
    {!kill} or a served [Shutdown], once every connection thread has
    exited; closes the listening socket and the subscribers on the way
    out. *)

val stop : t -> unit
(** Graceful stop: stop accepting and half-close the read side of every
    live connection, so each ends after its in-flight request. Does not
    wait — {!run} returns once they have. Idempotent. *)

val kill : t -> unit
(** Abrupt stop: shut down the listener, every live connection and every
    subscriber now. Peers blocked on a reply see EOF at once, as from a
    crashed process; a request still running keeps running until its
    write fails. Does not wait. *)
