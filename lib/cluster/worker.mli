(** A shard worker: one {!Spm_server.Server} serving one shard store over
    its own listening socket, on a background thread.

    The server side needs no cluster-specific logic — installing a shard
    store already scopes it to the owned diameter clusters
    ({!Spm_server.Server.set_store}); what this module adds is lifecycle
    over the server's {!Spm_server.Frontend}: a worker can be torn down
    gracefully ({!stop}) or abruptly ({!kill} — the failure the router's
    [Partial] path is tested against), and restarted on the same port
    ([SO_REUSEADDR]) to exercise recovery. *)

type t

val start :
  ?jobs:int ->
  ?cache_capacity:int ->
  ?mine_timeout:float ->
  ?host:string ->
  ?port:int ->
  ?path:string ->
  Spm_store.Store.pattern_store ->
  t
(** Create a server, install the store (shard stores auto-scope), bind
    [host]:[port] (default [127.0.0.1]:ephemeral) and serve on a background
    thread. [path] is where committed updates persist their journal.
    The remaining options are {!Spm_server.Server.create}'s.
    @raise Unix.Unix_error if the port cannot be bound. *)

val port : t -> int
(** The bound port (useful with [~port:0]). *)

val stop : t -> unit
(** Graceful teardown: stop accepting, end every connection after its
    in-flight request (whose client still gets the reply), close the
    subscribers, and return once all of that is done. Idempotent, and
    also completes a {!kill}. *)

val kill : t -> unit
(** Abrupt teardown: shut down the listener, every live connection and
    every subscriber {e now} — peers blocked on a reply see EOF
    immediately, exactly like a crashed process. Does not wait for
    in-flight requests (a mine keeps running until it notices its dead
    socket). Idempotent. *)
