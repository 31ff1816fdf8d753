module Codec = Spm_store.Codec

type subscribers = { sub_lock : Mutex.t; mutable fds : Unix.file_descr list }

let subscribers () = { sub_lock = Mutex.create (); fds = [] }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()
let shutdown_fd how fd = try Unix.shutdown fd how with Unix.Unix_error _ -> ()

let push s resp =
  let frame = Protocol.encode_response resp in
  with_lock s.sub_lock (fun () ->
      s.fds <-
        List.filter
          (fun fd ->
            match Protocol.write_frame fd frame with
            | () -> true
            | exception (Unix.Unix_error _ | Codec.Corrupt _) ->
              close_fd fd;
              false)
          s.fds)

(* Orderly end of the push stream: subscribers read EOF. *)
let close_subscribers s =
  with_lock s.sub_lock (fun () ->
      List.iter close_fd s.fds;
      s.fds <- [])

type handler = client_version:int -> Protocol.request -> Protocol.response

type t = {
  handler : handler;
  subs : subscribers;
  listen_fd : Unix.file_descr;
  lock : Mutex.t;
  drained : Condition.t;  (* signalled when [conns] becomes empty *)
  mutable conns : Unix.file_descr list;
      (* Live connections, under [lock]. A connection leaves before its fd
         is closed or handed off, so a stop never shuts down a reused fd. *)
  mutable stopped : bool;
      (* Under [lock]. Once set, the listener is (being) shut down and no
         connection is admitted. *)
}

let create handler subs listen_fd =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  {
    handler;
    subs;
    listen_fd;
    lock = Mutex.create ();
    drained = Condition.create ();
    conns = [];
    stopped = false;
  }

(* Stop accepting, then shut down every live connection in direction
   [how]. Lock order: [t.lock] before [sub_lock], never the reverse. *)
let halt t how =
  with_lock t.lock (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        shutdown_fd SHUTDOWN_ALL t.listen_fd
      end;
      List.iter (shutdown_fd how) t.conns)

let stop t = halt t SHUTDOWN_RECEIVE

let kill t =
  halt t SHUTDOWN_ALL;
  with_lock t.subs.sub_lock (fun () ->
      List.iter (shutdown_fd SHUTDOWN_ALL) t.subs.fds)

let admit t conn =
  with_lock t.lock (fun () ->
      let ok = not t.stopped in
      if ok then t.conns <- conn :: t.conns;
      ok)

(* Leave the live set; with [~subscribe], join the subscribers in the same
   critical section, so a drained front end has finished every handoff. *)
let release t ?(subscribe = false) conn =
  with_lock t.lock (fun () ->
      t.conns <- List.filter (fun c -> c != conn) t.conns;
      if subscribe then
        with_lock t.subs.sub_lock (fun () ->
            t.subs.fds <- conn :: t.subs.fds);
      if t.conns = [] then Condition.broadcast t.drained)

let reply conn resp = Protocol.write_frame conn (Protocol.encode_response resp)

let serve_connection t conn =
  (try Unix.setsockopt conn TCP_NODELAY true with Unix.Unix_error _ -> ());
  let subscribed = ref false in
  let rec loop client_version =
    match Protocol.read_frame conn with
    | None -> ()
    | Some frame -> (
      match Protocol.decode_request frame with
      | exception Codec.Corrupt msg ->
        reply conn (Protocol.response (Error msg))
      | req -> (
        let resp = t.handler ~client_version req in
        reply conn resp;
        match (req, resp.Protocol.payload) with
        | Protocol.Subscribe, Protocol.Subscribed _ ->
          release t ~subscribe:true conn;
          subscribed := true
        | Protocol.Shutdown, _ -> stop t
        | _ -> loop client_version))
  in
  Fun.protect
    ~finally:(fun () ->
      if not !subscribed then begin
        release t conn;
        close_fd conn
      end)
    (fun () ->
      try Option.iter loop (Protocol.accept_handshake conn) with
      | Codec.Corrupt _
      | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF | ENOTCONN), _, _)
      ->
        ())

let run t =
  let rec accept_loop () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | conn, _ ->
      if admit t conn then
        ignore (Thread.create (serve_connection t) conn : Thread.t)
      else close_fd conn;
      accept_loop ()
    | exception Unix.Unix_error _ when with_lock t.lock (fun () -> t.stopped)
      ->
      ()
    | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) ->
      accept_loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      stop t;
      close_fd t.listen_fd;
      with_lock t.lock (fun () ->
          while t.conns <> [] do
            Condition.wait t.drained t.lock
          done);
      close_subscribers t.subs)
    accept_loop
