(* Load generation: a wire connection with a read deadline, and an
   open-loop generator over a shared schedule. *)

module Protocol = Spm_server.Protocol

let read_timeout = 30.0

type conn = Unix.file_descr

let connect port : conn =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  try
    Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd TCP_NODELAY true;
    Unix.setsockopt_float fd SO_RCVTIMEO read_timeout;
    Protocol.client_handshake fd;
    fd
  with e ->
    Unix.close fd;
    raise e

let close (c : conn) = try Unix.close c with Unix.Unix_error _ -> ()

(* One round trip: the raw reply frame, or the outcome of a failed one. *)
let exchange (c : conn) req =
  match
    Protocol.write_frame c (Protocol.encode_request req);
    Protocol.read_frame c
  with
  | Some frame -> Ok frame
  | None -> Error Rules.Error
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
    Error Rules.Timeout
  | exception _ -> Error Rules.Error

let call (c : conn) req =
  match exchange c req with
  | Ok frame -> Protocol.decode_response frame
  | Error _ -> failwith "request failed"

(* Judge one reply. [expected] is the payload bytes the answer must equal,
   when the benchmark knows it. *)
let judge ?expected (resp : Protocol.response) =
  match (resp.Protocol.status, resp.Protocol.payload) with
  | _, Protocol.Error _ -> Rules.Error
  | status, _ when status <> Spm_engine.Run.Ok -> Rules.Not_ok
  | _, _ when resp.Protocol.unreachable <> [] -> Rules.Not_ok
  | _, payload -> (
    match expected with
    | Some bytes when Inputs.payload_bytes payload <> bytes -> Rules.Wrong
    | _ -> Rules.Correct)

let judge_reply ?expected = function
  | Error o -> o
  | Ok frame -> (
    match Protocol.decode_response frame with
    | resp -> judge ?expected resp
    | exception _ -> Rules.Error)

type sample = {
  kind : Inputs.kind;
  due : float;  (** scheduled send time, seconds after the start *)
  lag : float;  (** how late the request was actually sent, seconds *)
  latency : float;  (** reply time minus scheduled send time, seconds *)
  outcome : Rules.outcome;
}

(* Send [reqs.(i)] at [start + due.(i)] over [conns] connections racing
   down the one schedule. Latency counts from the scheduled time, so a
   stall also delays every request queued behind it. Replies are decoded
   and checked only after the run: doing it between requests would hold
   the runtime lock while the other connection's reply waits. *)
let open_loop ?(stop = fun () -> false) ~port ~conns ~due
    ~(reqs : Protocol.request array) ~expected () =
  let n = Array.length reqs in
  let replies = Array.make n None in
  let next = ref 0 and lock = Mutex.create () in
  let claim () =
    Mutex.lock lock;
    let i = if stop () then n else !next in
    if i < n then incr next;
    Mutex.unlock lock;
    if i < n then Some i else None
  in
  let start = Unix.gettimeofday () +. 0.02 in
  let worker () =
    let c = connect port in
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () ->
        let rec loop () =
          match claim () with
          | None -> ()
          | Some i ->
            let at = start +. due.(i) in
            let wait = at -. Unix.gettimeofday () in
            if wait > 0.0 then Thread.delay wait;
            let sent = Unix.gettimeofday () in
            let reply = exchange c reqs.(i) in
            replies.(i) <- Some (sent -. at, Unix.gettimeofday () -. at, reply);
            loop ()
        in
        loop ())
  in
  let guarded () =
    (* A connection that cannot be opened fails the requests it claims. *)
    try worker ()
    with _ ->
      let rec drain () =
        match claim () with
        | None -> ()
        | Some i ->
          replies.(i) <- Some (0.0, read_timeout, Error Rules.Error);
          drain ()
      in
      drain ()
  in
  let threads = List.init conns (fun _ -> Thread.create guarded ()) in
  List.iter Thread.join threads;
  (* Requests never sent (the run was stopped) are not attempted. *)
  List.filter_map Fun.id
    (List.init n (fun i ->
         Option.map
           (fun (lag, latency, reply) ->
             {
               kind = Inputs.kind_of_request reqs.(i);
               due = due.(i);
               lag;
               latency;
               outcome = judge_reply ?expected:(expected i) reply;
             })
           replies.(i)))

(* Evenly spaced due times at [rate] per second. *)
let at_rate ~rate n = Array.init n (fun i -> float_of_int i /. rate)

let latencies_ms ?kind samples =
  List.filter_map
    (fun s ->
      if Option.fold ~none:true ~some:(fun k -> k = s.kind) kind then
        Some (1000.0 *. s.latency)
      else None)
    samples
