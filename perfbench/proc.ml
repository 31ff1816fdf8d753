(* Child processes of the benchmark: spawn, wait, peak memory, and a
   registry so every child is killed and reaped on every exit path. *)

type child = { pid : int; log : string; mutable reaped : bool }

let live : child list ref = ref []
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let spawn ~exe ~args ~log =
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close devnull)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) devnull out out)
  in
  let c = { pid; log; reaped = false } in
  locked (fun () -> live := c :: !live);
  c

let forget c = locked (fun () -> live := List.filter (fun x -> x != c) !live)

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (EINTR, _, _) -> waitpid_noeintr pid

(* Block until the child exits; its exit code (signals map to 128+n). *)
let wait c =
  let status = waitpid_noeintr c.pid in
  c.reaped <- true;
  forget c;
  match status with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + abs n

let kill c =
  if not c.reaped then begin
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (try waitpid_noeintr c.pid with Unix.Unix_error _ -> Unix.WEXITED 0);
    c.reaped <- true
  end;
  forget c

let kill_all () = List.iter kill (locked (fun () -> !live))

(* Peak resident memory (VmHWM) of a live process, in MB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

(* Run a child to completion: (exit code, wall seconds from spawn to exit,
   peak RSS in MB). A child's memory is gone once it exits, so a sampler
   thread reads VmHWM, a high-water mark, every 5 ms while it runs; the
   last reading misses at most the final 5 ms of growth. *)
let run_to_exit ~exe ~args ~log =
  let t0 = Unix.gettimeofday () in
  let c = spawn ~exe ~args ~log in
  let peak = ref 0.0 and finished = ref false in
  let sampler =
    Thread.create
      (fun () ->
        while not !finished do
          (match vm_hwm_mb c.pid with
          | mb -> if mb > !peak then peak := mb
          | exception _ -> ());
          Thread.delay 0.005
        done)
      ()
  in
  let code = wait c in
  let wall = Unix.gettimeofday () -. t0 in
  finished := true;
  Thread.join sampler;
  (code, wall, !peak)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The index of the first occurrence of [sub] in [s]. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i =
    if i + m > n then None else if String.sub s i m = sub then Some i else at (i + 1)
  in
  at 0

(* Wait until a serving child logs its "listening on HOST:PORT" line. *)
let await_port ?(timeout = 60.0) c =
  let deadline = Unix.gettimeofday () +. timeout in
  let tag = "listening on " in
  let rec poll () =
    let text = try read_file c.log with Sys_error _ -> "" in
    let port =
      List.find_map
        (fun line ->
          Option.bind (find_sub line tag) (fun i ->
              let from = i + String.length tag in
              try
                Scanf.sscanf
                  (String.sub line from (String.length line - from))
                  "%_[^:]:%d" Option.some
              with _ -> None))
        (String.split_on_char '\n' text)
    in
    match port with
    | Some p -> p
    | None -> (
      match Unix.waitpid [ WNOHANG ] c.pid with
      | pid, _ when pid = c.pid ->
        c.reaped <- true;
        forget c;
        failwith (Printf.sprintf "child exited before listening: %s" text)
      | _ ->
        if Unix.gettimeofday () > deadline then
          failwith "child did not start listening in time";
        Thread.delay 0.01;
        poll ())
  in
  poll ()
