(* The SkinnyMine benchmark. See README.md in this directory.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs from the root of a source checkout after run.sh has built
   [_build/default/bin/skinny_cli.exe]. Every file it writes stays under
   [.perfbench/]. The last line of standard output is one JSON object:
   the end-to-end metrics with --trace 0, the per-layer metrics of a
   traced run with --trace 1. *)

open Spm_graph
open Spm_core
module Protocol = Spm_server.Protocol
module Server = Spm_server.Server
module Sig_index = Spm_server.Sig_index
module Store = Spm_store.Store
module Partition = Spm_cluster.Partition
module Worker = Spm_cluster.Worker
module Router = Spm_cluster.Router
module Plan = Spm_pattern.Plan
module Canon = Spm_pattern.Canon
module Support = Spm_pattern.Support

let cli = Filename.concat "_build" (Filename.concat "default" "bin/skinny_cli.exe")
let out_root = ".perfbench"

(* --- Results --- *)

let metrics : (string * float * string) list ref = ref []
let outcomes : Rules.outcome list ref = ref []
let checks_failed : string list ref = ref []

let check what ok =
  if not ok then begin
    checks_failed := what :: !checks_failed;
    Printf.printf "CHECK FAILED: %s\n%!" what
  end

let metric name value unit_ =
  check (name ^ " is a finite number") (Float.is_finite value);
  let value = if Float.is_finite value then value else -1.0 in
  metrics := (name, value, unit_) :: !metrics

let outcome o = outcomes := o :: !outcomes

let report name value unit_ = Printf.printf "  %-32s %14.4f %s\n%!" name value unit_

let digest what d = Printf.printf "  digest %-22s %s\n%!" what d

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Both raise on an empty sample, so a missing kind or a run in which
   every call failed cannot turn into a silent 0. *)
let mean = function
  | [] -> invalid_arg "mean: no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let p50 = Rules.median

let file_size path = (Unix.stat path).Unix.st_size

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

(* --- The program under test, as child processes --- *)

let mine_args ~(p : Inputs.params) ~graph ~store =
  [ "mine"; graph; "-l"; string_of_int p.Inputs.l; "-d"; string_of_int p.delta;
    "-s"; string_of_int p.sigma; "-j"; "1"; "--store"; store; "--json" ]
  @ if p.closed then [ "--closed" ] else []

(* One `skinnymine mine` child: file in, store on disk. *)
let mine_child ~dir ~p ~graph ~store =
  let log = Filename.concat dir "mine.log" in
  let code, wall, rss = Proc.run_to_exit ~exe:cli ~args:(mine_args ~p ~graph ~store) ~log in
  let out = Proc.read_file log in
  let ok = code = 0 && Proc.find_sub out "\"status\":\"ok\"" <> None in
  (ok, wall, rss)

let serve_child ~dir ~name args =
  let c =
    Proc.spawn ~exe:cli ~args ~log:(Filename.concat dir (name ^ ".log"))
  in
  (c, Proc.await_port c)

let shutdown_child (c, port) =
  (try
     let conn = Load.connect port in
     Fun.protect
       ~finally:(fun () -> Load.close conn)
       (fun () -> ignore (Load.call conn Protocol.Shutdown))
   with _ -> ());
  (* A clean exit within a few seconds; otherwise it is killed. *)
  let deadline = now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ WNOHANG ] c.Proc.pid with
    | pid, _ when pid = c.Proc.pid ->
      c.Proc.reaped <- true;
      Proc.forget c
    | _ when now () > deadline -> Proc.kill c
    | _ ->
      Thread.delay 0.01;
      reap ()
    | exception Unix.Unix_error _ -> Proc.kill c
  in
  reap ()

(* --- Shared helpers --- *)

let render ms = Inputs.payload_bytes (Protocol.Patterns ms)

(* Iso-invariant fingerprint of a mined set: sorted (canonical key,
   support) pairs. *)
let pattern_fingerprint (ms : Skinny_mine.mined list) =
  Inputs.hex
    (String.concat "\n"
       (List.sort compare
          (List.map
             (fun (m : Skinny_mine.mined) ->
               Printf.sprintf "%s %d" (Canon.key m.pattern) m.support)
             ms)))

let setup_reps = 5

(* Median of [reps] timed set-ups; each one but the last is torn down. *)
let repeated_setup ~reps ~build ~teardown =
  let rec go i acc =
    let r, dt = time build in
    if i < reps then begin
      teardown r;
      go (i + 1) (dt :: acc)
    end
    else (r, Rules.median (dt :: acc))
  in
  go 1 []

(* --- Per-workload inputs shared by the end-to-end and the traced run --- *)

type prepared = {
  graph_file : string;
  inst : Inputs.instance;
  graph : Graph.t;
  params : Inputs.params;
  store_file : string;
  store : Store.pattern_store;
  mine_ok : bool;
  digests : (string * string) list;  (** taken before any update *)
}

let prepare_mine ~dir ~seed ~params ~instance =
  let inst = instance ~seed in
  let graph = inst.Inputs.graph in
  let graph_file = Filename.concat dir "graph.txt" in
  Io.write_file graph_file graph;
  let store_file = Filename.concat dir "mined.store" in
  let mine_ok, _, _ =
    mine_child ~dir ~p:params ~graph:graph_file ~store:store_file
  in
  let digests =
    [ ("graph text", Inputs.file_digest graph_file);
      ("store bytes", Inputs.file_digest store_file) ]
  in
  let store = Store.load store_file in
  { graph_file; inst; graph; params; store_file; store; mine_ok; digests }

let print_digests pr = List.iter (fun (what, d) -> digest what d) pr.digests

(* 116 patterns at l=6 delta=3 sigma=2 closed: the Fig 14-15 graph at the
   structure seed; vertex renumbering leaves the problem unchanged. *)
let fig14_patterns = 116
let fig14_fingerprint = "d62ac50013097325f223da20dafb1995"

(* Extensions tried, constraint rejected, infrequent, emitted. Like the
   pattern set, they do not change under the seed's vertex renumbering
   (checked at seeds 0, 1 and 2), so every seed checks them. *)
let fig14_pinned_counts =
  (116644, 105880, 1806, 116)

let corpus_patterns = 986

(* ===================== mine-fig14 ===================== *)

(* A mine takes 8-16 s on the 2-core machine the benchmark was sized on,
   whose speed drifts over tens of seconds, so a run reports the median of
   several mines: one per six requested seconds, at
   least three. The count depends on the request alone, not on how fast
   the host is. *)
let mines_for ~seconds = max 3 (int_of_float (Float.round (seconds /. 6.0)))

(* Set-up generates the graph, writes it and reads it back to check the
   file. It takes about 10 ms, within which the host's speed does not
   average out, so a batch of set-ups runs before the first mine and after
   every mine, and the median of all of them is reported. *)
let fig14_setup_batch = 8

let fig14_e2e ~dir ~seed ~seconds =
  let graph_file = Filename.concat dir "graph.txt" in
  let setups = ref [] in
  let setup_batch () =
    for _ = 1 to fig14_setup_batch do
      let (), dt =
        time (fun () ->
            let g = (Inputs.fig14 ~seed).Inputs.graph in
            Io.write_file graph_file g;
            check "graph file reads back"
              (Graph.equal_structure g (Io.read_file graph_file)))
      in
      setups := dt :: !setups
    done
  in
  setup_batch ();
  digest "graph text" (Inputs.file_digest graph_file);
  let mines = mines_for ~seconds in
  let rec loop i walls rss =
    let store = Filename.concat dir (Printf.sprintf "mined-%d.store" i) in
    let ok, wall, peak =
      mine_child ~dir ~p:Inputs.fig14_params ~graph:graph_file ~store
    in
    let patterns = if ok then (Store.load store).Store.patterns else [] in
    let fingerprint = pattern_fingerprint patterns in
    if i = 0 && ok then begin
      digest "store bytes" (Inputs.file_digest store);
      digest "pattern fingerprint" fingerprint
    end;
    outcome
      (if not ok then Rules.Error
       else if
         List.length patterns <> fig14_patterns
         || fingerprint <> fig14_fingerprint
       then Rules.Wrong
       else Rules.Correct);
    if Sys.file_exists store then Sys.remove store;
    setup_batch ();
    let walls = wall :: walls and rss = Float.max rss peak in
    if i + 1 < mines then loop (i + 1) walls rss
    else (walls, rss)
  in
  let walls, rss = loop 0 [] 0.0 in
  let ms = List.map (fun w -> 1000.0 *. w) walls in
  metric "setup_s" (Rules.median !setups) "s";
  metric "peak_rss_mb" rss "MB";
  metric "op_p50_ms" (Rules.median ms) "ms";
  Printf.printf "  mines of the Fig 14 graph: %s s\n"
    (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") walls));
  report "mine_s" (Rules.median walls) "s"

(* ===================== Serving layouts ===================== *)

type layout = {
  pr : prepared;
  manifest_file : string option;  (** the shard manifest, when sharded *)
  workers : (Proc.child * int) list;
  front : Proc.child * int;  (** the router, or the single server *)
}

let layout_children l = l.front :: l.workers

let teardown_layout l = List.iter shutdown_child (layout_children l)

(* The layout's resident memory, summed over its processes. *)
let layout_rss l =
  List.fold_left
    (fun acc (c, _) -> acc +. Proc.vm_hwm_mb c.Proc.pid)
    0.0 (layout_children l)

let start_routed ~dir ~seed =
  let pr =
    prepare_mine ~dir ~seed ~params:Inputs.corpus_params
      ~instance:Inputs.corpus
  in
  let base = Filename.concat dir "corpus" in
  let code, _, _ =
    Proc.run_to_exit ~exe:cli
      ~args:[ "shard"; pr.store_file; "--shards"; "2"; "-o"; base ]
      ~log:(Filename.concat dir "shard.log")
  in
  if code <> 0 then failwith "skinnymine shard failed";
  let workers =
    List.init 2 (fun i ->
        serve_child ~dir
          ~name:(Printf.sprintf "worker%d" i)
          [ "serve"; "--store"; Partition.shard_file ~base ~shard:i ~shards:2;
            "--mmap"; "-j"; "1"; "--port"; "0" ])
  in
  let manifest_file = Partition.manifest_file ~base in
  let front =
    serve_child ~dir ~name:"router"
      ([ "route"; "--manifest"; manifest_file; "--port"; "0"; "--deadline"; "30" ]
      @ List.concat_map
          (fun (_, port) -> [ "--worker"; string_of_int port ])
          workers)
  in
  { pr; manifest_file = Some manifest_file; workers; front }

let start_single ~dir ~seed =
  let pr =
    prepare_mine ~dir ~seed ~params:Inputs.corpus_params
      ~instance:Inputs.corpus
  in
  let front =
    serve_child ~dir ~name:"server"
      [ "serve"; "--store"; pr.store_file; "-j"; "1"; "--port"; "0" ]
  in
  { pr; manifest_file = None; workers = []; front }

(* Answers of a single in-process server over the unsharded store: what the
   router must return byte for byte. *)
let reference_answers (s : Store.pattern_store) =
  let server = Server.create ~jobs:1 () in
  Server.set_store server s;
  let memo = Hashtbl.create 1024 in
  fun req ->
    let key = Protocol.encode_request req in
    match Hashtbl.find_opt memo key with
    | Some b -> b
    | None ->
      let b = Inputs.payload_bytes (Server.handle server req).Protocol.payload in
      Hashtbl.add memo key b;
      b

(* ===================== route-read ===================== *)

(* The reference rate is the first rung of the ladder; per-kind latencies
   are reported there. Capacity is judged on lookup latency at each rung's
   tail percentile against [latency_limit_ms]. *)
let ladder = [ 200.0; 400.0; 600.0; 800.0 ]
let latency_limit_ms = 20.0

let route_read_e2e ~dir ~seed ~seconds =
  let l, setup_s =
    repeated_setup ~reps:setup_reps
      ~build:(fun () -> start_routed ~dir ~seed)
      ~teardown:teardown_layout
  in
  Fun.protect
    ~finally:(fun () -> teardown_layout l)
    (fun () ->
      print_digests l.pr;
      check "corpus mine ok" l.pr.mine_ok;
      check "corpus pattern count"
        (List.length l.pr.store.Store.patterns = corpus_patterns);
      (* The reference rung gets 70% of the run, the others 10% each. *)
      let durations =
        List.mapi (fun i _ -> seconds *. if i = 0 then 0.7 else 0.1) ladder
      in
      let counts =
        List.map2 (fun r d -> int_of_float (r *. d)) ladder durations
      in
      let total = List.fold_left ( + ) 0 counts in
      let reads =
        Inputs.read_schedule ~seed ~count:total l.pr.graph l.pr.store
      in
      digest "request schedule" (Inputs.schedule_digest reads);
      let expect = reference_answers l.pr.store in
      let expected = Array.map expect reads in
      let port = snd l.front in
      let _, steps =
        List.fold_left2
          (fun (offset, acc) rate count ->
            let reqs = Array.sub reads offset count in
            let samples =
              Load.open_loop ~port ~conns:2
                ~due:(Load.at_rate ~rate count)
                ~reqs
                ~expected:(fun i -> Some expected.(offset + i))
                ()
            in
            check "every request answered" (List.length samples = count);
            (offset + count, (rate, samples) :: acc))
          (0, []) ladder counts
      in
      let steps = List.rev steps in
      let rss = layout_rss l in
      List.iter
        (fun (_, samples) ->
          List.iter (fun s -> outcome s.Load.outcome) samples)
        steps;
      let summary (rate, samples) =
        let lags =
          List.map (fun s -> 1000.0 *. s.Load.lag)
            (List.sort (fun a b -> compare a.Load.due b.Load.due) samples)
        in
        let n = List.length lags in
        let tenth = max 1 (n / 10) in
        {
          Rules.rate;
          lookup_tail_ms =
            Rules.at_most (Load.latencies_ms ~kind:Inputs.Lookup samples) 99.0;
          failed =
            Rules.failed_count (List.map (fun s -> s.Load.outcome) samples);
          lag_first_ms = Rules.median (List.filteri (fun i _ -> i < tenth) lags);
          lag_last_ms =
            Rules.median (List.filteri (fun i _ -> i >= n - tenth) lags);
        }
      in
      let summaries = List.map summary steps in
      let reference = snd (List.hd steps) in
      (* The resident Mine is the read the JSON reports: lookup latency at
         the reference rate mostly measures queueing behind the mines on
         the two shared connections, and it spread by a factor of two
         between runs of the same seed. *)
      let mines = Load.latencies_ms ~kind:Inputs.Mine reference in
      metric "setup_s" setup_s "s";
      metric "peak_rss_mb" rss "MB";
      metric "op_p50_ms" (Rules.median mines) "ms";
      Printf.printf "  at the reference rate of %.0f req/s:\n" (List.hd ladder);
      List.iter
        (fun k ->
          let xs = Load.latencies_ms ~kind:k reference in
          let s = Rules.summarize xs in
          let name = Inputs.kind_name k in
          report (Printf.sprintf "%s_p50_ms" name) s.Rules.p50 "ms";
          report
            (Printf.sprintf "%s_p%g_ms (n=%d)" name s.Rules.tail_p s.Rules.count)
            s.Rules.tail "ms")
        Inputs.read_kinds;
      List.iter
        (fun (s : Rules.step) ->
          Printf.printf
            "  rung %5.0f req/s: lookup tail %8.3f ms, failed %d, lag %.3f -> \
             %.3f ms\n"
            s.rate s.lookup_tail_ms s.failed s.lag_first_ms s.lag_last_ms)
        summaries;
      report "read_capacity_rps"
        (Rules.capacity ~limit_ms:latency_limit_ms summaries)
        "req/s")

(* ===================== serve-update ===================== *)

let cycle = 2 * Inputs.toggle_pairs
let reader_rate = 20.0

(* A run times a fixed number of whole cycles through the toggle pairs,
   one per ten requested seconds (a cycle takes about 15 s on the 2-core
   machine the benchmark was sized on). Counting cycles, not the clock,
   makes every run time the same updates however fast the host is. *)
let cycles_for ~seconds = max 1 (int_of_float (Float.round (seconds /. 10.0)))

let edits_for l ~seed ~cycles =
  Inputs.edit_script ~seed ~count:(1 + (cycles * cycle)) l.pr.inst

let warm_up l ~seed ~cycles =
  let conn = Load.connect (snd l.front) in
  Fun.protect
    ~finally:(fun () -> Load.close conn)
    (fun () ->
      let r = Load.call conn (Protocol.Update (Protocol.update_params (edits_for l ~seed ~cycles).(0))) in
      check "warm-up update ok" (Load.judge r = Rules.Correct))

let serve_update_e2e ~dir ~seed ~seconds =
  let cycles = cycles_for ~seconds in
  let l, setup_s =
    repeated_setup ~reps:setup_reps
      ~build:(fun () ->
        let l = start_single ~dir ~seed in
        warm_up l ~seed ~cycles;
        l)
      ~teardown:teardown_layout
  in
  Fun.protect
    ~finally:(fun () -> teardown_layout l)
    (fun () ->
      print_digests l.pr;
      check "corpus mine ok" l.pr.mine_ok;
      let edits = edits_for l ~seed ~cycles in
      digest "edit script" (Inputs.edits_digest edits);
      let reads =
        Inputs.read_schedule ~lookups_only:true ~seed ~count:6000 l.pr.graph
          l.pr.store
      in
      digest "request schedule" (Inputs.schedule_digest reads);
      let port = snd l.front in
      let writer_done = ref false and lookups = ref [] in
      let reader =
        Thread.create
          (fun () ->
            lookups :=
              Load.open_loop ~stop:(fun () -> !writer_done) ~port ~conns:1
                ~due:(Load.at_rate ~rate:reader_rate (Array.length reads))
                ~reqs:reads
                ~expected:(fun _ -> None)
                ())
          ()
      in
      (* The writer: closed-loop one-edge updates after the warm-up one. *)
      let updates = ref [] in
      Fun.protect
        ~finally:(fun () ->
          writer_done := true;
          Thread.join reader)
        (fun () ->
          let conn = Load.connect port in
          Fun.protect
            ~finally:(fun () -> Load.close conn)
            (fun () ->
              for i = 1 to Array.length edits - 1 do
                let t0 = now () in
                let reply =
                  Load.exchange conn
                    (Protocol.Update (Protocol.update_params edits.(i)))
                in
                updates := (1000.0 *. (now () -. t0)) :: !updates;
                outcome (Load.judge_reply reply)
              done));
      List.iter (fun s -> outcome s.Load.outcome) !lookups;
      let rss = layout_rss l in
      (* The resident set after the run must equal a from-scratch mine of
         the edited graph. *)
      let edited =
        Delta.snapshot
          (Array.fold_left Delta.apply_all (Delta.of_graph l.pr.graph)
             edits)
      in
      let p = l.pr.params in
      let fresh =
        Skinny_mine.mine
          ~config:{ Skinny_mine.Config.default with closed_growth = p.closed }
          edited ~l:p.l ~delta:p.delta ~sigma:p.sigma
      in
      let conn = Load.connect port in
      let final =
        Fun.protect
          ~finally:(fun () -> Load.close conn)
          (fun () ->
            Load.judge_reply
              ~expected:(render fresh.Skinny_mine.patterns)
              (Load.exchange conn
                 (Protocol.Mine
                    (Protocol.mine_params ~l:p.l ~delta:p.delta ~sigma:p.sigma ()))))
      in
      outcome final;
      check "resident set equals a fresh mine of the edited graph"
        (final = Rules.Correct);
      let lookup_ms = Load.latencies_ms !lookups in
      metric "setup_s" setup_s "s";
      metric "peak_rss_mb" rss "MB";
      metric "op_p50_ms" (Rules.median !updates) "ms";
      let u = Rules.summarize !updates and r = Rules.summarize lookup_ms in
      Printf.printf "  %d updates beside %d lookups at %.0f req/s:\n" u.count
        r.count reader_rate;
      report "update_p50_ms" u.p50 "ms";
      report (Printf.sprintf "update_p%g_ms" u.tail_p) u.tail "ms";
      report "lookup_p50_ms" r.p50 "ms";
      report (Printf.sprintf "lookup_p%g_ms" r.tail_p) r.tail "ms")

(* ===================== The traced run ===================== *)

let us xs = List.map (fun s -> 1e6 *. s) xs

(* Time [f x] for each [x] under span [name]: the per-call durations. *)
let spans name f xs =
  List.mapi
    (fun i x ->
      let t0 = now () in
      ignore (Trace.span ~req:i name (fun () -> f x));
      now () -. t0)
    xs

(* How the pipeline wraps each call: under a span, or not at all. *)
type wrap = { wrap : 'a. ?req:int -> string -> (unit -> 'a) -> 'a }

let traced_wrap = { wrap = Trace.span }
let untraced_wrap = { wrap = (fun ?req:_ _ f -> f ()) }

(* Stage I, Stage II per entry, then the store: the CLI's mine, in
   process. *)
let pipeline { wrap } pr ~tmp =
  let p = pr.params in
  let t0 = now () in
  let per_entry =
    wrap "pipeline" (fun () ->
        let g = wrap "io.read_file" (fun () -> Io.read_file pr.graph_file) in
        let diam =
          wrap "diam_mine.mine" (fun () ->
              Diam_mine.mine ~prune_intermediate:true g ~l:p.l ~sigma:p.sigma)
        in
        let per_entry =
          List.mapi
            (fun i entry ->
              wrap ~req:i "level_grow.grow" (fun () ->
                  Level_grow.grow ~closed_growth:p.closed ~data:g
                    ~sigma:p.sigma ~delta:p.delta ~entry ()))
            diam.Diam_mine.entries
        in
        let result =
          {
            Skinny_mine.patterns = List.concat_map fst per_entry;
            stats =
              {
                Skinny_mine.diam_stats = diam.Diam_mine.stats;
                num_diameters = List.length diam.Diam_mine.entries;
                grow_seconds = 0.0;
                grow_stats = List.map snd per_entry;
                status = Spm_engine.Run.Ok;
                total_seconds = 0.0;
              };
          }
        in
        wrap "store.save" (fun () ->
            Store.save tmp
              (Store.of_result ~graph:g ~l:p.l ~delta:p.delta ~sigma:p.sigma
                 ~closed_growth:p.closed result));
        per_entry)
  in
  (per_entry, now () -. t0)

let sum_stats f per_entry =
  List.fold_left (fun acc (_, st) -> acc + f st) 0 per_entry

(* The pipeline under spans and then once more without them: the cost of
   tracing is the ratio of the two wall times. The traced pass goes first
   and pays for any cold start, so the ratio errs high. *)
let layer_pipeline pr ~tmp =
  let per_entry, wall = pipeline traced_wrap pr ~tmp in
  let plain, untraced_wall = pipeline untraced_wrap pr ~tmp in
  let patterns = List.concat_map fst per_entry in
  check "in-process decomposition equals the mine child's store"
    (render patterns = render pr.store.Store.patterns);
  check "traced and untraced pipelines agree"
    (render patterns = render (List.concat_map fst plain));
  let grow = Trace.durations "level_grow.grow" in
  let grow_s = List.fold_left ( +. ) 0.0 grow in
  let tried = sum_stats (fun s -> s.Level_grow.extensions_tried) per_entry
  and rejected = sum_stats (fun s -> s.Level_grow.constraint_rejected) per_entry
  and infrequent = sum_stats (fun s -> s.Level_grow.infrequent) per_entry
  and emitted = sum_stats (fun s -> s.Level_grow.emitted) per_entry in
  let layers =
    Trace.total "io.read_file" +. Trace.total "diam_mine.mine" +. grow_s
    +. Trace.total "store.save"
  in
  metric "io.read_file_s" (Trace.total "io.read_file") "s";
  metric "diam_mine.mine_s" (Trace.total "diam_mine.mine") "s";
  metric "diam_mine.entries" (float_of_int (List.length per_entry)) "count";
  metric "level_grow.grow_s" grow_s "s";
  metric "level_grow.cluster_max_s" (List.fold_left Float.max 0.0 grow) "s";
  metric "level_grow.clusters" (float_of_int (List.length per_entry)) "count";
  metric "level_grow.extensions_tried" (float_of_int tried) "count";
  metric "level_grow.constraint_rejected" (float_of_int rejected) "count";
  metric "level_grow.infrequent" (float_of_int infrequent) "count";
  metric "level_grow.emitted" (float_of_int emitted) "count";
  metric "level_grow.reject_ratio"
    (float_of_int rejected /. float_of_int (max 1 tried)) "ratio";
  metric "level_grow.us_per_extension"
    (1e6 *. grow_s /. float_of_int (max 1 tried)) "us";
  metric "store.save_s" (Trace.total "store.save") "s";
  metric "store.bytes" (float_of_int (file_size tmp)) "bytes";
  metric "trace.overhead_frac" (wall /. untraced_wall) "ratio";
  metric "trace.coverage_frac" (layers /. wall) "ratio";
  check "layer spans cover 90% of the traced mine" (layers /. wall >= 0.9);
  (patterns, (tried, rejected, infrequent, emitted))

(* At most [n] elements, evenly strided. *)
let stride n xs =
  let a = Array.of_list xs in
  let len = Array.length a in
  if len <= n then xs else List.init n (fun i -> a.(i * len / n))

let layer_patterns g patterns =
  let ps = List.map (fun (m : Skinny_mine.mined) -> m.pattern) (stride 200 patterns) in
  metric "canon.key_us" (mean (us (spans "canon.key" Canon.key ps))) "us";
  metric "plan.compile_us" (mean (us (spans "plan.compile" Plan.compile ps))) "us";
  metric "support.single_graph_us"
    (mean (us (spans "support.single_graph" (fun p -> Support.single_graph p g) ps)))
    "us"

let layer_index patterns reads =
  let idx = ref (Sig_index.build []) in
  let builds =
    spans "sig_index.build" (fun () -> idx := Sig_index.build patterns) [ (); (); () ]
  in
  metric "sig_index.build_ms" (1000.0 *. Rules.median builds) "ms";
  let lookups =
    List.filter_map (function Protocol.Lookup q -> Some q | _ -> None) reads
  and probes =
    List.filter_map (function Protocol.Contains g -> Some g | _ -> None) reads
  in
  metric "sig_index.lookup_us"
    (mean
       (us
          (spans "sig_index.lookup"
             (fun (q : Protocol.lookup_params) ->
               Sig_index.lookup ?labels:q.Protocol.labels !idx)
             lookups)))
    "us";
  metric "sig_index.containment_us"
    (mean (us (spans "sig_index.contained_in" (Sig_index.contained_in !idx) probes)))
    "us"

(* In-process Server.handle per kind and the LRU. *)
let layer_server pr reads =
  let server = Server.create ~jobs:1 () in
  Server.set_store server pr.store;
  let handled = ref [] in
  let handle_us =
    List.map
      (fun req ->
        let t0 = now () in
        let resp = Trace.span "server.handle" (fun () -> Server.handle server req) in
        handled := (req, resp) :: !handled;
        (Inputs.kind_of_request req, 1e6 *. (now () -. t0)))
      reads
  in
  let of_kind k xs = List.filter_map (fun (k', x) -> if k = k' then Some x else None) xs in
  let stats = Server.stats server in
  metric "lru.hit_ratio"
    (float_of_int stats.Protocol.cache_hits
    /. float_of_int (max 1 stats.Protocol.requests))
    "ratio";
  List.iter
    (fun k ->
      metric ("server.handle_us." ^ Inputs.kind_name k) (p50 (of_kind k handle_us)) "us")
    Inputs.read_kinds;
  (server, List.rev !handled)

(* Request and response codec per kind: mean microseconds and bytes. *)
let layer_protocol pairs =
  let codec = Hashtbl.create 8 in
  List.iter
    (fun ((req : Protocol.request), (resp : Protocol.response)) ->
      let span name f =
        let r, dt = time (fun () -> Trace.span name f) in
        (r, 1e6 *. dt)
      in
      let rb, enc_req = span "protocol.encode" (fun () -> Protocol.encode_request req) in
      let sb, enc_resp = span "protocol.encode" (fun () -> Protocol.encode_response resp) in
      let _, dec_req = span "protocol.decode" (fun () -> Protocol.decode_request rb) in
      let _, dec_resp = span "protocol.decode" (fun () -> Protocol.decode_response sb) in
      Hashtbl.add codec
        (Inputs.kind_of_request req)
        (enc_req +. enc_resp, dec_req +. dec_resp, float_of_int (String.length sb)))
    pairs;
  let field f k = List.map f (Hashtbl.find_all codec k) in
  List.iter
    (fun k ->
      let name = Inputs.kind_name k in
      metric ("protocol.encode_us." ^ name) (mean (field (fun (e, _, _) -> e) k)) "us";
      metric ("protocol.decode_us." ^ name) (mean (field (fun (_, d, _) -> d) k)) "us";
      metric ("protocol.response_bytes." ^ name)
        (mean (field (fun (_, _, b) -> b) k)) "bytes")
    (Inputs.read_kinds @ [ Inputs.Update ])

(* One in-process update, as each layer saw it. *)
type update_row = {
  handle_ms : float;  (** Server.handle, which also journals to disk *)
  repaired : int;
  clusters : int;
  store_bytes : int;  (** the store file after the commit *)
  edit_bytes : int;  (** the encoded edit batch *)
  save_ms : float;
  incremental_ms : float;
  stage_one_ms : float;
  pair : Protocol.request * Protocol.response;
}

let time_ms name f =
  let r, dt = time (fun () -> Trace.span name f) in
  (r, 1000.0 *. dt)

(* Updates in process over the edit script: through Server.handle, through
   Incremental directly, and Stage I on every post-edit snapshot. *)
let layer_updates pr ~edits ~dir =
  let path = Filename.concat dir "updates.store" in
  Store.save path pr.store;
  let server = Server.create ~jobs:1 () in
  Server.set_store server ~path (Store.load path);
  let p = pr.params in
  let config = { Skinny_mine.Config.default with closed_growth = p.closed } in
  let inc =
    match
      Incremental.restore ~config (Delta.of_graph pr.graph) ~l:p.l
        ~delta:p.delta ~sigma:p.sigma ~patterns:pr.store.Store.patterns
    with
    | Some t -> ref t
    | None -> failwith "Incremental.restore refused the mined store"
  in
  let delta = ref (Delta.of_graph pr.graph) in
  let one batch =
    let req = Protocol.Update (Protocol.update_params batch) in
    let resp, handle_ms =
      time_ms "server.handle" (fun () -> Server.handle server req)
    in
    outcome (Load.judge resp);
    let repaired, clusters =
      match resp.Protocol.payload with
      | Protocol.Update_reply r -> (r.Protocol.repaired, r.Protocol.clusters)
      | _ -> (0, 1)
    in
    let stored = Store.load path in
    let (), save_ms =
      time_ms "store.save" (fun () ->
          Store.save (Filename.concat dir "resave.store") stored)
    in
    let (next, _), incremental_ms =
      time_ms "incremental.update" (fun () -> Incremental.update !inc batch)
    in
    inc := next;
    delta := Delta.apply_all !delta batch;
    let snapshot = Delta.snapshot !delta in
    let _, stage_one_ms =
      time_ms "diam_mine.mine" (fun () ->
          Diam_mine.mine ~prune_intermediate:true snapshot ~l:p.l ~sigma:p.sigma)
    in
    {
      handle_ms;
      repaired;
      clusters;
      store_bytes = file_size path;
      edit_bytes = String.length (Protocol.encode_request req);
      save_ms;
      incremental_ms;
      stage_one_ms;
      pair = (req, resp);
    }
  in
  let rows = List.map one (Array.to_list edits) in
  let col f = List.map f rows in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 rows) in
  metric "server.handle_ms.update" (p50 (col (fun r -> r.handle_ms))) "ms";
  metric "incremental.update_ms" (p50 (col (fun r -> r.incremental_ms))) "ms";
  metric "incremental.repaired_frac"
    (sum (fun r -> r.repaired) /. Float.max 1.0 (sum (fun r -> r.clusters)))
    "ratio";
  metric "diam_mine.update_ms" (p50 (col (fun r -> r.stage_one_ms))) "ms";
  metric "store.save_ms" (p50 (col (fun r -> r.save_ms))) "ms";
  metric "store.bytes_per_update"
    (mean (col (fun r -> float_of_int r.store_bytes))) "bytes";
  metric "store.write_amp"
    (mean (col (fun r -> float_of_int r.store_bytes /. float_of_int r.edit_bytes)))
    "ratio";
  col (fun r -> r.pair)

(* Router.handle per kind against two shard workers: the live ones of the
   route-read layout, or in-process ones over a 2-shard split. [after]
   gets the router before it closes. *)
let layer_router pr ~dir ~live ~after reads =
  let with_workers f =
    match live with
    | Some { manifest_file = Some manifest; workers; _ } ->
      f (Partition.load_manifest manifest)
        (Array.of_list (List.map (fun (_, port) -> ("127.0.0.1", port)) workers))
    | _ ->
      let base = Filename.concat dir "traced-shards" in
      let manifest = Partition.write ~base ~shards:2 pr.store in
      let workers =
        Array.init 2 (fun i ->
            Worker.start ~jobs:1
              (Store.load_mapped (Partition.shard_file ~base ~shard:i ~shards:2)))
      in
      Fun.protect
        ~finally:(fun () -> Array.iter Worker.stop workers)
        (fun () ->
          f manifest (Array.map (fun w -> ("127.0.0.1", Worker.port w)) workers))
  in
  with_workers (fun manifest endpoints ->
      let router = Router.create ~deadline:30.0 ~manifest ~endpoints () in
      Fun.protect
        ~finally:(fun () -> Router.close router)
        (fun () ->
          let timed =
            List.map
              (fun req ->
                let t0 = now () in
                outcome (Load.judge (Trace.span "router.handle" (fun () -> Router.handle router req)));
                (Inputs.kind_of_request req, 1e6 *. (now () -. t0)))
              reads
          in
          let contacted, pruned = Router.pruning router in
          metric "router.contacted_frac"
            (float_of_int contacted /. float_of_int (max 1 (contacted + pruned)))
            "ratio";
          let of_kind k = List.filter_map (fun (k', x) -> if k = k' then Some x else None) timed in
          List.iter
            (fun k -> metric ("router.handle_us." ^ Inputs.kind_name k) (p50 (of_kind k)) "us")
            Inputs.read_kinds;
          after router))

(* An open-loop pass of the read mix at a low rate against a live port:
   the generator's lag. *)
let client_pass ~port reads =
  let reqs = Array.of_list reads in
  let samples =
    Trace.span "client.pass" (fun () ->
        Load.open_loop ~port ~conns:2
          ~due:(Load.at_rate ~rate:100.0 (Array.length reqs))
          ~reqs ~expected:(fun _ -> None) ())
  in
  List.iter (fun s -> outcome s.Load.outcome) samples;
  metric "loadgen.lag_p99_ms"
    (Rules.at_most (List.map (fun s -> 1000.0 *. s.Load.lag) samples) 99.0)
    "ms"

(* The socket path per read kind. One request of each kind goes
   [wire_reps] times through the live front over one connection, each time
   followed by the same request through the in-process handler [handle]
   and through the codec, so the three timings see the same warm caches
   and the same moment of the host. wire.us is the p50 of the client round
   trip minus the p50s of the handler and of the codec (request encode and
   decode, response encode and decode): what is left is the socket, the
   framing and the connection threads. *)
let wire_reps = 60

let layer_wire ~port ~handle reads =
  let conn = Load.connect port in
  Fun.protect
    ~finally:(fun () -> Load.close conn)
    (fun () ->
      List.iter
        (fun k ->
          let req = List.find (fun r -> Inputs.kind_of_request r = k) reads in
          let rows =
            List.init wire_reps (fun i ->
                let timed name f = time (fun () -> Trace.span ~req:i name f) in
                let resp, client = timed "wire.client" (fun () -> Load.call conn req) in
                outcome (Load.judge resp);
                let local, handled = timed "wire.handle" (fun () -> handle req) in
                let _, codec =
                  timed "wire.codec" (fun () ->
                      ignore (Protocol.decode_request (Protocol.encode_request req));
                      Protocol.decode_response (Protocol.encode_response local))
                in
                (client, handled, codec))
          in
          let col f = p50 (List.map f rows) in
          metric
            ("wire.us." ^ Inputs.kind_name k)
            (1e6
            *. (col (fun (c, _, _) -> c) -. col (fun (_, h, _) -> h)
               -. col (fun (_, _, c) -> c)))
            "us")
        Inputs.read_kinds)

(* A loopback server in this process, for workloads without a live one. *)
let with_loopback_server pr f =
  let server = Server.create ~jobs:1 () in
  Server.set_store server pr.store;
  let fd, port = Server.listen ~port:0 () in
  let th = Thread.create (fun () -> Server.serve server fd) () in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Load.connect port in
         ignore (Load.call c Protocol.Shutdown);
         Load.close c
       with _ -> ());
      Thread.join th)
    (fun () -> f port)

let traced ~dir ~seed ~workload =
  let live, pr =
    match workload with
    | "route-read" ->
      let l = start_routed ~dir ~seed in
      (Some l, l.pr)
    | "serve-update" ->
      let l = start_single ~dir ~seed in
      (Some l, l.pr)
    | _ ->
      ( None,
        prepare_mine ~dir ~seed ~params:Inputs.fig14_params
          ~instance:Inputs.fig14 )
  in
  Fun.protect
    ~finally:(fun () -> Option.iter teardown_layout live)
    (fun () ->
      print_digests pr;
      outcome (if pr.mine_ok then Rules.Correct else Rules.Error);
      let reads =
        Array.to_list (Inputs.read_schedule ~seed ~count:300 pr.graph pr.store)
      in
      let edits =
        Inputs.edit_script ~seed ~count:(if workload = "mine-fig14" then 2 else 10) pr.inst
      in
      digest "request schedule" (Inputs.schedule_digest (Array.of_list reads));
      digest "edit script" (Inputs.edits_digest edits);
      (* The client pass comes first, while the live processes are fresh. *)
      let front f =
        match live with
        | Some l -> f (snd l.front)
        | None -> with_loopback_server pr f
      in
      front (fun port -> client_pass ~port reads);
      let patterns, counts = layer_pipeline pr ~tmp:(Filename.concat dir "traced.store") in
      if workload = "mine-fig14" then
        check "pinned level_grow counts" (counts = fig14_pinned_counts);
      layer_patterns pr.graph patterns;
      let loads =
        spans "store.load_mapped" Store.load_mapped
          [ pr.store_file; pr.store_file; pr.store_file ]
      in
      metric "store.load_mapped_s" (Rules.median loads) "s";
      layer_index pr.store.Store.patterns reads;
      let server, handled = layer_server pr reads in
      (* The front of route-read is the router; of the others, a server. *)
      layer_router pr ~dir ~live reads ~after:(fun router ->
          if workload = "route-read" then
            front (fun port -> layer_wire ~port ~handle:(Router.handle router) reads));
      if workload <> "route-read" then
        front (fun port -> layer_wire ~port ~handle:(Server.handle server) reads);
      let update_pairs = layer_updates pr ~edits ~dir in
      layer_protocol (handled @ update_pairs))

(* ===================== Main ===================== *)

let workloads = [ "mine-fig14"; "route-read"; "serve-update" ]

let json_result () =
  let failed = Rules.failed_count !outcomes in
  let fields =
    List.rev_map
      (fun (name, value, unit_) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_)
      !metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!checks_failed = [] && failed = 0)
    (List.length !outcomes) failed
    (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: bench.exe --workload mine-fig14|route-read|serve-update --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: n :: rest -> seconds := int_of_string n; parse rest
    | "--trace" :: n :: rest -> trace := int_of_string n; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds < 1
     || not (List.mem !trace [ 0; 1 ])
  then usage ();
  if not (Sys.file_exists cli) then begin
    prerr_endline ("bench: " ^ cli ^ " is missing; run perfbench/run.sh");
    exit 2
  end;
  (* Children die with the benchmark, whatever ends it. *)
  let on_signal _ =
    Proc.kill_all ();
    exit 3
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.kill_all;
  if not (Sys.file_exists out_root) then Unix.mkdir out_root 0o755;
  let dir =
    Filename.concat out_root
      (Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Printf.printf "workload %s, seed %d, %d s, trace %d\n%!" !workload !seed
    !seconds !trace;
  let seconds = float_of_int !seconds in
  let ok =
    match
      if !trace = 1 then begin
        traced ~dir ~seed:!seed ~workload:!workload;
        let path =
          Filename.concat out_root
            (Printf.sprintf "trace-%s-%d.json" !workload !seed)
        in
        Trace.write path;
        Printf.printf "  spans written to %s\n" path
      end
      else
        match !workload with
        | "mine-fig14" -> fig14_e2e ~dir ~seed:!seed ~seconds
        | "route-read" -> route_read_e2e ~dir ~seed:!seed ~seconds
        | _ -> serve_update_e2e ~dir ~seed:!seed ~seconds
    with
    | () -> true
    | exception e ->
      Printf.printf "bench: %s\n%!" (Printexc.to_string e);
      false
  in
  Proc.kill_all ();
  remove_tree dir;
  if not ok || !outcomes = [] then exit 1;
  report "failed_frac" (Rules.failed_frac !outcomes) "ratio";
  List.iter
    (fun (name, value, unit_) -> report name value unit_)
    (List.rev !metrics);
  print_endline (json_result ())
