(* Self-test of the benchmark's reporting rules on synthetic samples. *)

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

let range n = List.init n (fun i -> float_of_int (i + 1))

let percentile_rule () =
  (* The highest percentile with at least ten samples beyond it. *)
  List.iter
    (fun (n, p) ->
      expect
        (Printf.sprintf "tail percentile of %d samples is p%g" n p)
        (Rules.tail_percentile n = p))
    [ (1, 50.0); (20, 50.0); (99, 50.0); (100, 90.0); (999, 90.0);
      (1000, 99.0); (9999, 99.0); (10000, 99.9) ];
  let s = Rules.summarize (List.rev (range 100)) in
  expect "p50 of 1..100 is 50" (s.Rules.p50 = 50.0);
  expect "tail of 1..100 is p90 = 90" (s.Rules.tail_p = 90.0 && s.Rules.tail = 90.0);
  expect "p99 asked of 100 samples falls back to p90"
    (Rules.at_most (range 100) 99.0 = 90.0);
  expect "p99 of 1..1000 is 990" (Rules.at_most (range 1000) 99.0 = 990.0);
  expect "median of one sample" (Rules.median [ 7.0 ] = 7.0);
  expect "median of no samples is refused"
    (match Rules.median [] with _ -> false | exception Invalid_argument _ -> true)

let step ?(tail = 5.0) ?(failed = 0) ?(lag = (0.1, 0.2)) rate =
  { Rules.rate; lookup_tail_ms = tail; failed; lag_first_ms = fst lag;
    lag_last_ms = snd lag }

let capacity_rule () =
  let cap = Rules.capacity ~limit_ms:20.0 in
  expect "all rungs hold" (cap [ step 100.0; step 200.0; step 400.0 ] = 400.0);
  expect "latency over the limit ends the ladder"
    (cap [ step 100.0; step 200.0; step ~tail:25.0 400.0; step 800.0 ] = 200.0);
  expect "a failed request ends the ladder"
    (cap [ step 100.0; step ~failed:1 200.0 ] = 100.0);
  expect "a growing backlog ends the ladder"
    (cap [ step 100.0; step ~lag:(1.0, 40.0) 200.0 ] = 100.0);
  expect "rung order does not matter"
    (cap [ step 400.0; step ~tail:30.0 200.0; step 100.0 ] = 100.0);
  expect "no rung holds" (cap [ step ~tail:50.0 100.0 ] = 0.0)

let failed_counting () =
  let open Rules in
  let os = [ Correct; Wrong; Correct; Not_ok; Error; Timeout; Correct; Correct ] in
  expect "every non-correct outcome counts as failed" (failed_count os = 4);
  expect "failed_frac is failed over attempted" (failed_frac os = 0.5);
  expect "all correct is 0" (failed_frac [ Correct; Correct ] = 0.0);
  expect "nothing attempted is refused"
    (match failed_frac [] with _ -> false | exception Invalid_argument _ -> true)

let self_time () =
  let mk id parent start stop =
    { Trace.id; name = "s"; parent; req = -1; start; stop }
  in
  let parent = mk 0 (-1) 0.0 10.0 in
  let spans =
    [ parent; mk 1 0 1.0 3.0; mk 2 0 2.0 5.0; mk 3 0 7.0 8.0; mk 4 1 1.0 2.0 ]
  in
  let self = Trace.self_times spans in
  expect "self time subtracts the union of child spans" (self parent = 5.0);
  expect "a leaf's self time is its duration" (self (List.nth spans 3) = 1.0);
  expect "grandchildren count only against their parent"
    (self (List.nth spans 1) = 1.0)

let () =
  percentile_rule ();
  capacity_rule ();
  failed_counting ();
  self_time ();
  if !failures > 0 then exit 1;
  print_endline "perfbench self-test: ok"
