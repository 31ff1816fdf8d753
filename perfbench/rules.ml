(* The benchmark's reporting rules, kept pure so the self-test can check
   them on synthetic samples. *)

(* Nearest-rank percentile of an ascending array, [p] in [0, 100]. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Rules.nearest_rank: no samples";
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_copy xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The tail a sample can support: the highest of these percentiles that
   still has at least ten samples beyond it. *)
let tail_candidates = [ 99.9; 99.0; 90.0; 50.0 ]

let tail_percentile n =
  match
    List.find_opt
      (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 -. 1e-9)
      tail_candidates
  with
  | Some p -> p
  | None -> 50.0

type summary = { count : int; p50 : float; tail_p : float; tail : float }

let summarize xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  let tail_p = tail_percentile n in
  { count = n; p50 = nearest_rank a 50.0; tail_p; tail = nearest_rank a tail_p }

(* The value at [p] when the sample supports it (ten or more samples beyond
   [p]), else at the sample's own tail percentile. *)
let at_most xs p =
  let a = sorted_copy xs in
  nearest_rank a (Float.min p (tail_percentile (Array.length a)))

let median xs = nearest_rank (sorted_copy xs) 50.0

(* Outcome of one operation. Anything but [Correct] counts as failed: a
   wrong answer, a non-Ok status, an error payload, a transport error or a
   timeout. *)
type outcome = Correct | Wrong | Not_ok | Error | Timeout

let failed_count outcomes =
  List.length (List.filter (fun o -> o <> Correct) outcomes)

let failed_frac outcomes =
  match outcomes with
  | [] -> invalid_arg "Rules.failed_frac: nothing attempted"
  | _ ->
    float_of_int (failed_count outcomes) /. float_of_int (List.length outcomes)

(* One ladder step of an open-loop run. *)
type step = {
  rate : float;  (** offered requests per second *)
  lookup_tail_ms : float;  (** lookup latency at the step's tail percentile *)
  failed : int;
  lag_first_ms : float;  (** median send lag over the first tenth *)
  lag_last_ms : float;  (** median send lag over the last tenth *)
}

(* A step holds when lookups meet the latency limit, nothing failed, and
   the backlog did not grow: the generator was not sending later at the end
   of the step than at its start by more than the limit. *)
let step_holds ~limit_ms s =
  s.lookup_tail_ms < limit_ms && s.failed = 0
  && s.lag_last_ms -. s.lag_first_ms < limit_ms

(* The highest rate up to which every step holds; 0 when even the lowest
   step fails. *)
let capacity ~limit_ms steps =
  let steps = List.sort (fun a b -> compare a.rate b.rate) steps in
  let rec go best = function
    | s :: rest when step_holds ~limit_ms s -> go s.rate rest
    | _ -> best
  in
  go 0.0 steps
