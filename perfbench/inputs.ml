(* Seeded inputs for the three workloads.

   Each workload's data graph has a fixed structure: the Fig 14-15 sweep
   graph of the scalability experiment, or the serving corpus of the
   cluster experiment, both at that experiment's default seed (2013). The
   workload seed renumbers its vertices with a random permutation, so the
   program under test reads different bytes for every seed but solves the
   same mining problem. Two other choices were measured and rejected:
   - A fresh structure per seed: at n=2000 the mining time of
     [sweep_graph] ranges from 1.1 s to 14.9 s over seeds 0..4 and 2013, so
     run-to-run figures would measure the generator, not the program.
   - Also permuting label names: the mined result is not invariant under
     it (the serving corpus yields 986 patterns under its own labels and
     516-523 under three random renamings), so it changes the problem.
   Seed 0 is the identity renumbering.

   Everything else a run sends (lookup keys, probe graphs, the edit
   script, the order of requests) is drawn from the workload seed. *)

open Spm_graph
module Protocol = Spm_server.Protocol
module Store = Spm_store.Store
module Skinny_mine = Spm_core.Skinny_mine

let structure_seed = 2013

(* Exp_scalability.sweep_graph. *)
let sweep_graph ~seed ~n ~deg ~f ~l =
  let st = Gen.rng (seed + n) in
  let bg = Gen.erdos_renyi st ~n ~avg_degree:deg ~num_labels:f in
  let b = Graph.Builder.of_graph bg in
  let pat =
    Gen.random_skinny_pattern st ~backbone:l ~delta:1 ~twigs:2 ~num_labels:f
  in
  ignore (Gen.inject st b ~pattern:pat ~copies:2 ());
  Graph.Builder.freeze b

(* Exp_cluster.serving_graph. *)
let serving_graph ~seed ~n ~f =
  let st = Gen.rng (seed + n) in
  let bg = Gen.erdos_renyi st ~n ~avg_degree:2.0 ~num_labels:f in
  let b = Graph.Builder.of_graph bg in
  for _ = 1 to 4 do
    let pat =
      Gen.random_skinny_pattern st ~backbone:4 ~delta:1 ~twigs:2 ~num_labels:f
    in
    ignore (Gen.inject st b ~pattern:pat ~copies:4 ())
  done;
  Graph.Builder.freeze b

let permutation st n =
  let a = Array.init n Fun.id in
  Gen.shuffle st a;
  a

(* The vertex renumbering of [seed]: vertex [v] becomes [perm.(v)]. *)
let renumbering ~seed n =
  if seed = 0 then Array.init n Fun.id
  else permutation (Gen.rng ((seed * 7919) + 17)) n

let renumber perm g =
  let n = Graph.n g in
  let inv = Array.make n 0 in
  Array.iteri (fun v p -> inv.(p) <- v) perm;
  let b = Graph.Builder.create () in
  for p = 0 to n - 1 do
    ignore (Graph.Builder.add_vertex b (Graph.label g inv.(p)))
  done;
  Graph.iter_edges (fun u v -> Graph.Builder.add_edge b perm.(u) perm.(v)) g;
  Graph.Builder.freeze b

(* A workload's data graph at [seed], and the renumbering that made it
   from the fixed structure. *)
type instance = { base : Graph.t; graph : Graph.t; perm : int array }

let instance ~seed base =
  let perm = renumbering ~seed (Graph.n base) in
  { base; graph = renumber perm base; perm }

type params = { l : int; delta : int; sigma : int; closed : bool }

let fig14_params = { l = 6; delta = 3; sigma = 2; closed = true }
let corpus_params = { l = 4; delta = 2; sigma = 2; closed = false }

let fig14 ~seed =
  instance ~seed
    (sweep_graph ~seed:(structure_seed + 3) ~n:2000 ~deg:3.0 ~f:80 ~l:6)

let corpus ~seed =
  instance ~seed (serving_graph ~seed:structure_seed ~n:300 ~f:30)

let hex s = Digest.to_hex (Digest.string s)

let file_digest path = Digest.to_hex (Digest.file path)

(* --- Read schedule --- *)

type kind = Lookup | Contains | Mine | Update

let kind_name = function
  | Lookup -> "lookup"
  | Contains -> "contains"
  | Mine -> "mine"
  | Update -> "update"

let read_kinds = [ Lookup; Contains; Mine ]

let kind_of_request = function
  | Protocol.Lookup _ -> Lookup
  | Protocol.Contains _ -> Contains
  | Protocol.Mine _ -> Mine
  | Protocol.Update _ -> Update
  | _ -> invalid_arg "Inputs.kind_of_request"

(* Lookup keys: the distinct label multisets of resident patterns, in store
   order, which fixes which keys are hot under the zipf draw. Store order
   does not depend on vertex numbering, so every seed has the same hot
   keys and only the draw differs. *)
let lookup_keys (patterns : Skinny_mine.mined list) =
  let seen = Hashtbl.create 64 in
  let keys =
    List.filter_map
      (fun (m : Skinny_mine.mined) ->
        let k = List.sort compare (Array.to_list (Graph.labels m.pattern)) in
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some k
        end)
      patterns
    |> Array.of_list
  in
  keys

(* A probe for [Contains]: the subgraph induced by the first [size]
   vertices of a randomized BFS from a random root. *)
let probe_graph st g ~size =
  let n = Graph.n g in
  let seen = Array.make n false in
  let order = ref [] and count = ref 0 in
  let queue = Queue.create () in
  let visit v =
    if (not seen.(v)) && !count < size then begin
      seen.(v) <- true;
      incr count;
      order := v :: !order;
      Queue.add v queue
    end
  in
  visit (Random.State.int st n);
  while (not (Queue.is_empty queue)) && !count < size do
    let nbrs = Graph.adj g (Queue.pop queue) in
    Gen.shuffle st nbrs;
    Array.iter visit nbrs
  done;
  (* A disconnected corner of the graph leaves the BFS short: top up with
     random vertices so every probe has [size] vertices. *)
  while !count < size && !count < n do
    visit (Random.State.int st n)
  done;
  Graph.induced g (Array.of_list (List.rev !order))

(* [count] requests: 80% zipf(s = 1.2) lookups, 15% contains on distinct
   80-vertex probes, 5% the resident mine; only the lookups with
   [lookups_only]. The kinds follow a fixed 20-slot pattern instead of a
   random draw: which requests queue behind a resident mine then depends
   on the program, not on the draw. *)
let slot_kind i =
  match i mod 20 with 10 -> Mine | 3 | 9 | 16 -> Contains | _ -> Lookup

let read_schedule ?(lookups_only = false) ~seed ~count g
    (s : Store.pattern_store) =
  let st = Gen.rng (seed * 31 + 5) in
  let keys = lookup_keys s.Store.patterns in
  let zipf =
    Spm_workload.Sampler.zipf ~s:1.2 ~seed:(seed + 101)
      ~n:(Array.length keys) ()
  in
  let probes = Hashtbl.create 256 in
  let rec fresh_probe () =
    let p = probe_graph st g ~size:(min 80 (Graph.n g)) in
    let key = Io.to_string p in
    if Hashtbl.mem probes key then fresh_probe ()
    else begin
      Hashtbl.add probes key ();
      p
    end
  in
  let resident =
    Protocol.Mine
      (Protocol.mine_params ~closed_growth:s.Store.closed_growth ~l:s.Store.l
         ~delta:s.Store.delta ~sigma:s.Store.sigma ())
  in
  Array.init count (fun i ->
      match if lookups_only then Lookup else slot_kind i with
      | Contains -> Protocol.Contains (fresh_probe ())
      | Mine -> resident
      | _ ->
        Protocol.Lookup
          (Protocol.lookup_params
             ~labels:keys.(Spm_workload.Sampler.next zipf)
             ()))

(* One-edge toggles: update 2i adds a non-edge (u_i, v_i) and update 2i+1
   removes it again, so the graph is back at its base after every second
   update. The set of pairs is drawn once from the fixed structure and
   carried through the seed's renumbering; the seed orders them, and a
   long script cycles through them, so a whole cycle adds and removes
   every pair once. The cost of an update depends on which
   clusters its edge touches, so drawing pairs per seed would make the
   run-to-run spread of update latency a property of the draw. *)
let toggle_pairs = 50

let edit_script ~seed ~count inst =
  let st = Gen.rng structure_seed in
  let n = Graph.n inst.base in
  let rec non_edge () =
    let u = Random.State.int st n and v = Random.State.int st n in
    if u = v || Graph.has_edge inst.base u v then non_edge ()
    else (inst.perm.(u), inst.perm.(v))
  in
  let pairs = Array.init toggle_pairs (fun _ -> non_edge ()) in
  (* The first pair keeps its place: a server's warm-up update adds it, so
     every seed warms up with the same edit. *)
  let rest = Array.sub pairs 1 (toggle_pairs - 1) in
  Gen.shuffle (Gen.rng ((seed * 13) + 3)) rest;
  Array.blit rest 0 pairs 1 (toggle_pairs - 1);
  Array.init count (fun i ->
      let u, v = pairs.(i / 2 mod toggle_pairs) in
      if i mod 2 = 0 then [ Delta.Add_edge (u, v) ]
      else [ Delta.Remove_edge (u, v) ])

let schedule_digest reqs =
  hex (String.concat "" (Array.to_list (Array.map Protocol.encode_request reqs)))

let edits_digest edits =
  hex (Io.edits_to_string (List.concat (Array.to_list edits)))

(* A payload in a form two answers can be compared by: the response codec
   over a neutral envelope. *)
let payload_bytes (p : Protocol.payload) =
  Protocol.encode_response (Protocol.response p)
