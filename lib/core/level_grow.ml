open Spm_graph
open Spm_pattern

type mined = {
  pattern : Pattern.t;
  support : int;
  levels : int array;
  diameter_labels : Path_pattern.t;
}

type stats = {
  extensions_tried : int;
  constraint_rejected : int;
  infrequent : int;
  emitted : int;
  interrupted : bool;
  seconds : float;
}

type pstate = {
  pattern : Pattern.t;
  levels : int array; (* true distance to the diameter path [0..l] *)
  idx : Distance_index.t;
  maps : int array list; (* all mappings pattern vertex -> data vertex *)
  support : int;
}

(* |E[P]| from the complete mapping list: for a connected pattern every
   image subgraph accounts for exactly |Aut(P)| mappings, so the
   distinct-subgraph count is a division — no per-mapping dedup hashing.
   The plans carrying the automorphism groups are cached per grow call,
   keyed by canonical code. *)
let default_support data =
  let plans = Plan.Cache.create () in
  let freq l = Graph.label_freq data l in
  fun pattern maps ->
    match maps with
    | [] -> 0
    | _ -> List.length maps / Plan.Cache.aut_count plans ~freq pattern

(* Per-grow scratch: the relaxation queue and the embedding-image arrays are
   allocated once per [grow] call and reused across every state and
   embedding, instead of a fresh Queue / Hashtbl per extension. The image
   marks are stamp-based: each embedding bumps [stamp] and writes it at its
   image vertices (and their pattern vertex into [preimage]), so membership
   is one array probe and no clearing pass. *)
type scratch = {
  relax_queue : int Queue.t;
  mark : int array; (* sized to the data graph *)
  preimage : int array; (* valid where [mark] holds the current stamp *)
  mutable stamp : int;
}

let make_scratch data =
  let n = max 1 (Graph.n data) in
  {
    relax_queue = Queue.create ();
    mark = Array.make n 0;
    preimage = Array.make n 0;
    stamp = 0;
  }

(* One extension of a state: its pre-build verdict, how many of the
   state's mappings cover it, and — unless the verdict is [Reject], which
   needs nothing more — the child's mappings. *)
type cand = {
  ext : Constraints.extension;
  verdict : Constraints.verdict;
  mutable maps : int array list;
  mutable covered : int;
  mutable last : int; (* index of the last mapping counted in [covered] *)
}

(* Int keys compared by [Int.equal], not the polymorphic compare: this
   lookup runs once per (embedding, neighbor). *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Enumerate extension candidates for one state, grouped by extension and
   judged by [decide] the first time each is seen. Twigs may hang off any
   vertex whose level leaves room under delta; closing edges may join any
   non-adjacent pair whose images are adjacent in the data graph. Each
   extension has an int key — a leaf (host, label) is [host * nl + label], a
   closing edge (u, v) with u < v follows at [np * nl + u * np + v] — so the
   lookup per embedding allocates nothing, and ascending keys give the
   deterministic order: leaves by (host, label), then closing edges. *)
let candidates run scratch data (st : pstate) ~delta ~decide =
  let nl = Graph.num_labels data and np = Graph.n st.pattern in
  let leaves = np * nl in
  let by_key : cand Itbl.t = Itbl.create 64 in
  let cover i key =
    let c =
      match Itbl.find by_key key with
      | c -> c
      | exception Not_found ->
        let ext =
          if key < leaves then
            Constraints.New_leaf { host = key / nl; label = key mod nl }
          else Close ((key - leaves) / np, (key - leaves) mod np)
        in
        let c =
          { ext; verdict = decide ext; maps = []; covered = 0; last = -1 }
        in
        Itbl.add by_key key c;
        c
    in
    if c.last <> i then begin
      c.covered <- c.covered + 1;
      c.last <- i
    end;
    c
  in
  let adjacent = Array.make (np * np) false in
  Graph.iter_edges
    (fun u v ->
      adjacent.((u * np) + v) <- true;
      adjacent.((v * np) + u) <- true)
    st.pattern;
  (* One pass over the images' data neighbors: an unmarked neighbor is a
     twig, a marked one closes an edge when its pattern vertices are not
     adjacent (found from the larger end only, so once). *)
  List.iteri
    (fun i m ->
      Spm_engine.Run.check run;
      scratch.stamp <- scratch.stamp + 1;
      let s = scratch.stamp in
      Array.iteri
        (fun pv tv ->
          scratch.mark.(tv) <- s;
          scratch.preimage.(tv) <- pv)
        m;
      for pv = 0 to np - 1 do
        let twigs = st.levels.(pv) <= delta - 1 in
        Graph.iter_adj data m.(pv) (fun w ->
            if scratch.mark.(w) <> s then begin
              if twigs then begin
                let c = cover i ((pv * nl) + Graph.label data w) in
                if c.verdict <> Constraints.Reject then
                  c.maps <- Array.append m [| w |] :: c.maps
              end
            end
            else begin
              let pu = scratch.preimage.(w) in
              if pu < pv && not adjacent.((pu * np) + pv) then begin
                let c = cover i (leaves + (pu * np) + pv) in
                if c.verdict <> Constraints.Reject then c.maps <- m :: c.maps
              end
            end)
      done)
    st.maps;
  Itbl.fold (fun key c acc -> (key, c) :: acc) by_key []
  |> List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)
  |> List.map snd

(* Levels (distance to the diameter) stay exact: a fresh leaf sits one above
   its host; a closing edge can only lower levels. *)
let apply_ext scratch st ext =
  match ext with
  | Constraints.New_leaf { host; label } ->
    let pattern = Pattern.extend_new_vertex st.pattern ~host ~label in
    let idx = Distance_index.extend_new_vertex st.idx ~host in
    let levels = Array.append st.levels [| st.levels.(host) + 1 |] in
    (pattern, idx, levels)
  | Close (u, v) ->
    let queue = scratch.relax_queue in
    let pattern = Pattern.extend_close_edge st.pattern u v in
    let idx = Distance_index.extend_close_edge ~queue pattern st.idx u v in
    let levels = Array.copy st.levels in
    Distance_index.relax queue pattern levels u v;
    (pattern, idx, levels)

(* An extension is "universal" for a state when every embedding of the
   pattern supports it — extending by it cannot reduce the support, so every
   closed superpattern contains it. Closed growth applies such extensions
   eagerly without branching (the item-merging jump of closed-pattern
   mining), collapsing the twig powerset the complete semantics enumerates. *)
let universal_exts (st : pstate) cands =
  let total = List.length st.maps in
  List.filter (fun c -> c.covered = total) cands

let grow ?(mode = Constraints.Exact) ?(family = Constraints.Skinny)
    ?(closed_growth = false) ?support ?run ~data ~sigma ~delta
    ~(entry : Diam_mine.entry) () =
  let run =
    match run with Some r -> r | None -> Spm_engine.Run.create ()
  in
  let t0 = Spm_engine.Clock.now () in
  let support_fn =
    match support with Some f -> f | None -> default_support data
  in
  let scratch = make_scratch data in
  let l = Path_pattern.length entry.Diam_mine.labels in
  let diameter_pattern = Path_pattern.to_pattern entry.Diam_mine.labels in
  let tried = ref 0 and rejected = ref 0 and infreq = ref 0 in
  let init_maps =
    let embs = entry.Diam_mine.embeddings in
    (* A length-0 path ([l = 0], the neighborhood family's single center) is
       trivially a palindrome but has only one orientation per embedding —
       doubling would double-count |maps| against |Aut|. *)
    if l > 0 && Path_pattern.is_palindrome entry.Diam_mine.labels then
      List.concat_map
        (fun e ->
          let r = Array.init (Array.length e) (fun k -> e.(Array.length e - 1 - k)) in
          [ e; r ])
        embs
    else embs
  in
  let init =
    {
      pattern = diameter_pattern;
      levels = Array.make (l + 1) 0;
      idx = Distance_index.init diameter_pattern ~head:0 ~tail:l;
      maps = init_maps;
      support = support_fn diameter_pattern init_maps;
    }
  in
  (* Unique generation: every pattern whose key is in [decided] has been
     judged exactly once (accepted or infrequent); verdicts are
     derivation-independent, so re-derivations are skipped. *)
  let decided : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let out = ref [] in
  let interrupted = ref false in
  (* [full] = this run's emission budget is spent: stop exploring but finish
     normally (status Ok — a budget is an output cap, not an interruption). *)
  let full = ref (Spm_engine.Run.budget_exhausted run) in
  (* Edgeless patterns (the neighborhood family's bare center seed) are
     growth states, never results: every reported pattern has >= 1 edge. A
     no-op for skinny, whose seeds carry l >= 1 edges. *)
  let emit st =
    if (not !full) && Pattern.size st.pattern > 0 then begin
      out :=
        {
          pattern = st.pattern;
          support = st.support;
          levels = st.levels;
          diameter_labels = entry.Diam_mine.labels;
        }
        :: !out;
      Spm_engine.Run.emit run;
      if Spm_engine.Run.budget_exhausted run then full := true
    end
  in
  Hashtbl.replace decided (Canon.key init.pattern) ();
  (* Build one child of [par]'s state; [`Dup] = pattern already judged
     elsewhere. Every call counts as one tried extension, built or not. *)
  let build_child par st c =
    incr tried;
    Spm_engine.Run.tick run;
    (* Constraints first: rejections are by far the most common outcome and
       must pay for neither the build nor canonicalization. (Verdicts depend
       on WHICH vertices carry the diameter — two isomorphic constructions
       can differ, e.g. a paw built as triangle-on-the-diameter vs
       triangle-on-a-twig — so a rejection must NOT be memoized; only
       acceptance and infrequency are pattern-intrinsic.) *)
    let built =
      match c.verdict with
      | Constraints.Reject -> None
      | Admit -> Some (apply_ext scratch st c.ext)
      | Confirm ->
        let ((pattern', _, _) as child) = apply_ext scratch st c.ext in
        if Constraints.confirm ~mode par ~pattern' c.ext then Some child
        else None
    in
    match built with
    | None ->
      incr rejected;
      `Rejected
    | Some (pattern', idx', levels') ->
      let key = Canon.key pattern' in
      if Hashtbl.mem decided key then `Dup
      else begin
        Hashtbl.replace decided key ();
        let support = support_fn pattern' c.maps in
        if support < sigma then begin
          incr infreq;
          `Infrequent
        end
        else
          `Child
            {
              pattern = pattern';
              levels = levels';
              idx = idx';
              maps = c.maps;
              support;
            }
      end
  in
  let rec closure frontier =
    match frontier with
    | [] -> ()
    | st :: rest when not !full ->
      Spm_engine.Run.check run;
      Spm_engine.Run.set_level run (Graph.m st.pattern);
      (* [delta] is the radius r for the neighborhood family. *)
      let par =
        Constraints.parent family ~pattern:st.pattern ~idx:st.idx
          ~bound:(match family with Skinny -> l | Neighborhood _ -> delta)
      in
      let cands =
        candidates run scratch data st ~delta
          ~decide:(Constraints.decide ~mode par)
      in
      if closed_growth then begin
        (* Eager phase: the first applicable support-preserving extension
           replaces the state without emitting it (the parent cannot be
           closed); universal children whose support grows are kept as
           ordinary branches. A duplicate universal means an isomorphic
           continuation is handled elsewhere. *)
        let rec eager stash = function
          | [] -> `NoUniversal stash
          | cand :: more -> (
            match build_child par st cand with
            | `Child st' when st'.support = st.support -> `Jump (st', stash)
            | `Child st' -> eager (st' :: stash) more
            | `Dup -> `Covered stash
            | `Rejected | `Infrequent -> eager stash more)
        in
        match eager [] (universal_exts st cands) with
        | `Jump (st', stash) -> closure ((st' :: stash) @ rest)
        | `Covered stash -> closure (stash @ rest)
        | `NoUniversal stash ->
          emit st;
          let children =
            List.filter_map
              (fun cand ->
                match build_child par st cand with
                | `Child st' -> Some st'
                | `Dup | `Rejected | `Infrequent -> None)
              cands
          in
          closure (stash @ children @ rest)
      end
      else begin
        let children =
          List.filter_map
            (fun cand ->
              match build_child par st cand with
              | `Child st' ->
                emit st';
                Some st'
              | `Dup | `Rejected | `Infrequent -> None)
            cands
        in
        closure (children @ rest)
      end
    | _ :: _ -> ()
  in
  (* An interrupted run unwinds here via [Run.Cancelled]; [out] survives the
     unwinding, so the patterns emitted before the interruption are returned
     as a partial result with [interrupted = true] in the stats. *)
  (try
     Spm_engine.Run.check run;
     if not closed_growth then emit init;
     if delta >= 0 then closure [ init ]
   with Spm_engine.Run.Cancelled _ -> interrupted := true);
  let result = List.rev !out in
  ( result,
    {
      extensions_tried = !tried;
      constraint_rejected = !rejected;
      infrequent = !infreq;
      emitted = List.length result;
      interrupted = !interrupted;
      seconds = Spm_engine.Clock.now () -. t0;
    } )
