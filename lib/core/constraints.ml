open Spm_graph

type mode = Naive | Paper | Exact

type extension =
  | New_leaf of { host : int; label : Label.t }
  | Close of int * int

type family = Skinny | Neighborhood of { center : Label.t option }

let family_name = function
  | Skinny -> "skinny"
  | Neighborhood _ -> "neighborhood"

type verdict = Reject | Admit | Confirm

(* What a leaf at one host does to the identity diameter, for every label at
   once. [Boundary]: the host's eccentricity is l - 1, so the new leaf ends
   fresh realizing paths; the label decides (see [leaf_verdict]). *)
type leaf_rule =
  | Reject_all
  | Admit_all
  | Boundary of { out_lt : bool; in_eq : bool }

type parent = {
  pattern : Spm_pattern.Pattern.t;
  idx : Distance_index.t;
  family : family;
  bound : int;
  mutable dist : int array array option; (* all pairs, computed on demand *)
  rules : leaf_rule option array; (* per host, computed on demand *)
}

let parent family ~pattern ~idx ~bound =
  {
    pattern;
    idx;
    family;
    bound;
    dist = None;
    rules = Array.make (Graph.n pattern) None;
  }

let distances par =
  match par.dist with
  | Some d -> d
  | None ->
    let d = Bfs.dist_matrix par.pattern in
    par.dist <- Some d;
    d

let identity_path l = Array.init (l + 1) (fun i -> i)

let check_naive p' ~l = Canonical_diameter.compute p' = identity_path l

(* The optimized modes verify canonicity with the pruned DAG search. *)
let check_fast p' ~l = Canonical_diameter.identity_preserved p' ~l

(* Eccentricity of a vertex within the pattern (BFS). *)
let ecc p v = Array.fold_left max 0 (Bfs.distances p v)

(* Theorem 3, decided in the parent. A leaf u on host h with label a leaves
   every old distance alone and puts u at 1 + d(h, x) from each old x, so the
   child's diameter is max l (1 + ecc h). Past l the leaf breaks Constraint
   I; below l it ends no realizing path, so the realizing paths and the
   verdict are the parent's (admissible by induction). At exactly l the new
   realizing paths are u -> h ~> x and x ~> h -> u for the x with
   d(h, x) = l - 1, and the identity loses iff one of them has a strictly
   smaller label sequence than L (on equal labels it wins the id tiebreak,
   since diameter vertices carry the smallest ids). Both families of paths
   are label-equal-prefix searches on the parent's shortest-path DAG from h,
   independent of a:
   - outward, h ~> x against L[1..l] ([out_lt]: some such path is smaller),
     following only vertices that still reach some x: a smaller-labelled
     branch that reaches none is on no realizing path;
   - inward, x ~> h against L[0..l-1] ([in_eq]: some path ties it; one that
     is smaller rejects every label).
   The leaf's own label then meets only L[0] (as the source of u -> h ~> x)
   and L[l] (as the sink of x ~> h -> u). *)
let leaf_rule par h =
  let l = par.bound in
  if
    Distance_index.dh par.idx h + 1 > l || Distance_index.dt par.idx h + 1 > l
  then Reject_all
  else begin
    let dist = distances par in
    let dh = dist.(h) in
    let e = max 1 (Array.fold_left max 0 dh) in
    if 1 + e > l then Reject_all
    else if 1 + e < l then Admit_all
    else begin
      let p = par.pattern in
      let n = Graph.n p in
      let lbl = Graph.label p in
      let on_route =
        Array.init n (fun w ->
            let rec reaches x =
              x < n
              && ((dh.(x) = l - 1 && dh.(w) + dist.(w).(x) = l - 1)
                 || reaches (x + 1))
            in
            reaches 0)
      in
      let exception Smaller in
      (* Labels from h up to v equal L[1 .. dh v + 1]. *)
      let seen = Array.make n false in
      let rec outward v =
        if not seen.(v) then begin
          seen.(v) <- true;
          Graph.iter_adj p v (fun w ->
              if dh.(w) = dh.(v) + 1 && on_route.(w) then begin
                let c = Label.compare (lbl w) (lbl (dh.(w) + 1)) in
                if c < 0 then raise Smaller else if c = 0 then outward w
              end)
        end
      in
      let out_lt =
        let c = Label.compare (lbl h) (lbl 1) in
        c < 0 || (c = 0 && try outward h; false with Smaller -> true)
      in
      (* Labels from some x down to v equal L[0 .. l - 1 - dh v]; every step
         that lowers dh stays on a shortest x ~> h path. *)
      let seen = Array.make n false in
      let in_eq = ref false in
      let rec inward v =
        if not seen.(v) then begin
          seen.(v) <- true;
          if v = h then in_eq := true
          else
            Graph.iter_adj p v (fun w ->
                if dh.(w) = dh.(v) - 1 then begin
                  let c = Label.compare (lbl w) (lbl (l - 1 - dh.(w))) in
                  if c < 0 then raise Smaller else if c = 0 then inward w
                end)
        end
      in
      match
        for x = 0 to n - 1 do
          if dh.(x) = l - 1 then begin
            let c = Label.compare (lbl x) (lbl 0) in
            if c < 0 then raise Smaller else if c = 0 then inward x
          end
        done
      with
      | () -> Boundary { out_lt; in_eq = !in_eq }
      | exception Smaller -> Reject_all
    end
  end

let leaf_verdict par host label =
  let rule =
    match par.rules.(host) with
    | Some r -> r
    | None ->
      let r = leaf_rule par host in
      par.rules.(host) <- Some r;
      r
  in
  match rule with
  | Reject_all -> Reject
  | Admit_all -> Admit
  | Boundary { out_lt; in_eq } ->
    let lbl = Graph.label par.pattern in
    let c0 = Label.compare label (lbl 0) in
    if
      c0 < 0
      || (c0 = 0 && out_lt)
      || (in_eq && Label.compare label (lbl par.bound) < 0)
    then Reject
    else Admit

(* The Exact decision. A closing edge can shorten paths anywhere, so only
   Constraint II is decided in the parent (the shortcut through the new edge
   must not undercut the head-tail distance); a survivor is built and
   verified with the pruned search. Closing edges are rare beside leaves.
   Under the r-neighborhood family the center is vertex 0 and the index is
   rooted there (head = tail = 0): a leaf is admissible iff it lands within
   r, and a closing edge only shrinks distances. *)
let decide_exact par ext =
  let dh = Distance_index.dh par.idx and dt = Distance_index.dt par.idx in
  match (par.family, ext) with
  | Skinny, New_leaf { host; label } -> leaf_verdict par host label
  | Skinny, Close (u, v) ->
    if min (dh u + 1 + dt v) (dh v + 1 + dt u) < par.bound then Reject
    else Confirm
  | Neighborhood _, New_leaf { host; _ } ->
    if dh host + 1 <= par.bound then Admit else Reject
  | Neighborhood _, Close _ -> Admit

let decide ~mode par ext =
  match (mode, par.family) with
  | Naive, _ | Paper, Skinny -> Confirm
  | (Paper | Exact), Neighborhood _ | Exact, Skinny -> decide_exact par ext

(* The paper's literal checks, on the parent's index. *)
let check_paper par ~pattern' ext =
  let l = par.bound in
  let dh = Distance_index.dh par.idx and dt = Distance_index.dt par.idx in
  match ext with
  | New_leaf { host; _ } ->
    let duh = dh host + 1 and dut = dt host + 1 in
    (* Constraint I (Theorem 1). *)
    duh <= l && dut <= l
    (* Constraint II (Theorem 2). *)
    && duh + dut >= l
    (* Constraint III (Theorem 3 case I): only a host one step short of the
       diameter length can spawn a new same-length diameter. *)
    &&
    let trigger = max (dh host) (dt host) = l - 1 in
    (not trigger) || check_fast pattern' ~l
  | Close (u, v) ->
    (* Constraint I: joining existing vertices never increases distances. *)
    (* Constraint II: the shortcut through the new edge must not undercut
       the head-tail distance (old index values, Theorem 2's argument). *)
    min (dh u + 1 + dt v) (dh v + 1 + dt u) >= l
    (* Constraint III (Theorem 3 case II). *)
    &&
    let trigger = dh u + dt v = l - 1 || dh v + dt u = l - 1 in
    (not trigger) || check_fast pattern' ~l

(* [Naive] recomputes from scratch: the canonical diameter, or the center's
   eccentricity. *)
let confirm ~mode par ~pattern' ext =
  match (mode, par.family) with
  | Naive, Skinny -> check_naive pattern' ~l:par.bound
  | Naive, Neighborhood _ -> ecc pattern' 0 <= par.bound
  | Paper, Skinny -> check_paper par ~pattern' ext
  | Exact, Skinny -> check_fast pattern' ~l:par.bound
  | (Paper | Exact), Neighborhood _ -> true (* [decide] never defers these *)

let check ~mode par ~pattern' ext =
  match decide ~mode par ext with
  | Reject -> false
  | Admit -> true
  | Confirm -> confirm ~mode par ~pattern' ext

let neighborhood_target ?center p ~r =
  Graph.m p >= 1
  && Bfs.is_connected p
  &&
  let n = Graph.n p in
  let ok v =
    (match center with None -> true | Some c -> Graph.label p v = c)
    && ecc p v <= r
  in
  let rec loop v = v < n && (ok v || loop (v + 1)) in
  loop 0
