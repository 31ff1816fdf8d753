(** Canonical-diameter maintenance — Loop Invariant 1 via Constraints I–III
    (§3.3–3.4, Lemma 1, Theorems 1–3).

    The grown pattern always has its canonical diameter on vertices [0..l]
    (head 0, tail l). An edge extension is admissible iff the canonical
    diameter is preserved. Three strategies:

    - [Naive]: recompute the canonical diameter of the extended pattern and
      compare (the "highly inefficient" baseline of §3.3, kept as ground
      truth and for the ablation benchmark).
    - [Paper]: the paper's local checks — Constraint I/II on the D_H/D_T
      indices, Constraint III verified only when Theorem 3's trigger fires.
    - [Exact]: decided from the parent before the child is built — every
      leaf from the parent's distances, a closing edge's Constraint II from
      the parent's index, and the surviving closing edges (rare) by a full
      verification of the built child. This is the default: it never
      reports a pattern under a diameter that is not canonical.

    [Exact] and [Naive] agree on every instance we have property-tested.
    [Paper]'s Theorem-3 trigger restricts new diameters to end at the head
    or tail, and so over-accepts when a new same-length realizing path runs
    between twigs (DESIGN.md §7 finding 2). *)

type mode = Naive | Paper | Exact

type extension =
  | New_leaf of { host : int; label : Spm_graph.Label.t }
      (** fresh vertex (taking the next id) with [label], attached to
          [host] *)
  | Close of int * int  (** new edge between existing vertices *)

(** {1 Constraint families}

    The growth loop is shared between two qualified constraint families; the
    family selects which admissibility check gates each extension. *)

type family =
  | Skinny  (** l-long δ-skinny (Definition 7) — the paper's constraint. *)
  | Neighborhood of { center : Spm_graph.Label.t option }
      (** r-neighborhood (Han & Wen): every vertex within distance r of a
          labeled center. [center] restricts Stage-I seeds to one label;
          [None] seeds every label present in the data graph. *)

val family_name : family -> string
(** ["skinny"] or ["neighborhood"] — the CLI / protocol spelling. *)

(** {1 Deciding before building} *)

type parent
(** A growth state about to be extended: its pattern (canonical under the
    family by induction), its distance index, and the all-pairs distances
    and per-host leaf rules, each computed on first use and then shared by
    every extension of the state. *)

val parent :
  family ->
  pattern:Spm_pattern.Pattern.t ->
  idx:Distance_index.t ->
  bound:int ->
  parent
(** [bound] is l for [Skinny] (the diameter is vertices [0..l]) and the
    radius r for [Neighborhood] (the center is vertex 0 and the index is
    rooted there, head = tail = 0, so [Distance_index.dh] is exact
    distance-to-center). *)

type verdict =
  | Reject  (** inadmissible: do not build the child *)
  | Admit  (** admissible: build the child, no further check *)
  | Confirm  (** build the child, then {!confirm} decides *)

val decide : mode:mode -> parent -> extension -> verdict
(** The verdict from the parent alone. [Exact] decides every leaf here
    (Constraints I–III are local: the child's new realizing paths all end at
    the leaf, and two label-equal-prefix searches per host on the parent's
    shortest-path DAG settle every label at once) and rejects a closing edge
    that breaks Constraint II; only the other closing edges are [Confirm].
    Under [Neighborhood], [Paper] and [Exact] decide everything here (a leaf
    is admissible iff it lands within r; a closing edge always is). [Naive]
    and skinny [Paper] always answer [Confirm]: they judge the built
    child. *)

val confirm :
  mode:mode -> parent -> pattern':Spm_pattern.Pattern.t -> extension -> bool
(** The post-build half, for a [Confirm] verdict; [pattern'] is the
    extended pattern. [Exact]: the identity path is still the canonical
    diameter ({!Canonical_diameter.identity_preserved}). [Paper]: the
    paper's local checks, Constraint III verified only when Theorem 3's
    trigger fires. [Naive]: recompute the canonical diameter (or the
    center's eccentricity) of [pattern'] and compare — the "highly
    inefficient" baseline of §3.3, kept as ground truth and for the
    ablation. *)

val check :
  mode:mode -> parent -> pattern':Spm_pattern.Pattern.t -> extension -> bool
(** {!decide}, then {!confirm} on [Confirm]: true iff the extension keeps
    the pattern in the family (for [Skinny], the path on vertices [0..l] is
    still the canonical diameter of [pattern']). *)

val check_naive : Spm_pattern.Pattern.t -> l:int -> bool
(** Ground truth: the canonical diameter of the pattern is exactly the
    identity path [0..l]. *)

val neighborhood_target :
  ?center:Spm_graph.Label.t -> Spm_pattern.Pattern.t -> r:int -> bool
(** The r-neighborhood constraint predicate itself: the pattern has at least
    one edge, is connected, and some vertex (of label [center] when given)
    has eccentricity at most [r]. Usable with {!Framework} checkers and
    enumerate-and-check baselines. *)
