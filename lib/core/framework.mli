(** The general direct-mining framework (§5) and executable checkers for the
    two qualifying properties of constraints.

    A qualified constraint is mined in two stages: (1) generate the minimal
    constraint-satisfying patterns (possible when the constraint is
    {e reducible} — Property 1); (2) grow each minimal pattern while
    preserving the constraint (complete when the constraint is {e continuous}
    — Property 2). The functor {!Make} packages the two stages; {!Skinny} is
    the (l,δ)-SPM instance built from {!Diam_mine} and {!Level_grow}. *)

type pattern := Spm_pattern.Pattern.t

module type CONSTRAINT = sig
  type request
  (** A concrete mining request (e.g. (l, δ) for skinny patterns). *)

  type seed
  (** A minimal constraint-satisfying pattern plus whatever state growth
      needs (e.g. its embeddings). *)

  val name : string

  val minimal_patterns :
    Spm_graph.Graph.t -> sigma:int -> request -> seed list

  val grow :
    Spm_graph.Graph.t -> sigma:int -> request -> seed -> (pattern * int) list
  (** Constraint-preserving growth: every pattern in the seed's cluster with
      its support. *)
end

module Make (C : CONSTRAINT) : sig
  val mine :
    ?jobs:int -> Spm_graph.Graph.t -> sigma:int -> C.request ->
    (pattern * int) list
  (** Two-stage direct mining; results deduplicated up to isomorphism.
      [jobs] (default 1) runs one [C.grow] per seed across that many
      domains; the result list is identical for every [jobs] value. *)
end

module Skinny : sig
  type request = { l : int; delta : int }

  include CONSTRAINT with type request := request

  val mine :
    ?jobs:int -> Spm_graph.Graph.t -> sigma:int -> request ->
    (pattern * int) list
end

(** The r-neighborhood instance (Han & Wen): minimal patterns are single
    labeled centers ({!Neighbor_mine.centers}), growth preserves "every
    vertex within distance [r] of the center" via
    the [Neighborhood] family of {!Constraints.decide}. Qualification (reducibility with the
    one-edge witnesses, continuity) is demonstrated by the committed
    property-checker tests. Unlike skinny clusters, neighborhood clusters
    overlap — a pattern near two differently-labeled centers is grown from
    both — so {!Make}'s seed-order deduplication is load-bearing here. *)
module Neighborhood : sig
  type request = { r : int; center : Spm_graph.Label.t option }

  include CONSTRAINT with type request := request

  val mine :
    ?jobs:int -> Spm_graph.Graph.t -> sigma:int -> request ->
    (pattern * int) list
end

(** {1 Property checkers}

    Executable over a finite universe of candidate patterns (e.g. all
    connected subgraphs of a small graph); used to demonstrate the paper's
    §5.2/§5.3 examples: MaxDegree ≤ K is not reducible, "all degrees equal"
    is not continuous. *)

val immediate_subpatterns : pattern -> pattern list
(** All connected patterns obtained by deleting one edge (dropping a vertex
    it isolates), deduplicated up to isomorphism. Single vertices count. *)

val is_minimal_satisfying : pred:(pattern -> bool) -> pattern -> bool
(** No proper connected subpattern (of any size) satisfies [pred], but the
    pattern does. Exponential — small patterns only. *)

val reducible_witnesses :
  pred:(pattern -> bool) -> universe:pattern list -> pattern list
(** Minimal satisfying patterns with at least one edge found in the
    universe. *)

val is_reducible : pred:(pattern -> bool) -> universe:pattern list -> bool
(** Property 1 restricted to the universe: some non-trivial minimal
    satisfying pattern exists. *)

val is_continuous : pred:(pattern -> bool) -> universe:pattern list -> bool
(** Property 2 restricted to the universe: every satisfying pattern is
    minimal or has a satisfying immediate subpattern. *)

val connected_patterns_upto :
  Spm_graph.Graph.t -> max_edges:int -> pattern list
(** Universe helper: all connected subgraph patterns (up to isomorphism)
    with 1..max_edges edges, plus single-vertex patterns. Exponential. *)
