(** SkinnyMine (Algorithm 1): the complete (l,δ)-SPM miner.

    Stage I mines all frequent simple paths of length l (the canonical
    diameters = minimal constraint-satisfying patterns); Stage II grows each
    into its disjoint cluster of l-long δ-skinny patterns while preserving
    the canonical diameter. The union over clusters is the complete result
    (Theorem 4), with unique generation per pattern.

    All tuning knobs live in {!Config.t}; the three entry points take one
    optional [?config] instead of a spread of optional arguments. With
    [config.jobs > 1] both stages run on a {!Spm_engine.Pool} of that many
    domains — Stage II schedules one task per diameter cluster (Theorem 4
    makes clusters independent), Stage I partitions the candidate-path
    extension loops — and the output is bit-identical to the sequential
    run. *)

type mined = Level_grow.mined = {
  pattern : Spm_pattern.Pattern.t;
  support : int;
  levels : int array;
  diameter_labels : Path_pattern.t;
}

type stats = {
  diam_stats : Diam_mine.stats;
  num_diameters : int;
  grow_seconds : float;
  grow_stats : Level_grow.stats list;  (** one per diameter cluster *)
  status : Spm_engine.Run.status;
      (** [Ok] for a natural finish (including a filled [max_patterns]
          budget); [Timeout] / [Cancelled] when the run was interrupted —
          [patterns] then holds the partial results gathered so far *)
  total_seconds : float;  (** wall clock, not CPU time *)
}

type result = { patterns : mined list; stats : stats }

(** The consolidated mining configuration. Build one with record update
    syntax ([{ Config.default with jobs = 4 }]) or the [with_*] setters
    ([Config.(default |> with_jobs 4 |> with_closed_growth true)]). *)
module Config : sig
  type t = {
    mode : Constraints.mode;
        (** Constraint-maintenance mode (default [Exact]). *)
    family : Constraints.family;
        (** Which constraint family to mine (default [Skinny]). With
            [Neighborhood], {!mine} takes [l = 0] and reads the radius r from
            [delta]: Stage I seeds one single-vertex entry per center label
            ({!Neighbor_mine.centers}) and Stage II grows each center under
            the [Neighborhood] family of {!Constraints.decide}. Overlapping
            clusters are
            deduplicated in entry order, so the output is still
            bit-identical for every [jobs] value. *)
    closed_growth : bool;
        (** Closed-pattern semantics: apply support-preserving extensions
            eagerly, collapsing the twig powerset (default [false]). *)
    prune_intermediate : bool;
        (** Apply the σ filter at every Stage-I power-of-2 stage (the
            paper's behaviour, default [true]). *)
    closed_only : bool;
        (** Post-filter to patterns with no reported super-pattern of equal
            support (Algorithm 3 line 12; default [false]). *)
    max_patterns : int option;
        (** Stop after this many patterns (default [None]). Works with any
            [jobs] value and yields the same patterns either way: a capped
            cluster emits a deterministic prefix of its uncapped emission
            order, so the parallel path gives every cluster the full cap as
            its private budget ({!Spm_engine.Run.fork}), concatenates the
            per-cluster results in Stage-I entry order and truncates to the
            cap — exactly the sequential budgeted output. (Before runs
            carried budgets this was a sequential-only special case that
            silently ignored [jobs].)

            Under the neighborhood family the cap is applied only after
            every cluster has grown in full and duplicates across
            overlapping clusters have been removed, so it bounds the size
            of the answer, not the mining work (see DESIGN.md §19). *)
    support : (Spm_pattern.Pattern.t -> int array list -> int) option;
        (** Stage-II support override, e.g. a distinct-transaction counter.
            [None] = |E[P]|, distinct embedding subgraphs.
            {!mine_transactions} installs its own counter here. *)
    jobs : int;
        (** Worker domains for both stages (default 1 = sequential). For a
            fixed input the mined [(pattern, support)] list is bit-identical
            for every [jobs] value. *)
  }

  val default : t

  val parallel : unit -> t
  (** {!default} with [jobs] set to {!Spm_engine.Pool.default_jobs} (the
      [SKINNY_JOBS] environment variable, or every available core). *)

  val with_mode : Constraints.mode -> t -> t
  val with_family : Constraints.family -> t -> t
  val with_closed_growth : bool -> t -> t
  val with_prune_intermediate : bool -> t -> t
  val with_closed_only : bool -> t -> t
  val with_max_patterns : int option -> t -> t

  val with_support :
    (Spm_pattern.Pattern.t -> int array list -> int) option -> t -> t

  val with_jobs : int -> t -> t
  (** Clamped to at least 1. *)
end

(** The single rendering surface for {!stats} — the CLI and the bench
    runners both go through it. *)
module Stats : sig
  type t = stats

  val pp : Format.formatter -> stats -> unit
  (** Multi-line human-readable rendering (stage timings, per-power path
      counts, aggregated Stage-II counters). *)

  val to_json : stats -> string
  (** One JSON object; per-cluster Stage-II stats under ["clusters"]. *)
end

val closed_filter : mined list -> mined list
(** The [closed_only] post-filter (Algorithm 3 line 12): drop every pattern
    with a reported super-pattern of equal support. Comparisons stay within
    one diameter cluster (equal [diameter_labels]), so filtering a single
    cluster's output equals filtering it inside the full result — which is
    what lets [Incremental] repair clusters independently. *)

val mine :
  ?run:Spm_engine.Run.t ->
  ?config:Config.t ->
  Spm_graph.Graph.t ->
  l:int ->
  delta:int ->
  sigma:int ->
  result
(** All l-long δ-skinny patterns P of the graph with |E[P]| >= sigma,
    mined under [config] (default {!Config.default}).

    [run] (default a fresh unbounded context) bounds and observes the whole
    mine: a deadline or {!Spm_engine.Run.cancel} stops both stages
    cooperatively, [stats.status] reports how the run ended, and [patterns]
    holds whatever was mined before the interruption (Stage-II clusters
    return their emitted prefixes; a Stage-I interruption yields no
    patterns). {!Spm_engine.Run.Cancelled} never escapes this function. *)

val mine_with_entries :
  ?run:Spm_engine.Run.t ->
  ?config:Config.t ->
  Spm_graph.Graph.t ->
  entries:Diam_mine.entry list ->
  delta:int ->
  sigma:int ->
  result
(** Stage II only, from precomputed Stage-I entries (the direct-mining server
    path: entries come from {!Diameter_index}). [diam_stats] is zeroed. *)

val mine_transactions :
  ?run:Spm_engine.Run.t ->
  ?config:Config.t ->
  Spm_graph.Graph.t list ->
  l:int ->
  delta:int ->
  sigma:int ->
  result
(** Graph-transaction adaptation (§6.2.1 "Graph-Transaction Setting"): the
    database is combined into one disjoint-union graph; a pattern qualifies
    if it appears in at least [sigma] distinct transactions.
    [config.support] is overridden with the distinct-transaction counter. *)

val is_target : Spm_pattern.Pattern.t -> l:int -> delta:int -> bool
(** The (l,δ) constraint predicate itself (Definition 7), usable with
    {!Framework} checkers and enumerate-and-check baselines. *)

val is_neighborhood_target :
  ?center:Spm_graph.Label.t -> Spm_pattern.Pattern.t -> r:int -> bool
(** The r-neighborhood constraint predicate
    ({!Constraints.neighborhood_target}): at least one edge, connected, and
    some vertex (of label [center] when given) has eccentricity <= [r]. *)
