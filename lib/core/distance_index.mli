(** The two per-vertex distance indices D_H and D_T of §3.4.

    For a pattern whose canonical diameter is the fixed path over vertices
    [0..l] (head 0, tail l), [dh v] and [dt v] are the shortest distances
    from [v] to the head and tail. The miner updates them incrementally on
    each edge extension instead of recomputing shortest paths:

    - a new leaf vertex [u] hanging off [host] gets
      [dh u = dh host + 1], [dt u = dt host + 1] (no other vertex changes —
      a leaf shortens nothing);
    - a closing edge [(u, v)] triggers a decrease-only relaxation from the
      two endpoints, touching only vertices whose distance actually drops.

    {!recompute} is the naive BFS reference used by tests and by the
    recompute-based ablation. *)

type t

val init : Spm_pattern.Pattern.t -> head:int -> tail:int -> t
(** BFS-initialized index. *)

val dh : t -> int -> int

val dt : t -> int -> int

val copy : t -> t

val extend_new_vertex : t -> host:int -> t
(** Index for the pattern extended with a fresh leaf attached to [host]
    (the new vertex takes the next id). Persistent: the input is unchanged. *)

val extend_close_edge :
  queue:int Queue.t -> Spm_pattern.Pattern.t -> t -> int -> int -> t
(** Index for [pattern'] = pattern + edge (u, v), where the given pattern is
    already the extended one (used for adjacency during relaxation).
    Persistent; [queue] is scratch space for {!relax}. *)

val relax :
  int Queue.t -> Spm_pattern.Pattern.t -> int array -> int -> int -> unit
(** [relax queue p' dist u v] lowers [dist] in place after the edge (u, v)
    was added to [p'], where [dist] holds distances to a fixed source set in
    the pattern before the edge. Decrease-only: only vertices whose distance
    drops are visited. [queue] is scratch space, cleared on entry. *)

val recompute : Spm_pattern.Pattern.t -> head:int -> tail:int -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
