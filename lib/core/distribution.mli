(** Loop distribution (Section 4.4, Figure 5).

    Distribution splits a loop's body into the finest partitions that keep
    every recurrence (dependence cycle) intact, so that a partition freed
    of the others can be permuted into memory order. Applied from the
    deepest feasible level outward, with the smallest amount of
    distribution that still enables permutation. *)

type result = {
  nests : Loop.t list;
      (** the replacement for the original nest: a single loop when the
          split happened below the outermost level, several otherwise *)
  level : int;  (** spine level that was distributed (1-based) *)
  partitions : int;  (** number of partitions created *)
  improved : bool;  (** some partition was permuted into memory order *)
}

val partitions_at :
  Loop.t -> level:int -> Loop.node list list option
(** The finest partitions of the body of the spine loop at [level],
    honouring dependences carried at [level] or deeper plus
    loop-independent ones; [None] when the level does not exist or the
    body cannot be split (a single partition). Partitions appear in a
    dependence-respecting order. *)

val run :
  ?cls:int ->
  ?try_reversal:bool ->
  ?memo:Locality_dep.Analysis.memo ->
  Loop.t ->
  result option
(** Figure 5: try levels [m-1] down to [1]; at the first level where
    distribution enables some partition to be permuted into memory order,
    perform it and permute the partitions that benefit. [None] when no
    level helps. Dependences, the partitions' included, are computed
    through [memo]. *)
