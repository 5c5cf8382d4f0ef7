(** Memory order (Section 4.1): the permutation of a nest's loops sorted
    by decreasing LoopCost, so the loop promoting the most reuse is
    innermost. Symbolic costs are compared by dominating term. *)

type t = {
  ranked : (string * Poly.t) list;
      (** loops from outermost to innermost position, with their costs *)
  original : string list;  (** the nest's current loop order *)
}

val compute :
  ?memo:Locality_dep.Analysis.memo ->
  ?deps:Locality_dep.Depend.t list ->
  ?cls:int ->
  Loop.t ->
  t
(** Rank the nest's loops. Dependences are [deps] when given, else
    computed through [memo] (see {!Locality_dep.Analysis.memo}). *)

val order : t -> string list
val innermost : t -> string
(** The loop with the least cost — the most desirable inner loop. *)

val cost_of : t -> string -> Poly.t
(** LoopCost of the named loop, as already computed for the ranking.
    Raises [Not_found] for a loop outside the nest. *)

val is_memory_order : t -> bool
(** The nest is already in memory order. An order is accepted when no
    adjacent pair is strictly out of order (ties permute freely). *)

val inner_is_best : t -> bool
(** The current innermost loop already has the (possibly tied) least
    cost. *)

val pp : Format.formatter -> t -> unit
