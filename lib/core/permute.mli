(** The Permute algorithm (Section 4.1).

    Rank the loops of a perfect nest by LoopCost into {e memory order}
    and permute toward it. When memory order is illegal, build the
    nearest legal permutation greedily, preferring to position the most
    desirable innermost loop (trying loop reversal as an enabler when
    requested). *)

type status =
  | Already  (** the nest was already in memory order *)
  | Permuted  (** permuted into the achieved order *)
  | Failed_deps  (** dependences prevent any improvement *)
  | Failed_bounds  (** bounds too complex to rewrite *)

type outcome = {
  nest : Loop.t;  (** the (possibly) transformed nest *)
  achieved : string list;  (** loop order of [nest], outermost first *)
  memory_order : Memorder.t;
  status : status;
  inner_ok : bool;
      (** the achieved innermost loop has the least (or tied) LoopCost *)
  reversed : string list;  (** loops reversed to enable the permutation *)
}

val run :
  ?cls:int ->
  ?try_reversal:bool ->
  ?memo:Locality_dep.Analysis.memo ->
  ?deps:Locality_dep.Depend.t list ->
  ?mo:Memorder.t ->
  Loop.t ->
  outcome
(** Permute a perfect nest toward memory order. Imperfect nests are
    returned unchanged with status [Failed_deps] and [inner_ok] reflecting
    the current order (callers fuse or distribute first). [deps] (with
    input dependences) and [mo] may be supplied when the caller has
    already computed them for this nest; otherwise the dependences are
    computed through [memo]. *)

val status_to_string : status -> string
