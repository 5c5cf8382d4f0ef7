(** Dependence analysis over loop nests and blocks.

    Scalars participate as rank-0 references (their name prefixed with
    ["$"]), so reductions into scalars and uses of scalar temporaries
    conservatively constrain reordering. *)

type access = {
  stmt : Stmt.t;
  ref_ : Reference.t;
  acc : [ `Read | `Write ];
  path : (int * Loop.header) list;
      (** enclosing loops, outermost first; the [int] identifies the loop
          occurrence so that same-named sibling loops are distinct *)
  pos : int * int;  (** (textual statement position, 0 for reads / 1 for writes) *)
}

val accesses : ?outer:Loop.header list -> Loop.block -> access list
(** Every array and scalar access in the block, textual order. [outer]
    supplies enclosing headers shared by the whole block. *)

type memo = Depend.memo
(** A table of pair-test results that several {!deps} calls can share.

    {b Key.} The source header path, the sink header path, the number of
    common loops, the source reference and the sink reference, compared
    structurally — exactly the inputs of {!Depend.analyze_pair}. Paths
    and references are interned to integers once per access, and
    interning is injective within a memo, so the integer key matches
    exactly when the inputs do.

    {b Exactness.} [analyze_pair] reads nothing else, so a hit returns
    what a fresh test would. Statement labels and access kinds are not
    part of the key: they are attached to the cached vector afterwards,
    so two statements with the same subscripts under the same loops share
    one entry and still get their own dependences.

    {b Scope and lifetime.} The owner creates the memo and drops it.
    {!Locality_core.Compound.run_program} creates one per call, threads
    it through every dependence query of that run (its own, Permute,
    Memorder/LoopCost, Distribution and Fusion) and drops it on return.
    A call without a memo uses a fresh one, so its results never depend
    on earlier calls. A memo is mutable and must stay on one domain. *)

val create_memo : unit -> memo

val deps :
  ?memo:memo ->
  ?include_input:bool ->
  ?outer:Loop.header list ->
  Loop.block ->
  Depend.t list
(** All dependences between accesses of the block. Input (read-read)
    dependences are included only on request — the cost model's RefGroup
    needs them; legality tests do not. Pair tests go through [memo] (a
    fresh one when absent). *)

val deps_in_nest : ?memo:memo -> ?include_input:bool -> Loop.t -> Depend.t list
(** Dependences within a single nest, vectors over the nest's own loops
    (plus inner ones on the common path). *)

val common_prefix :
  (int * Loop.header) list -> (int * Loop.header) list -> Loop.header list
