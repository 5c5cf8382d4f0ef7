(** A compiled executor: the program is translated once into nested
    closures with variables resolved to slots and array strides
    precomputed, then run. Several times faster than the tree-walking
    {!Exec} and bit-identical to it (verified by the test suite), which
    makes larger simulated workloads practical.

    {!run} and {!run_traced} execute in full, values included, and stay
    the reference; {!run_traced_runs} is address-only. *)

type result = {
  arrays : (string * float array) list;
  ops : int;
  accesses : int;
  iterations : int;
}

val run :
  ?observer:Exec.observer ->
  ?init:(string -> int -> float) ->
  ?params:(string * int) list ->
  Program.t ->
  result
(** Drop-in equivalent of {!Exec.run}. *)

val run_traced :
  ?init:(string -> int -> float) ->
  ?params:(string * int) list ->
  Trace.t ->
  Program.t ->
  result
(** Like {!run}, but every array access is appended to the given trace
    buffer instead of dispatched through an observer closure: statement
    labels are interned once at compile time, so the per-access cost is
    a packed-record store. The buffer is flushed before returning. *)

val run_traced_runs :
  ?params:(string * int) list ->
  Trace.runbuf ->
  Program.t ->
  result
(** The address-only executor behind every production measurement: it
    emits the v2 run-compressed stream and computes addresses and
    counts, not values. No array is allocated or initialized (hence no
    [?init]) and no float expression is evaluated, so [result.arrays]
    is [[]]; [ops] is counted structurally (one per [Unop]/[Binop] node
    executed), which the value modes confirm by executing. An integer
    value expression is evaluated only when it divides, so division by
    zero still raises.

    Innermost loops whose body has no inner control flow and whose
    array references all advance by a loop-invariant byte stride emit
    one strided-run group descriptor per loop instance; everything else
    falls back to per-access records in the same stream. The expanded
    stream is access-for-access identical to what {!run_traced}
    records. A group instance whose references are in bounds at its
    first and last iteration (offsets are affine in the index, so those
    bound every iteration) and whose body does not divide costs O(1);
    any other runs iteration by iteration. Errors — an out-of-bounds
    subscript, a division by zero — surface at the same access with the
    same exception as under {!run}. *)
