(** Data dependences between array (and scalar) references. *)

type kind = Flow | Anti | Output | Input

type t = {
  src_label : string;  (** label of the source statement *)
  snk_label : string;  (** label of the sink statement *)
  src_ref : Reference.t;
  snk_ref : Reference.t;
  kind : kind;
  vec : Direction.t;  (** over the common loops, outermost first *)
  loops : string list;  (** index names of the common loops *)
  li : bool;
      (** the dependence may be loop-independent: the all-zero vector is
          realisable (subscripts can be equal on the same iteration of
          every common loop) *)
  li_always : bool;
      (** the references touch the same location on {e every} common
          iteration (identical subscript functions over the common
          loops) — the loop-independent reuse of RefGroup condition
          1(a), as opposed to a boundary-only overlap *)
  zero_prefix : int;
      (** largest prefix of the common loops that can be held at equal
          iterations while the references still overlap; a dependence
          with [zero_prefix = k] is definitely carried at level [<= k],
          which distribution and fusion legality exploit *)
}

val is_true_dep : t -> bool
(** Flow, anti or output — the dependences that constrain reordering. *)

val kind_of : [ `Read | `Write ] -> [ `Read | `Write ] -> kind

val analyze_pair :
  src_path:Loop.header list ->
  snk_path:Loop.header list ->
  ncommon:int ->
  Reference.t ->
  Reference.t ->
  (Direction.t * bool * bool * int) option
(** Constraint vector over the first [ncommon] loops of the paths (the
    common prefix), with sink iteration variables implicitly primed, plus
    the zero-compatibility flag (can the references touch the same
    location on the same iteration of every common loop?) and the
    always flag (identical subscript functions). [None] means provably no
    dependence. Bounds of the enclosing loops (including non-common ones)
    refine the result by interval reasoning. *)

type memo
(** Results of {!analyze_pair}, keyed on its five inputs: the source and
    sink header paths, [ncommon], and the two references, compared by
    structural equality. Paths and references are interned to integers
    per access ({!site}), so a lookup hashes five integers. The table is
    exact by construction: [analyze_pair] is a pure function of exactly
    those inputs, and statement labels and access kinds, which differ
    between accesses with the same key, are attached afterwards by
    {!test_pair} and {!test_self}. A memo only grows; its owner decides
    its lifetime (see {!Analysis.memo}). Not safe to share between
    domains. *)

val create_memo : unit -> memo

val memo_hits : memo -> int
(** Pair analyses answered from the table. *)

val memo_misses : memo -> int
(** Pair analyses computed and added to the table. *)

type site
(** An access's enclosing headers (outermost first) and reference,
    interned in a memo. *)

val site : memo -> path:Loop.header list -> Reference.t -> site

val test_self : memo:memo -> Stmt.t * site -> t option
(** The loop-carried output dependence of a write with itself, when its
    subscripts do not cover every enclosing loop. *)

val test_pair :
  memo:memo ->
  ncommon:int ->
  src:Stmt.t * site * [ `Read | `Write ] ->
  snk:Stmt.t * site * [ `Read | `Write ] ->
  t list
(** All dependences between an ordered pair of accesses, where the source
    access executes before the sink within one iteration of the first
    [ncommon] loops of their paths (textual order; within one statement,
    reads precede the write). Produces the forward dependence, and the
    reversed dependence when the solution set admits lexicographically
    negative vectors. Both sites must come from [memo]. *)

val pp : Format.formatter -> t -> unit
