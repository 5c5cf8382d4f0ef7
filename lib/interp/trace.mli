(** Batched address traces.

    A chunked trace buffer decouples trace generation from cache
    simulation: the interpreter appends flat packed records (address,
    write bit, interned statement-label id — see
    {!Locality_cachesim.Chunk}) and the buffer hands full blocks to a
    sink. Compared with the legacy one-observer-closure-call-per-access
    path this removes the hot-path dispatch, and — when the sink captures
    the chunks — lets a program be interpreted once and its trace
    replayed against any number of cache configurations. *)

module Chunk = Locality_cachesim.Chunk

val default_chunk_records : int
(** Records per chunk when not overridden (65536). *)

type t
(** A trace buffer with a label-interning table. *)

val create : ?chunk_records:int -> sink:(Chunk.t -> unit) -> unit -> t
(** The sink borrows the chunk only for the duration of the call; the
    buffer is reused afterwards. A sink that keeps the data must
    {!Chunk.copy} it. *)

val intern : t -> string -> int
(** Stable id for a statement label; meant to be called once per
    statement at compile time, not per access. *)

val labels : t -> string array
(** Interned labels, indexed by id. *)

val record : t -> label:int -> addr:int -> write:bool -> unit
(** Append one access record, flushing to the sink when the current
    chunk is full. *)

val flush : t -> unit
(** Push any buffered records to the sink. Call after the producing run
    completes; {!capturing}'s finish function does this itself. *)

val total : t -> int
(** Records ever appended. *)

val observer : t -> Exec.observer
(** Adapter for the legacy observer interface: every observed access is
    recorded (labels interned per access — slower than the buffered
    interpreter mode; used by tests and the tree-walking {!Exec}). *)

type captured = {
  chunks : Chunk.t list;  (** in recording order, independently owned *)
  trace_labels : string array;  (** interned labels by id *)
  records : int;
}

val capturing : ?chunk_records:int -> unit -> t * (unit -> captured)
(** A buffer whose sink retains copies of every chunk, and a finish
    function that flushes and returns the captured trace. *)

val iter_chunks : captured -> (Chunk.t -> unit) -> unit
val iter : captured -> (label:int -> addr:int -> write:bool -> unit) -> unit

(** {1 v2: run-compressed trace buffers}

    The run-aware buffer behind {!Fastexec.run_traced_runs}: per-access
    records and strided-run group descriptors share one
    {!Locality_cachesim.Runchunk} stream, so a qualifying innermost-loop
    instance costs [1 + 2*nrefs] words instead of [trip * nrefs]
    records. Capacity is counted in stream words. *)

module Runchunk = Locality_cachesim.Runchunk

type runbuf

val run_create :
  ?chunk_words:int -> sink:(Runchunk.t -> unit) -> unit -> runbuf
(** Same sink-borrowing contract as {!create}. The working chunk starts
    small and doubles up to [chunk_words] words, and is flushed only
    when full at that size, so chunk boundaries do not depend on the
    growth. *)

val run_intern : runbuf -> string -> int
val run_labels : runbuf -> string array

val run_record : runbuf -> label:int -> addr:int -> write:bool -> unit
(** Append one per-access record (the fallback for loops that do not
    qualify for run compression). *)

val run_group :
  runbuf -> trip:int -> packed:int array -> bases:int array ->
  strides:int array -> int -> unit
(** [run_group t ~trip ~packed ~bases ~strides n] appends one
    [n]-reference strided-run group; [packed.(j)] is a {!Chunk}-packed
    record with a zero address field (label id and write flag,
    precomputed at closure-compile time), [bases]/[strides] the byte
    base address and per-iteration byte stride of each reference for
    this loop instance. Groups that cannot fit even an empty chunk
    degrade to per-access records, so emission never fails. *)

val run_flush : runbuf -> unit
val run_total : runbuf -> int
(** Logical accesses represented (groups expanded). *)

val run_runs : runbuf -> int
val run_words : runbuf -> int

type captured_runs = {
  run_chunks : Runchunk.t list;  (** in recording order, independently owned *)
  run_trace_labels : string array;
  run_records : int;  (** logical accesses, groups expanded *)
  run_groups : int;
  run_stream_words : int;
}

val run_capturing :
  ?chunk_words:int -> unit -> runbuf * (unit -> captured_runs)

val iter_run_chunks : captured_runs -> (Runchunk.t -> unit) -> unit

val iter_runs :
  captured_runs -> (label:int -> addr:int -> write:bool -> unit) -> unit
(** Expanded access sequence, identical to what per-access capture of
    the same program records. *)
