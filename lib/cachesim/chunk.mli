(** Packed trace-record chunks.

    The unit of exchange between the interpreter's trace buffer and the
    cache simulators: a flat [int array] of records, each packing a byte
    address, a write bit and an interned statement-label id, so replay is
    a tight loop over unboxed ints with no per-access closure dispatch. *)

type t = {
  data : int array;  (** packed records; only [0 .. len-1] are valid *)
  mutable len : int;
}

val max_addr : int
(** Largest representable byte address (32 bits). *)

val max_label : int
(** Largest representable interned label id (29 bits). *)

val create : int -> t
(** [create capacity] allocates an empty chunk holding up to [capacity]
    records. @raise Invalid_argument when [capacity <= 0]. *)

val capacity : t -> int
val is_full : t -> bool

val pack : addr:int -> write:bool -> label:int -> int
(** Pack one record. @raise Invalid_argument when the address or label id
    exceeds the field width. *)

val addr : int -> int
val write : int -> bool
val label : int -> int
(** Field accessors on a packed record. *)

val write_bit : int
val label_shift : int
(** The layout behind {!write} and {!label}, for replay loops that
    decode records inline: the default (dev) build profile compiles
    libraries without cross-module inlining, so each accessor is a
    call. *)

val push : t -> int -> unit
(** Append a packed record; the caller checks {!is_full} first. *)

val reset : t -> unit
(** Forget the contents (capacity is retained for reuse). *)

val copy : t -> t
(** An independent copy trimmed to [len] records. *)

val iter : (label:int -> addr:int -> write:bool -> unit) -> t -> unit
