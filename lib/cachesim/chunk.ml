(* A block of packed trace records shared between the trace producer
   (lib/interp/trace.ml) and the cache simulators, which replay it in a
   tight loop. One record per array-element access, packed into a single
   OCaml int:

     bits 0..31   byte address
     bit  32      write flag
     bits 33..61  interned statement-label id

   Keeping the record flat (no per-access closure, no boxing) is what
   lets a trace be recorded once and replayed against several cache
   configurations at memory bandwidth. *)

type t = {
  data : int array;
  mutable len : int;
}

let max_addr = 0xFFFF_FFFF
let max_label = (1 lsl 29) - 1
let write_bit = 1 lsl 32
let label_shift = 33

let create capacity =
  if capacity <= 0 then invalid_arg "Chunk.create: capacity must be positive";
  { data = Array.make capacity 0; len = 0 }

let capacity c = Array.length c.data
let is_full c = c.len = Array.length c.data

let pack ~addr ~write ~label =
  if addr < 0 || addr > max_addr then
    invalid_arg (Printf.sprintf "Chunk.pack: address %d out of range" addr);
  if label < 0 || label > max_label then
    invalid_arg (Printf.sprintf "Chunk.pack: label id %d out of range" label);
  addr lor (if write then write_bit else 0) lor (label lsl label_shift)

let addr r = r land max_addr
let write r = r land write_bit <> 0
let label r = r lsr label_shift

(* Append without a range check; callers flush on [is_full]. *)
let push c r =
  c.data.(c.len) <- r;
  c.len <- c.len + 1

let reset c = c.len <- 0

let copy c = { data = Array.sub c.data 0 c.len; len = c.len }

let iter f c =
  for i = 0 to c.len - 1 do
    let r = c.data.(i) in
    f ~label:(label r) ~addr:(addr r) ~write:(write r)
  done
