module Chunk = Locality_cachesim.Chunk
module Runchunk = Locality_cachesim.Runchunk

let default_chunk_records = 65536

(* Statement-label interning, shared by both buffer formats. *)
module Interner = struct
  type t = {
    tbl : (string, int) Hashtbl.t;
    mutable rev_labels : string list;  (* interned labels, newest first *)
    mutable nlabels : int;
  }

  let create () = { tbl = Hashtbl.create 64; rev_labels = []; nlabels = 0 }

  let intern t label =
    match Hashtbl.find_opt t.tbl label with
    | Some id -> id
    | None ->
      let id = t.nlabels in
      if id > Chunk.max_label then
        invalid_arg "Trace.intern: too many distinct labels";
      Hashtbl.replace t.tbl label id;
      t.rev_labels <- label :: t.rev_labels;
      t.nlabels <- t.nlabels + 1;
      id

  let labels t =
    let a = Array.make t.nlabels "" in
    List.iteri (fun i l -> a.(t.nlabels - 1 - i) <- l) t.rev_labels;
    a
end

type t = {
  cap : int;
  mutable chunk : Chunk.t;
  sink : Chunk.t -> unit;
  names : Interner.t;
  mutable total : int;
}

let create ?(chunk_records = default_chunk_records) ~sink () =
  {
    cap = chunk_records;
    chunk = Chunk.create chunk_records;
    sink;
    names = Interner.create ();
    total = 0;
  }

let intern t label = Interner.intern t.names label
let labels t = Interner.labels t.names

let flush t =
  if t.chunk.Chunk.len > 0 then begin
    t.sink t.chunk;
    Chunk.reset t.chunk
  end

let record t ~label ~addr ~write =
  if Chunk.is_full t.chunk then flush t;
  Chunk.push t.chunk (Chunk.pack ~addr ~write ~label);
  t.total <- t.total + 1

let total t = t.total

let observer t =
  {
    Exec.on_access =
      (fun ~label ~addr ~write -> record t ~label:(intern t label) ~addr ~write);
    on_stmt = (fun ~label:_ -> ());
  }

type captured = {
  chunks : Chunk.t list;
  trace_labels : string array;
  records : int;
}

let capturing ?chunk_records () =
  let acc = ref [] in
  let t =
    create ?chunk_records ~sink:(fun c -> acc := Chunk.copy c :: !acc) ()
  in
  let finish () =
    flush t;
    { chunks = List.rev !acc; trace_labels = labels t; records = t.total }
  in
  (t, finish)

let iter_chunks cap f = List.iter f cap.chunks
let iter cap f = List.iter (Chunk.iter f) cap.chunks

(* ------------------------------------------------ v2: run buffers --- *)

(* The run-aware buffer behind [Fastexec.run_traced_runs]: per-access
   records and strided-run group descriptors share one [Runchunk]
   stream. The capacity is in words, so a group costs 1 + 2*nrefs slots
   against it rather than trip*nrefs. *)

type runbuf = {
  rcap : int;
  mutable rchunk : Runchunk.t;
  rsink : Runchunk.t -> unit;
  rnames : Interner.t;
  mutable rtotal : int;  (* logical accesses represented *)
  mutable rruns : int;  (* group descriptors emitted *)
  mutable rwords : int;  (* stream words emitted *)
}

(* The working chunk starts at the minor heap's largest block and
   doubles up to [rcap] before the first flush (see [run_reserve]). *)
let initial_chunk_words = 256

let run_create ?(chunk_words = default_chunk_records) ~sink () =
  {
    rcap = chunk_words;
    rchunk = Runchunk.create (min chunk_words initial_chunk_words);
    rsink = sink;
    rnames = Interner.create ();
    rtotal = 0;
    rruns = 0;
    rwords = 0;
  }

let run_intern t label = Interner.intern t.rnames label
let run_labels t = Interner.labels t.rnames

let run_flush t =
  if t.rchunk.Runchunk.len > 0 then begin
    t.rsink t.rchunk;
    Runchunk.reset t.rchunk
  end

(* Make room for [need] words. Most captures are far smaller than a
   full chunk, and a fresh full-size chunk per capture is the bulk of a
   busy daemon's major-heap allocation (and so of its major GC cycles),
   so the working chunk grows geometrically and flushes only once it is
   full-size: chunk boundaries are those of a full-size chunk. *)
let rec run_reserve t need =
  let c = t.rchunk in
  if Runchunk.room c < need then
    if Runchunk.capacity c < t.rcap then begin
      let data = Array.make (min t.rcap (2 * Runchunk.capacity c)) 0 in
      Array.blit c.Runchunk.data 0 data 0 c.Runchunk.len;
      t.rchunk <- { c with Runchunk.data };
      run_reserve t need
    end
    else run_flush t

let run_record t ~label ~addr ~write =
  run_reserve t 1;
  Runchunk.push_access t.rchunk (Chunk.pack ~addr ~write ~label);
  t.rtotal <- t.rtotal + 1;
  t.rwords <- t.rwords + 1

(* [packed.(j)] carries label and write flag with a zero address field
   (precomputed at closure-compile time); [bases]/[strides] are filled
   per loop instance. A group too large for even an empty chunk — more
   references in one loop body than half the chunk capacity — degrades
   to per-access records, so emission never fails. *)
let run_group t ~trip ~packed ~bases ~strides n =
  if n = 0 || trip = 0 then ()
  else begin
    let need = Runchunk.group_words ~nrefs:n in
    if need > t.rcap || trip > Runchunk.max_trip then begin
      for it = 0 to trip - 1 do
        for j = 0 to n - 1 do
          run_reserve t 1;
          let addr = bases.(j) + (it * strides.(j)) in
          if addr < 0 || addr > Chunk.max_addr then
            invalid_arg "Trace.run_group: address out of range";
          Runchunk.push_access t.rchunk (packed.(j) lor addr);
          t.rwords <- t.rwords + 1
        done
      done;
      t.rtotal <- t.rtotal + (trip * n)
    end
    else begin
      run_reserve t need;
      Runchunk.push_group t.rchunk ~trip ~packed ~bases ~strides n;
      t.rtotal <- t.rtotal + (trip * n);
      t.rruns <- t.rruns + 1;
      t.rwords <- t.rwords + need
    end
  end

let run_total t = t.rtotal
let run_runs t = t.rruns
let run_words t = t.rwords

type captured_runs = {
  run_chunks : Runchunk.t list;
  run_trace_labels : string array;
  run_records : int;  (** logical accesses, groups expanded *)
  run_groups : int;
  run_stream_words : int;
}

let run_capturing ?chunk_words () =
  let acc = ref [] in
  let t =
    run_create ?chunk_words ~sink:(fun c -> acc := Runchunk.copy c :: !acc) ()
  in
  let finish () =
    run_flush t;
    {
      run_chunks = List.rev !acc;
      run_trace_labels = run_labels t;
      run_records = t.rtotal;
      run_groups = t.rruns;
      run_stream_words = t.rwords;
    }
  in
  (t, finish)

let iter_run_chunks cap f = List.iter f cap.run_chunks

let iter_runs cap f = List.iter (fun rc -> Runchunk.iter rc f) cap.run_chunks
