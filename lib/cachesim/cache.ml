type config = {
  name : string;
  size_bytes : int;
  assoc : int;
  line_bytes : int;
}

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  cold_misses : int;
  writes : int;
  write_hits : int;
  writebacks : int;
}

type t = {
  config : config;
  sets : int;
  assoc : int;
  line_shift : int;  (** log2 line_bytes; addr lsr line_shift = line *)
  set_mask : int;  (** sets - 1 when sets is a power of two, else -1 *)
  tags : int array;  (** sets * assoc entries; -1 = invalid *)
  ages : int array;  (** LRU clock per entry *)
  dirty : bool array;
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
  mutable cold : int;
  mutable writes : int;
  mutable write_hits : int;
  mutable writebacks : int;
  (* First-touch tracking: a growable bitset keyed by line index. Far
     cheaper than a per-access hash probe on the hot path. *)
  mutable seen_bits : Bytes.t;
  mutable seen_count : int;
  (* Line-visit scratch for [simulate_runs]: [assoc] slots of
     [slot_words] per set, the number of slots each set holds for the
     current group, and the sets that group touched. *)
  slots : int array;
  set_fill : int array;
  touched : int array;
  mutable ntouched : int;
}

(* Words per line-visit slot; see [visit]. *)
let slot_words = 4

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config_valid c =
  is_pow2 c.size_bytes && is_pow2 c.line_bytes && c.assoc > 0
  && c.line_bytes <= c.size_bytes
  && c.size_bytes mod (c.line_bytes * c.assoc) = 0

let initial_seen_bytes = 4096

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create config =
  if not (config_valid config) then invalid_arg "Cache.create: bad config";
  let sets = config.size_bytes / (config.line_bytes * config.assoc) in
  {
    config;
    sets;
    assoc = config.assoc;
    line_shift = log2 config.line_bytes;
    set_mask = (if is_pow2 sets then sets - 1 else -1);
    tags = Array.make (sets * config.assoc) (-1);
    ages = Array.make (sets * config.assoc) 0;
    dirty = Array.make (sets * config.assoc) false;
    clock = 0;
    accesses = 0;
    hits = 0;
    cold = 0;
    writes = 0;
    write_hits = 0;
    writebacks = 0;
    seen_bits = Bytes.make initial_seen_bytes '\000';
    seen_count = 0;
    slots = Array.make (sets * config.assoc * slot_words) 0;
    set_fill = Array.make sets 0;
    touched = Array.make sets 0;
    ntouched = 0;
  }

let seen_mem t line =
  let byte = line lsr 3 in
  byte < Bytes.length t.seen_bits
  && Char.code (Bytes.unsafe_get t.seen_bits byte) land (1 lsl (line land 7))
     <> 0

let seen_add t line =
  let byte = line lsr 3 in
  let cap = Bytes.length t.seen_bits in
  if byte >= cap then begin
    let cap' = ref (cap * 2) in
    while byte >= !cap' do
      cap' := !cap' * 2
    done;
    let b = Bytes.make !cap' '\000' in
    Bytes.blit t.seen_bits 0 b 0 cap;
    t.seen_bits <- b
  end;
  Bytes.unsafe_set t.seen_bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.seen_bits byte) lor (1 lsl (line land 7))));
  t.seen_count <- t.seen_count + 1

let set_of_line t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.sets

(* The reference oracle: a plain way search and victim loop, kept
   independent of the unrolled kernel below so the tests compare two
   implementations. *)
let access_full t ?(write = false) addr =
  let line = addr lsr t.line_shift in
  let set = set_of_line t line in
  let base = set * t.config.assoc in
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  if write then t.writes <- t.writes + 1;
  let rec find i =
    if i = t.config.assoc then None
    else if t.tags.(base + i) = line then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
    t.hits <- t.hits + 1;
    if write then begin
      t.write_hits <- t.write_hits + 1;
      t.dirty.(base + i) <- true
    end;
    t.ages.(base + i) <- t.clock;
    (`Hit, None)
  | None ->
    let cold = not (seen_mem t line) in
    if cold then begin
      seen_add t line;
      t.cold <- t.cold + 1
    end;
    (* Evict the least recently used way; a dirty victim is written
       back. *)
    let victim = ref 0 in
    for i = 1 to t.config.assoc - 1 do
      if t.ages.(base + i) < t.ages.(base + !victim) then victim := i
    done;
    let written_back =
      if t.dirty.(base + !victim) && t.tags.(base + !victim) >= 0 then begin
        t.writebacks <- t.writebacks + 1;
        Some t.tags.(base + !victim)
      end
      else None
    in
    t.tags.(base + !victim) <- line;
    t.ages.(base + !victim) <- t.clock;
    t.dirty.(base + !victim) <- write;
    ((if cold then `Cold else `Miss), written_back)

let access_classified t addr = fst (access_full t addr)
let access t addr = access_classified t addr = `Hit

(* ------------------------------------------------- lookup kernel --- *)

(* The entry of set [base] holding [line], or -1. Unrolled for the
   associativities the paper's machines use. *)
let find_way t base line =
  let tags = t.tags in
  match t.assoc with
  | 1 -> if Array.unsafe_get tags base = line then base else -1
  | 2 ->
    if Array.unsafe_get tags base = line then base
    else if Array.unsafe_get tags (base + 1) = line then base + 1
    else -1
  | 4 ->
    if Array.unsafe_get tags base = line then base
    else if Array.unsafe_get tags (base + 1) = line then base + 1
    else if Array.unsafe_get tags (base + 2) = line then base + 2
    else if Array.unsafe_get tags (base + 3) = line then base + 3
    else -1
  | assoc ->
    let e = ref (-1) and i = ref base in
    while !e < 0 && !i < base + assoc do
      if Array.unsafe_get tags !i = line then e := !i;
      incr i
    done;
    !e

(* The least recently used entry of set [base]; ties go to the lowest
   way, as in [access_full]. *)
let victim t base =
  let ages = t.ages in
  match t.assoc with
  | 1 -> base
  | 2 ->
    if Array.unsafe_get ages (base + 1) < Array.unsafe_get ages base then
      base + 1
    else base
  | 4 ->
    let v =
      if Array.unsafe_get ages (base + 1) < Array.unsafe_get ages base then
        base + 1
      else base
    in
    let v =
      if Array.unsafe_get ages (base + 2) < Array.unsafe_get ages v then
        base + 2
      else v
    in
    if Array.unsafe_get ages (base + 3) < Array.unsafe_get ages v then base + 3
    else v
  | assoc ->
    let v = ref base in
    for i = base + 1 to base + assoc - 1 do
      if Array.unsafe_get ages i < Array.unsafe_get ages !v then v := i
    done;
    !v

(* Refill entry [e] with [line] after a miss: the cold check and the
   write-back of a dirty victim. Reports whether the miss was cold. *)
let refill t e line write =
  let cold = not (seen_mem t line) in
  if cold then begin
    seen_add t line;
    t.cold <- t.cold + 1
  end;
  if Array.unsafe_get t.dirty e && Array.unsafe_get t.tags e >= 0 then
    t.writebacks <- t.writebacks + 1;
  Array.unsafe_set t.tags e line;
  Array.unsafe_set t.dirty e write;
  cold

(* {!Chunk}'s record fields, decoded here: the default (dev) build
   profile compiles libraries without cross-module inlining, and a call
   per field would cost more than the lookup it feeds. *)
let rec_addr r = r land Chunk.max_addr
let rec_write r = r land Chunk.write_bit <> 0
let rec_label r = r lsr Chunk.label_shift

(* Classification codes of [lookup]. *)
let hit = 0
let cold_miss = 1
let miss = 2

(* One access to [line]: the same mutations as [access_full], without
   its option and tuple results. *)
let lookup t line write =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  if write then t.writes <- t.writes + 1;
  let base = set_of_line t line * t.assoc in
  let e = find_way t base line in
  if e >= 0 then begin
    t.hits <- t.hits + 1;
    if write then begin
      t.write_hits <- t.write_hits + 1;
      Array.unsafe_set t.dirty e true
    end;
    Array.unsafe_set t.ages e t.clock;
    hit
  end
  else begin
    let e = victim t base in
    let cold = refill t e line write in
    Array.unsafe_set t.ages e t.clock;
    if cold then cold_miss else miss
  end

type region = {
  mutable r_accesses : int;
  mutable r_hits : int;
  mutable r_cold : int;
}

let fresh_region () = { r_accesses = 0; r_hits = 0; r_cold = 0 }

let tally r code =
  r.r_accesses <- r.r_accesses + 1;
  if code = hit then r.r_hits <- r.r_hits + 1
  else if code = cold_miss then r.r_cold <- r.r_cold + 1

(* Whether label [lid] counts towards the region; [marks] is empty when
   no region is tracked. *)
let is_marked marks lid = lid < Array.length marks && Array.unsafe_get marks lid

let marks_of marked region =
  match (marked, region) with Some m, Some _ -> m | _ -> [||]

(* Replay a chunk of packed records: one [lookup] per record. *)
let simulate_chunk t ?marked ?region (c : Chunk.t) =
  let data = c.Chunk.data in
  let marks = marks_of marked region in
  let reg = match region with Some r -> r | None -> fresh_region () in
  let shift = t.line_shift in
  for i = 0 to c.Chunk.len - 1 do
    let r = Array.unsafe_get data i in
    let code = lookup t (rec_addr r lsr shift) (rec_write r) in
    if is_marked marks (rec_label r) then tally reg code
  done

type run_metrics = {
  mutable m_groups : int;
  mutable m_boundaries : int;
  mutable m_bulk_iters : int;
  mutable m_fallbacks : int;
}

let fresh_run_metrics () =
  { m_groups = 0; m_boundaries = 0; m_bulk_iters = 0; m_fallbacks = 0 }

(* ------------------------------------------------- line visits --- *)

(* A run group of [trip] iterations over [nrefs] references makes
   access (t, j) — iteration t, reference j — at clock
   [c0 + t * nrefs + j + 1], where c0 is the clock before the group;
   [t * nrefs + j] is the access's key. A reference with stride s stays
   in one cache line for a contiguous range of iterations (one visit),
   so a group touches few distinct lines, and each gets one slot:

     line, first-touch key, last-touch key,
     flags = (first-touch reference) * 2 + (1 if any reference writes)

   Visits by different references to the same line merge into one
   slot ([visit]). *)

(* Forget the current group's slots. *)
let clear_slots t =
  for k = 0 to t.ntouched - 1 do
    Array.unsafe_set t.set_fill (Array.unsafe_get t.touched k) 0
  done;
  t.ntouched <- 0

(* Record reference [j]'s visit to [line] over keys [first..last].
   False when [line] would be the (assoc + 1)-th distinct line of its
   set. *)
let visit t line first last j write =
  let set = set_of_line t line in
  let n = Array.unsafe_get t.set_fill set in
  if n = 0 then begin
    Array.unsafe_set t.touched t.ntouched set;
    t.ntouched <- t.ntouched + 1
  end;
  let slots = t.slots in
  let base = set * t.assoc * slot_words in
  let p = ref base and stop = base + (n * slot_words) in
  while !p < stop && Array.unsafe_get slots !p <> line do
    p := !p + slot_words
  done;
  let p = !p in
  let w = Bool.to_int write in
  if p < stop then begin
    if first < Array.unsafe_get slots (p + 1) then begin
      Array.unsafe_set slots (p + 1) first;
      Array.unsafe_set slots (p + 3)
        ((j lsl 1) lor (Array.unsafe_get slots (p + 3) land 1))
    end;
    if last > Array.unsafe_get slots (p + 2) then
      Array.unsafe_set slots (p + 2) last;
    Array.unsafe_set slots (p + 3) (Array.unsafe_get slots (p + 3) lor w);
    true
  end
  else if n = t.assoc then false
  else begin
    Array.unsafe_set slots p line;
    Array.unsafe_set slots (p + 1) first;
    Array.unsafe_set slots (p + 2) last;
    Array.unsafe_set slots (p + 3) ((j lsl 1) lor w);
    Array.unsafe_set t.set_fill set (n + 1);
    true
  end

(* Walk reference [j] (base [a], byte stride [s]) one line at a time;
   false on set overflow. s = 0 is one visit for the whole trip, and
   |s| >= B (the line size) one visit per iteration. Otherwise lines
   are consecutive (upward for s > 0, downward for s < 0), and a line
   entered at offset [off] — bytes past its first byte for s > 0, below
   its last byte for s < 0 — keeps the reference for
   [ceil((B - off) / |s|)] iterations, after which the next line is
   entered at offset [off + n * |s| - B < |s|]. With B = q |s| + r that
   count is q + 1 when off < r and q otherwise, so the walk divides
   only up front, not once per line. *)
let visit_ref t ~trip ~nrefs j a s write =
  let shift = t.line_shift in
  let b = 1 lsl shift and u = abs s in
  if trip = 0 then true
  else if s = 0 then visit t (a lsr shift) j (((trip - 1) * nrefs) + j) j write
  else begin
    let ok = ref true and tc = ref 0 in
    if u >= b then
      while !ok && !tc < trip do
        let key = (!tc * nrefs) + j in
        ok := visit t ((a + (!tc * s)) lsr shift) key key j write;
        incr tc
      done
    else begin
      let q = b / u in
      let r = b - (q * u) in
      let step = if s > 0 then 1 else -1 in
      let line = ref (a lsr shift) in
      let off =
        ref (if s > 0 then a land (b - 1) else b - 1 - (a land (b - 1)))
      in
      let n = ref ((b - !off + u - 1) / u) in
      while !ok && !tc < trip do
        let tl = if !tc + !n > trip then trip - 1 else !tc + !n - 1 in
        ok := visit t !line ((!tc * nrefs) + j) ((tl * nrefs) + j) j write;
        tc := !tc + !n;
        line := !line + step;
        off := !off + (!n * u) - b;
        n := if !off < r then q + 1 else q
      done
    end;
    !ok
  end

(* Settle the slots of one set for a group whose statistics were
   already advanced as all hits from clock [c0] ([g] is its header's
   index in [data]): probe the set once per slot, in first-touch order,
   and take back a hit for each miss. A line is missed at most once, at
   its first touch, and the LRU victim of that miss is always an entry
   the group has not touched (see [simulate_runs]). *)
let settle_set t ~c0 ~data ~g ~marks reg set =
  let slots = t.slots in
  let n = Array.unsafe_get t.set_fill set in
  Array.unsafe_set t.set_fill set 0;
  let sb = set * t.assoc * slot_words in
  (* Insertion sort by first-touch key; n <= assoc. *)
  for k = 1 to n - 1 do
    let k' = ref k in
    while
      !k' > 0
      && Array.unsafe_get slots (sb + (!k' * slot_words) + 1)
         < Array.unsafe_get slots (sb + ((!k' - 1) * slot_words) + 1)
    do
      let p = sb + (!k' * slot_words) and q = sb + ((!k' - 1) * slot_words) in
      for f = 0 to slot_words - 1 do
        let x = Array.unsafe_get slots (p + f) in
        Array.unsafe_set slots (p + f) (Array.unsafe_get slots (q + f));
        Array.unsafe_set slots (q + f) x
      done;
      decr k'
    done
  done;
  let base = set * t.assoc in
  for k = 0 to n - 1 do
    let p = sb + (k * slot_words) in
    let line = Array.unsafe_get slots p in
    let flags = Array.unsafe_get slots (p + 3) in
    let any_write = flags land 1 = 1 in
    let e = find_way t base line in
    let e =
      if e >= 0 then begin
        if any_write then Array.unsafe_set t.dirty e true;
        e
      end
      else begin
        let e = victim t base in
        let cold = refill t e line any_write in
        let r = Array.unsafe_get data (g + 1 + (2 * (flags lsr 1))) in
        t.hits <- t.hits - 1;
        if rec_write r then t.write_hits <- t.write_hits - 1;
        if is_marked marks (rec_label r) then begin
          reg.r_hits <- reg.r_hits - 1;
          if cold then reg.r_cold <- reg.r_cold + 1
        end;
        e
      end
    in
    Array.unsafe_set t.ages e (c0 + Array.unsafe_get slots (p + 2) + 1)
  done

(* Replay a v2 run chunk. Statistics, region tallies and the final
   cache state are identical to expanding every group round-robin and
   running [access_full] per access.

   A group is settled by line visits when no set receives more than
   [assoc] of its distinct lines. Induction over the group's accesses:
   a line is missed only at its first touch, because when some line of
   set S misses, at most [assoc - 1] other group lines of S have been
   touched, so at least one entry of S still holds its pre-group age
   (<= c0) while every touched entry is younger (> c0) — the LRU
   victim is a pre-group entry, picked by pre-group ages alone. So
   probing each set once per distinct line, in first-touch order, with
   touched entries given any age above c0, makes exactly the misses,
   victims and write-backs of per-access replay; every other access is
   a hit. Final ages are the last-touch clocks and a line's dirty bit
   is "any write", or-ed with the old bit on a hit.

   Otherwise — and for groups where every reference leaves its line
   each iteration, which would visit one line per access — the group is
   replayed per access. *)
let simulate_runs t ?marked ?region ?metrics (rc : Runchunk.t) =
  let data = rc.Runchunk.data in
  let len = rc.Runchunk.len in
  let marks = marks_of marked region in
  let reg = match region with Some r -> r | None -> fresh_region () in
  let m = match metrics with Some m -> m | None -> fresh_run_metrics () in
  let shift = t.line_shift in
  let line_bytes = t.config.line_bytes in
  let i = ref 0 in
  while !i < len do
    let w = Array.unsafe_get data !i in
    if w >= 0 then begin
      let code = lookup t (rec_addr w lsr shift) (rec_write w) in
      if is_marked marks (rec_label w) then tally reg code;
      incr i
    end
    else begin
      let g = !i in
      let trip = Runchunk.header_trip w in
      let nrefs = Runchunk.header_nrefs w in
      i := g + Runchunk.group_words ~nrefs;
      m.m_groups <- m.m_groups + 1;
      let sub_line = ref false in
      for j = 0 to nrefs - 1 do
        if abs data.(g + 2 + (2 * j)) < line_bytes then sub_line := true
      done;
      let fits = ref !sub_line in
      if !sub_line then begin
        let j = ref 0 in
        while !fits && !j < nrefs do
          let r = data.(g + 1 + (2 * !j)) in
          fits :=
            visit_ref t ~trip ~nrefs !j (rec_addr r)
              data.(g + 2 + (2 * !j))
              (rec_write r);
          incr j
        done;
        if not !fits then clear_slots t
      end;
      if !fits then begin
        let c0 = t.clock in
        let n = trip * nrefs in
        let nwrites = ref 0 and nmarked = ref 0 in
        for j = 0 to nrefs - 1 do
          let r = data.(g + 1 + (2 * j)) in
          if rec_write r then incr nwrites;
          if is_marked marks (rec_label r) then incr nmarked
        done;
        t.clock <- c0 + n;
        t.accesses <- t.accesses + n;
        t.hits <- t.hits + n;
        t.writes <- t.writes + (trip * !nwrites);
        t.write_hits <- t.write_hits + (trip * !nwrites);
        reg.r_accesses <- reg.r_accesses + (trip * !nmarked);
        reg.r_hits <- reg.r_hits + (trip * !nmarked);
        for k = 0 to t.ntouched - 1 do
          settle_set t ~c0 ~data ~g ~marks reg (Array.unsafe_get t.touched k)
        done;
        t.ntouched <- 0;
        m.m_bulk_iters <- m.m_bulk_iters + trip
      end
      else begin
        m.m_fallbacks <- m.m_fallbacks + 1;
        m.m_boundaries <- m.m_boundaries + trip;
        for it = 0 to trip - 1 do
          for j = 0 to nrefs - 1 do
            let r = Array.unsafe_get data (g + 1 + (2 * j)) in
            let s = Array.unsafe_get data (g + 2 + (2 * j)) in
            let addr = rec_addr r + (it * s) in
            let code = lookup t (addr lsr shift) (rec_write r) in
            if is_marked marks (rec_label r) then tally reg code
          done
        done
      end
    end
  done

let stats t =
  {
    accesses = t.accesses;
    hits = t.hits;
    misses = t.accesses - t.hits;
    cold_misses = t.cold;
    writes = t.writes;
    write_hits = t.write_hits;
    writebacks = t.writebacks;
  }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.ages 0 (Array.length t.ages) 0;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.clock <- 0;
  t.accesses <- 0;
  t.hits <- 0;
  t.cold <- 0;
  t.writes <- 0;
  t.write_hits <- 0;
  t.writebacks <- 0;
  Bytes.fill t.seen_bits 0 (Bytes.length t.seen_bits) '\000';
  t.seen_count <- 0

(* The one hit-rate definition, shared with [Measure.hit_rate]: with no
   accesses at all the rate is vacuously 100%, but a run whose accesses
   were *all* cold misses (denominator 0 with accesses > 0) hit nothing
   and reports 0 — not the misleading 100.0 the seed returned. *)
let rate_of_counts ?(exclude_cold = true) ~accesses ~hits ~cold () =
  if accesses = 0 then 100.0
  else
    let denom = if exclude_cold then accesses - cold else accesses in
    if denom <= 0 then 0.0
    else 100.0 *. float_of_int hits /. float_of_int denom

let hit_rate ?exclude_cold (s : stats) =
  rate_of_counts ?exclude_cold ~accesses:s.accesses ~hits:s.hits
    ~cold:s.cold_misses ()

let num_sets t = t.sets
let lines_touched t = t.seen_count
