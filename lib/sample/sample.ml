module Chunk = Locality_cachesim.Chunk
module Runchunk = Locality_cachesim.Runchunk

(* SHARDS (Waldspurger et al.): hash-based spatial sampling. A sampling
   unit is in the sample iff hash(unit) < threshold within a 2^24 hash
   space; every access to a sampled unit is processed exactly (reuse
   distance via Bennett-Kruskal over sampled-access time) and the
   observation is weighted by 1/R = modulus/threshold. Accesses to
   unsampled units touch nothing but the exact tallies, which is what
   makes the group fast path in [consume_group] possible.

   Distances are per cache SET (line land (sets - 1), the simulator's
   mapping): a W-way LRU set hits exactly when fewer than W distinct
   same-set lines intervened since the last touch, so with [sets] equal
   to the target geometry's set count the estimator has no model error.

   The sampling unit depends on [sets]. With [sets = 1] the unit is the
   cache line — classic fully-associative SHARDS, with subsampled
   distances rescaled by 1/R. With [sets > 1] the unit is the SET
   (Kessler-style set sampling): a sampled set tracks every one of its
   lines, so same-set distances — and therefore the W-way hit/miss
   verdict — are exact per observation, and 1/R weighting only carries
   the across-set selection. Line sampling would instead quantise
   rescaled distances at 1/R granularity, useless against a hit
   threshold of 2-4 ways; set sampling keeps the estimator unbiased at
   any rate, and exact at rate 1.0. *)

let modulus_bits = 24
let modulus = 1 lsl modulus_bits

(* Fixed 63-bit mixer (multiply-xorshift, constants < 2^62 so they are
   valid OCaml int literals); deterministic across runs and platforms. *)
let mix z =
  let z = z lxor (z lsr 31) in
  let z = z * 0x2545F4914F6CDD1D in
  let z = z lxor (z lsr 29) in
  let z = z * 0x1D8E4E27C47D124F in
  let z = z lxor (z lsr 32) in
  z

(* Per-set distance tracker: a Fenwick (Bennett-Kruskal) array over
   this set's sampled-access time, plus the set's most recently touched
   line, whose re-touch has distance 0 without consulting either. *)
type set_state = {
  mutable bit : int array;  (* Fenwick over sampled-access time, 1-based *)
  mutable capacity : int;
  mutable time : int;
  mutable mru : int;  (* line holding the latest mark; -1 when none *)
  last : (int, int) Hashtbl.t;  (* sampled line -> last sampled time *)
}

(* Distances below this go to a dense per-label float array; larger
   ones to a per-label table. *)
let dense_width = 64

(* Placeholder for a set no sampled access has reached yet; the real
   tracker is made on first use. *)
let no_state =
  { bit = [||]; capacity = 0; time = 0; mru = -1; last = Hashtbl.create 1 }

type t = {
  line_shift : int;
  line_bytes : int;
  sets : int;
  set_mask : int;
  cfg_rate : float;  (* configured rate, clamped into (0, 1] *)
  seed : int;
  seed_mix : int;
  init_threshold : int;
  max_tracked : int;
  set_hashes : int array;  (* sorted set-index hashes; empty for sets = 1 *)
  span : int;  (* sets * line_bytes: the address period of the set map *)
  (* Set sampling's verdict per set, rebuilt whenever the threshold
     moves; meaningless for sets = 1. *)
  samp : Bytes.t;  (* '\001' where the set is sampled *)
  mutable nsamp : int;
  mutable samp_sets : int array;  (* the sampled sets, ascending *)
  mutable threshold : int;
  mutable unit_weight : float;  (* per-observation weight under threshold *)
  mutable gen : int;  (* bumped on every adaptation; invalidates caches *)
  (* exact tallies *)
  mutable accesses : int;
  mutable label_accesses : int array;
  mutable label_cold : float array;
  mutable nlabels : int;
  mutable dense : float array;  (* label * dense_width + d, d < dense_width *)
  label_hist : (int, (int, float) Hashtbl.t) Hashtbl.t;  (* d >= dense_width *)
  (* sampled-trace state *)
  mutable sampled : int;
  mutable adaptations : int;
  mutable tracked : int;  (* lines tracked across every set *)
  set_states : set_state array;
  (* group-walk scratch, grown to the widest group seen *)
  mutable g_addr : int array;
  mutable g_stride : int array;
  mutable g_label : int array;
  mutable g_samp : bool array;
  mutable g_cross : int array;
  mutable g_next : int array;
}

let rate_env = "MEMORIA_SAMPLE_RATE"

let current_rate () =
  match Sys.getenv_opt rate_env with
  | Some s -> ( try float_of_string s with _ -> 0.01)
  | None -> 0.01

(* Rebuild the set-sampling state from the threshold: the per-set
   verdict and the sampled-set list. A no-op for line sampling. *)
let rebuild_sampled t =
  if t.sets > 1 then begin
    let on = ref [] in
    for s = t.sets - 1 downto 0 do
      let v = mix (s lxor t.seed_mix) land (modulus - 1) < t.threshold in
      Bytes.unsafe_set t.samp s (if v then '\001' else '\000');
      if v then on := s :: !on
    done;
    t.samp_sets <- Array.of_list !on;
    t.nsamp <- Array.length t.samp_sets
  end

let create ?rate ?(seed = 0) ?(max_tracked = 65536) ?(sets = 1) ~line_bytes ()
    =
  let rate = match rate with Some r -> r | None -> current_rate () in
  if rate <= 0.0 then invalid_arg "Sample.create: rate must be positive";
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Sample.create: line_bytes must be a positive power of two";
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Sample.create: sets must be a positive power of two";
  let shift =
    let s = ref 0 in
    while 1 lsl !s < line_bytes do
      incr s
    done;
    !s
  in
  let seed_mix = seed * 0x9E3779B9 in
  let set_hashes =
    if sets = 1 then [||]
    else begin
      let a = Array.init sets (fun s -> mix (s lxor seed_mix) land (modulus - 1)) in
      Array.sort compare a;
      a
    end
  in
  (* Line sampling: threshold = rate * modulus, weight = modulus /
     threshold (the footprint is unbounded, so the realised fraction of
     sampled lines concentrates on the rate). Set sampling: the
     population is the small, known set universe, so pick the
     [round (rate * sets)] sets with the smallest hashes (threshold =
     k-th order statistic + 1) and weight by sets / |sampled| — a ratio
     estimator; a raw 1/R weight would inherit the large realised-
     fraction noise of a 100-odd-element sample. *)
  let threshold, unit_weight =
    if sets = 1 then begin
      let thr =
        if rate >= 1.0 then modulus
        else max 1 (int_of_float ((rate *. float_of_int modulus) +. 0.5))
      in
      (thr, float_of_int modulus /. float_of_int thr)
    end
    else begin
      let k =
        min sets (max 1 (int_of_float ((rate *. float_of_int sets) +. 0.5)))
      in
      let thr = set_hashes.(k - 1) + 1 in
      let c = ref 0 in
      Array.iter (fun h -> if h < thr then incr c) set_hashes;
      (thr, float_of_int sets /. float_of_int !c)
    end
  in
  let t =
    {
      line_shift = shift;
      line_bytes;
      sets;
      set_mask = sets - 1;
      cfg_rate = Float.min rate 1.0;
      seed;
      seed_mix;
      set_hashes;
      span = sets * line_bytes;
      samp = Bytes.make sets '\000';
      nsamp = 0;
      samp_sets = [||];
      init_threshold = threshold;
      max_tracked = max 1 max_tracked;
      threshold;
      unit_weight;
      gen = 0;
      accesses = 0;
      label_accesses = Array.make 8 0;
      label_cold = Array.make 8 0.0;
      nlabels = 0;
      dense = Array.make (8 * dense_width) 0.0;
      label_hist = Hashtbl.create 16;
      sampled = 0;
      adaptations = 0;
      tracked = 0;
      set_states = Array.make sets no_state;
      g_addr = Array.make 8 0;
      g_stride = Array.make 8 0;
      g_label = Array.make 8 0;
      g_samp = Array.make 8 false;
      g_cross = Array.make 8 0;
      g_next = Array.make 8 0;
    }
  in
  rebuild_sampled t;
  t

(* The sampling unit: the line itself when fully associative, the
   line's set otherwise (set sampling). *)
let skey t line = if t.set_mask = 0 then line else line land t.set_mask
let hash t line = mix (skey t line lxor t.seed_mix) land (modulus - 1)

(* Whether [set] is in the set sample; sets > 1 only. *)
let set_sampled t set = Bytes.unsafe_get t.samp set <> '\000'

(* The sampling verdict for a line: the hash for line sampling, the
   set's bit (the same hash, precomputed) for set sampling. *)
let line_sampled t line =
  if t.set_mask = 0 then hash t line < t.threshold
  else set_sampled t (line land t.set_mask)

let accesses t = t.accesses
let sampled t = t.sampled
let adaptations t = t.adaptations
(* The realised sampling fraction: threshold over hash space for line
   sampling, sampled sets over total sets for set sampling (where the
   threshold is an order statistic, not rate * modulus). *)
let effective_rate t =
  if t.set_mask = 0 then float_of_int t.threshold /. float_of_int modulus
  else float_of_int t.nsamp /. float_of_int t.sets

(* ----------------------------------------------- Fenwick tracker --- *)

let bit_add s i v =
  let i = ref i in
  while !i <= s.capacity do
    s.bit.(!i) <- s.bit.(!i) + v;
    i := !i + (!i land - !i)
  done

let bit_sum s i =
  let sum = ref 0 and i = ref i in
  while !i > 0 do
    sum := !sum + s.bit.(!i);
    i := !i - (!i land - !i)
  done;
  !sum

(* Reassign a set's sampled times 1..k in order. Distances depend only
   on the relative order of marks, so compaction is invisible to the
   estimator and keeps each Fenwick array O(tracked lines) no matter how
   long the trace runs. *)
let compact s =
  let entries = Hashtbl.fold (fun line tm acc -> (tm, line) :: acc) s.last [] in
  let entries = List.sort compare entries in
  Array.fill s.bit 0 (s.capacity + 1) 0;
  let k = ref 0 in
  List.iter
    (fun (_, line) ->
      incr k;
      Hashtbl.replace s.last line !k;
      bit_add s !k 1)
    entries;
  s.time <- !k

let next_time s =
  if s.time + 1 > s.capacity then
    if Hashtbl.length s.last * 4 <= s.capacity then compact s
    else begin
      s.capacity <- s.capacity * 2;
      s.bit <- Array.make (s.capacity + 1) 0;
      Hashtbl.iter (fun _ tm -> bit_add s tm 1) s.last
    end;
  s.time <- s.time + 1;
  s.time

let set_state t set =
  let s = t.set_states.(set) in
  if s != no_state then s
  else begin
    let s =
      { bit = Array.make 65 0; capacity = 64; time = 0; mru = -1;
        last = Hashtbl.create 16 }
    in
    t.set_states.(set) <- s;
    s
  end

(* ----------------------------------------------- exact tallies ----- *)

let ensure_label t lid =
  if lid >= Array.length t.label_accesses then begin
    let old = Array.length t.label_accesses in
    let cap = max (lid + 1) (2 * old) in
    let la = Array.make cap 0 and lc = Array.make cap 0.0 in
    let dn = Array.make (cap * dense_width) 0.0 in
    Array.blit t.label_accesses 0 la 0 old;
    Array.blit t.label_cold 0 lc 0 old;
    Array.blit t.dense 0 dn 0 (old * dense_width);
    t.label_accesses <- la;
    t.label_cold <- lc;
    t.dense <- dn
  end;
  if lid >= t.nlabels then t.nlabels <- lid + 1

(* Each (label, distance) cell is its own accumulator, so a dense cell
   sums its weights in the same order a table entry would. Weights are
   positive: a zero cell was never observed. *)
let add_hist t label d w =
  if d < dense_width then begin
    let i = (label * dense_width) + d in
    Array.unsafe_set t.dense i (Array.unsafe_get t.dense i +. w)
  end
  else begin
    let h =
      match Hashtbl.find_opt t.label_hist label with
      | Some h -> h
      | None ->
        let h = Hashtbl.create 32 in
        Hashtbl.replace t.label_hist label h;
        h
    in
    let prev = match Hashtbl.find_opt h d with Some w -> w | None -> 0.0 in
    Hashtbl.replace h d (prev +. w)
  end

(* ----------------------------------------------- sampled events ---- *)

(* Halve the sample. Line sampling halves the threshold directly; set
   sampling halves the sampled-set count and rethresholds at the order
   statistic, keeping the weight a true sets/|sampled| ratio. Returns
   false when the sample cannot shrink further. *)
let shrink_threshold t =
  if t.set_mask = 0 then
    if t.threshold > 1 then begin
      t.threshold <- t.threshold / 2;
      t.unit_weight <- float_of_int modulus /. float_of_int t.threshold;
      true
    end
    else false
  else begin
    let k = t.nsamp / 2 in
    if k < 1 then false
    else begin
      t.threshold <- t.set_hashes.(k - 1) + 1;
      rebuild_sampled t;
      t.unit_weight <- float_of_int t.sets /. float_of_int t.nsamp;
      true
    end
  end

let adapt t =
  t.adaptations <- t.adaptations + 1;
  t.gen <- t.gen + 1;
  Array.iter
    (fun s ->
      if s != no_state then begin
        let evict =
          Hashtbl.fold
            (fun line tm acc ->
              if line_sampled t line then acc else (line, tm) :: acc)
            s.last []
        in
        List.iter
          (fun (line, tm) ->
            bit_add s tm (-1);
            Hashtbl.remove s.last line;
            t.tracked <- t.tracked - 1)
          evict;
        if not (Hashtbl.mem s.last s.mru) then s.mru <- -1
      end)
    t.set_states

(* One access to a currently-sampled line. The caller has already
   checked the sampling verdict and bumped the exact tallies.

   A re-touch of the set's most recent line has distance 0 (no other
   line of the set intervened) and leaves the set's recency order as it
   was, so it only records the observation; the budget check still runs,
   since an earlier shrink may have left the sample over budget. *)
let sampled_event t ~label ~line =
  t.sampled <- t.sampled + 1;
  let w = t.unit_weight in
  let s = set_state t (line land t.set_mask) in
  if line = s.mru then add_hist t label 0 w
  else begin
    (match Hashtbl.find_opt s.last line with
    | Some t_old ->
      let d = Hashtbl.length s.last - bit_sum s t_old in
      (* Line sampling subsamples the distance, so rescale by 1/R; set
         sampling tracks every same-set line, so [d] is already exact. *)
      let scaled =
        if t.set_mask = 0 then int_of_float ((float_of_int d *. w) +. 0.5)
        else d
      in
      add_hist t label scaled w;
      bit_add s t_old (-1);
      Hashtbl.remove s.last line;
      t.tracked <- t.tracked - 1
    | None -> t.label_cold.(label) <- t.label_cold.(label) +. w);
    let tm = next_time s in
    Hashtbl.replace s.last line tm;
    bit_add s tm 1;
    s.mru <- line;
    t.tracked <- t.tracked + 1
  end;
  if t.tracked > t.max_tracked && shrink_threshold t then adapt t

let access t ~label ~addr =
  t.accesses <- t.accesses + 1;
  ensure_label t label;
  t.label_accesses.(label) <- t.label_accesses.(label) + 1;
  let line = addr lsr t.line_shift in
  if line_sampled t line then sampled_event t ~label ~line

(* ----------------------------------------------- modular search ---- *)

(* Least x >= 0 with l <= (a * x) mod m <= r, for 0 <= a < m and
   0 <= l <= r < m; max_int when there is none. Euclid-style: if the
   first lap of multiples of [a] does not land in [l, r], a hit after
   y wraps means some multiple of [a] lies in [l + m*y, r + m*y], which
   is the same problem for (m mod a) modulo a with the interval
   reflected; the least y gives the least x. O(log m) steps. *)
let rec first_hit a m l r =
  if l = 0 then 0
  else if a = 0 then max_int
  else begin
    let x = (l + a - 1) / a in
    if a * x <= r then x
    else begin
      (* [l, r] holds no multiple of [a], so 0 < l mod a <= r mod a. *)
      let y = first_hit (m mod a) a (a - (r mod a)) (a - (l mod a)) in
      if y = max_int then max_int else (l + (m * y) + a - 1) / a
    end
  end

(* ----------------------------------------------- group fast path --- *)

let ensure_scratch t n =
  if Array.length t.g_addr < n then begin
    let cap = max n (2 * Array.length t.g_addr) in
    t.g_addr <- Array.make cap 0;
    t.g_stride <- Array.make cap 0;
    t.g_label <- Array.make cap 0;
    t.g_samp <- Array.make cap false;
    t.g_cross <- Array.make cap 0;
    t.g_next <- Array.make cap 0
  end

(* Set sampling: the least k in [0, rem) at which a reference at byte
   address [a] with byte stride [s] touches a line of a sampled set, or
   max_int. Modulo the set map's period [span], the reference's k-th
   address is a0 + k * s and a sampled set is one line's byte range, so
   each sampled set costs one modular search; for a sub-line stride,
   which enters every line in turn, the search ends at its first
   division. *)
let first_sampled t a s rem =
  let shift = t.line_shift in
  if set_sampled t ((a lsr shift) land t.set_mask) then 0
  else begin
    let m = t.span in
    let sm = s land (m - 1) in
    if sm = 0 then max_int (* the reference never leaves its set *)
    else begin
      (* [a] lies outside every sampled range, so [l, l + line_bytes - 1]
         stays inside [0, m). *)
      let a0 = a land (m - 1) in
      let best = ref rem in
      for i = 0 to t.nsamp - 1 do
        let l = ((t.samp_sets.(i) lsl shift) - a0) land (m - 1) in
        let k = first_hit sm m l (l + t.line_bytes - 1) in
        if k < !best then best := k
      done;
      if !best < rem then !best else max_int
    end
  end

(* The iteration (absolute, from [t0]) of reference [j]'s next access
   to a sampled set within the group's [trip], or max_int. *)
let next_event t j t0 trip =
  if t0 >= trip then max_int
  else begin
    let s = t.g_stride.(j) in
    let k = first_sampled t (t.g_addr.(j) + (t0 * s)) s (trip - t0) in
    if k = max_int then max_int else t0 + k
  end

(* Set sampling: only iterations at which some reference touches a
   sampled set can change the sampler, so each reference carries the
   iteration of its next such access, and the walk goes from one to the
   next, processing that iteration's sampled accesses in reference order
   (the replay interleaving). An adaptation only removes sets from the
   sample, so a carried iteration stays a lower bound: it is re-checked
   against the current verdict when reached. *)
let consume_group_sets t ~trip ~n =
  for j = 0 to n - 1 do
    t.g_next.(j) <- next_event t j 0 trip
  done;
  let fin = ref false in
  while not !fin do
    let tc = ref max_int in
    for j = 0 to n - 1 do
      if t.g_next.(j) < !tc then tc := t.g_next.(j)
    done;
    let tc = !tc in
    if tc = max_int then fin := true
    else begin
      for j = 0 to n - 1 do
        if t.g_next.(j) = tc then begin
          let line = (t.g_addr.(j) + (tc * t.g_stride.(j))) lsr t.line_shift in
          if set_sampled t (line land t.set_mask) then
            sampled_event t ~label:t.g_label.(j) ~line
        end
      done;
      for j = 0 to n - 1 do
        if t.g_next.(j) = tc then t.g_next.(j) <- next_event t j (tc + 1) trip
      done
    end
  done

(* Line sampling: each reference caches whether its current line is
   sampled and the iteration at which it next crosses a line boundary;
   while no reference sits in a sampled line, nothing can change the
   sampler state, so the walk jumps to the earliest crossing; while any
   does, iterations are processed per access in reference order. The
   threshold only ever decreases, so a cached "unsampled" verdict can
   never go stale; cached "sampled" verdicts are revalidated via the
   generation counter whenever an event adapts the threshold. *)
let consume_group_lines t ~trip ~n =
  let shift = t.line_shift in
  let lb = t.line_bytes in
  let cross_of j tc =
    let s = t.g_stride.(j) in
    if s = 0 then max_int
    else
      let o = t.g_addr.(j) land (lb - 1) in
      if s > 0 then tc + ((lb - o + s - 1) / s) else tc + (o / -s) + 1
  in
  let refresh j tc =
    t.g_samp.(j) <- hash t (t.g_addr.(j) lsr shift) < t.threshold;
    t.g_cross.(j) <- cross_of j tc
  in
  let any = ref 0 in
  let recount () =
    let c = ref 0 in
    for j = 0 to n - 1 do
      if t.g_samp.(j) then incr c
    done;
    any := !c
  in
  let seen_gen = ref t.gen in
  let revalidate () =
    if t.gen <> !seen_gen then begin
      for j = 0 to n - 1 do
        t.g_samp.(j) <- hash t (t.g_addr.(j) lsr shift) < t.threshold
      done;
      seen_gen := t.gen
    end
  in
  for j = 0 to n - 1 do
    refresh j 0
  done;
  recount ();
  let tc = ref 0 in
  while !tc < trip do
    if !any = 0 then begin
      let tnext = ref trip in
      for j = 0 to n - 1 do
        if t.g_cross.(j) < !tnext then tnext := t.g_cross.(j)
      done;
      let dt = !tnext - !tc in
      for j = 0 to n - 1 do
        t.g_addr.(j) <- t.g_addr.(j) + (dt * t.g_stride.(j))
      done;
      tc := !tnext;
      if !tc < trip then begin
        for j = 0 to n - 1 do
          if t.g_cross.(j) <= !tc then refresh j !tc
        done;
        recount ()
      end
    end
    else begin
      for j = 0 to n - 1 do
        if t.g_samp.(j) then begin
          revalidate ();
          if t.g_samp.(j) then
            sampled_event t ~label:t.g_label.(j) ~line:(t.g_addr.(j) lsr shift)
        end
      done;
      tc := !tc + 1;
      for j = 0 to n - 1 do
        t.g_addr.(j) <- t.g_addr.(j) + t.g_stride.(j);
        if t.g_cross.(j) <= !tc then refresh j !tc
      done;
      revalidate ();
      recount ()
    end
  done

(* Consume one group descriptor (trip iterations round-robin over n
   strided references) with the same observable effect as feeding every
   expanded access through [access]. Exact tallies are bulk counts (trip
   per reference); accesses to unsampled units touch nothing else, so
   the walk visits only the sampled ones. *)
let consume_group t ~trip ~n ~data ~off =
  ensure_scratch t n;
  for j = 0 to n - 1 do
    let r = data.(off + (2 * j)) in
    let label = Chunk.label r in
    ensure_label t label;
    t.label_accesses.(label) <- t.label_accesses.(label) + trip;
    t.g_label.(j) <- label;
    t.g_addr.(j) <- Chunk.addr r;
    t.g_stride.(j) <- data.(off + (2 * j) + 1)
  done;
  t.accesses <- t.accesses + (trip * n);
  if t.set_mask = 0 then consume_group_lines t ~trip ~n
  else consume_group_sets t ~trip ~n

let consume_runchunk t (rc : Runchunk.t) =
  let data = rc.Runchunk.data in
  let len = rc.Runchunk.len in
  let i = ref 0 in
  while !i < len do
    let w = data.(!i) in
    if Runchunk.is_header w then begin
      let nrefs = Runchunk.header_nrefs w in
      consume_group t ~trip:(Runchunk.header_trip w) ~n:nrefs ~data
        ~off:(!i + 1);
      i := !i + Runchunk.group_words ~nrefs
    end
    else begin
      t.accesses <- t.accesses + 1;
      let label = Chunk.label w in
      ensure_label t label;
      t.label_accesses.(label) <- t.label_accesses.(label) + 1;
      let line = Chunk.addr w lsr t.line_shift in
      if line_sampled t line then sampled_event t ~label ~line;
      incr i
    end
  done

(* ----------------------------------------------- profiles ---------- *)

type profile = {
  pf_line_bytes : int;
  pf_sets : int;
  pf_rate : float;
  pf_final_rate : float;
  pf_seed : int;
  pf_accesses : int;
  pf_ops : int;
  pf_sampled : int;
  pf_adaptations : int;
  pf_labels : string array;
  pf_label_accesses : int array;
  pf_label_cold : float array;
  pf_label_hist : (int * float) array array;
}

let profile t ~labels ~ops =
  let nl = Array.length labels in
  let slice a fill =
    Array.init nl (fun i -> if i < Array.length a then a.(i) else fill)
  in
  let hist lid =
    let far =
      match Hashtbl.find_opt t.label_hist lid with
      | None -> []
      | Some h -> Hashtbl.fold (fun d w acc -> (d, w) :: acc) h []
    in
    let near = ref [] in
    if lid < t.nlabels then
      for d = dense_width - 1 downto 0 do
        let w = t.dense.((lid * dense_width) + d) in
        if w <> 0.0 then near := (d, w) :: !near
      done;
    let a = Array.of_list (!near @ far) in
    Array.sort (fun (a, _) (b, _) -> compare (a : int) b) a;
    a
  in
  {
    pf_line_bytes = t.line_bytes;
    pf_sets = t.sets;
    pf_rate = t.cfg_rate;
    pf_final_rate = effective_rate t;
    pf_seed = t.seed;
    pf_accesses = t.accesses;
    pf_ops = ops;
    pf_sampled = t.sampled;
    pf_adaptations = t.adaptations;
    pf_labels = labels;
    pf_label_accesses = slice t.label_accesses 0;
    pf_label_cold = slice t.label_cold 0.0;
    pf_label_hist = Array.init nl (fun i -> hist i);
  }

let cold pf = Array.fold_left ( +. ) 0.0 pf.pf_label_cold

let hits_under pf lid ~ways =
  let h = pf.pf_label_hist.(lid) in
  let acc = ref 0.0 in
  (try
     Array.iter
       (fun (d, w) -> if d < ways then acc := !acc +. w else raise Exit)
       h
   with Exit -> ());
  !acc

let merged_histogram pf =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun (d, w) ->
         let prev = match Hashtbl.find_opt tbl d with Some w -> w | None -> 0.0 in
         Hashtbl.replace tbl d (prev +. w)))
    pf.pf_label_hist;
  let l = Hashtbl.fold (fun d w acc -> (d, w) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> compare (a : int) b) l
