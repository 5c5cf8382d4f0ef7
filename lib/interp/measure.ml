module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Obs = Locality_obs.Obs
module Store = Locality_store.Store
module Sample = Locality_sample.Sample

type region = {
  accesses : int;
  hits : int;
  cold : int;
}

type run = {
  whole : region;
  optimized : region;
  ops : int;
  cycles : float;
  seconds : float;
}

let hit_rate ?exclude_cold r =
  Cache.rate_of_counts ?exclude_cold ~accesses:r.accesses ~hits:r.hits
    ~cold:r.cold ()

(* ------------------------------------------------- capture / replay --- *)

(* A program is interpreted once into a batched trace; the trace is then
   replayed against any number of cache configurations. Replay is
   deterministic (the simulator is a pure function of the record
   sequence), so every replay of the same capture agrees bit-for-bit
   with the legacy interpret-per-config path.

   Two trace formats exist: the v1 per-access record stream and the v2
   run-compressed stream, whose strided-run groups both shrink the
   capture and let replay bulk-advance whole cache-line windows. The
   formats produce bit-identical statistics (differentially tested), so
   the choice is purely a performance knob: MEMORIA_REPLAY=per-access
   forces v1, anything else (including unset) captures v2.

   Every v2 capture (runs, stream, sample, and the analytic fallback)
   runs Fastexec's address-only executor: an address depends only on
   integer indices and parameters, so no array is allocated, no value
   is computed, ops are counted from the statements' structure, and a
   qualifying innermost-loop instance costs O(1). The v1 capture still
   executes every value, so comparing per-access with runs also checks
   the structural counts against full execution.

   Two modes skip materialising the trace. MEMORIA_REPLAY=stream fuses
   capture and simulation: the interpreter's run-chunk sink calls
   Cache.simulate_runs on each chunk as it fills, so peak trace memory
   is one chunk at any iteration count — and because the chunk stream
   and the simulator are exactly those of a capture-then-replay, the
   runs are bit-identical to v2 replay. MEMORIA_REPLAY=sample feeds the
   same sink into a SHARDS sampled reuse-distance profiler
   ({!Locality_sample.Sample}); hits are then estimated from the scaled
   per-label histograms, with access/op counts exact.

   A further mode skips execution too: MEMORIA_REPLAY=analytic asks
   the closed-form locality model ({!Locality_analytic.Analytic}) for
   the run, in O(nest size) instead of O(iterations). Programs the
   model cannot analyze fall back to v2 capture-and-replay, so the mode
   is total; the fallback is counted under [analytic.fallback]. *)

type replay_mode = Per_access | Runs | Stream | Sampled | Analytic

let mode_of_string = function
  | "per-access" -> Some Per_access
  | "runs" -> Some Runs
  | "stream" -> Some Stream
  | "sample" -> Some Sampled
  | "analytic" -> Some Analytic
  | _ -> None

let mode_to_string = function
  | Per_access -> "per-access"
  | Runs -> "runs"
  | Stream -> "stream"
  | Sampled -> "sample"
  | Analytic -> "analytic"

let replay_mode () =
  match Sys.getenv_opt "MEMORIA_REPLAY" with
  (* Lenient on purpose: an unrecognized value falls back to the v2
     default rather than failing every entry point. The wire API
     ([Driver.Request]) is the strict surface. *)
  | Some s -> Option.value (mode_of_string s) ~default:Runs
  | None -> Runs

type traced = V1 of Trace.captured | V2 of Trace.captured_runs

type capture = {
  trace : traced;
  cap_ops : int;
  cap_key : string option;
      (* hex capture digest when a store is in play; lets replay derive
         result keys without re-digesting the program *)
}

(* ------------------------------------------------ store keying ------ *)

(* Everything that determines a capture goes into its digest: the trace
   format (v1 and v2 streams are distinct cache entries), the canonical
   program text (name, PARAMETERs, declarations and body — the pretty
   printer is the normal form), and any parameter overrides. Replay
   results additionally hash the cache geometry, the timing model and
   the optimized-region label set. The store mixes its own format
   version into every key, so marshalled-layout changes retire old
   entries wholesale. *)

(* Analytic-mode fallbacks capture a v2 trace, so they share the v2
   capture (and run) store entries rather than duplicating them; a
   forced capture under the stream/sample modes (trace_stats) is an
   ordinary v2 capture too. *)
let mode_tag = function
  | Per_access -> "v1"
  | Runs | Stream | Sampled | Analytic -> "v2"

let params_tag params =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) params)

(* Every key below takes the canonical program text ready-made, so a
   prepared program prints once however many keys it derives. *)
let capture_key_text ~mode ?(params = []) text =
  Store.key ~kind:"capture" [ mode_tag mode; text; params_tag params ]

let capture_key ?mode ?params (p : Program.t) =
  let mode = match mode with Some m -> m | None -> replay_mode () in
  capture_key_text ~mode ?params (Pretty.program_to_string p)

let config_tag (c : Cache.config) =
  Printf.sprintf "%s/%d/%d/%d" c.Cache.name c.Cache.size_bytes c.Cache.assoc
    c.Cache.line_bytes

let timing_tag (t : Machine.timing) =
  Printf.sprintf "%h/%h/%h" t.Machine.cycles_per_op t.Machine.cycles_per_hit
    t.Machine.miss_penalty

let labels_tag labels =
  String.concat "\x00" (List.sort_uniq String.compare labels)

let run_key ~cap ~config ~timing ~labels =
  Store.key ~kind:"run"
    [ cap; config_tag config; timing_tag timing; labels_tag labels ]

let hier_key ~cap ~l1 ~l2 =
  Store.key ~kind:"hier" [ cap; config_tag l1; config_tag l2 ]

let trace_labels cap =
  match cap.trace with
  | V1 t -> t.Trace.trace_labels
  | V2 t -> t.Trace.run_trace_labels

let trace_stats cap =
  match cap.trace with
  | V1 t -> (t.Trace.records, t.Trace.records, 0)
  | V2 t -> (t.Trace.run_records, t.Trace.run_stream_words, t.Trace.run_groups)

let interpret_capture ~mode ?params ~cap_key (p : Program.t) =
  Obs.span "capture" (fun () ->
      match mode with
      | Per_access ->
        let tr, finish = Trace.capturing () in
        let res = Fastexec.run_traced ?params tr p in
        let t = finish () in
        if Obs.enabled () then begin
          Obs.add_span_arg "format" "v1";
          Obs.add_span_arg "records" (string_of_int t.Trace.records);
          Obs.add_span_arg "ops" (string_of_int res.Fastexec.ops);
          Obs.histogram "capture.records" t.Trace.records
        end;
        { trace = V1 t; cap_ops = res.Fastexec.ops; cap_key }
      | Runs | Stream | Sampled | Analytic ->
        let rb, finish = Trace.run_capturing () in
        let res = Fastexec.run_traced_runs ?params rb p in
        let t = finish () in
        if Obs.enabled () then begin
          Obs.add_span_arg "format" "v2";
          Obs.add_span_arg "records" (string_of_int t.Trace.run_records);
          Obs.add_span_arg "stream_words"
            (string_of_int t.Trace.run_stream_words);
          Obs.add_span_arg "groups" (string_of_int t.Trace.run_groups);
          Obs.add_span_arg "ops" (string_of_int res.Fastexec.ops);
          Obs.counter "trace.runs_emitted" t.Trace.run_groups;
          Obs.counter "trace.records_compressed"
            (t.Trace.run_records - t.Trace.run_stream_words);
          Obs.histogram "capture.records" t.Trace.run_records
        end;
        { trace = V2 t; cap_ops = res.Fastexec.ops; cap_key })

let capture ?mode ?params ?(store = Store.default ()) (p : Program.t) =
  let mode = match mode with Some m -> m | None -> replay_mode () in
  match store with
  | None -> interpret_capture ~mode ?params ~cap_key:None p
  | Some st -> (
    let k = capture_key ~mode ?params p in
    let cap_key = Some (Store.hex k) in
    match (Store.get_value st k : (traced * int) option) with
    | Some (trace, ops) ->
      Obs.span "capture" ~args:[ ("store", "hit") ] (fun () ->
          { trace; cap_ops = ops; cap_key })
    | None ->
      let c = interpret_capture ~mode ?params ~cap_key p in
      Store.put_value st k (c.trace, c.cap_ops);
      c)

let replay_compute ~config ~timing ~optimized_labels cap =
  Obs.span "replay" ~args:[ ("cache", config.Cache.name) ] (fun () ->
  let cache = Cache.create config in
  let marked =
    Array.map (fun l -> List.mem l optimized_labels) (trace_labels cap)
  in
  let reg = Cache.fresh_region () in
  let chunks = ref 0 in
  let metrics = Cache.fresh_run_metrics () in
  (match cap.trace with
  | V1 t ->
    Trace.iter_chunks t (fun c ->
        incr chunks;
        Cache.simulate_chunk cache ~marked ~region:reg c)
  | V2 t ->
    Trace.iter_run_chunks t (fun rc ->
        incr chunks;
        Cache.simulate_runs cache ~marked ~region:reg ~metrics rc));
  let s = Cache.stats cache in
  if Obs.enabled () then begin
    Obs.add_span_arg "accesses" (string_of_int s.Cache.accesses);
    Obs.add_span_arg "hits" (string_of_int s.Cache.hits);
    Obs.add_span_arg "cold" (string_of_int s.Cache.cold_misses);
    Obs.add_span_arg "chunks_replayed" (string_of_int !chunks);
    Obs.counter "cache.accesses" s.Cache.accesses;
    Obs.counter "cache.hits" s.Cache.hits;
    Obs.counter "cache.cold" s.Cache.cold_misses;
    Obs.counter "chunks.replayed" !chunks;
    Obs.histogram "replay.accesses" s.Cache.accesses;
    (* Run-group replay, by path (see [Cache.run_metrics]):
       [replay.bulk_iters] counts group iterations settled by line
       visits, [replay.boundary_events] group iterations replayed per
       access, and [replay.fallbacks] groups replayed per access. *)
    if metrics.Cache.m_groups > 0 || metrics.Cache.m_fallbacks > 0 then begin
      Obs.add_span_arg "run_groups" (string_of_int metrics.Cache.m_groups);
      Obs.add_span_arg "boundary_events"
        (string_of_int metrics.Cache.m_boundaries);
      Obs.add_span_arg "bulk_iters" (string_of_int metrics.Cache.m_bulk_iters);
      Obs.add_span_arg "fallbacks" (string_of_int metrics.Cache.m_fallbacks);
      Obs.counter "replay.run_groups" metrics.Cache.m_groups;
      Obs.counter "replay.boundary_events" metrics.Cache.m_boundaries;
      Obs.counter "replay.bulk_iters" metrics.Cache.m_bulk_iters;
      Obs.counter "replay.fallbacks" metrics.Cache.m_fallbacks
    end
  end;
  let whole =
    {
      accesses = s.Cache.accesses;
      hits = s.Cache.hits;
      cold = s.Cache.cold_misses;
    }
  in
  let optimized =
    {
      accesses = reg.Cache.r_accesses;
      hits = reg.Cache.r_hits;
      cold = reg.Cache.r_cold;
    }
  in
  let misses = whole.accesses - whole.hits in
  let ops = cap.cap_ops in
  {
    whole;
    optimized;
    ops;
    cycles = Machine.cycles timing ~ops ~hits:whole.hits ~misses;
    seconds = Machine.seconds timing ~ops ~hits:whole.hits ~misses;
  })

let cached_run ~store ~cap_key ~config ~timing ~labels compute =
  match (store, cap_key) with
  | Some st, Some cap -> (
    let k = run_key ~cap ~config ~timing ~labels in
    match (Store.get_value st k : run option) with
    | Some r -> r
    | None ->
      let r = compute () in
      Store.put_value st k r;
      r)
  | _ -> compute ()

let replay ?(config = Machine.cache1) ?(timing = Machine.default_timing)
    ?(optimized_labels = []) ?(store = Store.default ()) cap =
  cached_run ~store ~cap_key:cap.cap_key ~config ~timing
    ~labels:optimized_labels (fun () ->
      replay_compute ~config ~timing ~optimized_labels cap)

(* ------------------------------------------------ prepared runs ----- *)

(* A prepared program defers its capture: replaying a prepared program
   first consults the result store, and only when a result is missing
   is the trace materialised (itself store-backed). On a fully warm
   store a whole table regenerates without interpreting or simulating
   anything. A [prepared] value memoises its capture, its sampled
   profiles and its program text, and is meant to be used from one
   domain (each pool work item prepares its own). *)

type prepared = {
  p_program : Program.t;
  p_params : (string * int) list option;
  p_mode : replay_mode;
  p_rate : float option;  (* explicit SHARDS rate; None = ambient *)
  p_configs : Cache.config list;  (* the geometries it will be replayed on *)
  p_store : Store.t option;
  p_text : string Lazy.t;  (* canonical program text, for store keys *)
  p_key : string option;
  mutable p_cap : capture option;
  mutable p_profiles : ((int * int) * Sample.profile) list;
      (* SHARDS profiles by (line bytes, sets) partition *)
}

let prepare ?mode ?rate ?(configs = []) ?params ?(store = Store.default ())
    (p : Program.t) =
  let mode = match mode with Some m -> m | None -> replay_mode () in
  let p_text = lazy (Pretty.program_to_string p) in
  let p_key =
    Option.map
      (fun _ -> Store.hex (capture_key_text ~mode ?params (Lazy.force p_text)))
      store
  in
  { p_program = p; p_params = params; p_mode = mode; p_rate = rate;
    p_configs = configs; p_store = store; p_text; p_key; p_cap = None;
    p_profiles = [] }

let prepared_capture pr =
  match pr.p_cap with
  | Some c -> c
  | None ->
    let c =
      capture ~mode:pr.p_mode ?params:pr.p_params ~store:pr.p_store
        pr.p_program
    in
    pr.p_cap <- Some c;
    c

(* ------------------------------------------------ analytic mode ----- *)

module Analytic_model = Locality_analytic.Analytic

(* The analytic result is keyed on everything that determines it —
   program text, parameters, geometry, timing, labels — under its own
   store kind, so estimates never collide with simulated runs. *)
let analytic_key ?(params = []) ~config ~timing ~labels text =
  Store.key ~kind:"analytic"
    [
      text;
      params_tag params;
      config_tag config;
      timing_tag timing;
      labels_tag labels;
    ]

let run_of_estimate ~timing (est : Analytic_model.estimate) =
  let whole =
    {
      accesses = est.Analytic_model.e_whole.Analytic_model.c_accesses;
      hits = est.Analytic_model.e_whole.Analytic_model.c_hits;
      cold = est.Analytic_model.e_whole.Analytic_model.c_cold;
    }
  in
  let optimized =
    {
      accesses = est.Analytic_model.e_optimized.Analytic_model.c_accesses;
      hits = est.Analytic_model.e_optimized.Analytic_model.c_hits;
      cold = est.Analytic_model.e_optimized.Analytic_model.c_cold;
    }
  in
  let ops = est.Analytic_model.e_ops in
  let misses = whole.accesses - whole.hits in
  {
    whole;
    optimized;
    ops;
    cycles = Machine.cycles timing ~ops ~hits:whole.hits ~misses;
    seconds = Machine.seconds timing ~ops ~hits:whole.hits ~misses;
  }

(* [None] is the fallback verdict: the caller replays the trace. The
   verdict itself is not cached — the analysis is O(nest size), cheaper
   than a store round-trip for anything it rejects. *)
let analytic_prepared ~config ~timing ~optimized_labels pr =
  let compute () =
    Obs.span "analytic" ~args:[ ("cache", config.Cache.name) ] (fun () ->
        match
          Analytic_model.estimate ?params:pr.p_params ~optimized_labels
            ~config pr.p_program
        with
        | Ok est ->
          if Obs.enabled () then
            Obs.add_span_arg "exact"
              (if est.Analytic_model.e_exact then "true" else "false");
          Some (run_of_estimate ~timing est)
        | Error reason ->
          if Obs.enabled () then begin
            Obs.counter "analytic.fallback" 1;
            Obs.add_span_arg "fallback" reason
          end;
          None)
  in
  match pr.p_store with
  | None -> compute ()
  | Some st -> (
    let k =
      analytic_key
        ?params:pr.p_params ~config ~timing ~labels:optimized_labels
        (Lazy.force pr.p_text)
    in
    match (Store.get_value st k : run option) with
    | Some r -> Some r
    | None -> (
      match compute () with
      | Some r ->
        Store.put_value st k r;
        Some r
      | None -> None))

(* ------------------------------------------------ streaming mode ---- *)

(* MEMORIA_REPLAY=stream: the interpreter's run-chunk sink simulates
   each chunk the moment it fills, so the whole measurement runs in
   O(chunk) trace memory at any iteration count. Labels are interned at
   closure-compile time — before the first access executes — so the
   marked-label array is complete by the first flush. Chunk boundaries
   and the simulator are exactly those of capture-then-replay, making
   the run bit-identical to [Runs]; the trade is per-geometry
   re-execution instead of a shared capture, which is the point:
   geometry count is small and bounded, iteration count is not. *)

let stream_key ?(params = []) ~config ~timing ~labels text =
  Store.key ~kind:"stream"
    [
      "run";
      text;
      params_tag params;
      config_tag config;
      timing_tag timing;
      labels_tag labels;
    ]

let stream_compute ~config ~timing ~optimized_labels ?params (p : Program.t) =
  Obs.span "stream" ~args:[ ("cache", config.Cache.name) ] (fun () ->
      let cache = Cache.create config in
      let reg = Cache.fresh_region () in
      let metrics = Cache.fresh_run_metrics () in
      let chunks = ref 0 in
      let marked = ref [||] in
      let rb_ref = ref None in
      let sink rc =
        (match !rb_ref with
        | Some rb ->
          let labels = Trace.run_labels rb in
          if Array.length !marked <> Array.length labels then
            marked := Array.map (fun l -> List.mem l optimized_labels) labels
        | None -> ());
        incr chunks;
        Cache.simulate_runs cache ~marked:!marked ~region:reg ~metrics rc
      in
      let rb = Trace.run_create ~sink () in
      rb_ref := Some rb;
      let res = Fastexec.run_traced_runs ?params rb p in
      let s = Cache.stats cache in
      if Obs.enabled () then begin
        Obs.add_span_arg "accesses" (string_of_int s.Cache.accesses);
        Obs.add_span_arg "chunks" (string_of_int !chunks);
        Obs.counter "stream.chunks" !chunks;
        Obs.counter "stream.accesses" s.Cache.accesses;
        Obs.counter "cache.accesses" s.Cache.accesses;
        Obs.counter "cache.hits" s.Cache.hits;
        Obs.counter "cache.cold" s.Cache.cold_misses
      end;
      let whole =
        {
          accesses = s.Cache.accesses;
          hits = s.Cache.hits;
          cold = s.Cache.cold_misses;
        }
      in
      let optimized =
        {
          accesses = reg.Cache.r_accesses;
          hits = reg.Cache.r_hits;
          cold = reg.Cache.r_cold;
        }
      in
      let misses = whole.accesses - whole.hits in
      let ops = res.Fastexec.ops in
      {
        whole;
        optimized;
        ops;
        cycles = Machine.cycles timing ~ops ~hits:whole.hits ~misses;
        seconds = Machine.seconds timing ~ops ~hits:whole.hits ~misses;
      })

let stream_prepared ~config ~timing ~optimized_labels pr =
  let compute () =
    stream_compute ~config ~timing ~optimized_labels ?params:pr.p_params
      pr.p_program
  in
  match pr.p_store with
  | None -> compute ()
  | Some st -> (
    let k =
      stream_key ?params:pr.p_params ~config ~timing ~labels:optimized_labels
        (Lazy.force pr.p_text)
    in
    match (Store.get_value st k : run option) with
    | Some r -> r
    | None ->
      let r = compute () in
      Store.put_value st k r;
      r)

(* ------------------------------------------------ sampled mode ------ *)

(* The SHARDS profile depends on the program, its parameters, the
   sampling rate/seed and the set partition (line size and set count) —
   not the associativity — so one profile (store kind "sample") serves
   every geometry sharing that partition. The run derived from it is
   cheap and recomputed on the fly: hits are the weight of observations
   with scaled same-set distance below the geometry's way count (the
   exact set-associative LRU condition), access and op counts are
   exact. *)

let sample_key ?(params = []) ~rate ~seed ~line_bytes ~sets text =
  Store.key ~kind:"sample"
    [
      "profile";
      text;
      params_tag params;
      Printf.sprintf "%h" rate;
      string_of_int seed;
      string_of_int line_bytes;
      string_of_int sets;
    ]

let partition (c : Cache.config) =
  let line_bytes = c.Cache.line_bytes in
  (line_bytes, max 1 (c.Cache.size_bytes / (line_bytes * c.Cache.assoc)))

(* One execution feeds a sampler per partition: the samplers are
   independent consumers of the same chunk stream, so each profile is
   the one a separate execution would have built. *)
let sample_profiles_compute ~rate ~parts ?params (p : Program.t) =
  let commas f l = String.concat "," (List.map (fun x -> string_of_int (f x)) l) in
  Obs.span "sample"
    ~args:[ ("line_bytes", commas fst parts); ("sets", commas snd parts) ]
    (fun () ->
      let samplers =
        List.map
          (fun (line_bytes, sets) -> Sample.create ~rate ~line_bytes ~sets ())
          parts
      in
      let sink rc = List.iter (fun s -> Sample.consume_runchunk s rc) samplers in
      let rb = Trace.run_create ~sink () in
      let res = Fastexec.run_traced_runs ?params rb p in
      let labels = Trace.run_labels rb in
      let profs =
        List.map
          (fun s -> Sample.profile s ~labels ~ops:res.Fastexec.ops)
          samplers
      in
      if Obs.enabled () then begin
        Obs.add_span_arg "accesses" (commas (fun pf -> pf.Sample.pf_accesses) profs);
        Obs.add_span_arg "sampled" (commas (fun pf -> pf.Sample.pf_sampled) profs);
        List.iter
          (fun pf ->
            Obs.counter "sample.accesses" pf.Sample.pf_accesses;
            Obs.counter "sample.sampled" pf.Sample.pf_sampled;
            Obs.counter "sample.adaptations" pf.Sample.pf_adaptations;
            Obs.gauge "sample.rate" pf.Sample.pf_final_rate)
          profs
      end;
      profs)

let run_of_sample_profile ~config ~timing ~optimized_labels
    (prof : Sample.profile) =
  let ways = config.Cache.assoc in
  let nl = Array.length prof.Sample.pf_labels in
  let w_hits = ref 0.0 and w_cold = ref 0.0 in
  let o_hits = ref 0.0 and o_cold = ref 0.0 in
  let o_acc = ref 0 in
  for lid = 0 to nl - 1 do
    let h = Sample.hits_under prof lid ~ways in
    let c = prof.Sample.pf_label_cold.(lid) in
    w_hits := !w_hits +. h;
    w_cold := !w_cold +. c;
    if List.mem prof.Sample.pf_labels.(lid) optimized_labels then begin
      o_acc := !o_acc + prof.Sample.pf_label_accesses.(lid);
      o_hits := !o_hits +. h;
      o_cold := !o_cold +. c
    end
  done;
  let clamp ~accesses hits_f cold_f =
    let hits = max 0 (min accesses (int_of_float (Float.round hits_f))) in
    let cold =
      max 0 (min (accesses - hits) (int_of_float (Float.round cold_f)))
    in
    { accesses; hits; cold }
  in
  let whole = clamp ~accesses:prof.Sample.pf_accesses !w_hits !w_cold in
  let optimized = clamp ~accesses:!o_acc !o_hits !o_cold in
  let ops = prof.Sample.pf_ops in
  let misses = whole.accesses - whole.hits in
  {
    whole;
    optimized;
    ops;
    cycles = Machine.cycles timing ~ops ~hits:whole.hits ~misses;
    seconds = Machine.seconds timing ~ops ~hits:whole.hits ~misses;
  }

(* The first sampled replay of a prepared program settles every
   partition its geometries need: store hits are read, and all the
   missing profiles come from one execution. *)
let prepared_profile pr part =
  match List.assoc_opt part pr.p_profiles with
  | Some prof -> prof
  | None ->
    let rate =
      match pr.p_rate with Some r -> r | None -> Sample.current_rate ()
    in
    let key (line_bytes, sets) =
      sample_key ?params:pr.p_params ~rate ~seed:0 ~line_bytes ~sets
        (Lazy.force pr.p_text)
    in
    let wanted =
      List.fold_left
        (fun acc pt ->
          if List.mem pt acc || List.mem_assoc pt pr.p_profiles then acc
          else pt :: acc)
        [] (List.map partition pr.p_configs @ [ part ])
      |> List.rev
    in
    let stored =
      List.map
        (fun pt ->
          ( pt,
            Option.bind pr.p_store (fun st ->
                (Store.get_value st (key pt) : Sample.profile option)) ))
        wanted
    in
    let missing =
      List.filter_map (fun (pt, v) -> if v = None then Some pt else None) stored
    in
    let computed =
      if missing = [] then []
      else
        List.combine missing
          (sample_profiles_compute ~rate ~parts:missing ?params:pr.p_params
             pr.p_program)
    in
    Option.iter
      (fun st ->
        List.iter (fun (pt, prof) -> Store.put_value st (key pt) prof) computed)
      pr.p_store;
    pr.p_profiles <-
      pr.p_profiles
      @ List.map
          (fun (pt, v) ->
            (pt, match v with Some prof -> prof | None -> List.assoc pt computed))
          stored;
    List.assoc part pr.p_profiles

let sample_prepared ~config ~timing ~optimized_labels pr =
  run_of_sample_profile ~config ~timing ~optimized_labels
    (prepared_profile pr (partition config))

let replay_prepared ?(config = Machine.cache1)
    ?(timing = Machine.default_timing) ?(optimized_labels = []) pr =
  let simulate () =
    cached_run ~store:pr.p_store ~cap_key:pr.p_key ~config ~timing
      ~labels:optimized_labels (fun () ->
        replay_compute ~config ~timing ~optimized_labels
          (prepared_capture pr))
  in
  match pr.p_mode with
  | Analytic -> (
    match analytic_prepared ~config ~timing ~optimized_labels pr with
    | Some r -> r
    | None -> simulate ())
  | Stream -> stream_prepared ~config ~timing ~optimized_labels pr
  | Sampled -> sample_prepared ~config ~timing ~optimized_labels pr
  | Per_access | Runs -> simulate ()

let measure ?config ?timing ?optimized_labels ?params ?store (p : Program.t) =
  replay_prepared ?config ?timing ?optimized_labels (prepare ?params ?store p)

type hier_run = {
  l1_rate : float;
  l2_rate : float;
  amat : float;
  hier_writebacks : int;
}

let replay_hierarchy_compute ~l1 ~l2 cap =
  Obs.span "replay_hierarchy"
    ~args:[ ("l1", l1.Cache.name); ("l2", l2.Cache.name) ]
    (fun () ->
      let module H = Locality_cachesim.Hierarchy in
      let h = H.create ~l1 ~l2 in
      let chunks = ref 0 in
      (match cap.trace with
      | V1 t ->
        Trace.iter_chunks t (fun c ->
            incr chunks;
            H.simulate_chunk h c)
      | V2 t ->
        Trace.iter_run_chunks t (fun rc ->
            incr chunks;
            H.simulate_runs h rc));
      if Obs.enabled () then begin
        let s1 = H.l1_stats h in
        Obs.add_span_arg "l1_accesses" (string_of_int s1.Cache.accesses);
        Obs.add_span_arg "l1_hits" (string_of_int s1.Cache.hits);
        Obs.add_span_arg "chunks_replayed" (string_of_int !chunks);
        Obs.counter "chunks.replayed" !chunks
      end;
      {
        l1_rate = Cache.hit_rate (H.l1_stats h);
        l2_rate = Cache.hit_rate (H.l2_stats h);
        amat = H.amat h;
        hier_writebacks = H.writebacks h;
      })

let cached_hier ~store ~cap_key ~l1 ~l2 compute =
  match (store, cap_key) with
  | Some st, Some cap -> (
    let k = hier_key ~cap ~l1 ~l2 in
    match (Store.get_value st k : hier_run option) with
    | Some r -> r
    | None ->
      let r = compute () in
      Store.put_value st k r;
      r)
  | _ -> compute ()

let replay_hierarchy ?(l1 = Machine.cache2) ?(l2 = Machine.cache1)
    ?(store = Store.default ()) cap =
  cached_hier ~store ~cap_key:cap.cap_key ~l1 ~l2 (fun () ->
      replay_hierarchy_compute ~l1 ~l2 cap)

(* The streaming analog of [replay_hierarchy_compute]: identical chunk
   boundaries into the same two-level simulator, one chunk at a time.
   [Sampled] mode routes here too — hierarchy numbers stay exact. *)
let stream_hier_key ?(params = []) ~l1 ~l2 text =
  Store.key ~kind:"stream"
    [
      "hier";
      text;
      params_tag params;
      config_tag l1;
      config_tag l2;
    ]

let stream_hierarchy_compute ~l1 ~l2 ?params (p : Program.t) =
  Obs.span "stream_hierarchy"
    ~args:[ ("l1", l1.Cache.name); ("l2", l2.Cache.name) ]
    (fun () ->
      let module H = Locality_cachesim.Hierarchy in
      let h = H.create ~l1 ~l2 in
      let chunks = ref 0 in
      let sink rc =
        incr chunks;
        H.simulate_runs h rc
      in
      let rb = Trace.run_create ~sink () in
      ignore (Fastexec.run_traced_runs ?params rb p);
      if Obs.enabled () then begin
        let s1 = H.l1_stats h in
        Obs.add_span_arg "l1_accesses" (string_of_int s1.Cache.accesses);
        Obs.add_span_arg "chunks" (string_of_int !chunks);
        Obs.counter "stream.chunks" !chunks;
        Obs.counter "stream.accesses" s1.Cache.accesses
      end;
      {
        l1_rate = Cache.hit_rate (H.l1_stats h);
        l2_rate = Cache.hit_rate (H.l2_stats h);
        amat = H.amat h;
        hier_writebacks = H.writebacks h;
      })

let replay_hierarchy_prepared ?(l1 = Machine.cache2) ?(l2 = Machine.cache1)
    pr =
  match pr.p_mode with
  | Stream | Sampled -> (
    let compute () =
      stream_hierarchy_compute ~l1 ~l2 ?params:pr.p_params pr.p_program
    in
    match pr.p_store with
    | None -> compute ()
    | Some st -> (
      let k =
        stream_hier_key ?params:pr.p_params ~l1 ~l2 (Lazy.force pr.p_text)
      in
      match (Store.get_value st k : hier_run option) with
      | Some r -> r
      | None ->
        let r = compute () in
        Store.put_value st k r;
        r))
  | Per_access | Runs | Analytic ->
    cached_hier ~store:pr.p_store ~cap_key:pr.p_key ~l1 ~l2 (fun () ->
        replay_hierarchy_compute ~l1 ~l2 (prepared_capture pr))

let measure_hierarchy ?l1 ?l2 ?params ?store (p : Program.t) =
  replay_hierarchy_prepared ?l1 ?l2 (prepare ?params ?store p)

let speedup ?config ?timing ?params ?store original transformed =
  let p1 = prepare ?params ?store original in
  let p2 = prepare ?params ?store transformed in
  let r1 = replay_prepared ?config ?timing p1 in
  let r2 = replay_prepared ?config ?timing p2 in
  (r1.cycles /. r2.cycles, r1, r2)

let speedup_configs ?timing ?params ?store ~configs original transformed =
  let p1 = prepare ~configs ?params ?store original in
  let p2 = prepare ~configs ?params ?store transformed in
  List.map
    (fun config ->
      let r1 = replay_prepared ~config ?timing p1 in
      let r2 = replay_prepared ~config ?timing p2 in
      (r1.cycles /. r2.cycles, r1, r2))
    configs
