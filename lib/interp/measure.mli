(** Measurement harness: execute a program with its address trace feeding
    a simulated cache, with statistics split between the statements the
    optimizer touched and the whole program — the methodology behind
    Tables 1, 3 and 4.

    Every entry point takes an optional content-addressed
    {!Locality_store.Store.t}: captures and replay results are then
    looked up by a digest of the canonical program text, parameter
    overrides, trace format, cache geometry and timing model, and only
    computed (and stored) on a miss. The default is the ambient
    [MEMORIA_STORE] store ({!Locality_store.Store.default}) — [None]
    when the variable is unset, which makes every function behave
    exactly as before the store existed. Cached values are bit-identical
    to recomputation (the pipeline is deterministic and results
    round-trip through [Marshal] exactly); a corrupt store entry is
    quarantined and transparently recomputed. *)

module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Store = Locality_store.Store

type region = {
  accesses : int;
  hits : int;
  cold : int;
}

type run = {
  whole : region;
  optimized : region;  (** accesses issued by the given statement labels *)
  ops : int;
  cycles : float;
  seconds : float;
}

val hit_rate : ?exclude_cold:bool -> region -> float
(** In percent; cold misses excluded from the denominator by default, as
    in Table 4. Delegates to {!Cache.rate_of_counts}: 100.0 when the
    region saw no accesses at all, 0.0 when every access was a cold miss
    (no reuse to score). *)

type replay_mode = Per_access | Runs | Stream | Sampled | Analytic
(** Trace format selector. [Per_access] is the v1 flat record stream;
    [Runs] is the v2 run-compressed stream whose strided-run groups
    both shrink the capture and let replay make one set lookup per
    distinct cache line a group touches. Statistics are bit-identical
    either way.

    [Stream] fuses capture and simulation: the interpreter's run-chunk
    sink feeds {!Cache.simulate_runs} (and the hierarchy simulator)
    directly, chunk by chunk, so no trace is ever materialised and peak
    trace memory is O(chunk) at any iteration count. Because the chunk
    boundaries and the simulator are identical to a capture-then-replay
    of the same program, the resulting runs are bit-identical to [Runs]
    — the trade is memory for time: each cache geometry re-executes the
    program instead of replaying a shared capture. Streamed results
    live under their own store kind ("stream").

    [Sampled] replaces exact simulation with a SHARDS sampled
    reuse-distance profile ({!Locality_sample.Sample}) built from the
    same streaming sink: cache lines are hash-sampled at the rate given
    to {!prepare} (default [Sample.current_rate ()] —
    [MEMORIA_SAMPLE_RATE]),
    distances are tracked per cache set, and per-label histograms
    scaled by 1/R estimate hits via the exact set-associative LRU
    condition (scaled same-set distance < ways) — at rate 1.0 the
    estimate equals the simulator, and below it the only error is
    sampling noise. Access and op counts stay exact; hit/cold counts
    are estimates. One profile per (line size, set count) partition is
    built (and store-cached, kind "sample") and serves every geometry
    sharing it; all the partitions of the geometries given to {!prepare}
    come from one execution of the program. Hierarchy measurements under
    [Sampled] use the exact streaming path.

    [Analytic] skips tracing entirely: {!replay_prepared} and
    {!measure} ask the closed-form locality model
    ({!Locality_analytic.Analytic}) for the run, in O(nest size)
    instead of O(iterations). The numbers are simulator-equal on
    programs the model certifies exact and sound estimates elsewhere;
    out-of-scope programs transparently fall back to v2
    capture-and-replay (counted under [analytic.fallback]), so the
    mode is total. Analytic results live under their own store kind
    ("analytic") and never collide with simulated runs. Hierarchy
    measurements ({!replay_hierarchy}, {!measure_hierarchy}) simulate
    exactly in every mode ([Stream]/[Sampled] stream them, the rest
    replay the capture). *)

val replay_mode : unit -> replay_mode
(** The mode selected by the [MEMORIA_REPLAY] environment variable:
    ["per-access"] forces v1; ["stream"] fuses capture+simulate;
    ["sample"] selects sampled profiling; ["analytic"] the closed-form
    model; any other value, or unset, selects v2 capture-and-replay. *)

val mode_of_string : string -> replay_mode option
(** Strict parse of the mode names above ([None] on anything else) —
    the wire-API ([Driver.Request]) and CLI surface. *)

val mode_to_string : replay_mode -> string
(** Inverse of {!mode_of_string}; these strings are the documented
    protocol values. *)

type capture
(** A program's batched address trace plus its operation count: the
    program is interpreted once ({!capture}) and the trace replayed
    against any number of cache configurations ({!replay},
    {!replay_hierarchy}). Replay statistics are bit-identical to the
    legacy interpret-per-config observer path, in either trace format. *)

val capture_key :
  ?mode:replay_mode -> ?params:(string * int) list -> Program.t -> Store.key
(** The content digest a capture is stored under: trace format,
    canonical program text ({!Pretty.program_to_string} — name,
    PARAMETERs, declarations, body) and parameter overrides. Stable
    across processes and runs. *)

val capture :
  ?mode:replay_mode ->
  ?params:(string * int) list ->
  ?store:Store.t option ->
  Program.t ->
  capture
(** [mode] defaults to {!replay_mode}[ ()]; [store] to
    {!Store.default}[ ()]. With a store, a hit deserialises the trace
    instead of interpreting; a miss interprets and publishes it. *)

val trace_stats : capture -> int * int * int
(** [(records, stream_words, groups)]: logical access count, words
    actually stored, and strided-run groups in the capture. A v1
    capture stores one word per record and no groups. *)

val replay :
  ?config:Cache.config ->
  ?timing:Machine.timing ->
  ?optimized_labels:string list ->
  ?store:Store.t option ->
  capture ->
  run

type prepared
(** A program staged for store-backed measurement with its capture
    deferred: {!replay_prepared} consults the result store first and
    only materialises the trace (itself store-backed) when a result is
    missing — so a fully warm store regenerates a table without
    interpreting or simulating anything. The memoised capture makes a
    [prepared] value single-domain; each pool work item should
    {!prepare} its own. *)

val prepare :
  ?mode:replay_mode ->
  ?rate:float ->
  ?configs:Cache.config list ->
  ?params:(string * int) list ->
  ?store:Store.t option ->
  Program.t ->
  prepared
(** [rate] is the SHARDS sampling rate used when this prepared program
    is replayed in [Sampled] mode; it defaults to
    {!Locality_sample.Sample.current_rate}[ ()] (the
    [MEMORIA_SAMPLE_RATE] environment variable). Passing it here keeps
    the rate local to the measurement — concurrent preparations with
    different rates never interfere.

    [configs] (default none) names the geometries the program will be
    replayed on. In [Sampled] mode the first replay settles the profile
    of every distinct (line size, set count) partition among them and
    the replayed one: it reads the store's entries, builds all the
    missing profiles from one execution of the program, and memoises
    them in the prepared value, so the program runs at most once however
    many geometries follow. Profiles are identical to one execution per
    partition. Other modes ignore [configs].

    The canonical program text behind every store key is printed once
    per prepared value. *)

val prepared_capture : prepared -> capture
(** Force (and memoise) the capture. *)

val replay_prepared :
  ?config:Cache.config ->
  ?timing:Machine.timing ->
  ?optimized_labels:string list ->
  prepared ->
  run

val measure :
  ?config:Cache.config ->
  ?timing:Machine.timing ->
  ?optimized_labels:string list ->
  ?params:(string * int) list ->
  ?store:Store.t option ->
  Program.t ->
  run

type hier_run = {
  l1_rate : float;  (** L1 hit rate, percent, cold excluded *)
  l2_rate : float;  (** L2 hit rate among L1 misses, percent, cold excluded *)
  amat : float;  (** average memory access time, cycles *)
  hier_writebacks : int;
}

val replay_hierarchy :
  ?l1:Cache.config ->
  ?l2:Cache.config ->
  ?store:Store.t option ->
  capture ->
  hier_run

val replay_hierarchy_prepared :
  ?l1:Cache.config -> ?l2:Cache.config -> prepared -> hier_run

val measure_hierarchy :
  ?l1:Cache.config ->
  ?l2:Cache.config ->
  ?params:(string * int) list ->
  ?store:Store.t option ->
  Program.t ->
  hier_run
(** Run the program against a two-level write-back hierarchy (defaults:
    L1 = cache2's 8 KB geometry, L2 = cache1's 64 KB geometry). *)

val speedup :
  ?config:Cache.config ->
  ?timing:Machine.timing ->
  ?params:(string * int) list ->
  ?store:Store.t option ->
  Program.t ->
  Program.t ->
  float * run * run
(** [speedup original transformed] is the ratio of modelled execution
    times, original over transformed, with both runs. Each program is
    interpreted once; both runs replay the captured traces. *)

val speedup_configs :
  ?timing:Machine.timing ->
  ?params:(string * int) list ->
  ?store:Store.t option ->
  configs:Cache.config list ->
  Program.t ->
  Program.t ->
  (float * run * run) list
(** {!speedup} for several cache configurations at once, interpreting
    each program a single time and replaying its trace per config — the
    Table 3 / Table 4 access pattern. *)
