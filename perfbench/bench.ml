(* The repository benchmark's measuring program. It runs one workload
   for a fixed time, checks every output against an independent
   reference, and writes its raw observations (samples, counts, spans)
   as one JSON document for [run.py], which derives and prints the
   metrics. All configuration is explicit: jobs, replay mode, sample
   rate and store are passed to every call, and the program refuses to
   run with any of the MEMORIA_* settings in its environment.

   Usage: bench.exe run --workload W --seed N --seconds S --trace 0|1
                        --memoria PATH --work DIR --out FILE
          bench.exe probe --workload W       (set-up probe, used by run) *)

module Driver = Locality_driver.Driver
module Request = Locality_driver.Request
module Response = Locality_driver.Response
module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Measure = Locality_interp.Measure
module Trace = Locality_interp.Trace
module Fastexec = Locality_interp.Fastexec
module Exec = Locality_interp.Exec
module Compound = Locality_core.Compound
module Analysis = Locality_dep.Analysis
module Analytic = Locality_analytic.Analytic
module Sample = Locality_sample.Sample
module Store = Locality_store.Store
module Pool = Locality_par.Pool
module Programs = Locality_suite.Programs
module Gen = Locality_fuzz.Gen
module Lower = Locality_lang.Lower
module Jsonin = Locality_telemetry.Jsonin
module J = Locality_obs.Json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------- settings --- *)

let jobs = min 2 (Domain.recommended_domain_count ())
let machines = [ Machine.cache1; Machine.cache2 ]
let machine_refs = [ Request.Named "cache1"; Request.Named "cache2" ]
let eval_params = [ ("N", 32) ]

(* The library's documented default rate (README, MEMORIA_SAMPLE_RATE),
   passed explicitly so no call falls back to the ambient setting. *)
let sample_rate = 0.01

(* Exec.equivalent runs the tree-walking reference interpreter; at the
   workload's N=32 it would take longer than the measurement, so the
   eval-exact equivalence oracle checks the same program pair at N=8. *)
let equiv_params = [ ("N", 8) ]
let equiv_tol = 1e-6
let compile_size = 32
let compile_pool = 2000
let compile_checked = 300
let per_access_subset = 4

(* Set-up probes: this many before the measured window and as many after
   it, so that a passing load spike on the host moves fewer than half of
   them and the median holds. *)
let setup_probes = 20

(* serve-mixed. 80% of requests repeat a hot set and are store reads;
   20% are fresh and compute, then write. This is the mix of the sizing
   probe that defined the workload. Requests name every kernel the
   library has, and the three replay modes equally, since the workload
   gives them no weights. Sizes are bounded: on a 2-core host the
   slowest fresh request (attention or matmul_chain at the top size)
   takes about 0.1 s, so the tail is the upper part of the fresh
   requests' own distribution, not a rare outlier. *)
let serve_kernels = List.map fst Locality_suite.Kernels.all

let serve_sizes = (8, 48)
let fresh_prob = 0.2

(* The traced stream is the prefix of the seeded stream that holds this
   many fresh requests, so the fresh latency sample has a fixed size. *)
let traced_fresh = 200

(* ----------------------------------------------------------- clock --- *)

let now = Spans.now_s
let span = Spans.with_span

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---------------------------------------------------- observations --- *)

(* Exact counts: must repeat bit for bit for the same seed. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 32
let bump name d = Hashtbl.replace counts name (d + Option.value (Hashtbl.find_opt counts name) ~default:0)

(* One entry per operation attempted: its key and "ok" or the error. *)
let ops : (string * string) list ref = ref []
let op key status = ops := (key, status) :: !ops

(* Oracle mismatches, keyed like the operations they condemn. *)
let mismatches : (string * string * string) list ref = ref []
let mismatch key oracle detail = mismatches := (key, oracle, detail) :: !mismatches

let samples : (string, float list) Hashtbl.t = Hashtbl.create 16
let sample name v =
  Hashtbl.replace samples name (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

(* Throughput is reported as the median over slices of the window, so a
   burst of CPU steal on a shared virtual host moves it only if the
   burst covers most of the run. *)
let slice_s = 1.0

(* Rates of the complete [slice_s] slices from [t0], given the times at
   which items completed. A slice's rate is measured between its first
   and last completions, so it is not rounded to whole items. *)
let slice_rates ~t0 ~t_end times =
  let n = max 0 (int_of_float ((t_end -. t0) /. slice_s)) in
  let first = Array.make n infinity and last = Array.make n neg_infinity in
  let counts = Array.make n 0 in
  List.iter
    (fun t ->
      let k = int_of_float ((t -. t0) /. slice_s) in
      if k >= 0 && k < n then begin
        counts.(k) <- counts.(k) + 1;
        first.(k) <- Float.min first.(k) t;
        last.(k) <- Float.max last.(k) t
      end)
    times;
  Array.iteri
    (fun k c ->
      if c >= 2 then sample "slice_rate" (float_of_int (c - 1) /. (last.(k) -. first.(k))))
    counts

(* Known program defects, tallied apart from failures because they
   depend on the process's history, not on the request:
   - label_drift: a reply differs from its reference only in the
     numbering of generated statement labels (see [renumber_labels]);
   - label_order: Compound turned the same text into a different (but
     equivalent, with equal decision counts) program, because its
     choices follow the process-wide label counter;
   - invalid_json: an "ok" reply that does not parse (a 0/0 speedup is
     rendered as "-nan"). *)
let known : (string, int) Hashtbl.t = Hashtbl.create 4
let known_defect name =
  Hashtbl.replace known name (1 + Option.value (Hashtbl.find_opt known name) ~default:0)

(* Words the interpreter allocated while capturing (traced passes). *)
let alloc_minor = ref 0.0
let alloc_total = ref 0.0

(* Rendered JSON values. *)
let scalars : (string, string) Hashtbl.t = Hashtbl.create 16
let scalar name v = Hashtbl.replace scalars name v

let float_json f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

(* --------------------------------------------------------- helpers --- *)

let short (m : Cache.config) =
  match List.find_opt (fun (_, c) -> c = m) Request.named_machines with
  | Some (n, _) -> n
  | None -> m.Cache.name

let region_str (r : Measure.region) =
  Printf.sprintf "%d/%d/%d" r.Measure.accesses r.Measure.hits r.Measure.cold

let changed_labels (stats : Compound.stats) =
  List.concat_map
    (fun (s : Compound.nest_stat) ->
      if s.Compound.permuted || s.Compound.fused_enabling || s.Compound.distributed
      then s.Compound.labels
      else [])
    stats.Compound.nests

(* The core invariants the optimizer decided, as exact counts. *)
let core_counts prefix (stats : Compound.stats) =
  let nests = stats.Compound.nests in
  let count p = List.length (List.filter p nests) in
  [
    (prefix ^ "nests", List.length nests);
    (prefix ^ "permuted", count (fun s -> s.Compound.permuted));
    (prefix ^ "memorder", count (fun s -> s.Compound.final_mem_order));
    (prefix ^ "fusions_applied", stats.Compound.fusions_applied);
    (prefix ^ "distributions", stats.Compound.distributions);
  ]

let add_core_counts stats = List.iter (fun (k, v) -> bump k v) (core_counts "core." stats)
let deps_of (p : Program.t) = List.length (Analysis.deps p.Program.body)

let add_measured_counts (r : Driver.result) =
  List.iteri
    (fun i (m : Driver.measured) ->
      let runs =
        if m.Driver.transformed_run == m.Driver.original_run then [ m.Driver.original_run ]
        else [ m.Driver.original_run; m.Driver.transformed_run ]
      in
      List.iter
        (fun (run : Measure.run) ->
          if i = 0 then bump "interp.accesses" run.Measure.whole.Measure.accesses;
          bump ("cachesim.hits." ^ short m.Driver.machine) run.Measure.whole.Measure.hits)
        runs)
    r.Driver.measured

(* Original and transformed compute the same arrays (reference
   interpreter). *)
let equivalent ?params p p' =
  try Exec.equivalent ~tol:equiv_tol ?params p p' with _ -> false

let error_text = function Ok _ -> "ok" | Error e -> e
let digest_hex parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* ------------------------------------------------ set-up probes ----- *)

(* The in-process workloads start work as soon as the process has
   initialised and built its configuration; the probe child does exactly
   that and reports "ready". *)
let eval_configs () =
  List.map
    (fun (e : Programs.entry) ->
      ( e.Programs.name,
        Driver.config ~machines ~params:eval_params ~use_labels:true
          ~replay:Measure.Runs ~sample_rate ~store:None (Driver.Source_entry e) ))
    Programs.all

let probe_child workload =
  (match workload with "eval-exact" -> ignore (eval_configs ()) | _ -> ());
  print_endline "ready"

let time_probe_child workload =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "probe"; "--workload"; workload |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  let dt = now () -. t0 in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  if line <> "ready" then die "set-up probe did not report ready";
  dt

let measure_setup_in_process workload =
  for _ = 1 to setup_probes do
    sample "setup_s" (time_probe_child workload)
  done

(* --------------------------------------------------- layer passes --- *)

(* A traced-run item: one request and the source text behind it. Every
   layer is called on it from outside, one call per span. *)
type item = {
  key : string;  (** request fingerprint *)
  req : Request.t;  (** store-neutral; its [id] is empty *)
  src : string;  (** mini-language text of the program *)
  params : (string * int) list option;
  rate : float;
}

(* Compute identity of a request whatever store it names, as a digest
   short enough to key operations and spans. *)
let fp_of (r : Request.t) =
  Digest.to_hex (Digest.string (Request.fingerprint { r with Request.store = Request.No_store }))

let config_of (req : Request.t) =
  match Request.to_config { req with Request.store = Request.No_store } with
  | Ok c -> c
  | Error e -> die "%s" e

let item_of_request (req : Request.t) =
  let req = { req with Request.id = ""; store = Request.No_store } in
  let src =
    match req.Request.source with
    | Request.Text { text; _ } -> text
    | _ -> (
      match Driver.load ?n:req.Request.n (config_of req).Driver.source with
      | Ok (_, p) -> Pretty.program_to_string p
      | Error e -> die "%s" e)
  in
  {
    key = fp_of req;
    req;
    src;
    params = (match req.Request.params with [] -> None | l -> Some l);
    rate = Option.value req.Request.sample_rate ~default:sample_rate;
  }

type replayed = { whole : Measure.region; optimized : Measure.region }

let region_of (s : Cache.stats) =
  { Measure.accesses = s.Cache.accesses; hits = s.Cache.hits; cold = s.Cache.cold_misses }

let capture ?params p =
  span "interp.capture" (fun () ->
      let w0 = Gc.minor_words () in
      let q0 = Gc.quick_stat () in
      let rb, finish = Trace.run_capturing () in
      ignore (Fastexec.run_traced_runs ?params rb p);
      let cap = finish () in
      let q1 = Gc.quick_stat () in
      let minor = Gc.minor_words () -. w0 in
      let total =
        minor +. q1.Gc.major_words -. q0.Gc.major_words
        -. (q1.Gc.promoted_words -. q0.Gc.promoted_words)
      in
      bump "interp.accesses" cap.Trace.run_records;
      alloc_minor := !alloc_minor +. minor;
      alloc_total := !alloc_total +. total;
      cap)

let replay cap labels (m : Cache.config) =
  span "cachesim.replay" (fun () ->
      let cache = Cache.create m in
      let marked = Array.map (fun l -> List.mem l labels) cap.Trace.run_trace_labels in
      let region = Cache.fresh_region () in
      let metrics = Cache.fresh_run_metrics () in
      Trace.iter_run_chunks cap (Cache.simulate_runs cache ~marked ~region ~metrics);
      let s = Cache.stats cache in
      bump "cachesim.accesses" s.Cache.accesses;
      bump ("cachesim.hits." ^ short m) s.Cache.hits;
      bump "cachesim.bulk_iters" metrics.Cache.m_bulk_iters;
      bump "cachesim.boundaries" metrics.Cache.m_boundaries;
      bump "cachesim.fallbacks" metrics.Cache.m_fallbacks;
      {
        whole = region_of s;
        optimized =
          {
            Measure.accesses = region.Cache.r_accesses;
            hits = region.Cache.r_hits;
            cold = region.Cache.r_cold;
          };
      })

let estimate it labels (m : Cache.config) p (sim : replayed) =
  span "analytic.estimate" (fun () ->
      bump "analytic.calls" 1;
      match Analytic.estimate ?params:it.params ~optimized_labels:labels ~config:m p with
      | Error _ -> bump "analytic.fallbacks" 1
      | Ok e ->
        if e.Analytic.e_exact then begin
          bump "analytic.exact" 1;
          let w = e.Analytic.e_whole in
          let est =
            { Measure.accesses = w.Analytic.c_accesses; hits = w.Analytic.c_hits;
              cold = w.Analytic.c_cold }
          in
          if est <> sim.whole then
            mismatch it.key "analytic-exact"
              (Printf.sprintf "%s: analytic %s vs simulated %s" m.Cache.name
                 (region_str est) (region_str sim.whole))
        end)

let profile it cap (m : Cache.config) =
  span "sample.profile" (fun () ->
      let line_bytes = m.Cache.line_bytes in
      let sets = max 1 (m.Cache.size_bytes / (line_bytes * m.Cache.assoc)) in
      let s = Sample.create ~rate:it.rate ~line_bytes ~sets () in
      Trace.iter_run_chunks cap (Sample.consume_runchunk s);
      bump "sample.accesses" (Sample.accesses s);
      bump "sample.sampled" (Sample.sampled s))

(* One item through every layer. Returns what the cross-check against
   the untraced Driver result needs. *)
let layer_pass it =
  span ~req:it.key "item" (fun () ->
      let p = span "lang.parse" (fun () -> Lower.parse_program it.src) in
      bump "lang.bytes" (String.length it.src);
      let deps = span "dep.analysis" (fun () -> Analysis.deps p.Program.body) in
      bump "dep.deps" (List.length deps);
      let p', stats =
        span "core.compound" (fun () -> Compound.run_program ~cls:it.req.Request.cls p)
      in
      add_core_counts stats;
      let out = span "ir.pretty" (fun () -> Pretty.program_to_string p') in
      let labels = if it.req.Request.use_labels then changed_labels stats else [] in
      let versions =
        List.map
          (fun prog ->
            let cap = capture ?params:it.params prog in
            let sims =
              List.map
                (fun m ->
                  let sim = replay cap labels m in
                  estimate it labels m prog sim;
                  profile it cap m;
                  sim)
                machines
            in
            sims)
          [ p; p' ]
      in
      (p', out, stats, versions))

(* The untraced Driver result and the traced layer calls must agree on
   every exact count: the transformed text, the core decisions and,
   for exact replay, each geometry's counts. The texts may differ only
   as the known label_order defect: equal decisions and equivalent
   programs (checked at the oracle size for the suite's N=32). *)
let cross_check it (r : Driver.result) (p', out, stats, versions) =
  let fail what = mismatch it.key "trace-vs-driver" what in
  let same_decisions =
    match r.Driver.compound with
    | Some s -> core_counts "" s = core_counts "" stats
    | None -> false
  in
  if not same_decisions then fail "core decisions";
  if Pretty.program_to_string r.Driver.transformed <> out then begin
    let params = Option.map (fun _ -> equiv_params) it.params in
    if same_decisions && equivalent ?params r.Driver.transformed p' then known_defect "label_order"
    else fail "transformed text"
  end;
  if it.req.Request.replay = Some Measure.Runs then
    List.iteri
      (fun i (m : Driver.measured) ->
        let check (run : Measure.run) (sim : replayed) =
          if run.Measure.whole <> sim.whole || run.Measure.optimized <> sim.optimized then
            fail (Printf.sprintf "%s counts" m.Driver.machine.Cache.name)
        in
        match versions with
        | [ o; t ] ->
          check m.Driver.original_run (List.nth o i);
          check m.Driver.transformed_run (List.nth t i)
        | _ -> fail "versions")
      r.Driver.measured

(* ------------------------------------------------------ oracles ----- *)

(* The per-access reference: the tree-walking interpreter feeds every
   access to [Cache.access_full] on each geometry, and the counts must
   equal those the run-compressed replay produced. *)
let per_access_counts ?params labels p =
  let caches = List.map (fun m -> (Cache.create m, Cache.fresh_region ())) machines in
  let marked = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace marked l ()) labels;
  let on_access ~label ~addr ~write =
    let in_region = Hashtbl.mem marked label in
    List.iter
      (fun (c, (reg : Cache.region)) ->
        let cls, _ = Cache.access_full c ~write addr in
        if in_region then begin
          reg.Cache.r_accesses <- reg.Cache.r_accesses + 1;
          match cls with
          | `Hit -> reg.Cache.r_hits <- reg.Cache.r_hits + 1
          | `Cold -> reg.Cache.r_cold <- reg.Cache.r_cold + 1
          | `Miss -> ()
        end)
      caches
  in
  ignore
    (Exec.run ~observer:{ Exec.on_access; on_stmt = (fun ~label:_ -> ()) } ?params p);
  List.map
    (fun (c, (reg : Cache.region)) ->
      {
        whole = region_of (Cache.stats c);
        optimized =
          { Measure.accesses = reg.Cache.r_accesses; hits = reg.Cache.r_hits;
            cold = reg.Cache.r_cold };
      })
    caches

(* ---------------------------------------------------- eval-exact ---- *)

let eval_run ~seed ~seconds =
  measure_setup_in_process "eval-exact";
  let cfgs = eval_configs () in
  scalar "inputs_digest"
    (J.str
       (digest_hex
          (List.map
             (fun (e : Programs.entry) -> Pretty.program_to_string (Programs.program_of e))
             Programs.all)));
  let first = ref [] in
  let passes = ref 0 in
  let t_start = now () in
  while !passes = 0 || now () -. t_start < seconds do
    let results, pass_s =
      timed (fun () ->
          Pool.map ~jobs
            (fun (name, cfg) ->
              let r, dt =
                timed (fun () -> try Driver.run cfg with e -> Error (Printexc.to_string e))
              in
              (name, r, dt))
            cfgs)
    in
    (* Items finish together at the end of a pass, so a pass is a slice. *)
    sample "slice_rate" (float_of_int (List.length cfgs) /. pass_s);
    List.iter
      (fun (name, r, dt) ->
        sample "latency_ms" (dt *. 1e3);
        op name (error_text r))
      results;
    if !passes = 0 then first := results;
    incr passes
  done;
  let wall = now () -. t_start in
  scalar "wall_s" (float_json wall);
  scalar "items_done" (J.int (!passes * List.length cfgs));
  scalar "peak_rss_kb" (J.int (Client.vm_hwm_kb "self"));
  measure_setup_in_process "eval-exact";
  (* Oracles and exact counts, outside the measured window. *)
  let ok = List.filter_map (fun (n, r, _) -> Result.to_option r |> Option.map (fun r -> (n, r))) !first in
  List.iter
    (fun (_, (r : Driver.result)) ->
      Option.iter add_core_counts r.Driver.compound;
      bump "dep.deps" (deps_of r.Driver.original);
      add_measured_counts r)
    ok;
  let verdicts =
    Pool.map ~jobs
      (fun (n, (r : Driver.result)) ->
        (n, equivalent ~params:equiv_params r.Driver.original r.Driver.transformed))
      ok
  in
  List.iter (fun (n, good) -> if not good then mismatch n "exec-equivalent" "arrays differ") verdicts;
  let rng = Random.State.make [| seed |] in
  let chosen =
    List.sort_uniq compare
      (List.init per_access_subset (fun _ -> Random.State.int rng (List.length ok)))
  in
  let checks =
    Pool.map ~jobs
      (fun i ->
        let n, (r : Driver.result) = List.nth ok i in
        let labels = r.Driver.optimized_labels in
        let refs p = per_access_counts ~params:eval_params labels p in
        (n, r, refs r.Driver.original, refs r.Driver.transformed))
      chosen
  in
  List.iter
    (fun (n, (r : Driver.result), ro, rt) ->
      List.iteri
        (fun i (m : Driver.measured) ->
          let same (run : Measure.run) (x : replayed) =
            run.Measure.whole = x.whole && run.Measure.optimized = x.optimized
          in
          if not (same m.Driver.original_run (List.nth ro i) && same m.Driver.transformed_run (List.nth rt i))
          then mismatch n "per-access-replay" m.Driver.machine.Cache.name)
        r.Driver.measured)
    checks;
  scalar "per_access_checked" (J.strings (List.map (fun (n, _, _, _) -> n) checks))

(* ------------------------------------------------------- compile ---- *)

let compile_texts seed =
  Array.init compile_pool (fun i ->
      Pretty.program_to_string (Gen.generate ~seed ~index:i ~size:compile_size))

let compile_one text =
  let p = Lower.parse_program text in
  let p', stats = Compound.run_program ~cls:4 p in
  (Pretty.program_to_string p', stats)

let compile_run ~seed ~seconds =
  measure_setup_in_process "compile";
  let texts = compile_texts seed in
  scalar "inputs_digest" (J.str (digest_hex (Array.to_list texts)));
  let outputs = Array.make compile_checked None in
  let i = ref 0 in
  let finished = ref [] in
  let t_start = now () in
  while !i = 0 || now () -. t_start < seconds do
    let idx = !i mod compile_pool in
    let r, dt =
      timed (fun () -> try Ok (compile_one texts.(idx)) with e -> Error (Printexc.to_string e))
    in
    finished := now () :: !finished;
    sample "latency_ms" (dt *. 1e3);
    op (string_of_int idx) (error_text r);
    (match r with
    | Ok v when idx < compile_checked && outputs.(idx) = None -> outputs.(idx) <- Some v
    | _ -> ());
    incr i
  done;
  let wall = now () -. t_start in
  slice_rates ~t0:t_start ~t_end:(t_start +. wall) !finished;
  scalar "wall_s" (float_json wall);
  scalar "items_done" (J.int !i);
  scalar "peak_rss_kb" (J.int (Client.vm_hwm_kb "self"));
  measure_setup_in_process "compile";
  (* The oracle and the exact counts cover the first [compile_checked]
     programs; any the window did not reach are compiled now. *)
  let checked =
    List.init compile_checked (fun idx ->
        match outputs.(idx) with
        | Some v -> (idx, v)
        | None -> (idx, compile_one texts.(idx)))
  in
  let verdicts =
    Pool.map ~jobs
      (fun (idx, (out, stats)) ->
        let p = Lower.parse_program texts.(idx) in
        let good =
          match Lower.parse_program out with
          | p' -> equivalent ~params:[] p p'
          | exception _ -> false
        in
        (idx, good, deps_of p, stats))
      checked
  in
  List.iter
    (fun (idx, good, deps, stats) ->
      if not good then mismatch (string_of_int idx) "exec-equivalent" "arrays differ";
      bump "dep.deps" deps;
      add_core_counts stats)
    verdicts

(* --------------------------------------------------- serve-mixed ---- *)

let modes = [| Measure.Runs; Measure.Analytic; Measure.Sampled |]

let serve_request ~kernel ~n ~mode =
  Request.make ~n ~machines:machine_refs ~replay:mode ~sample_rate ~store:Request.Ambient
    (Request.Kernel kernel)

(* The seeded request stream. The hot set is one request per kernel and
   replay mode at a seeded size. Each request is fresh with probability
   [fresh_prob]: the next never-seen (kernel, size, mode) of a shuffled
   pool; otherwise it is a hot one. Every seed draws from the same
   kernels, size range and modes, so only the hot sizes and the order
   change. [next i]
   is [None] once a fresh request is due and the pool is used up, which
   ends the stream. *)
let serve_stream seed =
  let rng = Random.State.make [| seed; 1 |] in
  let lo, hi = serve_sizes in
  let hot =
    Array.of_list
      (List.concat_map
         (fun kernel ->
           List.map
             (fun mode -> serve_request ~kernel ~n:(lo + Random.State.int rng (hi - lo + 1)) ~mode)
             (Array.to_list modes))
         serve_kernels)
  in
  let hot_fps = Array.to_list (Array.map fp_of hot) in
  let pool =
    List.concat_map
      (fun kernel ->
        List.concat_map
          (fun n -> List.map (fun mode -> serve_request ~kernel ~n ~mode) (Array.to_list modes))
          (List.init (hi - lo + 1) (fun k -> lo + k)))
      serve_kernels
    |> List.filter (fun r -> not (List.mem (fp_of r) hot_fps))
    |> List.map (fun r -> (Random.State.bits rng, r))
    |> List.sort compare |> List.map snd |> Array.of_list
  in
  let digest =
    digest_hex (List.map Request.to_json (Array.to_list hot @ Array.to_list pool))
  in
  let srng = Random.State.make [| seed; 2 |] in
  let fresh_next = ref 0 in
  let next i =
    let pick =
      if Random.State.float srng 1.0 < fresh_prob then
        if !fresh_next < Array.length pool then begin
          incr fresh_next;
          Some (pool.(!fresh_next - 1), true)
        end
        else None
      else Some (hot.(Random.State.int srng (Array.length hot)), false)
    in
    Option.map (fun (r, fresh) -> ({ r with Request.id = string_of_int i }, fresh)) pick
  in
  (hot, digest, next)

let probe_line =
  Request.to_json
    (Request.make ~id:"probe" ~n:8 ~timeout_ms:0 (Request.Kernel "matmul"))

(* The reply's status field, read without a JSON parser: a reply can be
   "ok" yet not parse (a 0/0 speedup renders as "-nan"). *)
let status_of line =
  let field name =
    let tag = Printf.sprintf "\"%s\":\"" name in
    match Str.search_forward (Str.regexp_string tag) line 0 with
    | exception Not_found -> None
    | i ->
      let start = i + String.length tag in
      Option.map (fun stop -> String.sub line start (stop - start))
        (String.index_from_opt line start '"')
  in
  match field "status" with
  | Some "ok" -> "ok"
  | Some s -> (match field "error" with Some e -> s ^ ": " ^ e | None -> s)
  | None -> "reply without status"

type session = {
  replies : Client.reply list;
  sent : (int, Request.t) Hashtbl.t;
  wall : float;
  rss_kb : int;
  clean_exit : bool;
  exhausted : bool;  (** the stream ended before the window did *)
}

(* One daemon, fresh store, two closed-loop connections. The window
   ends after [seconds] or when [next] has no more requests. *)
let serve_session ~memoria ~work ~tag ~seconds ~next =
  let store = Filename.concat work ("store-" ^ tag) in
  let socket = Filename.concat work ("sock-" ^ tag) in
  let d, c0, _ = Client.time_to_first_reply ~memoria ~socket ~store ~jobs ~probe:probe_line in
  let c1 = Client.open_conn d in
  let sent = Hashtbl.create 4096 in
  let count = ref 0 in
  let exhausted = ref false in
  let t_start = now () in
  let next () =
    match next !count with
    | None ->
      exhausted := true;
      None
    | Some (r, _) ->
      Hashtbl.replace sent !count r;
      incr count;
      Some (!count - 1, Request.to_json r)
  in
  let stop () = now () -. t_start >= seconds in
  let replies = Client.closed_loop [ c0; c1 ] ~next ~stop in
  let wall = now () -. t_start in
  let ok_times =
    List.filter_map
      (fun (r : Client.reply) ->
        if status_of r.Client.line = "ok" then Some (Int64.to_float r.Client.done_ns *. 1e-9)
        else None)
      replies
  in
  slice_rates ~t0:t_start ~t_end:(t_start +. wall) ok_times;
  let rss_kb = Client.vm_hwm_kb (string_of_int d.Client.pid) in
  List.iter (fun (c : Client.conn) -> Unix.close c.Client.fd) [ c0; c1 ];
  let clean_exit = Client.shutdown d in
  rm_rf store;
  { replies; sent; wall; rss_kb; clean_exit; exhausted = !exhausted }

(* Expected bytes for every distinct request: the same request run
   in-process without a store. *)
let reference_results reqs =
  let distinct = Hashtbl.create 256 in
  List.iter
    (fun (r : Request.t) ->
      let fp = fp_of r in
      if not (Hashtbl.mem distinct fp) then Hashtbl.replace distinct fp r)
    reqs;
  let l = Hashtbl.fold (fun fp r acc -> (fp, r) :: acc) distinct [] in
  let l = List.sort compare l in
  let results =
    Pool.map ~jobs
      (fun (fp, r) -> (fp, (r, Driver.run (config_of r))))
      l
  in
  let tbl = Hashtbl.create 256 in
  List.iter (fun (fp, v) -> Hashtbl.replace tbl fp v) results;
  tbl

let expected_line (r : Request.t) res =
  Response.to_json (Response.of_run ~id:r.Request.id ~emit_program:r.Request.emit_program res)

(* Statement labels are drawn from a process-wide counter
   (Stmt.fresh_label), so the same request computed after different
   earlier work names its optimized statements differently: a daemon's
   fresh reply says "S2" where a fresh process says "S1". Counts and
   decisions do not depend on the names. Replies that differ from the
   reference only there are counted as label drift, a known defect
   reported apart from failures; any other difference is a mismatch. *)
let renumber_labels line =
  let tag = "\"optimized_labels\":[" in
  match Str.search_forward (Str.regexp_string tag) line 0 with
  | exception Not_found -> line
  | i -> (
    let start = i + String.length tag in
    match String.index_from_opt line start ']' with
    | None -> line
    | Some stop ->
      let names =
        if stop = start then [] else String.split_on_char ',' (String.sub line start (stop - start))
      in
      (* Each label becomes its rank by number, so a reordered list
         ([S2,S1] against [S1,S2]) still differs. *)
      let number n =
        int_of_string_opt (String.concat "" (Str.split (Str.regexp "[^0-9]+") n))
      in
      let ranked =
        List.sort_uniq compare (List.map (fun n -> (number n, n)) names) |> List.map snd
      in
      let rank n =
        let rec go k = function
          | [] -> n
          | x :: rest -> if x = n then Printf.sprintf "\"#%d\"" k else go (k + 1) rest
        in
        go 0 ranked
      in
      let canon = List.map rank names in
      String.sub line 0 start ^ String.concat "," canon
      ^ String.sub line stop (String.length line - stop))

let compare_reply key oracle expected got =
  if expected <> got then
    if renumber_labels expected = renumber_labels got then known_defect "label_drift"
    else mismatch key oracle "reply bytes differ"

(* Replies: status, byte identity against the reference, latency by
   class (first sighting of a fingerprint is fresh, later ones hits). *)
let judge_replies ~prefix sess refs =
  let seen = Hashtbl.create 256 in
  let by_idx = List.sort (fun (a : Client.reply) b -> compare a.Client.idx b.Client.idx) sess.replies in
  List.iter
    (fun (rp : Client.reply) ->
      let r = Hashtbl.find sess.sent rp.Client.idx in
      let fp = fp_of r in
      let cls = if Hashtbl.mem seen fp then "hit" else "fresh" in
      Hashtbl.replace seen fp ();
      let key = prefix ^ string_of_int rp.Client.idx in
      let status = status_of rp.Client.line in
      if Jsonin.parse_opt rp.Client.line = None then known_defect "invalid_json";
      op key status;
      sample (prefix ^ "latency_ms") rp.Client.latency_ms;
      sample (prefix ^ cls ^ "_ms") rp.Client.latency_ms;
      if status = "ok" then
        match Hashtbl.find_opt refs fp with
        | Some (_, res) ->
          compare_reply key "serve-vs-inprocess" (expected_line r res) rp.Client.line
        | None -> mismatch key "serve-vs-inprocess" "no reference")
    by_idx

(* Analytic replies classed exact must equal the exact simulation. *)
let check_analytic_exact refs =
  let analytic =
    Hashtbl.fold
      (fun fp ((r : Request.t), res) acc ->
        if r.Request.replay = Some Measure.Analytic then
          match res with Ok (d : Driver.result) -> (fp, r, d) :: acc | Error _ -> acc
        else acc)
      refs []
    |> List.sort compare
  in
  let verdicts =
    Pool.map ~jobs
      (fun (fp, (r : Request.t), (d : Driver.result)) ->
        let params = match r.Request.params with [] -> None | l -> Some l in
        let exact_on =
          List.concat_map
            (fun (m : Cache.config) ->
              List.filter_map
                (fun (which, p) ->
                  match Analytic.estimate ?params ~optimized_labels:[] ~config:m p with
                  | Ok e when e.Analytic.e_exact -> Some (m, which, e.Analytic.e_whole)
                  | _ -> None)
                [ (`Orig, d.Driver.original); (`Trans, d.Driver.transformed) ])
            machines
        in
        if exact_on = [] then (fp, 0, [])
        else
          let sim = Driver.run (config_of { r with Request.replay = Some Measure.Runs }) in
          match sim with
          | Error e -> (fp, List.length exact_on, [ e ])
          | Ok s ->
            let bad =
              List.filter_map
                (fun ((m : Cache.config), which, (w : Analytic.counts)) ->
                  let ms = List.find (fun (x : Driver.measured) -> x.Driver.machine = m) s.Driver.measured in
                  let run = if which = `Orig then ms.Driver.original_run else ms.Driver.transformed_run in
                  let est = { Measure.accesses = w.Analytic.c_accesses; hits = w.Analytic.c_hits; cold = w.Analytic.c_cold } in
                  if est = run.Measure.whole then None
                  else Some (Printf.sprintf "%s: analytic %s vs simulated %s" m.Cache.name (region_str est) (region_str run.Measure.whole)))
                exact_on
            in
            (fp, List.length exact_on, bad))
      analytic
  in
  (* How many estimates were checked depends on how far the window got,
     so it is reported, not kept with the seed's exact counts. *)
  List.iter (fun (fp, _, bad) -> List.iter (mismatch ("fp:" ^ fp) "analytic-exact") bad) verdicts;
  scalar "analytic_exact_checked"
    (J.int (List.fold_left (fun acc (_, n, _) -> acc + n) 0 verdicts))

let hot_counts hot refs =
  Array.iter
    (fun (r : Request.t) ->
      match Hashtbl.find_opt refs (fp_of r) with
      | Some (_, Ok (d : Driver.result)) ->
        Option.iter add_core_counts d.Driver.compound;
        bump "dep.deps" (deps_of d.Driver.original);
        if r.Request.replay = Some Measure.Runs then add_measured_counts d
      | _ -> ())
    hot

let serve_setup ~memoria ~work =
  for k = 1 to setup_probes do
    let tag = Printf.sprintf "probe%d" k in
    let store = Filename.concat work ("store-" ^ tag) in
    let socket = Filename.concat work ("sock-" ^ tag) in
    let d, c, dt = Client.time_to_first_reply ~memoria ~socket ~store ~jobs ~probe:probe_line in
    Unix.close c.Client.fd;
    if not (Client.shutdown d) then die "set-up probe daemon did not exit cleanly";
    rm_rf store;
    sample "setup_s" dt
  done

let serve_run ~seed ~seconds ~memoria ~work =
  serve_setup ~memoria ~work;
  let hot, digest, next = serve_stream seed in
  scalar "inputs_digest" (J.str digest);
  let sess = serve_session ~memoria ~work ~tag:"main" ~seconds ~next in
  serve_setup ~memoria ~work;
  if not sess.clean_exit then op "daemon-exit" "daemon did not exit 0";
  scalar "stream_exhausted" (string_of_bool sess.exhausted);
  let oks = List.length (List.filter (fun (r : Client.reply) -> status_of r.Client.line = "ok") sess.replies) in
  scalar "wall_s" (float_json sess.wall);
  scalar "items_done" (J.int oks);
  scalar "peak_rss_kb" (J.int sess.rss_kb);
  scalar "requests_sent" (J.int (Hashtbl.length sess.sent));
  let refs = reference_results (Hashtbl.fold (fun _ r acc -> r :: acc) sess.sent []) in
  judge_replies ~prefix:"" sess refs;
  check_analytic_exact refs;
  hot_counts hot refs

(* --------------------------------------------------- traced run ----- *)

(* The traced run calls every layer on the workload's own inputs:
   A. the untraced Driver over the items on the pool (reference results,
      parallel busy fraction);
   B. layer passes, alternately untraced and traced (overhead);
   C. the request stream through Request/Driver/Response with a private
      store (driver.* spans, store hit rate and bytes);
   D. Store.get/put on the workload's own results;
   E. the same stream through a serve daemon (serve.* latencies). *)
let traced_items_and_stream ~seed workload =
  match workload with
  | "eval-exact" ->
    let reqs =
      List.map
        (fun (e : Programs.entry) ->
          Request.make ~machines:machine_refs ~params:eval_params ~replay:Measure.Runs
            ~sample_rate ~use_labels:true ~store:Request.Ambient
            (Request.Suite e.Programs.name))
        Programs.all
    in
    (reqs, List.concat [ reqs; reqs; reqs ])
  | "compile" ->
    let texts = compile_texts seed in
    let reqs =
      List.init compile_checked (fun i ->
          Request.make ~machines:[] ~store:Request.Ambient
            (Request.Text { name = Printf.sprintf "fuzz%d" i; text = texts.(i) }))
    in
    (reqs, List.concat [ reqs; reqs; reqs ])
  | _ ->
    let _, _, next = serve_stream seed in
    let rec prefix i fresh acc =
      if fresh = traced_fresh then List.rev acc
      else
        match next i with
        | Some (r, f) -> prefix (i + 1) (if f then fresh + 1 else fresh) (r :: acc)
        | None -> die "the fresh pool is smaller than the traced stream needs"
    in
    let stream = prefix 0 0 [] in
    let seen = Hashtbl.create 256 in
    let distinct =
      List.filter
        (fun r ->
          let fp = fp_of r in
          if Hashtbl.mem seen fp then false
          else (
            Hashtbl.replace seen fp ();
            true))
        stream
    in
    (distinct, stream)

let traced_run ~workload ~seed ~seconds ~memoria ~work =
  let reqs, stream = traced_items_and_stream ~seed workload in
  let stream = List.mapi (fun i (r : Request.t) -> { r with Request.id = string_of_int i }) stream in
  let items = List.map item_of_request reqs in
  scalar "inputs_digest" (J.str (digest_hex (List.map Request.to_json stream)));
  scalar "items" (J.int (List.length items));
  (* A *)
  let t0 = now () in
  let refs_list =
    Pool.map ~jobs
      (fun it ->
        let res, dt = timed (fun () -> Driver.run (config_of it.req)) in
        (it, res, dt))
      items
  in
  let wall_a = now () -. t0 in
  let busy = List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0.0 refs_list in
  scalar "par.busy_frac" (float_json (busy /. (float_of_int jobs *. wall_a)));
  List.iter (fun (it, res, _) -> op ("A:" ^ it.key) (error_text res)) refs_list;
  (* B *)
  let budget = Float.max 1.0 (seconds /. 2.0) in
  let tb = now () in
  let pass_counts = ref None in
  let traced_walls = ref [] and untraced_walls = ref [] in
  let k = ref 0 in
  while !k < 2 || now () -. tb < budget do
    let tracing = !k mod 2 = 1 in
    Hashtbl.reset counts;
    alloc_minor := 0.0;
    alloc_total := 0.0;
    Spans.recording := tracing;
    let outs, wall = timed (fun () -> List.map (fun it -> (it, layer_pass it)) items) in
    Spans.recording := false;
    if tracing then traced_walls := wall :: !traced_walls
    else untraced_walls := wall :: !untraced_walls;
    let snapshot = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []) in
    (match !pass_counts with
    | None ->
      pass_counts := Some snapshot;
      scalar "interp.minor_words" (float_json !alloc_minor);
      scalar "interp.words" (float_json !alloc_total);
      List.iter2
        (fun (it, out) (_, res, _) ->
          match res with Ok r -> cross_check it r out | Error _ -> ())
        outs refs_list
    | Some c -> if c <> snapshot then mismatch "-" "determinism" "layer-pass counts differ between passes");
    incr k
  done;
  Hashtbl.reset counts;
  List.iter (fun (k, v) -> Hashtbl.replace counts k v) (Option.get !pass_counts);
  scalar "layer_passes" (J.int !k);
  List.iter (sample "traced_pass_s") !traced_walls;
  List.iter (sample "untraced_pass_s") !untraced_walls;
  (* C *)
  let refs = Hashtbl.create 256 in
  List.iter (fun (it, res, _) -> Hashtbl.replace refs it.key (it.req, res)) refs_list;
  let store_dir = Filename.concat work "store-driver" in
  let st = Store.open_root store_dir in
  let c0 = Store.counters () in
  let seen = Hashtbl.create 256 in
  Spans.recording := true;
  List.iter
    (fun (r : Request.t) ->
      let line = Request.to_json r in
      span ~req:r.Request.id "request" (fun () ->
          match span "driver.request_parse" (fun () -> Request.of_json line) with
          | Error e -> op ("C:" ^ r.Request.id) e
          | Ok parsed ->
            let fp = fp_of parsed in
            let fresh = not (Hashtbl.mem seen fp) in
            Hashtbl.replace seen fp ();
            let cfg = { (config_of parsed) with Driver.store = Some st } in
            let res =
              span (if fresh then "driver.run_fresh" else "driver.run_hit") (fun () -> Driver.run cfg)
            in
            let out =
              span "driver.response_render" (fun () ->
                  Response.to_json (Response.of_run ~id:parsed.Request.id res))
            in
            op ("C:" ^ r.Request.id) (error_text res);
            match Hashtbl.find_opt refs fp with
            | Some (_, expect) ->
              compare_reply ("C:" ^ r.Request.id) "store-vs-nostore" (expected_line parsed expect) out
            | None -> mismatch ("C:" ^ r.Request.id) "store-vs-nostore" "no reference"))
    stream;
  Spans.recording := false;
  let c1 = Store.counters () in
  let hits = c1.Store.hits - c0.Store.hits and misses = c1.Store.misses - c0.Store.misses in
  scalar "store.hit_rate" (float_json (float_of_int hits /. float_of_int (max 1 (hits + misses))));
  bump "store.bytes_written" (Store.disk_stats st).Store.bytes;
  rm_rf store_dir;
  (* D *)
  let probe_dir = Filename.concat work "store-probe" in
  let ps = Store.open_root probe_dir in
  let entries =
    List.filter_map
      (fun (it, res, _) ->
        match res with
        | Ok r -> Some (Store.key ~kind:"perfbench" [ it.key ], Marshal.to_string (r : Driver.result) [])
        | Error _ -> None)
      refs_list
  in
  let n_ops = ref 0 in
  Spans.recording := true;
  while !n_ops < 1000 && entries <> [] do
    List.iter
      (fun (key, payload) ->
        span "store.put" (fun () -> Store.put ps key payload);
        match span "store.get" (fun () -> Store.get ps key) with
        | Some got when got = payload -> ()
        | _ -> mismatch "-" "store-roundtrip" "get returned other bytes")
      entries;
    n_ops := !n_ops + List.length entries
  done;
  Spans.recording := false;
  rm_rf probe_dir;
  (* E *)
  let arr = Array.of_list stream in
  let sess =
    serve_session ~memoria ~work ~tag:"traced" ~seconds:infinity
      ~next:(fun i -> if i < Array.length arr then Some (arr.(i), false) else None)
  in
  if not sess.clean_exit then op "daemon-exit" "daemon did not exit 0";
  judge_replies ~prefix:"serve." sess refs;
  scalar "wall_s" (float_json (now () -. t0));
  scalar "items_done" (J.int (List.length stream))

(* ---------------------------------------------------------- main ---- *)

let write_result ~out ~workload ~seed ~trace =
  let table tbl render =
    J.obj (List.sort compare (Hashtbl.fold (fun k v acc -> (k, render v) :: acc) tbl []))
  in
  let doc =
    J.obj
      [
        ("workload", J.str workload);
        ("seed", J.int seed);
        ("trace", string_of_bool trace);
        ("jobs", J.int jobs);
        ("ocaml", J.str Sys.ocaml_version);
        ("sample_rate", float_json sample_rate);
        ("counts", table counts J.int);
        ("ops", J.list (List.rev_map (fun (k, st) -> J.strings [ k; st ]) !ops));
        ("mismatches", J.list (List.rev_map (fun (k, o, d) -> J.strings [ k; o; d ]) !mismatches));
        ("samples", table samples (fun v -> J.list (List.rev_map float_json v)));
        ("known_defects", table known J.int);
        ("scalars", table scalars Fun.id);
      ]
  in
  let oc = open_out out in
  output_string oc doc;
  close_out oc

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | x :: _ -> die "unexpected argument %s" x
  in
  match args with
  | "probe" :: rest ->
    let o = opts [] rest in
    probe_child (Option.value (List.assoc_opt "--workload" o) ~default:"")
  | "run" :: rest ->
    let o = opts [] rest in
    let get k = match List.assoc_opt k o with Some v -> v | None -> die "missing %s" k in
    let workload = get "--workload" in
    let seed = match int_of_string_opt (get "--seed") with Some s -> s | None -> die "bad --seed" in
    let seconds =
      match float_of_string_opt (get "--seconds") with
      | Some s when s > 0.0 -> s
      | _ -> die "bad --seconds"
    in
    let trace = get "--trace" = "1" in
    let memoria = get "--memoria" and work = get "--work" and out = get "--out" in
    List.iter
      (fun v -> if Sys.getenv_opt v <> None then die "%s must not be set" v)
      Client.ambient_vars;
    Store.mkdir_p work;
    (match (workload, trace) with
    | ("eval-exact" | "compile" | "serve-mixed"), true ->
      traced_run ~workload ~seed ~seconds ~memoria ~work;
      Spans.write (Filename.concat work "spans.jsonl")
    | "eval-exact", false -> eval_run ~seed ~seconds
    | "compile", false -> compile_run ~seed ~seconds
    | "serve-mixed", false -> serve_run ~seed ~seconds ~memoria ~work
    | _ -> die "unknown workload %s" workload);
    write_result ~out ~workload ~seed ~trace
  | _ -> die "usage: bench.exe run|probe ..."
