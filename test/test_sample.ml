(* SHARDS sampled reuse-distance profiling (lib/sample), validated
   differentially against the exact simulator.

   The estimator tracks distances per cache set and, for sets > 1,
   samples whole sets (every line of a sampled set is tracked), so the
   W-way hit/miss verdict of each observation is exact and the only
   estimation error is across-set selection. Contracts under test:

   - at rate 1.0 with an unexceeded budget the estimate IS the
     simulator, on every geometry and for any hash seed;
   - the group-descriptor fast path is invisible: group-fed and
     per-access-fed profiles are structurally equal, including under
     threshold adaptation, at the served rate 0.01 (one sampled set of
     128, where the walk skips straight to sampled sets) and on random
     groups with zero, negative, sub-line and super-line strides;
   - the modular search behind the skip agrees with brute force;
   - profiles are bit-identical to a pinned digest of the earlier
     crossing-walk sampler;
   - profiles are deterministic in (trace, rate, seed, budget);
   - at a practical sampling rate the miss-rate error stays within a
     loose bound on mid-size programs, for several seeds;
   - the Measure integration (MEMORIA_REPLAY=sample) reproduces exact
     runs at rate 1.0, and a Driver request computes each partition's
     profile once per program version, with identical results from a
     cold store, a warm store and no store. *)

open Locality_ir
module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Measure = Locality_interp.Measure
module Trace = Locality_interp.Trace
module Fastexec = Locality_interp.Fastexec
module Sample = Locality_sample.Sample
module Kernels = Locality_suite.Kernels
module Programs = Locality_suite.Programs
module Runchunk = Locality_cachesim.Runchunk
module Chunk = Locality_cachesim.Chunk
module Driver = Locality_driver.Driver
module Store = Locality_store.Store
module Obs = Locality_obs.Obs
module Event = Locality_obs.Event

let small_assoc =
  { Cache.name = "sa4"; size_bytes = 4096; assoc = 4; line_bytes = 64 }

let tiny_dm =
  { Cache.name = "dm"; size_bytes = 1024; assoc = 1; line_bytes = 32 }

let configs = [ Machine.cache1; Machine.cache2; small_assoc; tiny_dm ]
let sets_of (c : Cache.config) = c.size_bytes / (c.line_bytes * c.assoc)

let capture p =
  let rb, finish = Trace.run_capturing () in
  ignore (Fastexec.run_traced_runs rb p);
  finish ()

let build cap ~rate ?(seed = 0) ?(max_tracked = max_int) ~sets ~line_bytes
    ~grouped () =
  let s = Sample.create ~rate ~seed ~max_tracked ~sets ~line_bytes () in
  (if grouped then Trace.iter_run_chunks cap (Sample.consume_runchunk s)
   else
     Trace.iter_runs cap (fun ~label ~addr ~write ->
         ignore write;
         Sample.access s ~label ~addr));
  Sample.profile s ~labels:Trace.(cap.run_trace_labels) ~ops:0

let est_hits pf ~ways =
  let acc = ref 0.0 in
  Array.iteri
    (fun i _ -> acc := !acc +. Sample.hits_under pf i ~ways)
    pf.Sample.pf_labels;
  !acc

let simulate ~config p =
  (Measure.replay_prepared ~config
     (Measure.prepare ~mode:Measure.Runs ~store:None p))
    .Measure.whole

let programs =
  [
    ("matmul", Kernels.matmul 12);
    ("cholesky", Kernels.cholesky 12);
    ("adi", Kernels.adi_fragment 16);
    ("gmtry", Kernels.gmtry 12);
  ]

(* Rate 1.0: the set-sampling estimator must equal the simulator
   exactly — hits, cold and access counts — on all four geometries,
   whatever the seed. *)
let test_rate1_exact () =
  List.iter
    (fun (name, p) ->
      let cap = capture p in
      List.iter
        (fun config ->
          List.iter
            (fun seed ->
              let pf =
                build cap ~rate:1.0 ~seed ~sets:(sets_of config)
                  ~line_bytes:config.Cache.line_bytes ~grouped:true ()
              in
              let sim = simulate ~config p in
              let chk what est exact =
                Alcotest.(check (float 0.0))
                  (Printf.sprintf "%s on %s seed %d: %s" name
                     config.Cache.name seed what)
                  (float_of_int exact) est
              in
              chk "hits" (est_hits pf ~ways:config.Cache.assoc)
                sim.Measure.hits;
              chk "cold" (Sample.cold pf) sim.Measure.cold;
              chk "accesses"
                (float_of_int pf.Sample.pf_accesses)
                sim.Measure.accesses)
            [ 0; 1; 4 ])
        configs)
    programs

(* Group-fed and per-access-fed profiles must be structurally equal —
   also when a tiny budget forces threshold adaptation mid-trace, and
   in fully-associative (sets = 1, line-sampling) mode. *)
let test_group_equivalence () =
  List.iter
    (fun (name, p) ->
      let cap = capture p in
      List.iter
        (fun (rate, max_tracked, sets, line_bytes) ->
          let a =
            build cap ~rate ~max_tracked ~sets ~line_bytes ~grouped:true ()
          in
          let b =
            build cap ~rate ~max_tracked ~sets ~line_bytes ~grouped:false ()
          in
          Alcotest.(check bool)
            (Printf.sprintf
               "%s: group = per-access (rate=%g budget=%d sets=%d)" name rate
               max_tracked sets)
            true (a = b))
        [
          (1.0, 64, 128, 32);
          (1.0, max_int, 128, 128);
          (0.25, max_int, 128, 32);
          (0.25, 64, 1, 64);
          (0.5, max_int, 1, 32);
          (0.01, 65536, 128, 128);
          (0.01, 65536, 128, 32);
          (0.05, 16, 128, 64);
        ])
    programs

(* Random groups through both feeds. Strides cover the skip's cases:
   zero, sub-line either way, power-of-two super-line (up to 8 KB
   column walks, which revisit one set forever on an 8 KB span) and
   odd super-line strides; loose records sit between the groups. *)
let prop_group_fuzz =
  let open QCheck.Gen in
  let stride =
    oneof
      [
        return 0;
        int_range (-24) 24;
        map2 (fun k neg -> if neg then -(1 lsl k) else 1 lsl k) (int_range 5 13) bool;
        map2 (fun k neg -> if neg then -k else k) (int_range 33 3000) bool;
      ]
  in
  let ref_ =
    map3 (fun label base s -> (label, (1 lsl 22) + base, s)) (int_range 0 3)
      (int_range 0 ((1 lsl 20) - 1)) stride
  in
  let item =
    frequency
      [
        (4, map2 (fun trip refs -> `Group (trip, refs)) (int_range 1 200)
              (list_size (int_range 1 4) ref_));
        (1, map2 (fun label a -> `Access (label, (1 lsl 22) + a)) (int_range 0 3)
              (int_range 0 ((1 lsl 16) - 1)));
      ]
  in
  let case =
    quad (list_size (int_range 1 8) item)
      (oneofl [ 0.01; 0.05; 0.25; 1.0 ])
      (pair (oneofl [ 1; 16; 128 ]) (oneofl [ 32; 64; 128 ]))
      (oneofl [ 8; 65536 ])
  in
  QCheck.Test.make ~name:"group fuzz: group = per-access" ~count:300
    (QCheck.make case) (fun (items, rate, (sets, line_bytes), max_tracked) ->
      let rc = Runchunk.create 4096 in
      List.iter
        (function
          | `Access (label, addr) ->
            Runchunk.push_access rc (Chunk.pack ~addr ~write:false ~label)
          | `Group (trip, refs) ->
            let refs = Array.of_list refs in
            let n = Array.length refs in
            Runchunk.push_group rc ~trip
              ~packed:
                (Array.map
                   (fun (label, _, _) -> Chunk.pack ~addr:0 ~write:false ~label)
                   refs)
              ~bases:(Array.map (fun (_, b, _) -> b) refs)
              ~strides:(Array.map (fun (_, _, s) -> s) refs)
              n)
        items;
      let labels = [| "a"; "b"; "c"; "d" |] in
      let mk () = Sample.create ~rate ~max_tracked ~sets ~line_bytes () in
      let g = mk () and a = mk () in
      Sample.consume_runchunk g rc;
      Runchunk.iter rc (fun ~label ~addr ~write ->
          ignore write;
          Sample.access a ~label ~addr);
      Sample.profile g ~labels ~ops:0 = Sample.profile a ~labels ~ops:0)

(* The modular first-hit search against brute force: exhaustively for
   small moduli, then on random power-of-two and odd moduli. A hit, if
   any, comes within one period (at most [m] steps). *)
let brute a m l r =
  let rec go x =
    if x >= m then max_int
    else
      let v = a * x mod m in
      if l <= v && v <= r then x else go (x + 1)
  in
  go 0

let test_first_hit () =
  for m = 1 to 10 do
    for a = 0 to m - 1 do
      for l = 0 to m - 1 do
        for r = l to m - 1 do
          let got = Sample.first_hit a m l r and want = brute a m l r in
          if got <> want then
            Alcotest.failf "a=%d mod %d [%d,%d]: %d, brute force %d" a m l r
              got want
        done
      done
    done
  done

let prop_first_hit =
  let open QCheck.Gen in
  let case =
    oneof [ map (fun k -> 1 lsl k) (int_range 4 14); int_range 11 5000 ]
    >>= fun m ->
    map2
      (fun a (l, len) -> (a, m, l, min (m - 1) (l + len)))
      (int_range 0 (m - 1))
      (pair (int_range 0 (m - 1)) (int_range 0 (max 1 (m / 8))))
  in
  QCheck.Test.make ~name:"first_hit = brute force" ~count:500
    (QCheck.make case) (fun (a, m, l, r) ->
      Sample.first_hit a m l r = brute a m l r)

(* Profiles are pinned bit for bit: the digest below was computed by the
   crossing-walk sampler that visited every line crossing of every
   reference, before sampled sets were skipped to directly. It covers
   every kernel and suite program at n = 16 on four partitions (two
   set-sampled geometries, a small set count and line sampling), four
   rates and three budgets. The 16- and 2-line budgets force
   adaptation; the 2-line one keeps the sample over budget across
   re-touches of a set's latest line, which must still shrink it.
   Labels are left out: their names are unique per construction. *)
let golden_digest = "c5db79d5f42ab0426f2cce09b13b7c82"

let test_golden () =
  let progs =
    List.map (fun (_, mk) -> mk 16) Kernels.all
    @ List.map (fun e -> Programs.program_of ~n:16 e) Programs.all
  in
  let profiles =
    List.concat_map
      (fun p ->
        let cap = capture p in
        List.concat_map
          (fun (line_bytes, sets) ->
            List.concat_map
              (fun rate ->
                List.map
                  (fun max_tracked ->
                    let pf =
                      build cap ~rate ~max_tracked ~sets ~line_bytes
                        ~grouped:true ()
                    in
                    { pf with Sample.pf_labels = [||] })
                  [ 65536; 16; 2 ])
              [ 0.01; 0.05; 0.25; 1.0 ])
          [ (128, 128); (32, 128); (64, 16); (32, 1) ])
      progs
  in
  Alcotest.(check string) "profile digest" golden_digest
    (Digest.to_hex
       (Digest.string (Marshal.to_string profiles [ Marshal.No_sharing ])))

(* Profiles are a pure function of (trace, rate, seed, budget). *)
let test_determinism () =
  let _, p = List.hd programs in
  let cap = capture p in
  let mk seed =
    build cap ~rate:0.25 ~seed ~max_tracked:4096 ~sets:128 ~line_bytes:32
      ~grouped:true ()
  in
  Alcotest.(check bool) "same seed, same profile" true (mk 3 = mk 3);
  let pf = mk 0 in
  Alcotest.(check bool) "rate recorded" true
    (Float.abs (pf.Sample.pf_rate -. 0.25) < 0.01)

(* Sampling-noise regression: at rate 0.25 the whole-program miss-rate
   estimate stays within a few points of the simulator across the four
   geometries and five seeds. The programs are sized so their footprints
   spread across the cache sets — set sampling has nothing to observe in
   a set the program never touches, so tiny concentrated footprints are
   out of the estimator's regime (the exactness tests cover them at rate
   1.0 instead). Everything is deterministic, so the bound is a
   regression fence, not a statistical hope. *)
let test_error_bound () =
  let bound = 6.0 and mean_bound = 1.5 in
  let sum = ref 0.0 and n = ref 0 in
  List.iter
    (fun (name, p) ->
      let cap = capture p in
      List.iter
        (fun config ->
          let sim = simulate ~config p in
          let exact_rate =
            100.0
            *. float_of_int (sim.Measure.accesses - sim.Measure.hits)
            /. float_of_int sim.Measure.accesses
          in
          List.iter
            (fun seed ->
              let pf =
                build cap ~rate:0.25 ~seed ~sets:(sets_of config)
                  ~line_bytes:config.Cache.line_bytes ~grouped:true ()
              in
              let est =
                100.0
                *. (float_of_int pf.Sample.pf_accesses
                    -. est_hits pf ~ways:config.Cache.assoc)
                /. float_of_int pf.Sample.pf_accesses
              in
              let err = Float.abs (est -. exact_rate) in
              sum := !sum +. err;
              incr n;
              Alcotest.(check bool)
                (Printf.sprintf "%s on %s seed %d: err %.2fpt <= %.1fpt" name
                   config.Cache.name seed err bound)
                true (err <= bound))
            [ 0; 1; 2; 3; 4 ])
        configs)
    [
      ("matmul", Kernels.matmul 48);
      ("lu", Kernels.lu 48);
      ("adi", Kernels.adi_fragment 64);
      ("jacobi2d", Kernels.jacobi2d 48);
    ];
  let mean = !sum /. float_of_int !n in
  Alcotest.(check bool)
    (Printf.sprintf "mean err %.3fpt <= %.1fpt" mean mean_bound)
    true (mean <= mean_bound)

(* MEMORIA_REPLAY=sample through Measure: at rate 1.0 the sampled run
   record equals the exact one (counts, ops and modelled times), and
   the optimized-region split is preserved. *)
let test_measure_sampled () =
  List.iter
    (fun (e : Programs.entry) ->
      let p = Programs.program_of ~n:8 e in
      let labels =
        let rec stmts = function
          | Loop.Stmt s -> [ s.Stmt.label ]
          | Loop.Loop l -> List.concat_map stmts l.Loop.body
        in
        List.concat_map stmts p.Program.body
        |> List.filteri (fun i _ -> i mod 2 = 0)
      in
      let run mode =
        Measure.replay_prepared ~config:Machine.cache2
          ~optimized_labels:labels
          (Measure.prepare ~mode ~rate:1.0 ~store:None p)
      in
      Alcotest.(check bool)
        (e.Programs.name ^ ": sampled(rate 1) = exact")
        true
        (run Measure.Sampled = run Measure.Runs))
    Programs.all

(* Sample mode through Driver with a geometry list whose partitions
   repeat (cache1 and a half-size 2-way geometry share 128-byte lines
   and 128 sets): one "sample" span per program version covers every
   distinct partition; a warm store runs none; the measured runs are
   identical with a cold store, a warm store and no store, and equal
   to one execution per geometry. *)
let test_driver_fan_out () =
  let half =
    { Cache.name = "half"; size_bytes = 32 * 1024; assoc = 2; line_bytes = 128 }
  in
  let machines = [ Machine.cache1; Machine.cache2; half; small_assoc ] in
  let run store =
    let r, events =
      Obs.collect (fun () ->
          Driver.run_exn
            (Driver.config ~n:16 ~replay:Measure.Sampled ~sample_rate:0.05
               ~machines ~store (Driver.Source_kernel "matmul")))
    in
    let spans =
      List.filter_map
        (fun (e : Event.t) ->
          match e.Event.payload with
          | Event.Span { name = "sample"; args; _ } -> Some args
          | _ -> None)
        events
    in
    (r.Driver.measured, spans)
  in
  let st = Store.open_root (Filename.temp_dir "memoria-sample-fanout" "") in
  let none, none_spans = run None in
  let cold, cold_spans = run (Some st) in
  let warm, warm_spans = run (Some st) in
  Alcotest.(check int) "no store: one execution per version" 2
    (List.length none_spans);
  Alcotest.(check int) "cold store: one execution per version" 2
    (List.length cold_spans);
  Alcotest.(check int) "warm store: no execution" 0 (List.length warm_spans);
  List.iter
    (fun args ->
      Alcotest.(check (option string)) "each distinct partition once"
        (Some "128,32,64") (List.assoc_opt "line_bytes" args))
    none_spans;
  Alcotest.(check bool) "cold store = no store" true (cold = none);
  Alcotest.(check bool) "warm store = no store" true (warm = none);
  let p = Kernels.matmul 16 in
  let fanned = Measure.prepare ~mode:Measure.Sampled ~rate:0.05 ~configs:machines ~store:None p in
  List.iter
    (fun config ->
      let single = Measure.prepare ~mode:Measure.Sampled ~rate:0.05 ~store:None p in
      Alcotest.(check bool)
        (config.Cache.name ^ ": fan-out = one execution per geometry")
        true
        (Measure.replay_prepared ~config fanned
         = Measure.replay_prepared ~config single))
    machines

(* Constructor validation. *)
let test_create_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "rate 0 rejected" true
    (raises (fun () -> Sample.create ~rate:0.0 ~line_bytes:32 ()));
  Alcotest.(check bool) "line_bytes 48 rejected" true
    (raises (fun () -> Sample.create ~rate:0.5 ~line_bytes:48 ()));
  Alcotest.(check bool) "sets 3 rejected" true
    (raises (fun () -> Sample.create ~rate:0.5 ~sets:3 ~line_bytes:32 ()))

let suite =
  [
    Alcotest.test_case "rate 1.0 = simulator (4 geometries, seeds)" `Quick
      test_rate1_exact;
    Alcotest.test_case "group fast path = per-access" `Quick
      test_group_equivalence;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 15 |]) prop_group_fuzz;
    Alcotest.test_case "first_hit = brute force (small moduli)" `Quick
      test_first_hit;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 15 |]) prop_first_hit;
    Alcotest.test_case "golden profile digest" `Quick test_golden;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "rate 0.25 error bound (4 geometries, 5 seeds)" `Quick
      test_error_bound;
    Alcotest.test_case "measure: sampled(rate 1) = exact" `Quick
      test_measure_sampled;
    Alcotest.test_case "driver: one execution per version, any store" `Quick
      test_driver_fan_out;
    Alcotest.test_case "create validation" `Quick test_create_validation;
  ]
