(* The v2 run-compressed trace format and its line-visit replay.
   Everything here is differential: run-level replay must be
   bit-identical — whole-cache and per-region, every stats field — to
   per-access replay, on the hand-written kernels, on all 35 synthetic
   suite programs, and on adversarial fuzz streams mixing group
   descriptors with plain records. *)

open Locality_ir
module Cache = Locality_cachesim.Cache
module Chunk = Locality_cachesim.Chunk
module Runchunk = Locality_cachesim.Runchunk
module Hierarchy = Locality_cachesim.Hierarchy
module Machine = Locality_cachesim.Machine
module Reuse = Locality_cachesim.Reuse
module Fastexec = Locality_interp.Fastexec
module Trace = Locality_interp.Trace
module Measure = Locality_interp.Measure
module Kernels = Locality_suite.Kernels
module Programs = Locality_suite.Programs

let stats_pp ppf (s : Cache.stats) =
  Format.fprintf ppf
    "{accesses=%d; hits=%d; misses=%d; cold=%d; writes=%d; write_hits=%d; \
     writebacks=%d}"
    s.Cache.accesses s.Cache.hits s.Cache.misses s.Cache.cold_misses
    s.Cache.writes s.Cache.write_hits s.Cache.writebacks

let stats_t = Alcotest.testable stats_pp ( = )

let region_pp ppf (r : Cache.region) =
  Format.fprintf ppf "{accesses=%d; hits=%d; cold=%d}" r.Cache.r_accesses
    r.Cache.r_hits r.Cache.r_cold

let region_t =
  Alcotest.testable region_pp (fun a b ->
      a.Cache.r_accesses = b.Cache.r_accesses
      && a.Cache.r_hits = b.Cache.r_hits
      && a.Cache.r_cold = b.Cache.r_cold)

let direct_mapped =
  { Cache.name = "dm"; size_bytes = 1024; assoc = 1; line_bytes = 32 }

let small_assoc =
  { Cache.name = "sa4"; size_bytes = 4096; assoc = 4; line_bytes = 64 }

(* Eight ways: the lookup kernel's generic (not unrolled) loop. *)
let eight_way =
  { Cache.name = "sa8"; size_bytes = 4096; assoc = 8; line_bytes = 32 }

(* Capture a program in both formats; small chunk sizes force flushes
   so chunk boundaries land mid-loop. *)
let both_captures p =
  let tr, finish = Trace.capturing ~chunk_records:509 () in
  ignore (Fastexec.run_traced tr p);
  let v1 = finish () in
  let rb, rfinish = Trace.run_capturing ~chunk_words:509 () in
  ignore (Fastexec.run_traced_runs rb p);
  let v2 = rfinish () in
  (v1, v2)

(* Mark every other interned label, by name, in each capture's own
   table — label ids need not agree between the formats. *)
let alternate_names labels =
  List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list labels)

let marked_of labels names =
  Array.map (fun l -> List.mem l names) labels

let replay_v1 config ~marked (cap : Trace.captured) =
  let c = Cache.create config in
  let reg = Cache.fresh_region () in
  Trace.iter_chunks cap (fun ch -> Cache.simulate_chunk c ~marked ~region:reg ch);
  (Cache.stats c, reg)

let replay_v2 config ~marked (cap : Trace.captured_runs) =
  let c = Cache.create config in
  let reg = Cache.fresh_region () in
  let metrics = Cache.fresh_run_metrics () in
  Trace.iter_run_chunks cap (fun rc ->
      Cache.simulate_runs c ~marked ~region:reg ~metrics rc);
  (Cache.stats c, reg, metrics)

let check_program name p =
  let v1, v2 = both_captures p in
  Alcotest.(check int)
    (name ^ ": logical record counts agree")
    v1.Trace.records v2.Trace.run_records;
  let names = alternate_names v1.Trace.trace_labels in
  List.iter
    (fun config ->
      let s1, r1 =
        replay_v1 config ~marked:(marked_of v1.Trace.trace_labels names) v1
      in
      let s2, r2, _ =
        replay_v2 config ~marked:(marked_of v2.Trace.run_trace_labels names) v2
      in
      let where = Printf.sprintf "%s on %s" name config.Cache.name in
      Alcotest.check stats_t (where ^ ": stats") s1 s2;
      Alcotest.check region_t (where ^ ": region") r1 r2)
    [ Machine.cache1; Machine.cache2; direct_mapped; small_assoc ]

let test_kernels_identical () =
  List.iter
    (fun (name, p) -> check_program name p)
    [
      ("matmul IJK", Kernels.matmul ~order:"IJK" 24);
      ("matmul JKI", Kernels.matmul ~order:"JKI" 24);
      ("erlebacher", Kernels.erlebacher_hand 12);
      ("transpose", Kernels.transpose 40);
      ("cholesky", Kernels.cholesky 24);
    ]

let test_suite_identical () =
  List.iter
    (fun (e : Programs.entry) ->
      check_program e.Programs.name (Programs.program_of ~n:10 e))
    Programs.all

let test_hierarchy_identical () =
  let p = Kernels.matmul ~order:"IJK" 24 in
  let v1, v2 = both_captures p in
  let h1 = Hierarchy.create ~l1:Machine.cache2 ~l2:Machine.cache1 in
  Trace.iter_chunks v1 (fun c -> Hierarchy.simulate_chunk h1 c);
  let h2 = Hierarchy.create ~l1:Machine.cache2 ~l2:Machine.cache1 in
  Trace.iter_run_chunks v2 (fun rc -> Hierarchy.simulate_runs h2 rc);
  Alcotest.check stats_t "L1" (Hierarchy.l1_stats h1) (Hierarchy.l1_stats h2);
  Alcotest.check stats_t "L2" (Hierarchy.l2_stats h1) (Hierarchy.l2_stats h2);
  Alcotest.(check int) "writebacks" (Hierarchy.writebacks h1)
    (Hierarchy.writebacks h2)

let test_measure_modes_identical () =
  (* The user-facing surface: Measure in both modes, same numbers. *)
  let p = Kernels.erlebacher_hand 12 in
  let c1 = Measure.capture ~mode:Measure.Per_access p in
  let c2 = Measure.capture ~mode:Measure.Runs p in
  let labels = [ "S1"; "S2" ] in
  List.iter
    (fun config ->
      let r1 = Measure.replay ~config ~optimized_labels:labels c1 in
      let r2 = Measure.replay ~config ~optimized_labels:labels c2 in
      Alcotest.(check bool)
        ("runs equal on " ^ config.Cache.name)
        true (r1 = r2))
    [ Machine.cache1; Machine.cache2 ]

(* ------------------------------------------------- run compression --- *)

let test_matmul_emits_groups () =
  let p = Kernels.matmul ~order:"IJK" 16 in
  let rb, finish = Trace.run_capturing () in
  ignore (Fastexec.run_traced_runs rb p);
  let cap = finish () in
  Alcotest.(check bool) "groups emitted" true (cap.Trace.run_groups > 0);
  Alcotest.(check bool) "stream smaller than records" true
    (cap.Trace.run_stream_words < cap.Trace.run_records)

(* The working chunk grows before its first flush but flushes only at
   full size: every chunk but the last is within one group of the
   capacity. *)
let test_chunks_flush_when_full () =
  let p = Kernels.matmul ~order:"IJK" 48 in
  let cap = 4096 in
  let rb, finish = Trace.run_capturing ~chunk_words:cap () in
  ignore (Fastexec.run_traced_runs rb p);
  let chunks = (finish ()).Trace.run_chunks in
  Alcotest.(check bool) "several chunks" true (List.length chunks > 2);
  List.iteri
    (fun k rc ->
      if k < List.length chunks - 1 then
        Alcotest.(check bool)
          (Printf.sprintf "chunk %d flushed full" k)
          true
          (Runchunk.words rc > cap - Runchunk.group_words ~nrefs:4))
    chunks

let test_nonaffine_falls_back () =
  (* A subscript quadratic in the innermost index cannot be a strided
     run: no groups, but the expanded stream is still identical. *)
  let p =
    let open Builder in
    let n = v "N" in
    program "quad" ~params:[ ("N", 10) ]
      ~arrays:[ ("A", [ n *$ n ]) ]
      [
        do_ "I" (i 1) n
          [ asn (r "A" [ v "I" *$ v "I" ]) (ld "A" [ v "I" ] +! f 1.0) ];
      ]
  in
  let rb, finish = Trace.run_capturing () in
  ignore (Fastexec.run_traced_runs rb p);
  let cap = finish () in
  Alcotest.(check int) "no groups" 0 cap.Trace.run_groups;
  check_program "quad" p

let test_min_subscript_falls_back () =
  (* MIN over the loop index is not affine either. *)
  let p =
    let open Builder in
    let n = v "N" in
    program "clamped" ~params:[ ("N", 12) ]
      ~arrays:[ ("A", [ n ]); ("B", [ n ]) ]
      [
        do_ "I" (i 1) n
          [
            asn
              (r "A" [ Expr.Min (v "I" +$ i 3, n) ])
              (ld "B" [ v "I" ] +! f 1.0);
          ];
      ]
  in
  let rb, finish = Trace.run_capturing () in
  ignore (Fastexec.run_traced_runs rb p);
  let cap = finish () in
  Alcotest.(check int) "no groups" 0 cap.Trace.run_groups;
  check_program "clamped" p

let test_invariant_factor_qualifies () =
  (* A stride that is loop-invariant without being constant — J*8
     elements per step of I — still qualifies. *)
  let p =
    let open Builder in
    let n = v "N" in
    program "skewed" ~params:[ ("N", 12) ]
      ~arrays:[ ("A", [ n *$ n ]) ]
      [
        do_ "J" (i 1) n
          [
            do_ "I" (i 1) n
              [ asn (r "A" [ ((v "I" -$ i 1) *$ v "J") +$ i 1 ]) (f 2.0) ];
          ];
      ]
  in
  let rb, finish = Trace.run_capturing () in
  ignore (Fastexec.run_traced_runs rb p);
  let cap = finish () in
  Alcotest.(check bool) "groups emitted" true (cap.Trace.run_groups > 0);
  check_program "skewed" p

let test_downward_loop_qualifies () =
  let p =
    let open Builder in
    let n = v "N" in
    program "reversed" ~params:[ ("N", 20) ]
      ~arrays:[ ("A", [ n ]); ("B", [ n ]) ]
      [
        do_ ~step:(-1) "I" n (i 1)
          [ asn (r "A" [ v "I" ]) (ld "B" [ v "I" ] +! f 1.0) ];
      ]
  in
  let rb, finish = Trace.run_capturing () in
  ignore (Fastexec.run_traced_runs rb p);
  let cap = finish () in
  Alcotest.(check bool) "groups emitted" true (cap.Trace.run_groups > 0);
  check_program "reversed" p

(* ------------------------------------------- address-only parity --- *)

(* [run_traced_runs] computes addresses and counts without executing
   values; the value-executing [Fastexec.run] and the tree-walking
   [Exec.run] are its references. Streams are compared by an
   order-sensitive digest folded as the chunks arrive, so N=32 traces
   need not be held in memory. *)
type digest = { mutable records : int; mutable h1 : int; mutable h2 : int }

let absorb d ~label ~addr ~write =
  let x = (((addr * 2) + Bool.to_int write) * 4099) + label in
  d.records <- d.records + 1;
  d.h1 <- (d.h1 * 1_000_003) + x;
  d.h2 <- (d.h2 * 998_244_353) lxor x

type outcome = {
  counts : (int * int * int, string) result;  (** ops, accesses, iterations *)
  stream : int * int * int;
  labels : string array;
}

let guarded f =
  match f () with
  | ops, accesses, iterations -> Ok (ops, accesses, iterations)
  | exception e -> Error (Printexc.to_string e)

let runs_outcome p =
  let d = { records = 0; h1 = 0; h2 = 0 } in
  let rb = Trace.run_create ~sink:(fun rc -> Runchunk.iter rc (absorb d)) () in
  let counts =
    guarded (fun () ->
        let r = Fastexec.run_traced_runs rb p in
        (r.Fastexec.ops, r.Fastexec.accesses, r.Fastexec.iterations))
  in
  { counts; stream = (d.records, d.h1, d.h2); labels = Trace.run_labels rb }

let per_access_outcome p =
  let d = { records = 0; h1 = 0; h2 = 0 } in
  let tr = Trace.create ~sink:(Chunk.iter (absorb d)) () in
  let counts =
    guarded (fun () ->
        let r = Fastexec.run_traced tr p in
        (r.Fastexec.ops, r.Fastexec.accesses, r.Fastexec.iterations))
  in
  { counts; stream = (d.records, d.h1, d.h2); labels = Trace.labels tr }

let counts_t =
  Alcotest.(result (triple int int int) string)

let check_address_only name p =
  let runs = runs_outcome p in
  let fast =
    guarded (fun () ->
        let r = Fastexec.run p in
        (r.Fastexec.ops, r.Fastexec.accesses, r.Fastexec.iterations))
  in
  let tree =
    guarded (fun () ->
        let r = Locality_interp.Exec.run p in
        Locality_interp.Exec.(r.ops, r.accesses, r.iterations))
  in
  Alcotest.check counts_t (name ^ ": counts = Fastexec.run") fast runs.counts;
  Alcotest.check counts_t (name ^ ": counts = Exec.run") tree runs.counts;
  if Result.is_ok runs.counts then begin
    let v1 = per_access_outcome p in
    Alcotest.(check (array string)) (name ^ ": labels") v1.labels runs.labels;
    Alcotest.(check (triple int int int))
      (name ^ ": expanded stream = v1 records") v1.stream runs.stream
  end

let test_address_only_suite () =
  List.iter
    (fun n ->
      List.iter
        (fun (e : Programs.entry) ->
          check_address_only
            (Printf.sprintf "%s N=%d" e.Programs.name n)
            (Programs.program_of ~n e))
        Programs.all)
    [ 8; 32 ]

let test_address_only_fuzz () =
  for index = 0 to 199 do
    check_address_only
      (Printf.sprintf "fuzz %d" index)
      (Locality_fuzz.Gen.generate ~seed:42 ~index ~size:24)
  done

(* An address-only run fails with the same message as the
   value-executing per-access capture, at the last iteration of a run
   loop, in a loop without a run group, on an integer division by zero
   and on a non-positive extent. *)
let test_address_only_errors () =
  let module Driver = Locality_driver.Driver in
  let open Builder in
  let n = v "N" in
  let arrays = [ ("A", [ n ]); ("B", [ n ]) ] in
  let one_loop name ?(arrays = arrays) body =
    program name ~params:[ ("N", 32) ] ~arrays [ do_ "I" (i 1) n [ body ] ]
  in
  let oob = "Invalid_argument(\"index out of bounds\")" in
  let cases =
    [
      (* The run loop's last iteration writes A(N+1). *)
      ( one_loop "oob_last"
          (asn (r "A" [ v "I" +$ i 1 ]) (ld "B" [ v "I" ] +! f 1.0)),
        "oob_last: " ^ oob );
      (* A quadratic subscript: no run group, per-access records. *)
      ( one_loop "oob_quad"
          (asn (r "A" [ v "I" *$ v "I" ]) (ld "B" [ v "I" ] +! f 1.0)),
        "oob_quad: " ^ oob );
      ( one_loop "div_i3"
          (asn (r "A" [ v "I" ])
             (ld "B" [ v "I" ] +! idx (Expr.Div (n, v "I" -$ i 3)))),
        "div_i3: Invalid_argument(\"Fastexec: division by zero\")" );
      ( one_loop "neg_extent" ~arrays:[ ("A", [ n -$ i 40 ]) ]
          (asn (r "A" [ v "I" ]) (f 1.0)),
        "neg_extent: Invalid_argument(\"Layout.build: non-positive extent \
         in A\")" );
    ]
  in
  List.iter
    (fun (p, expected) ->
      List.iter
        (fun replay ->
          let cfg =
            Driver.config ~transform:Driver.Keep ~machines:[ Machine.cache1 ]
              ~replay ~store:None
              (Driver.Source_program { name = p.Program.name; program = p })
          in
          Alcotest.(check (result reject string))
            (Printf.sprintf "%s under %s" p.Program.name
               (Measure.mode_to_string replay))
            (Error expected)
            (Result.map ignore (Driver.run cfg)))
        [ Measure.Runs; Measure.Per_access; Measure.Stream ])
    cases

(* --------------------------------------------------------- fuzzing --- *)

(* A fuzz stream is a list of items: plain records and strided-run
   groups with up to 4 references. A group's references start from a
   few shared bases, so aliases (read-modify-write pairs), same-line
   neighbours and zero, sub-line, line-sized and negative strides occur
   together; a long trip (up to 300) lets a group put more lines in a
   set than it has ways. Bases keep every expanded address
   non-negative. *)
type fuzz_ref = { base : int; stride : int; fwrite : bool; flabel : int }
type fuzz_item =
  | Single of int * bool * int  (* addr, write, label *)
  | Group of int * fuzz_ref list  (* trip, refs *)

let gen_fuzz =
  let open QCheck.Gen in
  let gen_label = int_range 0 7 in
  let gen_ref bases =
    let* base = oneofl bases in
    let* offset = oneofl [ 0; 0; 8; -8; 24; 64 ] in
    let* stride =
      frequency
        [ (2, oneofl [ 0; 8; -8; 16; 32; -64 ]); (3, int_range (-72) 72) ]
    in
    let* fwrite = bool in
    let* flabel = gen_label in
    return { base = base + offset; stride; fwrite; flabel }
  in
  let gen_item =
    frequency
      [
        ( 1,
          let* addr = int_range 0 65535 in
          let* w = bool in
          let* l = gen_label in
          return (Single (addr, w, l)) );
        ( 2,
          let* trip =
            frequency [ (3, int_range 1 24); (1, int_range 25 300) ]
          in
          let* bases = list_size (int_range 1 3) (int_range 24576 40959) in
          let* refs = list_size (int_range 1 4) (gen_ref bases) in
          return (Group (trip, refs)) );
      ]
  in
  list_size (int_range 1 40) gen_item

(* Expand a fuzz stream to its access sequence. *)
let expand items =
  List.concat_map
    (function
      | Single (addr, w, l) -> [ (addr, w, l) ]
      | Group (trip, refs) ->
        List.concat_map
          (fun t ->
            List.map
              (fun fr -> (fr.base + (t * fr.stride), fr.fwrite, fr.flabel))
              refs)
          (List.init trip Fun.id))
    items

let marked = Array.init 8 (fun l -> l < 4)

(* Reference semantics: sequential access_full with a manual region
   tally. *)
let reference_replay config accesses =
  let c = Cache.create config in
  let reg = Cache.fresh_region () in
  List.iter
    (fun (addr, write, label) ->
      let cls, _ = Cache.access_full c ~write addr in
      if marked.(label) then begin
        reg.Cache.r_accesses <- reg.Cache.r_accesses + 1;
        match cls with
        | `Hit -> reg.Cache.r_hits <- reg.Cache.r_hits + 1
        | `Cold -> reg.Cache.r_cold <- reg.Cache.r_cold + 1
        | `Miss -> ()
      end)
    accesses;
  (Cache.stats c, reg)

(* The same accesses through v1 chunks (small capacity: boundaries land
   anywhere) and simulate_chunk. *)
let chunk_replay config accesses =
  let c = Cache.create config in
  let reg = Cache.fresh_region () in
  let chunk = Chunk.create 61 in
  let flush () =
    Cache.simulate_chunk c ~marked ~region:reg chunk;
    Chunk.reset chunk
  in
  List.iter
    (fun (addr, write, label) ->
      if Chunk.is_full chunk then flush ();
      Chunk.push chunk (Chunk.pack ~addr ~write ~label))
    accesses;
  flush ();
  (Cache.stats c, reg)

(* The fuzz stream itself through run chunks and simulate_runs. *)
let runs_replay config items =
  let c = Cache.create config in
  let reg = Cache.fresh_region () in
  let metrics = Cache.fresh_run_metrics () in
  let rc = Runchunk.create 127 in
  let flush () =
    Cache.simulate_runs c ~marked ~region:reg ~metrics rc;
    Runchunk.reset rc
  in
  List.iter
    (function
      | Single (addr, w, l) ->
        if Runchunk.room rc = 0 then flush ();
        Runchunk.push_access rc (Chunk.pack ~addr ~write:w ~label:l)
      | Group (trip, refs) ->
        let n = List.length refs in
        if Runchunk.room rc < Runchunk.group_words ~nrefs:n then flush ();
        let packed =
          Array.of_list
            (List.map
               (fun fr -> Chunk.pack ~addr:0 ~write:fr.fwrite ~label:fr.flabel)
               refs)
        in
        let bases = Array.of_list (List.map (fun fr -> fr.base) refs) in
        let strides = Array.of_list (List.map (fun fr -> fr.stride) refs) in
        Runchunk.push_group rc ~trip ~packed ~bases ~strides n)
    items;
  flush ();
  (Cache.stats c, reg, metrics)

let prop_fuzz_all_paths_agree =
  QCheck.Test.make ~name:"fuzz: chunk, run and reference replay agree"
    ~count:300 (QCheck.make gen_fuzz) (fun items ->
      let accesses = expand items in
      List.for_all
        (fun config ->
          let s0, r0 = reference_replay config accesses in
          let s1, r1 = chunk_replay config accesses in
          let s2, r2, _ = runs_replay config items in
          s1 = s0 && s2 = s0
          && r1.Cache.r_accesses = r0.Cache.r_accesses
          && r1.Cache.r_hits = r0.Cache.r_hits
          && r1.Cache.r_cold = r0.Cache.r_cold
          && r2.Cache.r_accesses = r0.Cache.r_accesses
          && r2.Cache.r_hits = r0.Cache.r_hits
          && r2.Cache.r_cold = r0.Cache.r_cold)
        [
          direct_mapped; small_assoc; Machine.cache2; Machine.cache1; eight_way;
        ])

(* One group through [runs_replay] between [prefix] and a read sweep
   that evicts everything (so the group's dirty lines are written
   back), checked against [reference_replay] on stats — writebacks
   included — and region tallies. *)
let check_group name config ~prefix group =
  let sweep =
    List.init (2 * config.Cache.size_bytes / config.Cache.line_bytes) (fun k ->
        Single (65536 + (k * config.Cache.line_bytes), false, 0))
  in
  let items = prefix @ (group :: sweep) in
  let s0, r0 = reference_replay config (expand items) in
  let s2, r2, metrics = runs_replay config items in
  Alcotest.check stats_t (name ^ ": stats") s0 s2;
  Alcotest.check region_t (name ^ ": region") r0 r2;
  metrics

(* Dirty lines in every way of set 0 of [small_assoc] (16 sets of
   64-byte lines: set 0 repeats every 1024 bytes), so a miss there
   evicts one and writes it back. *)
let dirty_set0 = List.init 4 (fun k -> Single (k * 1024, true, k))

let test_set_overflow_falls_back () =
  (* Five references, 1 KB apart: five distinct lines of set 0 in a
     4-way cache. *)
  let refs =
    List.init 5 (fun k ->
        { base = 8192 + (k * 1024); stride = 8; fwrite = k = 2; flabel = k })
  in
  let m =
    check_group "overflow" small_assoc ~prefix:dirty_set0 (Group (16, refs))
  in
  Alcotest.(check int) "groups" 1 m.Cache.m_groups;
  Alcotest.(check int) "replayed per access" 1 m.Cache.m_fallbacks;
  Alcotest.(check int) "iterations per access" 16 m.Cache.m_boundaries;
  Alcotest.(check int) "no line visits" 0 m.Cache.m_bulk_iters

let test_read_modify_write_visits () =
  (* A(I) = A(I) + B(I): the load and the store of A are one line
     stream, merged into one slot per line; the writer is second. *)
  let a = 8192 and b = 8192 + 2048 in
  let refs =
    [
      { base = a; stride = 8; fwrite = false; flabel = 1 };
      { base = b; stride = 8; fwrite = false; flabel = 5 };
      { base = a; stride = 8; fwrite = true; flabel = 1 };
    ]
  in
  let m =
    check_group "read-modify-write" small_assoc ~prefix:dirty_set0
      (Group (40, refs))
  in
  Alcotest.(check int) "no per-access replay" 0 m.Cache.m_fallbacks;
  Alcotest.(check int) "iterations by line visits" 40 m.Cache.m_bulk_iters;
  Alcotest.(check int) "no iterations per access" 0 m.Cache.m_boundaries

let prop_runchunk_roundtrip =
  (* Runchunk.iter must expand groups round-robin in source order. *)
  QCheck.Test.make ~name:"fuzz: Runchunk.iter expands round-robin" ~count:200
    (QCheck.make gen_fuzz) (fun items ->
      let rc = Runchunk.create 65536 in
      List.iter
        (function
          | Single (addr, w, l) ->
            Runchunk.push_access rc (Chunk.pack ~addr ~write:w ~label:l)
          | Group (trip, refs) ->
            let n = List.length refs in
            let packed =
              Array.of_list
                (List.map
                   (fun fr ->
                     Chunk.pack ~addr:0 ~write:fr.fwrite ~label:fr.flabel)
                   refs)
            in
            let bases = Array.of_list (List.map (fun fr -> fr.base) refs) in
            let strides =
              Array.of_list (List.map (fun fr -> fr.stride) refs)
            in
            Runchunk.push_group rc ~trip ~packed ~bases ~strides n)
        items;
      let got = ref [] in
      Runchunk.iter rc (fun ~label ~addr ~write ->
          got := (addr, write, label) :: !got);
      List.rev !got = expand items
      && Runchunk.logical_records rc = List.length (expand items))

(* -------------------------------------------------------- hit rate --- *)

let test_hit_rate_all_cold () =
  (* A run whose accesses were all cold misses hit nothing: 0.0, not
     the misleading 100.0 the seed reported. No accesses at all is
     still vacuously 100.0. *)
  Alcotest.(check (float 1e-9))
    "all cold" 0.0
    (Cache.rate_of_counts ~accesses:5 ~hits:0 ~cold:5 ());
  Alcotest.(check (float 1e-9))
    "no accesses" 100.0
    (Cache.rate_of_counts ~accesses:0 ~hits:0 ~cold:0 ());
  Alcotest.(check (float 1e-9))
    "all cold, cold included" 0.0
    (Cache.rate_of_counts ~exclude_cold:false ~accesses:5 ~hits:0 ~cold:5 ());
  Alcotest.(check (float 1e-9))
    "measure agrees" 0.0
    (Measure.hit_rate { Measure.accesses = 4; hits = 0; cold = 4 });
  let c = Cache.create direct_mapped in
  for k = 0 to 9 do
    ignore (Cache.access c (k * 1024))
  done;
  Alcotest.(check (float 1e-9))
    "simulated all-cold run" 0.0
    (Cache.hit_rate (Cache.stats c));
  let r = Reuse.create ~line_bytes:32 () in
  for k = 0 to 9 do
    Reuse.access r (k * 1024)
  done;
  Alcotest.(check (float 1e-9))
    "reuse predictor agrees" 0.0
    (Reuse.predicted_hit_rate r ~lines:4)

let suite =
  [
    Alcotest.test_case "kernels: runs replay identical" `Quick
      test_kernels_identical;
    Alcotest.test_case "all 35 programs: runs replay identical" `Slow
      test_suite_identical;
    Alcotest.test_case "hierarchy: runs replay identical" `Quick
      test_hierarchy_identical;
    Alcotest.test_case "measure: both modes identical" `Quick
      test_measure_modes_identical;
    Alcotest.test_case "matmul emits groups" `Quick test_matmul_emits_groups;
    Alcotest.test_case "chunks flush only when full" `Quick
      test_chunks_flush_when_full;
    Alcotest.test_case "non-affine subscript falls back" `Quick
      test_nonaffine_falls_back;
    Alcotest.test_case "min subscript falls back" `Quick
      test_min_subscript_falls_back;
    Alcotest.test_case "invariant-factor stride qualifies" `Quick
      test_invariant_factor_qualifies;
    Alcotest.test_case "downward loop qualifies" `Quick
      test_downward_loop_qualifies;
    Alcotest.test_case "hit rate of an all-cold run is 0" `Quick
      test_hit_rate_all_cold;
    Alcotest.test_case "address-only: 35 programs at N=8 and N=32" `Slow
      test_address_only_suite;
    Alcotest.test_case "address-only: 200 fuzz programs" `Quick
      test_address_only_fuzz;
    Alcotest.test_case "address-only: errors match full execution" `Quick
      test_address_only_errors;
    Alcotest.test_case "set overflow replays the group per access" `Quick
      test_set_overflow_falls_back;
    Alcotest.test_case "read-modify-write group settles by line visits"
      `Quick test_read_modify_write_visits;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_fuzz_all_paths_agree; prop_runchunk_roundtrip ]
