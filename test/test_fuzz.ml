(* The differential fuzzing harness: generator determinism, shrinking,
   a small live campaign, and replay of the minimized reproducer corpus
   (every bug the fuzzer has found and we have fixed stays fixed). *)

open Locality_ir
module Fuzz = Locality_fuzz

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Generation is a pure function of (seed, index): same inputs, same
   program text; and programs are always well-formed. *)
let test_gen_deterministic () =
  List.iter
    (fun index ->
      let p1 = Fuzz.Gen.generate ~seed:7 ~index ~size:24 in
      let p2 = Fuzz.Gen.generate ~seed:7 ~index ~size:24 in
      checks
        (Printf.sprintf "index %d reproducible" index)
        (Pretty.program_to_string p1)
        (Pretty.program_to_string p2);
      checkb
        (Printf.sprintf "index %d valid" index)
        true
        (match Program.validate p1 with Ok () -> true | Error _ -> false))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_gen_varies () =
  let texts =
    List.map
      (fun index ->
        Pretty.program_to_string (Fuzz.Gen.generate ~seed:7 ~index ~size:24))
      (List.init 10 Fun.id)
  in
  checkb "indices explore distinct programs" true
    (List.length (List.sort_uniq String.compare texts) > 5)

(* Shrinking only ever returns a smaller program that still satisfies
   the failure predicate and still validates. *)
let test_shrink () =
  let p = Fuzz.Gen.generate ~seed:3 ~index:0 ~size:24 in
  let fails q = List.length q.Program.decls >= 1 in
  let shrunk, steps = Fuzz.Shrink.shrink ~fails p in
  checkb "still fails" true (fails shrunk);
  checkb "not larger" true (Fuzz.Shrink.size shrunk <= Fuzz.Shrink.size p);
  checkb "took steps" true (steps > 0);
  checkb "still valid" true
    (match Program.validate shrunk with Ok () -> true | Error _ -> false)

(* A small campaign over every oracle must come back clean, and be
   byte-for-byte identical for any worker count. *)
let test_campaign_clean_and_jobs_independent () =
  let run jobs =
    Fuzz.Harness.run ~jobs ~seed:11 ~count:25 ~max_size:20 ()
  in
  let o1 = run 1 and o4 = run 4 in
  checki "generated" 25 o1.Fuzz.Harness.generated;
  checkb "no failures (jobs=1)" true (o1.Fuzz.Harness.failures = []);
  checkb "no failures (jobs=4)" true (o4.Fuzz.Harness.failures = []);
  checki "same failure count"
    (List.length o1.Fuzz.Harness.failures)
    (List.length o4.Fuzz.Harness.failures)

(* Replay the minimized reproducers: each file is a bug the fuzzer
   found; parsing it and running the full oracle stack must now be
   silent. *)
let test_corpus_replay () =
  let entries = Fuzz.Corpus.load_dir "corpus" in
  checkb "corpus is not empty" true (List.length entries >= 5) ;
  List.iter
    (fun (file, p) ->
      match Fuzz.Oracle.check p with
      | [] -> ()
      | findings ->
        Alcotest.failf "%s: %s" file
          (String.concat "; "
             (List.map (fun f -> f.Fuzz.Oracle.detail) findings)))
    entries

(* The harness probes for a C compiler (and telemetry for the git
   version) from pool workers, so two domains may force a memoized probe
   at once; a [lazy] raises [Lazy.Undefined] there. Each round forces a
   fresh probe, so every round races on a first force, and the real
   probes alongside it. *)
let test_probes_domain_safe () =
  for round = 1 to 100 do
    let calls = Atomic.make 0 in
    let probe =
      Locality_par.Pool.once (fun () ->
          Atomic.incr calls;
          Unix.sleepf 0.0002;
          round)
    in
    let force () =
      ( probe (),
        Fuzz.Oracle.cgen_available (),
        Locality_telemetry.Telemetry.git_describe () )
    in
    let d1 = Domain.spawn force and d2 = Domain.spawn force in
    let r1 = Domain.join d1 and r2 = Domain.join d2 in
    checkb "both domains see the same values" true (r1 = r2);
    checki "probe computed once" 1 (Atomic.get calls)
  done

let suite =
  [
    ("generator determinism", `Quick, test_gen_deterministic);
    ("generator variety", `Quick, test_gen_varies);
    ("shrinker contract", `Quick, test_shrink);
    ( "campaign clean and jobs-independent",
      `Quick,
      test_campaign_clean_and_jobs_independent );
    ("corpus replay", `Quick, test_corpus_replay);
    ("memoized probes forced from 2 domains", `Quick, test_probes_domain_safe);
  ]
