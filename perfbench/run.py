#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --held-out --seconds S --trace 0|1

Run from the repository root. It builds the measuring program
(perfbench/bench.ml) and the memoria CLI with dune, runs workload W for S
seconds on inputs made from the seed, checks every output against an
independent reference, and prints a summary followed, as its last line,
by one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced run reports the per-layer ones (see BENCHMARK.json).
--held-out draws a fresh seed at or above 2**32, a range the benchmark
was never tuned on, and prints it. The exit code is 0 only when every
check passed.

Workloads:
  eval-exact   all 35 suite programs through Driver on both caches with
               exact replay, no store, jobs = min(2, cores)
  compile      seeded fuzz programs: parse, Compound, pretty-print
  serve-mixed  memoria serve --jobs 2 with a fresh store, 2 closed-loop
               connections, mostly repeated requests plus fresh ones
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval-exact", "compile", "serve-mixed")
AMBIENT = ("MEMORIA_JOBS", "MEMORIA_REPLAY", "MEMORIA_SAMPLE_RATE", "MEMORIA_STORE",
           "MEMORIA_TELEMETRY")
REQUIRED = ("dune-project", "lib", "bin", "perfbench/dune", "perfbench/bench.ml")
BENCH_EXE = "_build/default/perfbench/bench.exe"
MEMORIA_EXE = "_build/default/bin/memoria.exe"
WORK = os.path.join("perfbench", "_work")
REPLAY_MODES = {
    "eval-exact": ["runs"],
    "compile": [],
    "serve-mixed": ["runs", "analytic", "sample"],
}
RUN_LIMIT_S = 170

# The tail percentile reported as p99_ms, fixed per workload so that it
# means the same thing at any throughput. compile and serve-mixed gather
# several thousand latencies in a window, so theirs is p99. eval-exact
# gathers about 35 per pass, some 600 in 20 s on a 2-core host; p95 keeps
# at least 10 samples beyond it down to 6 passes. A run with fewer
# samples than its percentile needs reports no tail and fails.
TAIL_PCT = {"eval-exact": 95.0, "compile": 99.0, "serve-mixed": 99.0}
# The traced serve-mixed stream holds 200 fresh requests plus the hot
# set's first sightings, so p95 of fresh latency has at least 10 samples
# beyond it there. The other workloads' traced streams have fewer
# distinct requests (35 for eval-exact); the note gives the count.
FRESH_TAIL_PCT = 95.0


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    seed = ap.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed", type=int)
    seed.add_argument("--held-out", action="store_true")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    if a.held_out:
        a.seed = 2**32 + int.from_bytes(os.urandom(4), "little")
    return a


def clean_env():
    return {k: v for k, v in os.environ.items() if k not in AMBIENT}


def build(env):
    """Build inside the tree only: the shared dune cache stays off."""
    t0 = time.monotonic()
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/memoria.exe"],
        env=dict(env, DUNE_CACHE="disabled"), stdout=sys.stderr, stderr=sys.stderr,
        timeout=850)
    if r.returncode != 0:
        fail(3, "build failed")
    return time.monotonic() - t0


def file_md5(paths):
    h = hashlib.md5()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def source_version(env):
    """git describe where the tree is a git checkout, else a digest of
    the sources."""
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"], env=env,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    files = []
    for top in ("lib", "bin", "perfbench", "dune-project"):
        if os.path.isfile(top):
            files.append(top)
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            files.extend(os.path.join(d, n) for n in sorted(names)
                         if n.endswith((".ml", ".mli", ".c", "dune", ".py")))
    return "source-md5:" + file_md5(files)


def cpu_ticks():
    """(steal, total) CPU ticks of the host so far, from /proc/stat; None
    where that is not available."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def run_bench(args, env, work, out, limit_s):
    cmd = [BENCH_EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--memoria", MEMORIA_EXE, "--work", work, "--out", out]
    p = subprocess.Popen(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                         start_new_session=True)

    def stop(signum, _frame):
        os.killpg(p.pid, signal.SIGKILL)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = p.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(4, "measurement exceeded %d s" % limit_s)
    finally:
        # The measuring program stops its daemons; make sure of it.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        fail(5, "measuring program exited with %d" % code)
    with open(out) as f:
        return json.load(f)


def mean_ms(agg, name, scale=1e-6):
    a = agg.get(name)
    if not a or a["count"] == 0:
        return None
    return a["self"] / a["count"] * scale


def p_ms(agg, name, p):
    a = agg.get(name)
    if not a:
        return None
    lat = stats.latency(a["calls"], p)
    v = lat["p50"] if p == 50 else lat["tail"]
    return v * 1e-6 if v is not None else None


def end_to_end(raw, workload):
    sc, sm = raw["scalars"], raw["samples"]
    lat = stats.latency(sm["latency_ms"], TAIL_PCT[workload])
    metrics = {
        "setup_s": (statistics.median(sm["setup_s"]), "s"),
        "throughput_per_s": (statistics.median(sm["slice_rate"]), "1/s"),
        "p50_ms": (lat["p50"], "ms"),
        "p99_ms": (lat["tail"], "ms"),
        "peak_rss_mb": (sc["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = {
        "setup_s": "median of %d set-up probes" % len(sm["setup_s"]),
        "throughput_per_s": "median of %d %s; %d in %.2f s overall%s" % (
            len(sm["slice_rate"]), "passes" if workload == "eval-exact" else "1-s slices",
            sc["items_done"], sc["wall_s"],
            ", fresh pool used up" if sc.get("stream_exhausted") else ""),
        "p50_ms": "n=%d" % lat["n"],
        "p99_ms": "p%g of n=%d, %d beyond; needs >=%d" % (
            lat["tail_pct"], lat["n"], stats.samples_beyond(lat["n"], lat["tail_pct"]),
            stats.MIN_BEYOND),
    }
    sampling = {"latency_ms": {"n": lat["n"], "tail_pct": lat["tail_pct"]}}
    return metrics, notes, sampling


def per_layer(raw, spans):
    agg = stats.by_name(spans)
    c, sc, sm = raw["counts"], raw["scalars"], raw["samples"]
    items = max(1, sc["items"])
    traced_passes = agg.get("item", {"count": 0})["count"] // items

    def tot_s(name):
        return agg[name]["self"] * 1e-9 if name in agg else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    hit = sm.get("serve.hit_ms", [])
    hit_p50 = stats.percentile(hit, 50) if hit else None
    fresh = sm.get("serve.fresh_ms", [])
    fresh_p50 = stats.percentile(fresh, 50) if fresh else None
    fresh_tail = stats.percentile(fresh, FRESH_TAIL_PCT) if fresh else None
    inproc_hit = sum(x or 0.0 for x in (
        p_ms(agg, "driver.request_parse", 50), p_ms(agg, "driver.run_hit", 50),
        p_ms(agg, "driver.response_render", 50)))
    m = {
        "lang.parse_ms": (mean_ms(agg, "lang.parse"), "ms"),
        "lang.parse_mb_per_s": (ratio(c["lang.bytes"] * traced_passes / 1e6,
                                      tot_s("lang.parse")), "MB/s"),
        "ir.pretty_ms": (mean_ms(agg, "ir.pretty"), "ms"),
        "dep.analysis_ms": (mean_ms(agg, "dep.analysis"), "ms"),
        "dep.deps": (c["dep.deps"], "count"),
        "core.compound_ms": (mean_ms(agg, "core.compound"), "ms"),
        "core.nests": (c["core.nests"], "count"),
        "core.permuted": (c["core.permuted"], "count"),
        "core.fusions_applied": (c["core.fusions_applied"], "count"),
        "core.distributions": (c["core.distributions"], "count"),
        "core.memorder_frac": (ratio(c["core.memorder"], c["core.nests"]), "ratio"),
        "interp.capture_ms": (mean_ms(agg, "interp.capture"), "ms"),
        "interp.accesses": (c["interp.accesses"], "count"),
        "interp.accesses_per_s": (ratio(c["interp.accesses"] * traced_passes,
                                        tot_s("interp.capture")), "1/s"),
        "interp.minor_words_per_access": (ratio(sc["interp.minor_words"],
                                                c["interp.accesses"]), "words"),
        "interp.words_per_access": (ratio(sc["interp.words"], c["interp.accesses"]),
                                    "words"),
        "cachesim.replay_ms": (mean_ms(agg, "cachesim.replay"), "ms"),
        "cachesim.accesses_per_s": (ratio(c["cachesim.accesses"] * traced_passes,
                                          tot_s("cachesim.replay")), "1/s"),
        "cachesim.bulk_frac": (ratio(c["cachesim.bulk_iters"],
                                     c["cachesim.bulk_iters"] + c["cachesim.boundaries"]),
                               "ratio"),
        "cachesim.fallbacks_per_kaccess": (ratio(c["cachesim.fallbacks"] * 1000.0,
                                                 c["cachesim.accesses"]), "count"),
        "cachesim.hits.cache1": (c["cachesim.hits.cache1"], "count"),
        "cachesim.hits.cache2": (c["cachesim.hits.cache2"], "count"),
        "analytic.estimate_ms": (mean_ms(agg, "analytic.estimate"), "ms"),
        "analytic.exact_frac": (ratio(c.get("analytic.exact", 0), c["analytic.calls"]),
                                "ratio"),
        "analytic.fallback_frac": (ratio(c.get("analytic.fallbacks", 0),
                                         c["analytic.calls"]), "ratio"),
        "sample.profile_ms": (mean_ms(agg, "sample.profile"), "ms"),
        "sample.sampled_frac": (ratio(c["sample.sampled"], c["sample.accesses"]), "ratio"),
        "store.get_p50_ms": (p_ms(agg, "store.get", 50), "ms"),
        "store.get_p99_ms": (p_ms(agg, "store.get", 99), "ms"),
        "store.put_p50_ms": (p_ms(agg, "store.put", 50), "ms"),
        "store.put_p99_ms": (p_ms(agg, "store.put", 99), "ms"),
        "store.hit_rate": (sc["store.hit_rate"], "ratio"),
        "store.bytes_written": (c["store.bytes_written"], "bytes"),
        "driver.request_parse_us": (mean_ms(agg, "driver.request_parse", 1e-3), "us"),
        "driver.run_hit_ms": (mean_ms(agg, "driver.run_hit"), "ms"),
        "driver.run_fresh_ms": (mean_ms(agg, "driver.run_fresh"), "ms"),
        "driver.response_render_us": (mean_ms(agg, "driver.response_render", 1e-3), "us"),
        "serve.hit_p50_ms": (hit_p50, "ms"),
        "serve.fresh_p50_ms": (fresh_p50, "ms"),
        "serve.fresh_p95_ms": (fresh_tail, "ms"),
        "serve.overhead_p50_ms": (hit_p50 - inproc_hit if hit_p50 is not None
                                  else None, "ms"),
        "par.busy_frac": (sc["par.busy_frac"], "ratio"),
        "trace.overhead_frac": (statistics.median(sm["traced_pass_s"])
                                / statistics.median(sm["untraced_pass_s"]) - 1.0, "ratio"),
    }
    get_n = len([1 for s in spans if s["name"] == "store.get"])
    notes = {
        "store.get_p99_ms": "n=%d" % get_n,
        "serve.hit_p50_ms": "n=%d" % len(hit),
        "serve.fresh_p95_ms": "n=%d, %.3g beyond" % (
            len(fresh), stats.samples_beyond(len(fresh), FRESH_TAIL_PCT)),
        "trace.overhead_frac": "traced vs untraced layer passes, %d + %d" % (
            len(sm["traced_pass_s"]), len(sm["untraced_pass_s"])),
    }
    sampling = {
        "store.get": {"n": get_n}, "store.put": {"n": get_n},
        "serve.hit_ms": {"n": len(hit)},
        "serve.fresh_ms": {"n": len(fresh), "tail_pct": FRESH_TAIL_PCT},
    }
    return m, notes, sampling, agg


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans.append({"id": s["id"], "parent": s["parent"], "name": s["name"],
                          "req": s["req"], "start": int(s["start_ns"]),
                          "end": int(s["end_ns"])})
    return spans


def determinism(args, raw, build_id):
    """Same seed, same build: same inputs digest and exact counts. The
    ledger remembers earlier runs in this tree."""
    ledger_path = os.path.join(WORK, "ledger.json")
    try:
        with open(ledger_path) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    key = "%s|%d|%d|%s" % (args.workload, args.seed, args.trace, build_id)
    now = {"inputs_digest": raw["scalars"]["inputs_digest"], "counts": raw["counts"]}
    before = ledger.get(key)
    if before is None:
        ledger[key] = now
        with open(ledger_path + ".tmp", "w") as f:
            json.dump(ledger, f, sort_keys=True)
        os.replace(ledger_path + ".tmp", ledger_path)
        return True, "first run of this seed on this build: recorded"
    if before == now:
        return True, "matches the earlier run of this seed on this build"
    diff = sorted(k for k in set(before["counts"]) | set(now["counts"])
                  if before["counts"].get(k) != now["counts"].get(k))
    if before["inputs_digest"] != now["inputs_digest"]:
        diff.insert(0, "inputs_digest")
    return False, "DIFFERS from the earlier run of this seed: " + ", ".join(diff)


def declared_metrics(kind):
    """Name -> unit of the metrics BENCHMARK.json declares. The file is
    part of the benchmark, so one that cannot be read stops the run."""
    try:
        with open("BENCHMARK.json") as f:
            return {m["name"]: m["unit"] for m in json.load(f)[kind]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(2, "cannot read the metric list of BENCHMARK.json: %s" % e)


def fmt(v):
    if v is None:
        return "-"
    if isinstance(v, int):
        return str(v)
    return "%.6g" % v


def main():
    args = parse_args()
    os.chdir(ROOT)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail(2, "not a memoria source tree (missing %s)" % ", ".join(missing))
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    env = clean_env()
    build_s = build(env)
    t_start = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ticks0 = cpu_ticks()
    try:
        raw = run_bench(args, env, work, os.path.join(work, "raw.json"),
                        RUN_LIMIT_S - (time.monotonic() - t_start))
        if args.trace:
            spans = load_spans(os.path.join(work, "spans.jsonl"))
            shutil.copy(os.path.join(work, "spans.jsonl"),
                        os.path.join(WORK, "spans-%s.jsonl" % args.workload))
            metrics, notes, sampling, agg = per_layer(raw, spans)
        else:
            metrics, notes, sampling = end_to_end(raw, args.workload)
            agg = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    emitted = {k: u for k, (_, u) in metrics.items()}
    if declared != emitted:
        raw["mismatches"].append(["-", "benchmark-json", "emitted metrics differ from "
                                  "BENCHMARK.json"])
    attempted, failed = stats.failures(raw["ops"], raw["mismatches"])
    build_id = file_md5([BENCH_EXE, MEMORIA_EXE])
    same, verdict = determinism(args, raw, build_id)
    correct = failed == 0 and same and all(v is not None for v, _ in metrics.values())

    print("perfbench %s seed=%d%s seconds=%d trace=%d" % (
        args.workload, args.seed, " (held out)" if args.held_out else "", args.seconds,
        args.trace))
    for name, (v, unit) in metrics.items():
        note = notes.get(name)
        print("  %-32s %14s %-6s%s" % (name, fmt(v), unit, "  (%s)" % note if note else ""))
    print("  %-32s %14s %-6s  (%d failed of %d attempted)" % (
        "fail_frac", fmt(failed / attempted if attempted else 0.0), "ratio", failed,
        attempted))
    for k, oracle, detail in raw["mismatches"][:10]:
        print("  MISMATCH %s [%s] %s" % (k, oracle, detail))
    for k, status in [o for o in raw["ops"] if o[1] != "ok"][:10]:
        print("  FAILED %s: %s" % (k, status))
    if agg:
        print("  self time by span (ms):")
        for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["self"]):
            print("    %-26s calls=%-7d self=%-12.3f total=%.3f" % (
                name, a["count"], a["self"] * 1e-6, a["total"] * 1e-6))
    print("determinism: inputs_digest=%s %s" % (raw["scalars"]["inputs_digest"], verdict))
    print("exact counts: " + json.dumps(raw["counts"], sort_keys=True))
    checked = {k: raw["scalars"][k] for k in ("analytic_exact_checked", "per_access_checked")
               if k in raw["scalars"]}
    if checked:
        print("oracle coverage: " + json.dumps(checked, sort_keys=True))
    if raw["known_defects"]:
        print("known defects (not failures, see perfbench/README.md): " + ", ".join(
            "%s=%d" % kv for kv in sorted(raw["known_defects"].items())))
    # The share of CPU time the hypervisor took from this virtual host
    # while the workload ran: the main source of run-to-run spread here.
    ticks1 = cpu_ticks()
    steal = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = round((ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), 4)
    provenance = {
        "nproc": os.cpu_count(),
        "version": source_version(env),
        "ocaml": raw["ocaml"],
        "jobs": raw["jobs"],
        "seed": args.seed,
        "held_out": args.held_out,
        "replay_modes": ["runs", "analytic", "sample"] if args.trace
        else REPLAY_MODES[args.workload],
        "sample_rate": raw["sample_rate"],
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "build_s": round(build_s, 3),
        "samples": sampling,
        "ambient_cleared": list(AMBIENT),
        "host_steal_frac": steal,
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
