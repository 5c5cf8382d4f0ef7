"""Statistics used by the benchmark runner.

- percentile: linear interpolation between closest ranks.
- tail_percentile: the highest percentile, capped at p99, that has at
  least MIN_BEYOND samples beyond it.
- latency: the median and a fixed tail percentile, reported only when
  the rule above admits that percentile for the sample's size.
- failures: operations that failed or that an oracle condemned.
- self_times: a span's duration minus the part its children cover.
"""

import math
from collections import defaultdict

TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p):
    """The p-th percentile (0..100) of a non-empty sample, interpolating
    linearly between the two closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def samples_beyond(n, p):
    """Expected number of samples above the p-th percentile of n."""
    return n * (100.0 - p) / 100.0


def tail_percentile(n, cap=99.0):
    """Highest percentile on TAIL_LADDER (not above cap) with at least
    MIN_BEYOND of n samples beyond it; None when even the median has
    fewer."""
    for p in TAIL_LADDER:
        if p <= cap and samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def latency(values, p):
    """Median and p-th percentile of a latency sample, with the sample
    count. The percentile is fixed by the caller, so it means the same
    thing at any throughput; it is None when fewer than MIN_BEYOND
    samples lie beyond it."""
    n = len(values)
    admitted = tail_percentile(n, cap=p) == p
    return {
        "n": n,
        "p50": percentile(values, 50) if n else None,
        "tail_pct": p,
        "tail": percentile(values, p) if admitted else None,
    }


def failures(ops, mismatches):
    """(attempted, failed). ops are (key, status) pairs; an operation
    fails when its status is not "ok" or an oracle mismatch names its
    key. A mismatch naming no operation is one more failed attempt of
    its own."""
    condemned = {m[0] for m in mismatches}
    keys = {k for k, _ in ops}
    failed = sum(1 for k, status in ops if status != "ok" or k in condemned)
    orphans = sum(1 for m in mismatches if m[0] not in keys)
    return len(ops) + orphans, failed + orphans


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Map span id to self time: duration minus the union of its
    children's intervals within it. Spans are dicts with id, parent,
    start and end (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def by_name(spans):
    """Per span name: call count, total and self time (ns) and the list
    of per-call self times."""
    own = self_times(spans)
    agg = {}
    for s in spans:
        a = agg.setdefault(s["name"], {"count": 0, "total": 0, "self": 0, "calls": []})
        a["count"] += 1
        a["total"] += s["end"] - s["start"]
        a["self"] += own[s["id"]]
        a["calls"].append(own[s["id"]])
    return agg
