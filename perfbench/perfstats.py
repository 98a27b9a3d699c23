"""Arithmetic behind the perfbench metrics: quartiles, the tail percentile
rule, open-loop latency and lateness, and the saturation ladder.

Pure functions over plain numbers and dicts, so test_perfbench.py can
check them without building anything.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise the highest percentile that has them is used.
TAIL_MIN_BEYOND = 10


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0])
    q = statistics.quantiles(xs, n=4)
    return (q[0], q[1], q[2])


def tail_percentile(xs, p=99, min_beyond=TAIL_MIN_BEYOND):
    """Nearest-rank percentile, clamped by the tail rule.

    Returns (value, used_p): used_p is the highest whole percentile <= p
    with at least `min_beyond` samples strictly after its rank. With too
    few samples for any percentile from 50 up, the median is used.
    """
    s = sorted(xs)
    n = len(s)
    for q in range(p, 49, -1):
        rank = max(1, math.ceil(q * n / 100))
        if n - rank >= min_beyond:
            return s[rank - 1], q
    return statistics.median(s), 50


# Latency charged to a request that failed, was shed or never sent: it
# misses any limit. Equal to measure.cpp's HTTP timeout.
MISSED_MS = 10000.0


def latency_ms(req):
    """Open-loop latency: from the request's *scheduled* send time to the
    reply, so time spent waiting for a free sender counts. A request
    without a correct 200 reply counts as MISSED_MS."""
    if req["status"] != 200 or not req.get("ok", True):
        return MISSED_MS
    return 1e3 * (req["done"] - req["sched"])


def lateness_s(req):
    """How late the generator sent the request (never negative)."""
    return max(0.0, req["sent"] - req["sched"])


def step_summary(reqs, limit_ms):
    """Summarises one open-loop phase (all requests carry its offered
    rate, over all its slices)."""
    sent = [r for r in reqs if r["status"] != -1]
    p99, used = tail_percentile([latency_ms(r) for r in reqs])
    # Backlog: the worst lateness over the last tenth of each slice's
    # schedule (a phase may be sent in several slices).
    late_end_ms = 0.0
    for k in {r.get("slice", 0) for r in sent}:
        part = sorted((r for r in sent if r.get("slice", 0) == k),
                      key=lambda r: r["sched"])
        tail = part[-max(1, len(part) // 10):]
        late_end_ms = max([late_end_ms] + [1e3 * lateness_s(r) for r in tail])
    s = {
        "rate": reqs[0]["rate"] if reqs else 0.0,
        "count": len(reqs),
        "p99_ms": p99,
        "p99_used": used,
        "shed": sum(r["status"] == 429 for r in sent),
        "failed": sum(r["status"] != 429 and latency_ms(r) == MISSED_MS
                      for r in sent),
        "unsent": len(reqs) - len(sent),
        "late_end_ms": late_end_ms,
    }
    s["passes"] = (s["p99_ms"] <= limit_ms and s["shed"] == 0
                   and s["failed"] == 0 and s["unsent"] == 0
                   and s["late_end_ms"] <= limit_ms)
    return s


def sustained_qps(steps, limit_ms):
    """Highest offered rate meeting the conditions, from ladder steps in
    ascending rate order (step_summary dicts).

    Between the last passing step and the first failing one the rate is
    interpolated on log(p99), the shape of a latency knee, so the figure
    does not jump by a whole ladder step. Returns (qps, saturated).
    """
    prev = None
    for s in steps:
        if not s["passes"]:
            if prev is None:
                return s["rate"] * min(1.0, limit_ms / s["p99_ms"]), True
            frac = 0.0
            if s["p99_ms"] > limit_ms > prev["p99_ms"] > 0:
                frac = (math.log(limit_ms / prev["p99_ms"])
                        / math.log(s["p99_ms"] / prev["p99_ms"]))
            return prev["rate"] + frac * (s["rate"] - prev["rate"]), True
        prev = s
    return (prev["rate"] if prev else 0.0), False
