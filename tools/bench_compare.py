#!/usr/bin/env python3
"""Gate a bench_regress or loadgen run against a checked-in baseline.

Usage: tools/bench_compare.py RESULT.json BASELINE.json [--tolerance F]
                              [--latency-tolerance F]

Two modes, selected by the RESULT document's schema:

`tagnn.bench_regress.v1` (bench/bench_regress.cpp) — speedup floors.
The gate deliberately never compares absolute wall times (they depend
on the host); it compares quantities that are stable across machines:

  * speedup    — naive/optimised ratio per kernel. Regression when the
                 measured speedup drops below baseline * (1 - tolerance)
                 (default tolerance 0.15, i.e. a >15% relative drop).
                 Baselines are keyed by the kernel ISA the result ran
                 under (the doc-level "kernels" object bench_regress
                 reports): a baseline entry may carry an optional
                 "speedup_by_isa" map ({"scalar": x, "avx2": y}) whose
                 entry for the result's gemm variant overrides the flat
                 "speedup" floor, so a forced-scalar CI leg is gated
                 against scalar expectations instead of AVX2 ones.
  * macs/bytes/cycles — deterministic fingerprints: the workload's
                 operation and byte counts and the simulated accelerator
                 cycles. Any mismatch means the workload or the cycle
                 model changed and the baseline must be refreshed (see
                 docs/PERFORMANCE.md); reported as a failure so the
                 change is made consciously.
  * memory     — a baseline entry may carry an optional
                 "mem_ceiling_bytes": the gate fails when the result's
                 tracked-allocation high-water ("mem_high_water_bytes",
                 emitted by bench_regress per bench) exceeds it.
                 Ceilings are deliberately generous (engine scratch
                 scales with the runner's core count); they catch a
                 structure that forgot to release memory or an
                 accidental O(V^2) buffer, not percent-level drift.
                 Results that predate the field skip the check.

`tagnn.loadgen.v1` (tools/tagnn_loadgen) — latency ceilings. The
baseline (schema `tagnn.serve_baseline.v1`, e.g.
bench/baselines/serve_quick.json) pins serving budgets; unlike
speedups these ARE wall-clock, so budgets are deliberately generous —
they catch order-of-magnitude serving regressions (a lost batcher, an
accidental O(n^2) in the request path), not percent-level drift:

  * p50_ms/p90_ms/p99_ms — client-observed latency quantile ceilings,
                 each scaled by (1 + latency-tolerance) (default 0).
  * max_shed_rate — shed fraction ceiling for the run.
  * errors     — any failed request fails the gate.
  * min_qps    — optional closed-loop throughput floor.

Every entry in a bench_regress baseline must be present in the result;
extra result entries are reported but do not fail (so new benches can
land before their baseline). Exit codes: 0 ok, 1 regression/mismatch,
2 usage or schema error.
"""

import argparse
import json
import sys

SCHEMA = "tagnn.bench_regress.v1"
LOADGEN_SCHEMA = "tagnn.loadgen.v1"
SERVE_BASELINE_SCHEMA = "tagnn.serve_baseline.v1"


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        sys.exit(f"bench_compare: cannot read {path}: {exc}")


def load(path, doc=None):
    doc = doc if doc is not None else read_json(path)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"bench_compare: {path}: schema {doc.get('schema')!r}, "
                 f"expected {SCHEMA!r}")
    entries = {}
    for e in doc.get("entries", []):
        for field in ("name", "speedup", "macs", "bytes", "cycles"):
            if field not in e:
                sys.exit(f"bench_compare: {path}: entry missing {field!r}")
        entries[e["name"]] = e
    if not entries:
        sys.exit(f"bench_compare: {path}: no entries")
    # The ISA variant the run's kernels dispatched to ("scalar" when the
    # report predates the registry). gemm stands in for the whole table;
    # the three ops always resolve to the same cap.
    isa = doc.get("kernels", {}).get("gemm", "scalar")
    return entries, isa


def compare_serve(result_doc, args):
    """Latency-ceiling gate: tagnn.loadgen.v1 vs tagnn.serve_baseline.v1."""
    base = read_json(args.baseline)
    if base.get("schema") != SERVE_BASELINE_SCHEMA:
        sys.exit(f"bench_compare: {args.baseline}: schema "
                 f"{base.get('schema')!r}, expected "
                 f"{SERVE_BASELINE_SCHEMA!r} for a loadgen result")
    res = result_doc.get("result", {})
    lat = res.get("latency_ms", {})
    if not lat.get("count"):
        sys.exit("bench_compare: loadgen result carries no latency samples")

    scale = 1.0 + args.latency_tolerance
    failures = []
    rows = []
    for q in ("p50", "p90", "p99"):
        budget = base.get(f"{q}_ms")
        if budget is None:
            continue
        ceil = budget * scale
        observed = lat.get(q, 0.0)
        ok = observed <= ceil
        rows.append((f"{q}_ms", "ok" if ok else "LATENCY",
                     f"{observed:.2f}", f"<= {ceil:.2f}"))
        if not ok:
            failures.append(
                f"{q} latency {observed:.2f} ms > ceiling {ceil:.2f} ms "
                f"(baseline {budget:g} ms, tolerance "
                f"{args.latency_tolerance:.0%})")

    max_shed = base.get("max_shed_rate")
    if max_shed is not None:
        shed = res.get("shed_rate", 0.0)
        ok = shed <= max_shed
        rows.append(("shed_rate", "ok" if ok else "SHED",
                     f"{shed:.4f}", f"<= {max_shed:g}"))
        if not ok:
            failures.append(f"shed rate {shed:.4f} > ceiling {max_shed:g}")

    errors = res.get("errors", 0)
    rows.append(("errors", "ok" if errors == 0 else "ERRORS",
                 f"{errors:g}", "== 0"))
    if errors:
        failures.append(f"{errors:g} failed request(s)")

    min_qps = base.get("min_qps")
    if min_qps is not None:
        qps = res.get("achieved_qps", 0.0)
        ok = qps >= min_qps
        rows.append(("achieved_qps", "ok" if ok else "QPS",
                     f"{qps:.1f}", f">= {min_qps:g}"))
        if not ok:
            failures.append(f"throughput {qps:.1f} qps < floor {min_qps:g}")

    width = max(len(r[0]) for r in rows)
    print(f"result: loadgen {result_doc.get('mode', '?')} mode, "
          f"{lat.get('count', 0):g} samples")
    print(f"{'metric':<{width}}  {'status':<8}  {'observed':>10}  {'budget':>12}")
    for name, status, cur, budget in rows:
        print(f"{name:<{width}}  {status:<8}  {cur:>10}  {budget:>12}")

    if failures:
        print()
        for f in failures:
            print(f"bench_compare: FAIL {f}")
        return 1
    print(f"bench_compare: {len(rows)} serving metrics within budget")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("result")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed relative speedup drop (default 0.15)")
    ap.add_argument("--latency-tolerance", type=float, default=0.0,
                    help="extra headroom on serving latency ceilings "
                         "(default 0)")
    args = ap.parse_args()

    result_doc = read_json(args.result)
    if result_doc.get("schema") == LOADGEN_SCHEMA:
        return compare_serve(result_doc, args)

    result, result_isa = load(args.result, result_doc)
    baseline, _ = load(args.baseline)

    failures = []
    rows = []
    for name, base in sorted(baseline.items()):
        cur = result.get(name)
        if cur is None:
            failures.append(f"{name}: present in baseline, missing in result")
            rows.append((name, "MISSING", "", ""))
            continue
        status = "ok"
        base_speedup = base.get("speedup_by_isa", {}).get(
            result_isa, base["speedup"])
        floor = base_speedup * (1.0 - args.tolerance)
        if cur["speedup"] < floor:
            status = "SPEEDUP"
            failures.append(
                f"{name}: speedup {cur['speedup']:.2f}x < floor "
                f"{floor:.2f}x ({result_isa} baseline {base_speedup:.2f}x, "
                f"tolerance {args.tolerance:.0%})")
        for field in ("macs", "bytes", "cycles"):
            if cur[field] != base[field]:
                status = "WORKLOAD"
                failures.append(
                    f"{name}: {field} changed {base[field]:g} -> "
                    f"{cur[field]:g}; workload or cycle model drifted, "
                    f"refresh the baseline (docs/PERFORMANCE.md)")
        mem_ceiling = base.get("mem_ceiling_bytes")
        mem_observed = cur.get("mem_high_water_bytes")
        if mem_ceiling is not None and mem_observed is not None \
                and mem_observed > mem_ceiling:
            status = "MEMORY"
            failures.append(
                f"{name}: tracked high-water {mem_observed:g} B > "
                f"ceiling {mem_ceiling:g} B")
        rows.append((name, status, f"{cur['speedup']:.2f}x",
                     f"{base_speedup:.2f}x"))

    extra = sorted(set(result) - set(baseline))

    width = max(len(r[0]) for r in rows) if rows else 10
    print(f"result kernels: {result_isa}")
    print(f"{'kernel':<{width}}  {'status':<8}  {'speedup':>8}  "
          f"{'baseline':>8}")
    for name, status, cur_s, base_s in rows:
        print(f"{name:<{width}}  {status:<8}  {cur_s:>8}  {base_s:>8}")
    for name in extra:
        print(f"{name:<{width}}  {'new':<8}  "
              f"{result[name]['speedup']:>7.2f}x  {'-':>8}")

    if failures:
        print()
        for f in failures:
            print(f"bench_compare: FAIL {f}")
        return 1
    print(f"bench_compare: {len(rows)} entries within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
