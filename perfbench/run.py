#!/usr/bin/env python3
"""perfbench: the repo's benchmark, one workload per invocation.

    python3 perfbench/run.py --workload hp_cdgcn --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the repo libraries plus measure.cpp) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
measuring program for the workload, checks its outputs, and prints a
summary whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the span trace next to the build). Exits 1 when an output
check fails, 2 when the benchmark cannot build or run. Metric
definitions: perfbench/README.md.
"""

import argparse
import collections
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import perfstats as ps  # noqa: E402

MEASURE_TIMEOUT_S = 170

HTTP_PHASES = ("prime", "nominal", "final")


class BenchError(Exception):
    pass


Spec = collections.namedtuple("Spec", "workloads limit_ms end_to_end per_layer")


def load_spec():
    """Workload names, the serve latency limit and the metric catalogue
    ((name, unit) lists) from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    names = [w["name"] for w in spec["workloads"]]
    limit = None
    for w in spec["workloads"]:
        m = re.search(r"p99 limit (\d+(?:\.\d+)?) ms", w["why"])
        if m:
            limit = float(m.group(1))
    if limit is None:
        raise BenchError("BENCHMARK.json states no 'p99 limit <N> ms'")
    return Spec(names, limit,
                [(m["name"], m["unit"]) for m in spec["end_to_end"]],
                [(m["name"], m["unit"]) for m in spec["per_layer"]])


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    def step(cmd):
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))

    step(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", bdir, "--target", "perfbench_measure",
          "-j", str(os.cpu_count() or 1)])
    return os.path.join(bdir, "perfbench_measure")


def run_measure(exe, args, limit_ms, trace_out):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--p99-limit-ms", str(limit_ms)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"measure.cpp exceeded {MEASURE_TIMEOUT_S} s")
    if r.returncode not in (0, 1):
        raise BenchError(f"measure.cpp exited with code {r.returncode}")
    recs = [json.loads(line) for line in r.stdout.splitlines() if line.strip()]
    return recs, r.returncode


class Records:
    def __init__(self, recs):
        self.legs = collections.defaultdict(list)
        self.samples = collections.defaultdict(list)
        self.values = {}
        self.setup = collections.defaultdict(list)
        self.reqs = collections.defaultdict(list)
        self.checks = []
        self.leg_ok = []
        for r in recs:
            kind = r["rec"]
            if kind == "leg":
                self.legs[r["leg"]].append(r["s"])
                self.leg_ok.append((r["leg"], r["ok"]))
            elif kind == "sample":
                self.samples[r["name"]].append(r["v"])
            elif kind == "value":
                self.values[r["name"]] = r["v"]
            elif kind == "setup":
                self.setup[r["part"]].append(r["s"])
            elif kind == "req":
                self.reqs[r["phase"]].append(r)
            elif kind == "check":
                self.checks.append(r)

    def leg_median(self, leg):
        return statistics.median(self.legs[leg])

    def ladder(self):
        return sorted((p for p in self.reqs if p.startswith("ladder")),
                      key=lambda p: int(p[len("ladder"):]))


def accounting(rec):
    """Per-phase ops: attempted, succeeded, failed, shed (+ unsent)."""
    rows = collections.OrderedDict()
    for leg, ok in rec.leg_ok:
        phase = "batch." + leg.split(".")[0]
        row = rows.setdefault(phase, [0, 0, 0, 0, 0])
        row[0] += 1
        row[1 if ok else 2] += 1
    for phase, reqs in rec.reqs.items():
        row = rows.setdefault("serve." + phase, [0, 0, 0, 0, 0])
        for r in reqs:
            if r["status"] == -1:
                row[4] += 1
                continue
            row[0] += 1
            if r["status"] == 429:
                row[3] += 1
            elif r["ok"]:
                row[1] += 1
            else:
                row[2] += 1
    return rows


def end_to_end(rec, limit_ms):
    """(metrics, sample counts) for the untraced run."""
    snaps = rec.values["batch.snapshots"]
    m, n = {}, {}
    for name, leg in (("infer_snapshots_per_s", "concurrent"),
                      ("reference_snapshots_per_s", "reference"),
                      ("accel_sim_snapshots_per_s", "accel")):
        m[name] = snaps / rec.leg_median(leg)
        n[name] = len(rec.legs[leg])
    lat_ms = [ps.latency_ms(r) for r in rec.reqs["nominal"]]
    m["serve_p50_ms"] = statistics.median(lat_ms)
    m["serve_p99_ms"], used = ps.tail_percentile(lat_ms)
    n["serve_p50_ms"] = n["serve_p99_ms"] = len(lat_ms)
    steps = sorted((ps.step_summary(rec.reqs[p], limit_ms)
                    for p in ["nominal"] + rec.ladder()),
                   key=lambda s: s["rate"])
    m["serve_sustained_qps"], saturated = ps.sustained_qps(steps, limit_ms)
    n["serve_sustained_qps"] = sum(s["count"] for s in steps)
    m["setup_s"] = (statistics.median(rec.setup["batch"])
                    + statistics.median(rec.setup["serve"]))
    n["setup_s"] = len(rec.setup["batch"]) + len(rec.setup["serve"])
    m["mem_high_water_mb"] = rec.values["mem_high_water_mb"]
    n["mem_high_water_mb"] = 1
    notes = [f"serve_p99_ms is p{used} by the tail rule" if used != 99 else "",
             "ladder not saturated" if not saturated else ""]
    for s in steps:
        print(f"  ladder step {s['rate']:8.1f} req/s  p{s['p99_used']}="
              f"{s['p99_ms']:8.2f} ms  late_end={s['late_end_ms']:7.2f} ms  "
              f"unsent={s['unsent']}  {'pass' if s['passes'] else 'FAIL'}")
    return m, n, [x for x in notes if x]


def ratio(rec, leg, base):
    return rec.leg_median(leg) / rec.leg_median(base)


def per_layer(rec, catalogue):
    med = {k: statistics.median(v) for k, v in rec.samples.items()}
    m = {}
    for name, _ in catalogue:
        if name in med:
            m[name] = med[name]
        elif name in rec.values:
            m[name] = rec.values[name]
    for op in ("advance", "delta", "infer"):
        xs = rec.samples[f"serve.tenant_{op}_ms"]
        m[f"serve.tenant_{op}_p50_ms"] = statistics.median(xs)
        m[f"serve.tenant_{op}_p99_ms"] = ps.tail_percentile(xs)[0]
    m["common.engine_scaling"] = ratio(rec, "scale.1thread", "scale.nthread")
    m["nn.reuse_off_ratio"] = ratio(rec, "ab.reuse_off", "ab.default")
    m["nn.skip_off_ratio"] = ratio(rec, "ab.skip_off", "ab.default")
    m["nn.pipeline_off_ratio"] = ratio(rec, "ab.pipeline_off", "ab.default")
    m["tagnn.cycle_model_ms"] = 1e3 * (rec.leg_median("ab.accel")
                                       - rec.leg_median("ab.accel_opts"))
    m["trace_overhead_frac"] = med["ovh.traced_s"] / med["ovh.untraced_s"] - 1.0
    http = [r for p in HTTP_PHASES + tuple(rec.ladder()) for r in rec.reqs[p]
            if r["status"] != -1]
    m["serve.shed_frac"] = sum(r["status"] == 429 for r in http) / len(http)
    nominal = [r for r in rec.reqs["nominal"] if r["status"] != -1]
    m["serve.generator_late_ms"] = ps.tail_percentile(
        [1e3 * ps.lateness_s(r) for r in nominal])[0]
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expect-digest", default="",
                    help="fail unless the concurrent engine's final_hidden "
                         "digest (16 hex digits) equals this")
    args = ap.parse_args(argv)
    try:
        bench = load_spec()
        if args.workload not in bench.workloads:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"have {bench.workloads}")
        bdir = build_dir()
        exe = build(bdir)
        trace_out = (os.path.join(bdir, f"trace-{args.workload}-{args.seed}.json")
                     if args.trace else "")
        recs, rc = run_measure(exe, args, bench.limit_ms, trace_out)
        rec = Records(recs)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} threads={os.cpu_count()}")
        if args.trace:
            spec = bench.per_layer
            metrics, counts, notes = per_layer(rec, spec), {}, []
        else:
            spec = bench.end_to_end
            metrics, counts, notes = end_to_end(rec, bench.limit_ms)
        missing = [n for n, _ in spec if n not in metrics]
        if missing:
            raise BenchError(f"measure.cpp produced no value for {missing}")
    except (BenchError, KeyError, ValueError, ZeroDivisionError,
            statistics.StatisticsError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    for leg in sorted(rec.legs):
        xs = rec.legs[leg]
        if leg.startswith("check."):
            continue
        q1, q2, q3 = ps.quartiles(xs)
        print(f"  leg {leg:16s} n={len(xs):3d}  median={1e3 * q2:9.3f} ms  "
              f"q1={1e3 * q1:9.3f}  q3={1e3 * q3:9.3f}")
    print("  ops per phase: attempted succeeded failed shed unsent")
    rows = accounting(rec)
    for phase, (att, ok, bad, shed, unsent) in rows.items():
        print(f"    {phase:22s} {att:6d} {ok:6d} {bad:6d} {shed:6d} {unsent:6d}")
    for c in rec.checks:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    for name, unit in spec:
        n = f"  n={counts[name]}" if name in counts else ""
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}{n}")
    for note in notes:
        print(f"  note: {note}")
    if trace_out:
        print(f"  trace: {trace_out}")

    attempted = sum(r[0] for r in rows.values())
    failed = sum(r[2] for r in rows.values())
    correct = rc == 0 and failed == 0 and all(c["ok"] for c in rec.checks)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
