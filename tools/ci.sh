#!/usr/bin/env bash
# Full correctness pipeline: builds and tests the default, asan-ubsan,
# and tsan presets (all with -Werror), runs the live-telemetry,
# serving (tagnn_serve under tagnn_loadgen load, gated against
# bench/baselines/serve_quick.json), and memory-observability smokes
# (/memory.json + ballast-rejection self-test), the tagnn_lint
# invariants checker
# plus its negative self-test, the bench-regression gate, then
# clang-tidy via tools/lint.sh. Any warning, test failure, sanitizer
# report, bench or serving regression, or lint finding fails the script.
#
# Usage: tools/ci.sh [--fast | --smoke NAME [BUILD_DIR]]
#   --fast         default preset only (skip sanitizer builds, bench
#                  gate, clang-tidy; tagnn_lint still runs — it is
#                  sub-second)
#   --smoke NAME   run a single smoke (telemetry|live|serve|mem) against an
#                  existing build tree and exit — this is what the CI
#                  smoke jobs call, so local and CI run identical logic
#
# Every step runs through `step`, which records wall time and the exact
# failing step; the EXIT trap prints a timing summary either way and the
# script's exit code is always the first failing step's (set -e + the
# trap re-raising $rc — nothing here swallows a status).
#
# Roughly 3x the build time of a plain build; use --fast for quick local
# iteration and the full run before merging.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

fast=0
[ "${1:-}" = "--fast" ] && fast=1

presets=(default)
if [ "$fast" -eq 0 ]; then
  presets+=(asan-ubsan tsan)
fi

jobs="${TAGNN_CI_JOBS:-$(nproc)}"

step_names=()
step_secs=()
current_step="(startup)"

step() {
  current_step="$1"
  shift
  echo "=== $current_step ==="
  local t0=$SECONDS rc=0
  "$@" || rc=$?
  step_names+=("$current_step")
  step_secs+=($((SECONDS - t0)))
  return "$rc"
}

on_exit() {
  local rc=$?
  if [ "${#step_names[@]}" -gt 0 ]; then
    echo "--- ci.sh step timing ---"
    local i
    for i in "${!step_names[@]}"; do
      printf '%6ds  %s\n' "${step_secs[$i]}" "${step_names[$i]}"
    done
  fi
  if [ "$rc" -ne 0 ]; then
    echo "ci.sh: FAILED in step '$current_step' (exit $rc)" >&2
  fi
  exit "$rc"
}
trap on_exit EXIT

telemetry_smoke() {
  # The simulator must emit valid metrics + Chrome trace JSON (see
  # docs/OBSERVABILITY.md) under every preset. Artifacts land in
  # $TAGNN_SMOKE_DIR when set (CI uploads them on failure), else a
  # temp dir cleaned on success.
  # NB: `step` invokes this in a `||` context, which makes bash ignore
  # errexit inside the whole function body — every command must chain
  # its status explicitly or a failure here would read as green.
  local build_dir="$1"
  local smoke_dir cleanup=1
  if [ -n "${TAGNN_SMOKE_DIR:-}" ]; then
    smoke_dir="$TAGNN_SMOKE_DIR"
    mkdir -p "$smoke_dir" || return 1
    cleanup=0
  else
    smoke_dir="$(mktemp -d)" || return 1
  fi
  "$build_dir/tools/tagnn_sim" --scale 0.1 --snapshots 4 \
    --metrics-out="$smoke_dir/metrics.json" \
    --trace-out="$smoke_dir/trace.json" \
    --report-out="$smoke_dir/report.json" \
    --ledger="$smoke_dir/runs.jsonl" > /dev/null &&
  "$build_dir/tools/tagnn_sim" --scale 0.1 --snapshots 4 \
    --metrics-out="$smoke_dir/metrics.csv" --metrics-format=csv \
    > /dev/null &&
  "$build_dir/tools/json_validate" \
    "$smoke_dir/metrics.json" "$smoke_dir/trace.json" \
    "$smoke_dir/report.json" &&
  grep -q '^# schema: tagnn.metrics_csv.v2' "$smoke_dir/metrics.csv" &&
  grep -q '^name,kind,value' "$smoke_dir/metrics.csv" &&
  grep -q '"diagnosis"' "$smoke_dir/report.json" &&
  "$build_dir/tools/tagnn_report" render --out "$smoke_dir/report.html" \
    --report "$smoke_dir/report.json" \
    --metrics "$smoke_dir/metrics.json" \
    --trace trace.json \
    --ledger "$smoke_dir/runs.jsonl" > /dev/null &&
  grep -q 'id="report-data"' "$smoke_dir/report.html" || return 1
  if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$smoke_dir/metrics.json" > /dev/null &&
    python3 -m json.tool "$smoke_dir/trace.json" > /dev/null &&
    python3 - "$smoke_dir/report.html" <<'EOF' || return 1
import json, re, sys
html = open(sys.argv[1], encoding="utf-8").read()
m = re.search(r'<script type="application/json" id="report-data">(.*?)</script>',
              html, re.S)
if not m:
    sys.exit("report.html: no report-data block")
json.loads(m.group(1))
EOF
  fi
  [ "$cleanup" -eq 1 ] && rm -rf "$smoke_dir"
  return 0
}

live_smoke() {
  # Live-telemetry smoke (docs/OBSERVABILITY.md, "Live telemetry"): a
  # simulator run hosting the in-process HTTP plane must serve a valid
  # /metrics exposition and /snapshot.json, render in tagnn_top, and
  # shut down cleanly via GET /quit; the negative leg aborts a live run
  # and requires the flight-recorder dump to survive as parseable JSONL
  # (torn final line tolerated — that is the crash contract).
  # Default preset only: the signal-time dump path interacts with the
  # sanitizer runtimes' own crash handlers (the equivalent unit test
  # skips under ASan/TSan for the same reason).
  # Artifacts land in $TAGNN_LIVE_SMOKE_DIR when set (CI uploads the
  # flight-recorder dumps on failure), else a temp dir cleaned on
  # success.
  # Same errexit caveat as telemetry_smoke: chain statuses explicitly.
  local build_dir="$1"
  local dir cleanup=1
  if [ -n "${TAGNN_LIVE_SMOKE_DIR:-}" ]; then
    dir="$TAGNN_LIVE_SMOKE_DIR"
    mkdir -p "$dir" || return 1
    cleanup=0
  else
    dir="$(mktemp -d)" || return 1
  fi

  # Positive leg: long linger so the scrapes race nothing; /quit ends it.
  "$build_dir/tools/tagnn_sim" --scale 0.1 --snapshots 4 \
    --live-port 0 --live-interval-ms 50 --live-linger-ms 60000 \
    --flight-recorder "$dir/flight.jsonl" \
    > /dev/null 2> "$dir/sim.log" &
  local pid=$! port="" i
  for i in $(seq 1 100); do
    port="$(sed -n 's/^live: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$dir/sim.log")"
    [ -n "$port" ] && break
    if ! kill -0 "$pid" 2> /dev/null; then
      echo "live smoke: simulator exited before announcing a port" >&2
      return 1
    fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    kill "$pid" 2> /dev/null
    echo "live smoke: no 'live: listening' line within 10s" >&2
    return 1
  fi
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /healthz \
    > /dev/null &&
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /metrics \
    > "$dir/metrics.om" &&
  grep -q '^# EOF$' "$dir/metrics.om" &&
  grep -q '^tagnn_' "$dir/metrics.om" &&
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /snapshot.json \
    > "$dir/snapshot.json" &&
  "$build_dir/tools/json_validate" "$dir/snapshot.json" &&
  grep -q '"schema": "tagnn.live.v1"' "$dir/snapshot.json" &&
  "$build_dir/tools/tagnn_top" --port "$port" --once > /dev/null &&
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /quit \
    > /dev/null || { kill "$pid" 2> /dev/null; return 1; }
  local rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "live smoke: simulator exited $rc after /quit (want 0)" >&2
    return 1
  fi
  "$build_dir/tools/json_validate" --jsonl "$dir/flight.jsonl" || return 1

  # Negative leg: kill a live run mid-flight; the pre-opened dump fd
  # must end up holding JSONL that the torn-tolerant validator accepts.
  "$build_dir/tools/tagnn_sim" --scale 0.1 --snapshots 4 \
    --live-port 0 --live-interval-ms 20 --live-linger-ms 60000 \
    --flight-recorder "$dir/crash.jsonl" \
    > /dev/null 2> "$dir/crash.log" &
  pid=$!
  for i in $(seq 1 100); do
    grep -q 'live: listening' "$dir/crash.log" && break
    sleep 0.1
  done
  sleep 0.3
  kill -ABRT "$pid" 2> /dev/null
  rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 134 ]; then
    echo "live smoke: aborted run exited $rc (want 134 = SIGABRT)" >&2
    return 1
  fi
  "$build_dir/tools/json_validate" --jsonl "$dir/crash.jsonl" &&
  grep -q '"event": "begin"' "$dir/crash.jsonl" &&
  grep -q '"signal": 6' "$dir/crash.jsonl" || return 1
  [ "$cleanup" -eq 1 ] && rm -rf "$dir"
  echo "live smoke: endpoints valid, clean shutdown, crash dump parseable"
}

serve_smoke() {
  # Serving smoke (docs/SERVING.md): a multi-tenant tagnn_serve instance
  # must absorb a closed-loop load run with zero failed requests, serve
  # a valid /slo.json, pass the pinned latency budgets in
  # bench/baselines/serve_quick.json (with an injected-slowdown negative
  # self-test of that gate), and shut down cleanly via /quit. A second
  # instance with a deliberately tiny admission queue must shed an
  # open-loop burst with explicit 429 backpressure — observable both in
  # the loadgen summary and as a literal 'overloaded' reply body —
  # rather than queueing without bound. Default preset only: the budgets
  # are wall-clock and sanitizer slowdowns would need their own set
  # (the TSan serve stress lives in tests/test_serve.cpp instead).
  # Artifacts land in $TAGNN_SERVE_SMOKE_DIR when set (CI uploads them
  # on failure), else a temp dir cleaned on success.
  # Same errexit caveat as telemetry_smoke: chain statuses explicitly.
  local build_dir="$1"
  local dir cleanup=1
  if [ -n "${TAGNN_SERVE_SMOKE_DIR:-}" ]; then
    dir="$TAGNN_SERVE_SMOKE_DIR"
    mkdir -p "$dir" || return 1
    cleanup=0
  else
    dir="$(mktemp -d)" || return 1
  fi

  # Positive leg: two tenants, closed-loop load, SLO + budget gates.
  "$build_dir/tools/tagnn_serve" --port 0 --tenants 2 \
    --max-runtime-s 120 --flight-recorder "$dir/serve_flight.jsonl" \
    > "$dir/serve.out" 2> "$dir/serve.log" &
  local pid=$! port="" i
  for i in $(seq 1 100); do
    port="$(sed -n 's/^live: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$dir/serve.log")"
    [ -n "$port" ] && break
    if ! kill -0 "$pid" 2> /dev/null; then
      echo "serve smoke: server exited before announcing a port" >&2
      return 1
    fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    kill "$pid" 2> /dev/null
    echo "serve smoke: no 'live: listening' line within 10s" >&2
    return 1
  fi
  # tagnn_loadgen exits nonzero on any failed request — that IS the
  # zero-failures assertion.
  "$build_dir/tools/tagnn_loadgen" --port "$port" --mode closed \
    --duration-s 3 --concurrency 4 --out "$dir/loadgen.json" \
    > /dev/null 2> "$dir/loadgen.log" &&
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /slo.json \
    > "$dir/slo.json" &&
  "$build_dir/tools/json_validate" "$dir/loadgen.json" "$dir/slo.json" &&
  grep -q '"schema": "tagnn.slo.v1"' "$dir/slo.json" &&
  grep -q '"schema": "tagnn.loadgen.v1"' "$dir/loadgen.json" &&
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /quit > /dev/null \
    || { kill "$pid" 2> /dev/null; return 1; }
  local rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "serve smoke: server exited $rc after /quit (want 0)" >&2
    return 1
  fi
  # Latency-budget gate plus its negative self-test: a 100x-inflated
  # copy of the same summary must be rejected, or the gate is blind.
  python3 tools/bench_compare.py "$dir/loadgen.json" \
    bench/baselines/serve_quick.json || return 1
  python3 - "$dir/loadgen.json" <<'EOF' || return 1
import json, subprocess, sys
path = sys.argv[1]
doc = json.load(open(path))
lat = doc["result"]["latency_ms"]
for q in ("p50", "p90", "p99", "mean", "max"):
    lat[q] = lat.get(q, 0) * 100.0
slow = path + ".slow.json"
json.dump(doc, open(slow, "w"))
rc = subprocess.run(["python3", "tools/bench_compare.py", slow,
                     "bench/baselines/serve_quick.json"],
                    capture_output=True).returncode
if rc == 0:
    sys.exit("serve gate self-test: injected 100x slowdown not rejected")
print("serve gate self-test: injected slowdown rejected as expected")
EOF

  # Negative leg: tiny admission queue under an open-loop burst.
  "$build_dir/tools/tagnn_serve" --port 0 --tenants 1 --max-queue 1 \
    --batch-window-ms 20 --max-runtime-s 120 \
    > "$dir/shed_serve.out" 2> "$dir/shed_serve.log" &
  pid=$!
  port=""
  for i in $(seq 1 100); do
    port="$(sed -n 's/^live: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$dir/shed_serve.log")"
    [ -n "$port" ] && break
    if ! kill -0 "$pid" 2> /dev/null; then
      echo "serve smoke: shed-leg server exited before announcing" >&2
      return 1
    fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    kill "$pid" 2> /dev/null
    echo "serve smoke: shed-leg server never announced a port" >&2
    return 1
  fi
  "$build_dir/tools/tagnn_loadgen" --port "$port" --mode open --qps 2000 \
    --duration-s 2 --concurrency 8 --ingest-ratio 1 \
    --out "$dir/shed.json" > /dev/null 2> "$dir/shed.log" \
    || { kill "$pid" 2> /dev/null; return 1; }
  python3 - "$dir/shed.json" <<'EOF' || { kill "$pid" 2> /dev/null; return 1; }
import json, sys
res = json.load(open(sys.argv[1]))["result"]
if res["shed"] == 0:
    sys.exit("serve smoke: burst against --max-queue 1 shed nothing")
if res["errors"] != 0:
    sys.exit(f"serve smoke: burst produced {res['errors']} hard errors "
             "(sheds must be 429s, not failures)")
print(f"serve smoke: burst shed {res['shed']} of {res['sent']} requests")
EOF
  # Backpressure must also be observable as an explicit 429 'overloaded'
  # reply body, not just a counter.
  python3 - "$port" <<'EOF' || { kill "$pid" 2> /dev/null; return 1; }
import concurrent.futures, sys, urllib.error, urllib.request
port = sys.argv[1]
def post(_):
    req = urllib.request.Request(
        "http://127.0.0.1:%s/v1/ingest?tenant=t0" % port,
        data=b'{"advance": 8}', method="POST")
    try:
        urllib.request.urlopen(req, timeout=30).read()
        return None
    except urllib.error.HTTPError as e:
        return (e.code, e.read().decode())
with concurrent.futures.ThreadPoolExecutor(8) as ex:
    for hit in ex.map(post, range(64)):
        if hit and hit[0] == 429 and "overloaded" in hit[1]:
            print("serve smoke: observed explicit 429 overloaded reply")
            sys.exit(0)
sys.exit("serve smoke: no 429 'overloaded' response observed during burst")
EOF
  # The shed server's own accounting must agree, and it must still shut
  # down cleanly after shedding (shed-then-recover).
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /slo.json \
    > "$dir/shed_slo.json" &&
  "$build_dir/tools/json_validate" "$dir/shed_slo.json" &&
  python3 -c 'import json, sys
req = json.load(open(sys.argv[1]))["requests"]
sys.exit(0 if req["shed"] > 0 else "server /slo.json reports zero sheds")' \
    "$dir/shed_slo.json" &&
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /quit > /dev/null \
    || { kill "$pid" 2> /dev/null; return 1; }
  rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "serve smoke: shed-leg server exited $rc after /quit (want 0)" >&2
    return 1
  fi
  [ "$cleanup" -eq 1 ] && rm -rf "$dir"
  echo "serve smoke: zero failures, budget gate + self-test, shed leg ok"
}

mem_smoke() {
  # Memory-observability smoke (docs/OBSERVABILITY.md, "Memory
  # observability"): a live host must serve a valid tagnn.mem.v1
  # /memory.json and expose tagnn_mem_* gauges on /metrics, the run
  # report must carry a fitted diagnosis.memory, and the bench memory
  # gate must reject an injected kBallast allocation (negative
  # self-test — a blind ceiling is worse than none).
  # Same errexit caveat as telemetry_smoke: chain statuses explicitly.
  local build_dir="$1"
  local dir cleanup=1
  if [ -n "${TAGNN_MEM_SMOKE_DIR:-}" ]; then
    dir="$TAGNN_MEM_SMOKE_DIR"
    mkdir -p "$dir" || return 1
    cleanup=0
  else
    dir="$(mktemp -d)" || return 1
  fi

  # /memory.json + tagnn_mem_* gauges from a live host.
  "$build_dir/tools/tagnn_sim" --scale 0.1 --snapshots 4 \
    --live-port 0 --live-interval-ms 50 --live-linger-ms 60000 \
    > /dev/null 2> "$dir/sim.log" &
  local pid=$! port="" i
  for i in $(seq 1 100); do
    port="$(sed -n 's/^live: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$dir/sim.log")"
    [ -n "$port" ] && break
    if ! kill -0 "$pid" 2> /dev/null; then
      echo "mem smoke: simulator exited before announcing a port" >&2
      return 1
    fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    kill "$pid" 2> /dev/null
    echo "mem smoke: no 'live: listening' line within 10s" >&2
    return 1
  fi
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /memory.json \
    > "$dir/memory.json" &&
  "$build_dir/tools/json_validate" "$dir/memory.json" &&
  grep -q '"schema": "tagnn.mem.v1"' "$dir/memory.json" &&
  grep -q '"subsystems"' "$dir/memory.json" &&
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /metrics \
    > "$dir/metrics.om" &&
  grep -q '^tagnn_mem_process_rss_bytes ' "$dir/metrics.om" &&
  grep -q '^tagnn_mem_tracked_high_water_bytes ' "$dir/metrics.om" &&
  "$build_dir/tools/tagnn_top" --port "$port" --fetch /quit > /dev/null \
    || { kill "$pid" 2> /dev/null; return 1; }
  local rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "mem smoke: simulator exited $rc after /quit (want 0)" >&2
    return 1
  fi

  # The run report must carry a fitted scale projection.
  "$build_dir/tools/tagnn_sim" --scale 0.1 --snapshots 4 \
    --report-out "$dir/report.json" > /dev/null &&
  "$build_dir/tools/json_validate" "$dir/report.json" &&
  grep -q '"memory": {"has_fit": true' "$dir/report.json" || return 1

  # Memory-budget gate: clean run passes (speedup floors slackened to
  # near-zero — this leg gates only memory), ballast run must fail with
  # a MEMORY verdict.
  "$build_dir/bench/bench_regress" --quick --iters 1 \
    --out "$dir/bench.json" > /dev/null &&
  python3 tools/bench_compare.py "$dir/bench.json" \
    bench/baselines/quick.json --tolerance 0.95 > /dev/null || return 1
  TAGNN_MEM_BALLAST_MB=256 "$build_dir/bench/bench_regress" --quick \
    --iters 1 --out "$dir/bench_ballast.json" > /dev/null || return 1
  local gate_rc=0
  python3 tools/bench_compare.py "$dir/bench_ballast.json" \
    bench/baselines/quick.json --tolerance 0.95 \
    > "$dir/gate.log" 2>&1 || gate_rc=$?
  if [ "$gate_rc" -eq 0 ]; then
    echo "mem smoke: injected 256MB ballast not rejected —" \
         "memory gate is blind" >&2
    return 1
  fi
  if ! grep -q 'MEMORY' "$dir/gate.log"; then
    echo "mem smoke: ballast run failed the gate for a non-memory reason:" >&2
    cat "$dir/gate.log" >&2
    return 1
  fi
  [ "$cleanup" -eq 1 ] && rm -rf "$dir"
  echo "mem smoke: /memory.json valid, diagnosis.memory fitted," \
       "ballast rejected"
}

bench_gate() {
  # Bench-regression gate (docs/PERFORMANCE.md): quick bench run,
  # JSON validity, then ratio/fingerprint comparison vs the checked-in
  # baseline.
  # Same errexit caveat as telemetry_smoke: chain statuses explicitly.
  local build_dir="$1"
  local out="$build_dir/BENCH_regress.json"
  local ledger="$build_dir/BENCH_runs.jsonl"
  rm -f "$ledger"
  "$build_dir/bench/bench_regress" --quick --out "$out" \
    --ledger "$ledger" &&
  "$build_dir/tools/json_validate" "$out" &&
  python3 tools/bench_compare.py "$out" bench/baselines/quick.json || return 1
  # Forced-scalar run, gated against the scalar-keyed floors in the
  # baseline's speedup_by_isa map: structural wins (blocking, batching)
  # must survive with SIMD off.
  local out_scalar="$build_dir/BENCH_regress_scalar.json"
  "$build_dir/bench/bench_regress" --quick --kernel-isa scalar \
    --out "$out_scalar" &&
  "$build_dir/tools/json_validate" "$out_scalar" &&
  python3 tools/bench_compare.py "$out_scalar" \
    bench/baselines/quick.json || return 1
  # Drift check vs a baseline-derived history (docs/DIAGNOSIS.md):
  # non-fatal by design — wall times vary across hosts, so a finding is
  # a prompt to look, not a gate. The detector itself is self-tested:
  # an injected 2x slowdown must flag (that part IS fatal).
  "$build_dir/tools/tagnn_report" ledger-append --ledger "$ledger" \
    --bench bench/baselines/quick.json --env baseline > /dev/null &&
  "$build_dir/tools/tagnn_report" ledger-append --ledger "$ledger" \
    --bench "$out" --env ci > /dev/null || return 1
  local drift_rc=0
  "$build_dir/tools/tagnn_report" drift --ledger "$ledger" \
    --min-history 1 || drift_rc=$?
  [ "$drift_rc" -eq 1 ] && return 1
  if [ "$drift_rc" -eq 3 ]; then
    echo "bench gate: drift findings above (informational, not fatal)"
  fi
  python3 - "$out" "$ledger" "$build_dir" <<'EOF'
import json, subprocess, sys
out, ledger, build_dir = sys.argv[1], sys.argv[2], sys.argv[3]
bench = json.load(open(out))
slow = dict(bench)
slow["entries"] = [dict(e, opt_sec=e["opt_sec"] * 2) for e in bench["entries"]]
slow_path = out + ".slow.json"
json.dump(slow, open(slow_path, "w"))
test_ledger = ledger + ".selftest"
open(test_ledger, "w").close()
tool = build_dir + "/tools/tagnn_report"
for src in (out, out, out, slow_path):
    subprocess.run([tool, "ledger-append", "--ledger", test_ledger,
                    "--bench", src], check=True, capture_output=True)
rc = subprocess.run([tool, "drift", "--ledger", test_ledger,
                     "--min-history", "1"], capture_output=True).returncode
if rc != 3:
    sys.exit(f"drift self-test: injected 2x slowdown not flagged (rc={rc})")
print("drift self-test: injected 2x slowdown flagged as expected")
EOF
}

lint_selftest() {
  # Negative self-test for tagnn_lint: inject a repo with one violation
  # per rule family and require the checker to see every one of them
  # (exit 2 = findings; exit 0 here would mean the gate is blind).
  # Same errexit caveat as telemetry_smoke: chain statuses explicitly.
  local build_dir="$1"
  local dir
  dir="$(mktemp -d)" || return 1
  mkdir -p "$dir/tools" "$dir/src/tensor" || return 1
  cat > "$dir/tools/layering.toml" <<'EOF' || return 1
[layer.common]
path = "src/common"
allow = []
[layer.tensor]
path = "src/tensor"
allow = ["common"]
[layer.nn]
path = "src/nn"
allow = ["common", "tensor"]
[hotpath]
paths = ["src/tensor/bad.cpp"]
[memtrack]
paths = ["src/tensor/store.cpp"]
[determinism]
allow = []
EOF
  cat > "$dir/src/tensor/bad.cpp" <<'EOF' || return 1
#include "nn/gcn.hpp"
float f(float x) { return expf(x) + _mm256_cvtss_f32(
    _mm256_fmadd_ps(a, b, c)) + (float)rand(); }
EOF
  cat > "$dir/src/tensor/store.cpp" <<'EOF' || return 1
#include <vector>
std::vector<int> untracked;
int* raw = new int[8];
EOF
  cat > "$dir/compile_commands.json" <<EOF || return 1
[{"directory": "$dir", "file": "src/tensor/bad.cpp",
  "command": "g++ -mavx2 -c src/tensor/bad.cpp"},
 {"directory": "$dir", "file": "src/tensor/store.cpp",
  "command": "g++ -c src/tensor/store.cpp"}]
EOF
  local rc=0
  "$build_dir/tools/tagnn_lint" --db "$dir/compile_commands.json" \
    --root "$dir" --out "$dir/lint.json" > /dev/null 2> /dev/null || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "lint self-test: expected exit 2 on injected violations, got $rc" >&2
    return 1
  fi
  # Every injected rule family must be present in the findings doc.
  local rule
  for rule in layering-include hotpath-libm bitexact-fma \
              bitexact-contract determinism-entropy memtrack-container; do
    if ! grep -q "\"rule\": \"$rule\"" "$dir/lint.json"; then
      echo "lint self-test: injected $rule violation not flagged" >&2
      return 1
    fi
  done
  rm -rf "$dir"
  echo "lint self-test: injected violations flagged as expected"
}

# Single-smoke entry point for the CI smoke jobs (and local debugging):
# runs one smoke against an existing build tree instead of the full
# pipeline, so .github/workflows/ci.yml never mirrors smoke logic.
if [ "${1:-}" = "--smoke" ]; then
  case "${2:-}" in
    telemetry) step "telemetry smoke" telemetry_smoke "${3:-build}" ;;
    live)      step "live smoke" live_smoke "${3:-build}" ;;
    serve)     step "serve smoke" serve_smoke "${3:-build}" ;;
    mem)       step "mem smoke" mem_smoke "${3:-build}" ;;
    *) echo "ci.sh: unknown smoke '${2:-}' (want telemetry|live|serve|mem)" >&2
       exit 2 ;;
  esac
  exit 0
fi

for preset in "${presets[@]}"; do
  build_dir="build"
  [ "$preset" != "default" ] && build_dir="build-$preset"
  step "[$preset] configure" cmake --preset "$preset"
  step "[$preset] build" cmake --build --preset "$preset" -j "$jobs"
  step "[$preset] test" ctest --preset "$preset" -j "$jobs"
  if [ "$preset" = "default" ]; then
    # Forced-scalar leg: the kernels are bit-exact across ISAs, so the
    # whole suite must pass with dispatch capped at the portable
    # variant. A failure here alone means an ISA path diverged.
    step "[$preset] test (TAGNN_KERNEL_ISA=scalar)" \
      env TAGNN_KERNEL_ISA=scalar ctest --preset "$preset" -j "$jobs"
  fi
  step "[$preset] telemetry smoke" telemetry_smoke "$build_dir"
  if [ "$preset" = "default" ]; then
    step "[$preset] live smoke" live_smoke "$build_dir"
    step "[$preset] serve smoke" serve_smoke "$build_dir"
    step "[$preset] mem smoke" mem_smoke "$build_dir"
  fi
done

# The invariants checker is sub-second, so it runs even in --fast mode;
# its negative self-test keeps the gate itself honest.
step "tagnn_lint" build/tools/tagnn_lint \
  --db build/compile_commands.json --root "$repo_root" \
  --out build/tagnn_lint.json
step "tagnn_lint self-test" lint_selftest build

if [ "$fast" -eq 0 ]; then
  step "bench gate" bench_gate build
  step "lint" "$repo_root/tools/lint.sh" "$repo_root/build"
fi

echo "ci.sh: all presets green"
