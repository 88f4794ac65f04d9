#!/usr/bin/env bash
# Smoke harness for the benchmarks: configure, build, run the tier-1
# test suite twice, the second time on the tick-every-cycle loop
# (SIOPMP_NO_FAST_FORWARD=1), and fail when a ctest name prints the
# raw bytes of a test parameter wider than 4 bytes, run sim_core_micro
# and churn_fleet with small budgets into the build directory (the
# committed BENCH files stay as they are), validate the
# BENCH_sim_core.json / BENCH_churn.json schemas of both those smoke
# outputs and the committed files, validate the committed
# BENCH_pairs.json schema, diff a churn run's output and stats JSON
# with fast-forward on and off, validate the Chrome trace-event schema
# of a traced dma_attack_demo run, build perfbench (it compiles src/ on
# its own, so this is the leg that pins the API it uses) and run its
# self-test and a 2-s churn run, failing on a nonzero exit or a failed
# op, and run tools/reach.sh as an informational leg that never fails
# the script.
# The check path's host time is measured on the workloads' own traffic
# by perfbench (BENCHMARK.json), not here.
#
# Usage: tools/run_bench.sh [build-dir] [iters] [mode]
#        tools/run_bench.sh --sanitize [build-dir]
#
# mode "fuzz" skips the benchmark/schema legs and instead runs the
# differential-fuzz soak: the full siopmp_fuzz campaign (every checker
# flavour, dense + wide configurations) under fixed seeds. Exits
# nonzero on any DUT-vs-oracle divergence. The bounded version of the
# same campaign already runs inside the tier-1 suite (test_check).
#
# The default leg builds with CMAKE_COMPILE_WARNING_AS_ERROR, so any
# compiler warning fails it and the tree stays warning-free.
#
# --sanitize configures a separate ASan+UBSan-instrumented tree
# (default build-asan/, matching the asan-ubsan CMake preset), then
# runs the whole checker suite (test_iopmp_checkers: the two walks and
# the geometry, the property sweep, the unit-versus-reference-walk
# differential and invalidation completeness) and four bounded
# differential-fuzz campaigns — the default and the mutation-heavy
# churn profile, each at seeds 1 and 2 — under the sanitizers. Every
# campaign checks the unit against the oracle. It runs the
# tenant-churn tests and, whole, the simulator, bus and fast-forward
# suites (test_sim, test_bus, test_fastforward: the active-set
# bitmap, the clock edge, the fifo rings and the parking and
# registration-order differentials), the suites whose rigs build links
# on a simulator (test_checker_node, test_soc, test_devices, test_mem:
# a fifo left on the edge list after its link is gone is a
# use-after-free only the sanitizer shows) and
# the table and differential-check suites (test_iopmp_tables,
# test_check: the MD windows, the change hooks, the oracle and the
# bounded fuzz campaigns) in the same tree. It then configures a second,
# TSan-instrumented tree (build-tsan/, matching the tsan preset) and
# runs a bounded fuzz smoke sharded over 4 worker threads under
# ThreadSanitizer — the data-race gate for siopmp_fuzz --jobs, the one
# place the simulator runs on several threads. Exits nonzero on any
# sanitizer report or divergence.
#
# Every JSON gate below runs in python3 when it is installed and
# fails the script when an assertion fails; without python3 only the
# grep-based key checks run.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if [ "${1:-}" = "--sanitize" ]; then
    ASAN_DIR="${2:-$REPO_ROOT/build-asan}"
    TSAN_DIR="$REPO_ROOT/build-tsan"
    echo "== configure + build (ASan+UBSan) =="
    cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DSIOPMP_SANITIZE=ON
    # Only the targets this mode runs — an instrumented build of the
    # whole tree is slow and buys nothing here.
    cmake --build "$ASAN_DIR" -j --target test_iopmp_checkers siopmp_fuzz
    echo "== checker, property and unit-check tests (sanitized) =="
    "$ASAN_DIR/tests/test_iopmp_checkers"
    echo "== bounded fuzz campaign (sanitized) =="
    "$ASAN_DIR/tools/siopmp_fuzz" --cases 300 --seed 1
    "$ASAN_DIR/tools/siopmp_fuzz" --cases 300 --seed 2
    echo "== churn-profile fuzz: mutation-heavy op mix (sanitized) =="
    "$ASAN_DIR/tools/siopmp_fuzz" --cases 300 --profile churn --seed 1
    "$ASAN_DIR/tools/siopmp_fuzz" --cases 300 --profile churn --seed 2

    echo "== tenant-churn workload leg (ASan+UBSan) =="
    cmake --build "$ASAN_DIR" -j --target test_workloads
    "$ASAN_DIR/tests/test_workloads" --gtest_filter='Churn.*'

    echo "== cycle loop, fifo rings and fast-forward suites (ASan+UBSan) =="
    cmake --build "$ASAN_DIR" -j --target test_sim test_bus test_fastforward
    "$ASAN_DIR/tests/test_sim"
    "$ASAN_DIR/tests/test_bus"
    "$ASAN_DIR/tests/test_fastforward"

    # Every rig that builds links on a simulator: a fifo left on the
    # simulator's edge list after its link is destroyed is a
    # use-after-free only the sanitizer shows.
    echo "== checker node, SoC, device and memory suites (ASan+UBSan) =="
    cmake --build "$ASAN_DIR" -j --target test_checker_node test_soc \
        test_devices test_mem
    "$ASAN_DIR/tests/test_checker_node"
    "$ASAN_DIR/tests/test_soc"
    "$ASAN_DIR/tests/test_devices"
    "$ASAN_DIR/tests/test_mem"

    echo "== tables, change hooks and differential-check suites (ASan+UBSan) =="
    cmake --build "$ASAN_DIR" -j --target test_iopmp_tables test_check
    "$ASAN_DIR/tests/test_iopmp_tables"
    "$ASAN_DIR/tests/test_check"

    echo "== configure + build (TSan) =="
    cmake -B "$TSAN_DIR" -S "$REPO_ROOT" -DSIOPMP_TSAN=ON
    cmake --build "$TSAN_DIR" -j --target siopmp_fuzz
    echo "== sharded fuzz smoke, 4 worker threads (TSan) =="
    "$TSAN_DIR/tools/siopmp_fuzz" --cases 100 --seed 1 --jobs 4
    "$TSAN_DIR/tools/siopmp_fuzz" --cases 100 --profile churn --seed 1 \
        --jobs 4
    echo "run_bench: sanitize mode clean"
    exit 0
fi

BUILD_DIR="${1:-$REPO_ROOT/build}"
ITERS="${2:-4}"
MODE="${3:-bench}"
OUT_JSON="$BUILD_DIR/BENCH_sim_core.json"

echo "== configure + build (warnings are errors) =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$BUILD_DIR" -j

# gtest_discover_tests caches per-binary test lists in
# <exe>[1]_tests.cmake files under the build tree. When a test binary
# is renamed or removed, the stale list file survives and ctest keeps
# trying to run tests of an executable that no longer exists. Prune
# any list whose binary is gone before invoking ctest.
for f in "$BUILD_DIR"/tests/*_tests.cmake; do
    [ -e "$f" ] || continue
    base="$(basename "$f")"
    exe="${base%%\[*}"
    if [ ! -x "$BUILD_DIR/tests/$exe" ]; then
        echo "pruning stale ctest discovery artifact: $base"
        rm -f "$f" "${f%_tests.cmake}_include.cmake"
    fi
done

if [ "$MODE" = "fuzz" ]; then
    echo "== differential fuzz soak =="
    # Two fixed seeds: deterministic in CI, still decorrelated runs.
    "$BUILD_DIR/tools/siopmp_fuzz" --cases 10000 --seed 1
    "$BUILD_DIR/tools/siopmp_fuzz" --cases 10000 --seed 20260806
    echo "run_bench: fuzz soak clean"
    exit 0
fi

echo "== tier-1 tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"
echo "== tier-1 tests, naive loop =="
# The same suite with fast-forward off: a counter counts authorize()
# calls, not polls, so both loops must pass every test (tests that
# count fast-forward events pin it on; the golden legs unset it).
SIOPMP_NO_FAST_FORWARD=1 ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -j"$(nproc)"
# gtest prints a test parameter it has no PrintTo for as raw bytes,
# and those bytes land in the ctest name. A type wider than 4 bytes
# ("12-byte object <...>") may carry padding and pointers, so the name
# changes from one discovery to the next; such a type must name
# itself. An enum (iopmp::ViolationPolicy: "4-byte object <01-00
# 00-00>") prints only its value and keeps its name.
if ctest --test-dir "$BUILD_DIR" -N |
        grep -E -- '([5-9]|[1-9][0-9]+)-byte object <'; then
    echo "run_bench: the ctest names above print a test parameter's" \
         "raw bytes; give its type a PrintTo" >&2
    exit 1
fi

# Schema of a sim_core_micro output ($1): every required key present,
# values parse as numbers, and the provenance header is filled in.
check_sim_core() {
    for key in \
        '"benchmark"' \
        '"commit"' \
        '"build_type"' \
        '"compiler"' \
        '"host_cores"' \
        '"iters"' \
        '"idle_heavy"' \
        '"saturated"' \
        '"saturated16"' \
        '"simulated_cycles"' \
        '"fast_forward_s_per_mcycle"' \
        '"naive_s_per_mcycle"' \
        '"idle_cycles_skipped"' \
        '"speedup"'; do
        grep -q "$key" "$1" || {
            echo "schema check FAILED: missing $key in $1" >&2
            exit 1
        }
    done

    if command -v python3 > /dev/null; then
        python3 - "$1" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["benchmark"] == "sim_core_micro"
# Provenance header: what produced the numbers below.
for k in ("commit", "build_type", "compiler"):
    assert isinstance(d[k], str) and d[k], k
assert isinstance(d["host_cores"], int) and d["host_cores"] > 0
assert isinstance(d["iters"], int) and d["iters"] > 0
for wl in ("idle_heavy", "saturated", "saturated16"):
    w = d[wl]
    assert isinstance(w["simulated_cycles"], int) and w["simulated_cycles"] > 0
    for k in ("fast_forward_s_per_mcycle", "naive_s_per_mcycle", "speedup"):
        assert isinstance(w[k], (int, float)), (wl, k)
    assert isinstance(w["idle_cycles_skipped"], int)
print("json schema OK: %s (%s, %s, %d cores; idle-heavy fast-forward "
      "%.1fx, %d of %d cycles skipped)" % (
          sys.argv[1], d["commit"], d["build_type"], d["host_cores"],
          d["idle_heavy"]["speedup"],
          d["idle_heavy"]["idle_cycles_skipped"],
          d["idle_heavy"]["simulated_cycles"]))
EOF
    else
        echo "json schema OK: $1 (grep-only: python3 unavailable)"
    fi
}

# Schema of a churn_fleet output ($1), with its acceptance gates.
check_churn() {
    for key in \
        '"benchmark"' \
        '"commit"' \
        '"build_type"' \
        '"compiler"' \
        '"host_cores"' \
        '"points"' \
        '"series"' \
        '"churn_per_sim_s"' \
        '"executed_cycles"' \
        '"check_p50"' \
        '"check_p99"' \
        '"cold_switch_p99"' \
        '"block_window_hist"' \
        '"cam_evictions"' \
        '"mounted_cold_flushes"' \
        '"invariant_violations"' \
        '"fingerprint"'; do
        grep -q "$key" "$1" || {
            echo "schema check FAILED: missing $key in $1" >&2
            exit 1
        }
    done

    if command -v python3 > /dev/null; then
        python3 - "$1" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["benchmark"] == "churn_fleet"
# Provenance header: what produced the numbers below.
for k in ("commit", "build_type", "compiler"):
    assert isinstance(d[k], str) and d[k], k
assert isinstance(d["host_cores"], int) and d["host_cores"] > 0
series = d["series"]
assert isinstance(d["points"], int) and d["points"] == len(series), d["points"]
assert len(series) >= 4, len(series)
for p in series:
    assert p["tenants"] > 0 and p["devices"] > 0, p
    # Acceptance: device population >= 4x (CAM rows + eSID slot) = 16.
    assert p["devices"] >= 16, p
    assert p["cycles"] > 0 and p["churn_per_sim_s"] > 0, p
    assert 0 < p["executed_cycles"] <= p["cycles"], p
    assert p["check_p99"] >= p["check_p50"] > 0, p
    assert p["invariant_violations"] == 0, p
    assert int(p["fingerprint"], 16) != 0, p
    hist = p["block_window_hist"]
    assert isinstance(hist, list) and sum(hist) == p["block_windows"], p
# Acceptance gate: the headline point sustains >= 1000 TEE
# create/destroy cycles per simulated second.
head = series[0]
assert head["churn_per_sim_s"] >= 1000.0, head
# The all-hot contention cell must actually evict live CAM entries.
assert any(p["cam_evictions"] > 0 for p in series), "no CAM churn"
assert any(p["sid_misses"] > 0 for p in series), "no cold misses"
print("churn json schema OK: %s (%s, %s, %d cores; headline %.0f TEE/s "
      "over %d points)" % (sys.argv[1], d["commit"], d["build_type"],
                           d["host_cores"], head["churn_per_sim_s"],
                           len(series)))
EOF
    else
        echo "churn json schema OK: $1 (grep-only: python3 unavailable)"
    fi
}

echo "== sim_core_micro (iters=$ITERS) =="
"$BUILD_DIR/bench/sim_core_micro" "$ITERS" "$OUT_JSON"

echo "== BENCH_sim_core.json schema check (smoke output, committed file) =="
check_sim_core "$OUT_JSON"
check_sim_core "$REPO_ROOT/BENCH_sim_core.json"

echo "== churn_fleet (BENCH_churn.json) =="
CHURN_JSON="$BUILD_DIR/BENCH_churn.json"
# The binary itself enforces the churn-rate and lifecycle gates
# (exits nonzero if the headline point sustains < 1000 TEE/s, a
# tenant does not complete or a lifecycle invariant is violated).
"$BUILD_DIR/bench/churn_fleet" "$CHURN_JSON"

echo "== BENCH_churn.json schema check (smoke output, committed file) =="
check_churn "$CHURN_JSON"
check_churn "$REPO_ROOT/BENCH_churn.json"

echo "== BENCH_pairs.json schema check =="
# Parent/change perfbench pairs, one record per tools/perf_pairs.py
# --out run; committed with the change they measure, not regenerated.
PAIRS_JSON="$REPO_ROOT/BENCH_pairs.json"
for key in \
    '"records"' \
    '"provenance"' \
    '"workload"' \
    '"seeds"' \
    '"pairs"' \
    '"seconds"' \
    '"metrics"' \
    '"parent_spread"' \
    '"identical_per_seed"' \
    '"claim"'; do
    grep -q "$key" "$PAIRS_JSON" || {
        echo "schema check FAILED: missing $key in $PAIRS_JSON" >&2
        exit 1
    }
done

if command -v python3 > /dev/null; then
    python3 - "$PAIRS_JSON" "$REPO_ROOT/BENCHMARK.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
bench = json.load(open(sys.argv[2]))
workloads = {w["name"] for w in bench["workloads"]}
records = d["records"]
assert isinstance(records, list) and records, "no records"
for r in records:
    for side in ("parent", "change"):
        p = r["provenance"][side]
        for k in ("commit", "build_type", "compiler"):
            assert isinstance(p[k], str) and p[k], (side, k)
        assert isinstance(p["nproc"], int) and p["nproc"] > 0, side
    assert r["workload"] in workloads, r["workload"]
    first, last = r["seeds"]
    assert isinstance(r["pairs"], int) and r["pairs"] == last - first + 1, r
    assert r["seconds"] > 0, r
    for name, m in r["metrics"].items():
        assert m["better"] in ("higher", "lower"), name
        assert m["bound"] > 0, name
        for side in ("parent", "change"):
            q = m[side]
            assert q["q1"] <= q["median"] <= q["q3"], (name, side)
        assert m["wins"] + m["ties"] + m["losses"] == r["pairs"], name
        assert m["parent_spread"] >= 0, name
    assert isinstance(r["failed"]["parent"], int), r["failed"]
    assert isinstance(r["failed"]["change"], int), r["failed"]
    assert isinstance(r["identical_per_seed"], bool), r
    assert r["claim"] is None or r["claim"] in r["metrics"], r["claim"]
print("pairs json schema OK (%d records: %s)" % (
    len(records), ", ".join(r["workload"] for r in records)))
EOF
else
    echo "pairs json schema OK (grep-only: python3 unavailable)"
fi

SCRATCH="$(mktemp -d /tmp/siopmp_bench.XXXXXX)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "== churn fast-forward differential (stats JSON) =="
# Parked checker stalls and the CPU's timed wake must not change a
# single result: the result line and the full stats dump must be
# byte-identical to the tick-every-cycle loop's.
"$BUILD_DIR/tools/siopmp-cli" churn --tenants 2000 \
    --stats-json "$SCRATCH/ff_on.json" > "$SCRATCH/ff_on.txt"
SIOPMP_NO_FAST_FORWARD=1 "$BUILD_DIR/tools/siopmp-cli" churn \
    --tenants 2000 --stats-json "$SCRATCH/ff_off.json" \
    > "$SCRATCH/ff_off.txt"
cmp "$SCRATCH/ff_on.txt" "$SCRATCH/ff_off.txt" &&
    cmp "$SCRATCH/ff_on.json" "$SCRATCH/ff_off.json" || {
    echo "churn differential FAILED: fast-forward changed the output" >&2
    exit 1
}
echo "churn differential OK: $(cut -c1-60 "$SCRATCH/ff_on.txt")..."

echo "== trace schema check (dma_attack_demo --trace) =="
TRACE_JSON="$SCRATCH/trace.json"
"$BUILD_DIR/examples/dma_attack_demo" "$TRACE_JSON" > /dev/null

if command -v python3 > /dev/null; then
    python3 - "$TRACE_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
evs = d["traceEvents"]
assert any(e.get("cat") == "bus" and e["ph"] == "b" for e in evs), "no bus spans"
assert any(e.get("name") == "verdict" for e in evs), "no checker verdicts"
assert any(e.get("name") == "violation" for e in evs), "no violation events"
assert any(e.get("name") == "block_window" for e in evs), "no blocking window"
assert any(e.get("cat") == "mem" for e in evs), "no memory service spans"
spans = {}
for e in evs:
    if e["ph"] in ("b", "e"):
        spans.setdefault((e.get("cat"), e["id"]), []).append(e["ph"])
assert spans and all(p.count("b") == p.count("e") for p in spans.values()), \
    "unbalanced async spans"
print("trace schema OK: %d events" % len(evs))
EOF
else
    for pat in '"ph":"b"' '"name":"verdict"' '"name":"violation"' \
               '"name":"block_window"' '"cat":"mem"'; do
        grep -q "$pat" "$TRACE_JSON" || {
            echo "trace schema FAILED: missing $pat" >&2
            exit 1
        }
    done
    echo "trace schema OK (grep-only: python3 unavailable)"
fi

echo "== perfbench: build, self-test, churn smoke =="
# The tier-1 build never compiles perfbench/src, and --self-test runs
# only the fuzz and soc_saturated16 workloads, so churn gets its own
# short run. perfbench/run.py builds into $CARGO_TARGET_DIR, here
# inside the build directory.
if command -v python3 > /dev/null; then
    PERFBENCH_TARGET="$(cd "$BUILD_DIR" && pwd)/perfbench"
    CARGO_TARGET_DIR="$PERFBENCH_TARGET" \
        python3 "$REPO_ROOT/perfbench/run.py" --self-test
    CARGO_TARGET_DIR="$PERFBENCH_TARGET" \
        python3 "$REPO_ROOT/perfbench/run.py" --workload churn --seed 1 \
        --seconds 2 --trace 0 > "$SCRATCH/perfbench_churn.txt"
    python3 - "$SCRATCH/perfbench_churn.txt" <<'EOF'
import json, sys
result = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert result["failed"] == 0 and result["correct"], result
print("perfbench churn OK: %d ops, none failed" % result["attempted"])
EOF
else
    echo "perfbench leg skipped: python3 unavailable"
fi

echo "== reach (informational) =="
# Which src/ functions no product run reaches; never fails the script.
"$REPO_ROOT/tools/reach.sh" ||
    echo "reach: did not complete (informational, not a failure)"

echo "run_bench: all checks passed"
