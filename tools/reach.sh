#!/usr/bin/env bash
# Reach: which src/ functions does no product run execute?
#
# Usage: tools/reach.sh [build-dir] [jobs]
#
# Configures a Debug --coverage -O0 tree (default build-reach/) and
# builds everything. Pass 1 runs the product set:
#   - the 15 paper benches (tables, figures, ablations);
#   - the 4 examples and churn_fleet (output to a temporary path);
#   - siopmp-cli: the six golden argument sets, latency, network,
#     memcached, hotcold and freq, plus a bandwidth and a churn run
#     with --stats-json and --trace-out;
#   - siopmp_fuzz: a 2,000-case campaign and the three --inject
#     campaigns;
#   - sim_core_micro 4.
# It then aggregates `gcov --json-format` per (source file, demangled
# function name) across every product translation unit and prints the
# src/ functions that some product unit emits but no product ran. A
# unit that names a repository source which no longer exists (the
# notes of a deleted file, left in an incremental tree) is skipped, so
# an incremental run prints what a fresh build directory would.
#
# Pass 2 deletes the .gcda files, runs every tests/test_* binary and
# prints the src/ functions the tests run that no product translation
# unit even emits (header-inline functions only tests instantiate).
#
# perfbench/ is not in the product set: it builds as its own package
# (perfbench/CMakeLists.txt), outside this tree.
#
# The script is informational: it exits 0 whatever the products print
# or return (the --inject campaigns exit 1 by design). It fails only
# when the tree cannot be configured or built.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-reach}"
JOBS="${2:-$(nproc)}"

mkdir -p "$BUILD_DIR"
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"

echo "== configure + build (Debug, --coverage -O0) =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" > /dev/null

SCRATCH="$(mktemp -d /tmp/siopmp_reach.XXXXXX)"
trap 'rm -rf "$SCRATCH"' EXIT

clear_counts() {
    find "$BUILD_DIR" -name '*.gcda' -delete
}

# Run one product; its exit status is reported, never fatal.
run() {
    local status=0
    env -u SIOPMP_NO_FAST_FORWARD "$@" > /dev/null 2>&1 || status=$?
    [ "$status" -eq 0 ] || echo "  (exit $status) ${*#$BUILD_DIR/}"
}

# Aggregate gcov over the .gcno files under the given object
# directories; write {"file|function": count} to $1.
collect() {
    local out="$1"
    shift
    python3 - "$BUILD_DIR" "$REPO_ROOT" "$out" "$@" <<'EOF'
import json, os, subprocess, sys
build, root, out, dirs = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
src = os.path.join(root, "src") + os.sep
counts = {}
for d in dirs:
    for dirpath, _, files in os.walk(os.path.join(build, d)):
        for name in files:
            if not name.endswith(".gcno"):
                continue
            proc = subprocess.run(
                ["gcov", "--json-format", "--stdout", "--demangled-names",
                 "-o", dirpath, os.path.join(dirpath, name)],
                cwd=dirpath, capture_output=True, text=True)
            for line in proc.stdout.splitlines():
                if not line.startswith("{"):
                    continue
                files = json.loads(line)["files"]
                paths = [os.path.normpath(os.path.join(dirpath, f["file"]))
                         for f in files]
                # The notes of a deleted source outlive it in an
                # incremental tree; all its functions would read unrun.
                if any(p.startswith(root + os.sep) and not os.path.exists(p)
                       for p in paths):
                    continue
                for f, path in zip(files, paths):
                    if not path.startswith(src):
                        continue
                    rel = os.path.relpath(path, root)
                    for fn in f["functions"]:
                        key = rel + "|" + fn["demangled_name"]
                        counts[key] = counts.get(key, 0) + \
                            fn["execution_count"]
with open(out, "w") as f:
    json.dump(counts, f)
EOF
}

B="$BUILD_DIR"
CLI="$B/tools/siopmp-cli"
FUZZ="$B/tools/siopmp_fuzz"

echo "== pass 1: product runs =="
clear_counts
for bench in table1_comparison table2_config fig10_clock_frequency \
    fig11_pipeline_latency fig12_bandwidth fig13_modification \
    fig14_resources fig15_network fig15b_network_cycle fig16_memcached \
    fig17_coldswitch ablation_tree_arity ablation_topology \
    ablation_violation ablation_scatter_gather; do
    run "$B/bench/$bench"
done
for example in quickstart secure_nic multi_tenant dma_attack_demo; do
    run "$B/examples/$example"
done
run "$B/bench/churn_fleet" "$SCRATCH/churn.json"
run "$CLI" bandwidth --scenario rr
run "$CLI" bandwidth --scenario rw
run "$CLI" bandwidth --scenario ww
run "$CLI" latency --bursts 64 --write --violating
run "$CLI" latency --bursts 64 --violating --policy mask
run "$CLI" churn --tenants 2000
run "$CLI" latency
run "$CLI" network
run "$CLI" memcached
run "$CLI" hotcold
run "$CLI" freq
run "$CLI" bandwidth --scenario rw --stats-json "$SCRATCH/bw.json" \
    --trace-out "$SCRATCH/bw.trace.json"
run "$CLI" churn --tenants 400 --stats-json "$SCRATCH/churn.stats.json" \
    --trace-out "$SCRATCH/churn.trace.json"
run "$FUZZ" --cases 2000
for injection in lock-bypass block-hole unbind-drop; do
    run "$FUZZ" --cases 200 --inject "$injection"
done
run "$B/bench/sim_core_micro" 4 "$SCRATCH/sim_core.json"
collect "$SCRATCH/product.json" src bench examples tools

echo "== pass 2: test runs =="
clear_counts
for test in "$B"/tests/test_*; do
    [ -x "$test" ] || continue
    run "$test"
done
collect "$SCRATCH/tests.json" src tests

python3 - "$SCRATCH/product.json" "$SCRATCH/tests.json" <<'EOF'
import json, sys
product = json.load(open(sys.argv[1]))
tests = json.load(open(sys.argv[2]))
unrun = sorted(k for k, n in product.items() if n == 0)
test_only = sorted(k for k, n in tests.items()
                   if n > 0 and k not in product)
print("src/ functions emitted by a product unit: %d; no product ran %d:"
      % (len(product), len(unrun)))
for key in unrun:
    file, name = key.split("|", 1)
    reached = " [tests]" if tests.get(key, 0) > 0 else ""
    print("  %s: %s%s" % (file, name, reached))
print("src/ functions only the tests run (no product unit emits them): %d"
      % len(test_only))
for key in test_only:
    file, name = key.split("|", 1)
    print("  %s: %s" % (file, name))
EOF
clear_counts
echo "reach: done (informational)"
