#!/usr/bin/env python3
"""Host-time benchmark of the sIOPMP simulator.

Run from the repository root:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

It builds perfbench/ (which compiles ../src with optimisation) into
$CARGO_TARGET_DIR/perfbench-<tree>, default .bench_build/perfbench-<tree>,
where <tree> is a hash of the checkout's path, then runs one workload
and relays the binary's output. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: every end-to-end metric of BENCHMARK.json with --trace 0, every
per-layer metric with --trace 1. Results and (traced runs) spans are
kept under the build directory in results/.

--self-test runs the two deliberately broken configurations (fuzz with
the lock-bypass fault, soc_saturated16 with an engine aimed outside its
window) and their clean counterparts, and exits 0 only if the broken
runs report failed ops and the clean ones report none.
"""

import argparse
import fcntl
import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("churn", "soc_saturated16", "fuzz")
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 150  # the binary's own time beyond --seconds


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the simulator and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id(root):
    """git commit when the checkout is a repository, plus a digest of
    the sources that were built."""
    commit = "none"
    if os.path.exists(os.path.join(root, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return "%s src-sha256:%s" % (commit, source_digest(root))


def build_dir_of(root):
    """Build directory of this checkout. Checkouts that share a target
    directory get one build directory each, so each times its own
    sources."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tree = hashlib.sha256(os.path.realpath(root).encode()).hexdigest()[:12]
    return os.path.join(root, target, "perfbench-" + tree)


def build(root, build_dir):
    """Configure (a no-op when nothing changed; CMake stops if the
    directory was configured from another source tree), then bring the
    binary up to date."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [["cmake", "-S", os.path.join(root, "perfbench"),
                  "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs]]
        for step in steps:
            try:
                proc = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if proc.returncode != 0:
                fail("build failed; see " + log_path)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, root, out_dir, args, timeout, inject=""):
    """Run the binary, with a self-test fault when `inject` is set;
    returns (provenance line, result line, result)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SIOPMP_")}  # no knob may steer a run
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(root), "--out", out_dir]
    if inject:
        cmd += ["--inject", inject]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("perfbench printed an unexpected result: " + lines[-1][:200])
    return lines[-2], lines[-1], result


def check_metrics(root, trace, result):
    expected = expected_metrics(root, trace)
    if expected is None:
        return
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units))


def compress_spans(out_dir, args):
    path = os.path.join(out_dir, "%s-seed%d-spans.csv"
                        % (args.workload, args.seed))
    if not os.path.exists(path):
        return
    with open(path, "rb") as src, \
            gzip.open(path + ".gz", "wb", compresslevel=1) as dst:
        shutil.copyfileobj(src, dst)
    os.remove(path)


def self_test(binary, root, out_dir):
    cases = [("fuzz", "lock-bypass", True), ("fuzz", "", False),
             ("soc_saturated16", "outside-window", True),
             ("soc_saturated16", "", False)]
    ok = True
    for workload, inject, broken in cases:
        args = argparse.Namespace(workload=workload, seed=1, seconds=2,
                                  trace=0)
        _, _, result = run_binary(binary, root, out_dir, args, timeout=170,
                                  inject=inject)
        good = (result["failed"] > 0) if broken else \
            (result["failed"] == 0 and result["correct"])
        ok &= good
        print("%-16s %-15s attempted %-8d failed %-8d %s"
              % (workload, inject or "(none)", result["attempted"],
                 result["failed"], "ok" if good else "UNEXPECTED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    build_dir = build_dir_of(root)
    binary = build(root, build_dir)
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)

    if args.self_test:
        sys.exit(self_test(binary, root, out_dir))

    provenance, line, result = run_binary(
        binary, root, out_dir, args, timeout=args.seconds + RUN_MARGIN_S)
    check_metrics(root, args.trace, result)
    if args.trace:
        compress_spans(out_dir, args)
    print(provenance)
    print(line)


if __name__ == "__main__":
    main()
