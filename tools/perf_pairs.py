#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs, summarised against
BENCHMARK.json.

    python3 tools/perf_pairs.py --parent DIR --change DIR --workload W \\
        --pairs N --seconds S --seed K [--out BENCH_pairs.json]
    python3 tools/perf_pairs.py --parent DIR --change DIR --workload W \\
        --traced --seconds S --seed K

Pair i runs `python3 perfbench/run.py --workload W --seed K+i
--seconds S --trace 0` once in each checkout. The tree that goes first
alternates from pair to pair, because host speed drifts over minutes.
run.py builds each checkout into its own directory.

Every run is printed as it finishes. Then, for each end-to-end metric
of the parent's BENCHMARK.json, the summary gives:
- the parent's and the change's median and quartiles, and their ratio;
- the change's wins, ties and losses over the pairs, by the metric's
  direction;
- the parent's quartile spread (quartile distance over the median)
  against the metric's bound;
- REGRESSION when the change's median is worse than the parent's by
  more than the bound.

Per seed, it also checks that both runs report failed == 0 and the
same counted-repetition fingerprints and sim_* values.

The two checkouts' real paths must have the same length (exit 2
otherwise): source paths reach the binaries through __FILE__, and a
longer path shifts the layout of otherwise identical code.

--out FILE appends the pairs as one record to FILE's "records" list
(the file is created when missing): provenance (the parent's and the
change's commit and source digest, build type, compiler, host cores),
the workload, seeds and run length, and per end-to-end metric the
medians, quartiles, ratio, wins/ties/losses and parent spread, plus
the failed-op count, whether fingerprints and sim_* values matched, and
the claim (null: pairs that claim no gain). The exit status
is 1 when a run failed ops or a seed's fingerprints or sim_* values
differ, 2 when a run could not be made or the checkout paths differ
in length, and 0 otherwise. perfbench/ and
BENCHMARK.json are only read.

--traced makes one `--trace 1` run per tree at seed K instead, and
prints every per-layer metric of the two side by side, with the
change/parent ratio. Host-time metrics (_ns and _us timings, their
sample counts and tails, *.host_share, self.* and trace.*) may differ;
any other metric that differs is flagged DIFFERS, and the exit status
is then 1. This shows in which layer a saving appears, and that the
simulated counts underneath it did not move.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def fail(message):
    print("perf_pairs: " + message, file=sys.stderr)
    sys.exit(2)


def run(tree, args, seed, trace=0):
    """One perfbench run in `tree`; returns (provenance, result) as
    printed by run.py's last two lines."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        fail("%s: run.py exited with %d" % (tree, proc.returncode))
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


# A metric measured in host time: an _ns or _us timing (with its sample
# count and tail), a host-time share, a self-time share or the tracer's
# own cost.
HOST_TIME = re.compile(r"(^|[._])(ns|us)([._]|$)")


def host_time(name):
    return (HOST_TIME.search(name) is not None or
            name.endswith(".host_share") or
            name.startswith(("self.", "trace.")))


def traced(args, trees):
    """One traced run per tree; print the per-layer metrics side by
    side and flag every non-host-time metric that differs."""
    metrics, failed = {}, []
    for side in ("parent", "change"):
        _, result = run(trees[side], args, args.seed, trace=1)
        metrics[side] = {n: m["value"] for n, m in result["metrics"].items()}
        if result["failed"] != 0 or not result["correct"]:
            failed.append("%s run failed %d of %d ops"
                          % (side, result["failed"], result["attempted"]))
    print("%s, traced, seed %d, %d s" % (args.workload, args.seed,
                                         args.seconds))
    print("%-40s %16s %16s %9s" % ("metric", "parent", "change", "ratio"))
    differs = []
    for name in sorted(set(metrics["parent"]) | set(metrics["change"])):
        p, c = metrics["parent"].get(name), metrics["change"].get(name)
        ratio = "%9.3f" % (c / p) if p and c is not None else "%9s" % "-"
        mark = ""
        if p != c:
            mark = "  host time" if host_time(name) else "  DIFFERS"
            if not host_time(name):
                differs.append(name)
        print("%-40s %16.6g %16.6g %s%s" % (
            name, float("nan") if p is None else p,
            float("nan") if c is None else c, ratio, mark))
    for problem in failed:
        print("FAIL: " + problem)
    if differs:
        print("FAIL: %d non-host-time metrics differ: %s"
              % (len(differs), ", ".join(differs)))
    else:
        print("every metric other than host time is identical")
    sys.exit(1 if failed or differs else 0)


def append_record(path, record):
    """Append record to the "records" list of the JSON file at path,
    creating the file when it is missing."""
    document = {"records": []}
    if os.path.exists(path):
        with open(path) as f:
            document = json.load(f)
    document["records"].append(record)
    with open(path, "w") as f:
        json.dump(document, f, indent=1)
        f.write("\n")


def quartiles(values):
    """(q1, median, q3) by linear interpolation."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="pair i runs at seed SEED+i")
    parser.add_argument("--traced", action="store_true",
                        help="one traced run per tree at SEED; compare "
                             "the per-layer metrics")
    parser.add_argument("--out", help="append the pairs as one record to "
                                      "this JSON file")
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    # SIOPMP_ASSERT's messages carry __FILE__, so a checkout's path
    # length shifts the binary's data layout, and with it the host time
    # of identical code.
    real = {side: os.path.realpath(tree) for side, tree in trees.items()}
    if len(real["parent"]) != len(real["change"]):
        fail("checkout paths differ in length (parent %s, %d characters; "
             "change %s, %d): check the trees out at paths of equal "
             "length" % (real["parent"], len(real["parent"]),
                         real["change"], len(real["change"])))
    if args.traced:
        traced(args, trees)
    if args.pairs is None or args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(trees["parent"], "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    names = [m["name"] for m in end_to_end]

    values = {side: {name: [] for name in names} for side in trees}
    provenances, failed_ops = {}, {side: 0 for side in trees}
    identical = True
    problems = []
    print("%-4s %-6s %-6s %6s  %s" % ("pair", "seed", "tree", "failed",
                                      "  ".join(names)))
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        seen = {}
        for side in order:
            provenance, result = run(trees[side], args, seed)
            provenances[side] = provenance
            failed_ops[side] += result["failed"]
            metrics = {n: result["metrics"][n]["value"] for n in names}
            for name in names:
                values[side][name].append(metrics[name])
            seen[side] = (provenance["fingerprints"],
                          {n: v for n, v in metrics.items()
                           if n.startswith("sim_")})
            print("%-4d %-6d %-6s %6d  %s" % (
                i, seed, side, result["failed"],
                "  ".join("%.6g" % metrics[n] for n in names)), flush=True)
            if result["failed"] != 0 or not result["correct"]:
                problems.append("seed %d: %s run failed %d of %d ops"
                                % (seed, side, result["failed"],
                                   result["attempted"]))
        if seen["parent"] != seen["change"]:
            identical = False
        if seen["parent"][0] != seen["change"][0]:
            problems.append("seed %d: counted fingerprints differ" % seed)
        if seen["parent"][1] != seen["change"][1]:
            problems.append("seed %d: sim_* values differ: parent %s, "
                            "change %s" % (seed, seen["parent"][1],
                                           seen["change"][1]))

    print()
    print("%s, %d pairs of %d s, seeds %d-%d" % (
        args.workload, args.pairs, args.seconds, args.seed,
        args.seed + args.pairs - 1))
    summary = {}
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        higher = metric["better"] == "higher"
        parent, change = values["parent"][name], values["change"][name]
        pq, cq = quartiles(parent), quartiles(change)
        wins = ties = losses = 0
        for p, c in zip(parent, change):
            if c == p:
                ties += 1
            elif (c > p) == higher:
                wins += 1
            else:
                losses += 1
        spread = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        worse = (1 - ratio) if higher else (ratio - 1)
        summary[name] = {
            "better": metric["better"], "bound": bound,
            "parent": {"q1": pq[0], "median": pq[1], "q3": pq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "ratio": ratio, "wins": wins, "ties": ties, "losses": losses,
            "parent_spread": spread}
        print("  %-21s parent %.6g [%.6g-%.6g]  change %.6g [%.6g-%.6g]  "
              "x%.3f  wins %d ties %d losses %d  parent spread %.3f "
              "(bound %.2f%s)%s" % (
                  name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], ratio,
                  wins, ties, losses, spread, bound,
                  ", TOO WIDE" if spread > bound else "",
                  "  REGRESSION" if worse > bound else ""))
    for problem in problems:
        print("FAIL: " + problem)
    if not problems:
        print("failed 0 in every run; fingerprints and sim_* values "
              "identical per seed")
    if args.out:
        append_record(args.out, {
            "provenance": {
                side: {k: provenances[side][k]
                       for k in ("commit", "build_type", "compiler",
                                 "nproc")}
                for side in trees},
            "workload": args.workload,
            "seeds": [args.seed, args.seed + args.pairs - 1],
            "pairs": args.pairs,
            "seconds": args.seconds,
            "metrics": summary,
            "failed": failed_ops,
            "identical_per_seed": identical,
            "claim": None,
        })
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
