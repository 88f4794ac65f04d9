#!/usr/bin/env python3
"""Statistical program-counter profile of a command, by function.

    python3 tools/pc_sample.py COMMAND [ARGS...]

A SIGPROF timer (ITIMER_PROF, armed for every millisecond of the
process's CPU time; the kernel fires it at its own tick, so 4 ms on a
250-Hz kernel) interrupts the command, and the handler records the
program counter it interrupted. A small library, compiled here with
the system C compiler and preloaded into the command, arms the timer
when it loads and, at exit, writes the samples and the process's
executable mappings to a file in a scratch directory. Each sample is
charged to the function whose symbol (`nm`) covers its address. Two
tables follow, by class or namespace (the sum of its functions) and by
function, each row with its samples, share and the sampling error of
the share (one standard deviation, sqrt(p(1-p)/n)).

Unlike gprof's -pg, nothing is added to the profiled code, so a tiny
function costs what it costs in the Release binary; time spent inside
an inlined function is charged to its caller. x86-64 Linux only; the
command must exit through exit() (not a signal) for the samples to be
written. Example, on the benchmark's own binary:

    python3 tools/pc_sample.py .bench_build/perfbench-*/perfbench \\
        --workload soc_saturated16 --seed 1140 --seconds 20 --trace 0
"""

import bisect
import collections
import math
import os
import resource
import subprocess
import sys
import tempfile

SAMPLER = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static void *pcs[MAX_SAMPLES];
static volatile size_t samples;

static void
on_prof(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = (const ucontext_t *)context;
    if (samples < MAX_SAMPLES)
        pcs[samples++] = (void *)uc->uc_mcontext.gregs[REG_RIP];
}

static void
dump(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64];
    snprintf(path, sizeof path, "pc_sample.%d", (int)getpid());
    FILE *out = fopen(path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (out == NULL || maps == NULL)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL)
        fprintf(out, "map %s", line);
    fclose(maps);
    for (size_t i = 0; i < samples; ++i)
        fprintf(out, "pc %lx\n", (unsigned long)pcs[i]);
    fclose(out);
}

__attribute__((constructor)) static void
start(void)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    atexit(dump);
}
"""


def build_sampler(scratch):
    source = os.path.join(scratch, "sampler.c")
    library = os.path.join(scratch, "sampler.so")
    with open(source, "w") as f:
        f.write(SAMPLER)
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", library, source],
                   check=True)
    return library


class Image:
    """Text symbols of one mapped ELF file, by address."""

    def __init__(self, path):
        with open(path, "rb") as f:
            header = f.read(18)
        # e_type 3 (ET_DYN): addresses are relative to the load base.
        self.relocated = int.from_bytes(header[16:18], "little") == 3
        out = subprocess.run(["nm", "-C", "-S", "--defined-only", "-n",
                              path], capture_output=True, text=True).stdout
        self.starts, self.symbols = [], []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "tTwW":
                self.starts.append(int(parts[0], 16))
                self.symbols.append((int(parts[1], 16), parts[3]))

    def name(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i >= 0 and addr < self.starts[i] + self.symbols[i][0]:
            return self.symbols[i][1]
        return None


def symbolize(dump_path):
    """Sample counts by function name."""
    maps, pcs = [], []
    with open(dump_path) as f:
        for line in f:
            kind, rest = line.split(" ", 1)
            if kind == "pc":
                pcs.append(int(rest, 16))
                continue
            fields = rest.split()
            if len(fields) < 6 or not fields[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            maps.append((lo, hi, int(fields[2], 16), fields[5],
                         "x" in fields[1]))
    base = {}
    for lo, _, offset, path, _ in maps:
        if offset == 0 and path not in base:
            base[path] = lo
    images, counts = {}, collections.Counter()
    for pc in pcs:
        name = "[unknown]"
        for lo, hi, _, path, executable in maps:
            if executable and lo <= pc < hi:
                if path not in images:
                    images[path] = Image(path)
                image = images[path]
                addr = pc - base.get(path, 0) if image.relocated else pc
                name = image.name(addr) or "[%s]" % os.path.basename(path)
                break
        counts[name] += 1
    return counts


def owner(name):
    """Class or namespace of a demangled function name (a template
    function's return type, before the name, is dropped)."""
    head = name.split("(", 1)[0]
    depth, start, cut = 0, 0, -1
    for i, c in enumerate(head):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0 and not head[:i].endswith("operator"):
            start, cut = i + 1, -1
        elif c == ":" and depth == 0 and head[i:i + 2] == "::":
            cut = i
    return head[start:cut] if cut > start else head[start:]


def table(title, counts, rows):
    total = sum(counts.values())
    print("\n%8s %7s %6s  %s" % ("samples", "share", "+-", title))
    for name, n in counts.most_common(rows):
        p = n / total
        print("%8d %6.2f%% %5.2f%%  %s" % (
            n, 100 * p, 100 * math.sqrt(p * (1 - p) / total), name))


def main():
    command = sys.argv[1:]
    if not command or command[0].startswith("-"):
        sys.exit("usage: pc_sample.py COMMAND [ARGS...]")
    command[0] = os.path.abspath(command[0])
    with tempfile.TemporaryDirectory(prefix="pc_sample.") as scratch:
        env = dict(os.environ, LD_PRELOAD=build_sampler(scratch))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(command, cwd=scratch, env=env)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        dumps = [n for n in os.listdir(scratch) if n.startswith("pc_sample.")]
        if proc.returncode != 0 or len(dumps) != 1:
            sys.exit("pc_sample: the command exited with %d and left %d "
                     "sample files" % (proc.returncode, len(dumps)))
        counts = symbolize(os.path.join(scratch, dumps[0]))
    classes = collections.Counter()
    for name, n in counts.items():
        classes[owner(name)] += n
    total = sum(counts.values())
    cpu_s = (after.ru_utime + after.ru_stime -
             before.ru_utime - before.ru_stime)
    print("%d samples over %.1f s of CPU time (%.2f ms each)" % (
        total, cpu_s, 1e3 * cpu_s / max(total, 1)))
    table("class or namespace", classes, 30)
    table("function", counts, 40)


if __name__ == "__main__":
    main()
