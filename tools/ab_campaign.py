"""Interleaved A/B CPU comparison of one benchmark campaign on two trees.

    python3 tools/ab_campaign.py PARENT_TREE CHANGE_TREE [--workload NAME] [--rounds N]
                                 [--workers N] [--seed N]

Each tree is a checkout of this repository.  Its src/potts_hodge is
imported under its own package name (ab_parent, ab_change) in this one
interpreter, so both run on the same host state, with the same warm
caches and the same imported stdlib.  Each tree builds the workload's
corpus (perfbench/workloads.py of this checkout) with its own package;
then every round runs the workload's campaign at campaign seed --seed
(default 0) once per tree at --workers (default: the workload's own
worker count, as the benchmark runs it: 2 for strata-parallel, 1 for
default-campaign), flipping which tree goes first each round, and times
run_campaign after a full garbage collection, in CPU seconds of this
process plus the child processes it reaped (RUSAGE_CHILDREN), and in
wall seconds.  The report's sorted-key JSON dump is hashed outside the
timed region.

Printed: one line per round with the CPU seconds of each tree and the
CPU ratio change/parent, then the median ratio and its quartiles (the
quartiles from two rounds on).  Above one worker, each round line also
gives the wall seconds and their ratio, and the summary gives the median
wall ratio and, for each tree, the median CPU and wall seconds and the
median CPU / wall of a run: about 1 when the processes took turns on one
CPU, near the worker count when they ran side by side.  Last, after the
timed rounds, each tree runs one more untimed campaign under tracemalloc,
and the report memory line gives, per tree, the traced memory with that
report still alive, after a full garbage collection, minus the traced
memory before the campaign: the memory the report holds in this process
(a child's allocations are not traced, but the records it writes back
are rebuilt here).  Exit status 1
when any report's sha256 differs between the trees (or between rounds),
else 0.

Why not perfbench/run.py pairs: a pair runs the two trees in separate
processes at separate times, so host load that changes between them
lands on one side only, and every timed unit includes the JSON dump the
CLI prints.  Interleaving in one process cancels most of that drift.
Stdlib only.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, build_corpus, campaign_config  # noqa: E402


def load_package(tree, name):
    """The tree's src/potts_hodge, imported as the package `name`."""
    package_dir = Path(tree).resolve() / "src" / "potts_hodge"
    init = package_dir / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no package sources at {package_dir}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cpu_seconds():
    """CPU seconds of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_once(ph, corpus, config):
    """(CPU seconds, wall seconds of run_campaign, sha256 of the report's
    JSON dump).  run_campaign joins its child processes, so they are
    reaped and counted before it returns."""
    gc.collect()
    cpu, wall = cpu_seconds(), time.perf_counter()
    report = ph.run_campaign(corpus, config)
    cpu, wall = cpu_seconds() - cpu, time.perf_counter() - wall
    text = json.dumps(report.to_json(), sort_keys=True, indent=2)
    return cpu, wall, hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_megabytes(ph, corpus, config):
    """MB that tracemalloc traces as held once run_campaign has returned,
    with its report still alive, over what it traced before the call."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = ph.run_campaign(corpus, config)
        # a full collection also empties the interpreter's free lists,
        # which would otherwise count blocks the campaign freed
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        del report  # alive until measured
    finally:
        tracemalloc.stop()
    return held / 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="default-campaign")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--workers", type=int, default=None,
                        help="campaign worker processes for both trees (default: the "
                             "workload's own count)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed for both trees (default 0)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    workload = WORKLOADS[args.workload]
    workers = workload.workers if args.workers is None else args.workers
    if workers < 1:
        parser.error("--workers must be at least 1")
    sides = []
    for tree, name in ((args.parent, "ab_parent"), (args.change, "ab_change")):
        ph = load_package(tree, name)
        sides.append((ph, build_corpus(ph, workload), campaign_config(ph, workload, args.seed, workers=workers)))
    # one untimed warm-up per tree; its digests are the reference
    digests = {run_once(*side)[2] for side in sides}
    cpus, walls = [], []
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        cpu, wall = [0.0, 0.0], [0.0, 0.0]
        for i in order:
            cpu[i], wall[i], digest = run_once(*sides[i])
            digests.add(digest)
        cpus.append(cpu)
        walls.append(wall)
        first = "parent" if order[0] == 0 else "change"
        line = (f"round {r + 1:2d} ({first} first): parent {cpu[0]:.3f} s, "
                f"change {cpu[1]:.3f} s, ratio {cpu[1] / cpu[0]:.3f}")
        if workers > 1:
            line += (f"; wall parent {wall[0]:.3f} s, change {wall[1]:.3f} s, "
                     f"ratio {wall[1] / wall[0]:.3f}")
        print(line)
    for kind, times in (("CPU", cpus), ("wall", walls))[:1 if workers == 1 else 2]:
        ratios = [t[1] / t[0] for t in times]
        line = f"{args.workload}: {kind} ratio change/parent median {statistics.median(ratios):.3f}"
        if args.rounds >= 2:  # quartiles need two ratios
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            line += f", quartiles {q1:.3f}-{q3:.3f}"
        print(f"{line} over {args.rounds} rounds")
    if workers > 1:
        print(f"{args.workload} at workers={workers}: median per run, " + ", ".join(
            f"{name} CPU {statistics.median(c[i] for c in cpus):.3f} s "
            f"wall {statistics.median(w[i] for w in walls):.3f} s "
            f"CPU/wall {statistics.median(c[i] / w[i] for c, w in zip(cpus, walls)):.2f}"
            for i, name in enumerate(("parent", "change"))))
    print(f"{args.workload}: report memory " + ", ".join(
        f"{name} {report_megabytes(*side):.2f} MB"
        for name, side in zip(("parent", "change"), sides)))
    if len(digests) != 1:
        print(f"report sha256 differs: {sorted(digests)}", file=sys.stderr)
        return 1
    print(f"reports identical: sha256 {digests.pop()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
