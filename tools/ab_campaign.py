"""Interleaved A/B CPU comparison of one benchmark campaign on two trees.

    python3 tools/ab_campaign.py PARENT_TREE CHANGE_TREE [--workload NAME] [--rounds N]

Each tree is a checkout of this repository.  Its src/potts_hodge is
imported under its own package name (ab_parent, ab_change) in this one
interpreter, so both run on the same host state, with the same warm
caches and the same imported stdlib.  Each tree builds the workload's
corpus (perfbench/workloads.py of this checkout) with its own package;
then every round runs the workload's campaign once per tree at
workers=1, flipping which tree goes first each round, and times
run_campaign in process CPU seconds after a full garbage collection.
The report's sorted-key JSON dump is hashed outside the timed region.

Printed: one line per round with the CPU ratio change/parent, then the
median ratio and its quartiles.  Exit status 1 when any report's sha256
differs between the trees (or between rounds), else 0.

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
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, build_corpus, campaign_config  # noqa: E402

SEED = 0


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


def run_once(ph, corpus, config):
    """(CPU seconds of run_campaign, sha256 of the report's JSON dump)."""
    gc.collect()
    start = time.process_time()
    report = ph.run_campaign(corpus, config)
    cpu = time.process_time() - start
    text = json.dumps(report.to_json(), sort_keys=True, indent=2)
    return cpu, hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="default-campaign")
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 (quartiles need two ratios)")
    workload = WORKLOADS[args.workload]
    sides = []
    for tree, name in ((args.parent, "ab_parent"), (args.change, "ab_change")):
        ph = load_package(tree, name)
        sides.append((ph, build_corpus(ph, workload), campaign_config(ph, workload, SEED, workers=1)))
    # one untimed warm-up per tree; its digests are the reference
    digests = {run_once(*side)[1] for side in sides}
    ratios = []
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        cpu = [0.0, 0.0]
        for i in order:
            cpu[i], digest = run_once(*sides[i])
            digests.add(digest)
        ratios.append(cpu[1] / cpu[0])
        first = "parent" if order[0] == 0 else "change"
        print(f"round {r + 1:2d} ({first} first): parent {cpu[0]:.3f} s, "
              f"change {cpu[1]:.3f} s, ratio {ratios[-1]:.3f}")
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{args.workload}: CPU ratio change/parent median {median:.3f}, "
          f"quartiles {q1:.3f}-{q3:.3f} over {args.rounds} rounds")
    if len(digests) != 1:
        print(f"report sha256 differs: {sorted(digests)}", file=sys.stderr)
        return 1
    print(f"reports identical: sha256 {digests.pop()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
