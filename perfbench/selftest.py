"""Self-test of the campaign benchmark on its reduced (--small) inputs.

    python3 perfbench/selftest.py

From the root of a checkout.  It checks that
  - every workload's untraced run prints each end-to-end metric of
    BENCHMARK.json, and its traced run each per-layer metric, with the
    declared units, and that both runs pass their correctness gate;
  - the computed counters repeat exactly across two traced runs of one seed;
  - strata-parallel's counters are the same at workers=1 and workers=2.
Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH_DIR, COUNTER_METRICS, ROOT, SRC, traced_pass
from workloads import WORKLOADS, select, timed_setup

SEED = 7


def run_bench(name, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--small", "--workload", name,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for name in WORKLOADS:
        results = {0: run_bench(name, 0), 1: run_bench(name, 1)}
        repeat = run_bench(name, 1)
        for trace, result in results.items():
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == declared[trace], f"{name} trace={trace}: metrics and units match BENCHMARK.json")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={trace}: correctness gate passes")
        first = {k: results[1]["metrics"][k]["value"] for k in COUNTER_METRICS}
        second = {k: repeat["metrics"][k]["value"] for k in COUNTER_METRICS}
        check(first == second, f"{name}: counters repeat across two traced runs of seed {SEED}")

    sys.path.insert(0, str(SRC))
    workload = select("strata-parallel", small=True)
    _, ph, corpus, _ = timed_setup(workload)
    counts = {}
    for workers in (1, 2):
        unit, tracer = traced_pass(ph, workload, corpus, SEED, None, workers)
        counts[workers] = tracer.counters.snapshot()
        tracer.close()
        check(unit.ok, f"strata-parallel workers={workers}: correctness gate passes")
    check(counts[1] == counts[2], "strata-parallel: counters equal at workers=1 and workers=2")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
