"""Campaign benchmark for potts_hodge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.

--trace 0 measures the end-to-end metrics: set-up (import plus input
generation, the median of one in-process and three fresh-process samples),
then one warm-up unit and timed units, repeated while the next one should
end within S seconds of the start of the warm-up (at least one timed unit).
A unit is one run_campaign call plus the sorted-key JSON dump `potts-hodge
verify --json` prints; each starts after a full garbage collection, so it
does not pay for the previous unit's garbage.  Rates are medians over the
timed units; the warm-up unit is checked but not timed.  Times are in
reference seconds (see hostspeed.py): wall and CPU seconds scaled by the
host's speed over the run, which a fixed kernel timed after every unit and
set-up sample gives, so that the host's own changes of speed cancel.  The
wall-clock figures go to the environment line.

--trace 1 runs three rounds of one untraced unit (plus one at workers=1
for a multi-worker workload) and one traced unit at workers=1, and reports
per-layer self times (medians over the rounds) and counters.

Every unit is checked: the verdict total must equal the workload's expected
count with zero `fail`, and the report's sha256 must equal the pinned value
for the seed (perfbench/pins.json) or, for an unpinned seed, the run's
first report.  Any mismatch, or a raised exception, counts every check of
the run as failed.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The line before it stamps the environment.  Full results (and the
spans of a traced run) go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3  # fresh-interpreter set-up samples, after the in-process one
TRACE_ROUNDS = 3

import hostspeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, campaign_config, select, timed_setup  # noqa: E402

# name -> unit; the per-layer names are the traced layers (module names).
END_TO_END_UNITS = {
    "checks_per_s": "1/s",
    "setup_s": "s",
    "cpu_ms_per_check": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "potts.hessian.self_s": "s",
    "potts.hessian.calls": "count",
    "potts.gradient.self_s": "s",
    "potts.subsets_visited": "count",
    "potts.strata.self_s": "s",
    "potts.strata.calls": "count",
    "spectral.signature.self_s": "s",
    "spectral.signature.calls": "count",
    "spectral.signature.dim_sum": "count",
    "spectral.signature.max_entry_bits": "bits",
    "verify.check.self_s": "s",
    "verify.check.calls": "count",
    "scalars.json_s": "s",
    "verify.report_json_s": "s",
    "verify.campaign.self_s": "s",
    "sampling.self_s": "s",
    "verify.dispatch_overhead_s": "s",
    "corpus.generate_s": "s",
    "matroids.build_s": "s",
    "matroids.structure_s": "s",
    "trace.overhead_frac": "ratio",
}
# traced layers reported as self time, metric name -> layer
SELF_TIME_METRICS = {
    "potts.hessian.self_s": "potts.hessian",
    "potts.gradient.self_s": "potts.gradient",
    "potts.strata.self_s": "potts.strata",
    "spectral.signature.self_s": "spectral.signature",
    "verify.check.self_s": "verify.check",
    "scalars.json_s": "scalars.json",
    "verify.report_json_s": "verify.report_json",
    "verify.campaign.self_s": "verify.campaign",
    "sampling.self_s": "sampling",
    "corpus.generate_s": "corpus.generate",
    "matroids.build_s": "matroids.build",
    "matroids.structure_s": "matroids.structure",
}
COUNTER_METRICS = (
    "potts.hessian.calls",
    "potts.subsets_visited",
    "potts.strata.calls",
    "spectral.signature.calls",
    "spectral.signature.dim_sum",
    "spectral.signature.max_entry_bits",
    "verify.check.calls",
)


@dataclass(frozen=True)
class Unit:
    checks: int
    ok: bool
    digest: str | None
    campaign_s: float
    wall_s: float
    cpu_s: float


def _cpu_seconds():
    """CPU time of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_unit(ph, workload, corpus, seed, expected_digest, workers=None, tracer=None):
    """One campaign plus its JSON dump, checked against the expected verdict
    total and digest.  Returns a Unit; a raised exception gives ok=False."""
    config = campaign_config(ph, workload, seed, workers)
    span = tracer.span if tracer else nullcontext
    gc.collect()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        with span("verify.campaign"):
            report = ph.run_campaign(corpus, config)
        campaign_s = time.perf_counter() - start
        with span("verify.report_json"):
            text = json.dumps(report.to_json(), sort_keys=True, indent=2)
    except Exception:  # the program under test failed: count it, keep running
        traceback.print_exc()
        wall = time.perf_counter() - start
        return Unit(workload.expected_checks, False, None, wall, wall, _cpu_seconds() - cpu0)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    summary = report.summary
    verdicts = sum(summary[v] for v in ("pass", "fail", "vacuous", "not-applicable"))
    ok = (len(report.checks) == summary["total"] == verdicts == workload.expected_checks
          and summary["fail"] == 0
          and (expected_digest is None or digest == expected_digest))
    if not ok:
        print(f"unit failed its check: summary={summary} digest={digest} "
              f"expected={expected_digest}", file=sys.stderr)
    return Unit(len(report.checks), ok, digest, campaign_s, wall, cpu)


def _pinned_digest(workload, seed):
    if workload.small:
        return None
    pins = json.loads((BENCH_DIR / "pins.json").read_text(encoding="utf-8"))
    return pins.get(workload.name, {}).get(str(seed))


def _setup_probe(workload):
    """Set-up time in a fresh interpreter, as every CLI run pays it."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads as w; "
            "print(w.timed_setup(w.select(sys.argv[3], sys.argv[4] == '1'))[0])")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(BENCH_DIR), workload.name,
         str(int(workload.small))],
        capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1])


def measure(workload, seed, seconds, expected_digest):
    setup_s, ph, corpus, _ = timed_setup(workload)
    # the reference kernel is timed after the set-up, after every unit and
    # after every set-up probe; its mean over the run is the host's speed
    refs = [hostspeed.reference_seconds(setup_s)]
    start = time.perf_counter()
    warmup = run_unit(ph, workload, corpus, seed, expected_digest)
    expected_digest = expected_digest or warmup.digest
    refs.append(hostspeed.reference_seconds(warmup.wall_s))
    units = []
    # start another unit only if it should end within the budget
    while not units or time.perf_counter() - start + units[-1].wall_s <= seconds:
        units.append(run_unit(ph, workload, corpus, seed, expected_digest))
        refs.append(hostspeed.reference_seconds(units[-1].wall_s))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # probes run after the rusage reading so their memory is not counted
    setups = [setup_s]
    for _ in range(SETUP_PROBES):
        setups.append(_setup_probe(workload))
        refs.append(hostspeed.reference_seconds(setups[-1]))
    median = statistics.median
    wall_clock = {
        "reference_s": statistics.mean(refs),
        "checks_per_s": median(u.checks / u.wall_s for u in units),
        "setup_s": median(setups),
        "cpu_ms_per_check": median(1000.0 * u.cpu_s / u.checks for u in units),
    }
    k = hostspeed.scale(wall_clock["reference_s"])
    metrics = {
        "checks_per_s": wall_clock["checks_per_s"] / k,
        "setup_s": wall_clock["setup_s"] * k,
        "cpu_ms_per_check": wall_clock["cpu_ms_per_check"] * k,
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
    }
    details = {
        "wall_clock": wall_clock,
        "setup_samples_s": setups,
        "reference_samples_s": refs,
        "warmup_unit": asdict(warmup),
        "units": [asdict(u) for u in units],
        "timed_wall_s": sum(u.wall_s for u in units),
        "timed_cpu_s": sum(u.cpu_s for u in units),
        "peak_rss_self_kb": self_kb,
        "peak_rss_children_kb": child_kb,
    }
    return ph, [warmup] + units, metrics, details


def measure_traced(workload, seed, expected_digest, spans_path):
    _, ph, corpus, setup_tracer = timed_setup(workload, Tracer)
    untraced, untraced_w1, traced, tracers = [], [], [], []
    # alternate untraced and traced units so host-speed drift hits both alike
    for _ in range(TRACE_ROUNDS):
        unit = run_unit(ph, workload, corpus, seed, expected_digest)
        expected_digest = expected_digest or unit.digest
        untraced.append(unit)
        if workload.workers != 1:
            untraced_w1.append(run_unit(ph, workload, corpus, seed, expected_digest, workers=1))
        unit, tracer = traced_pass(ph, workload, corpus, seed, expected_digest, workers=1)
        traced.append(unit)
        tracers.append(tracer)
    counts = tracers[0].counters.snapshot()
    setup_self = setup_tracer.self_times()
    run_self = [t.self_times() for t in tracers]
    metrics = {name: setup_self[layer] + statistics.median(s[layer] for s in run_self)
               for name, layer in SELF_TIME_METRICS.items()}
    metrics.update((name, counts[name]) for name in COUNTER_METRICS)
    check_s = statistics.median(t.total_time("verify.check") for t in tracers)
    metrics["verify.dispatch_overhead_s"] = (
        statistics.median(u.campaign_s for u in untraced) - check_s / workload.workers)
    metrics["trace.overhead_frac"] = (statistics.median(u.wall_s for u in traced)
                                      / statistics.median(u.wall_s for u in untraced_w1 or untraced))
    tracers[0].write(spans_path)
    for tracer in [setup_tracer] + tracers:
        tracer.close()
    units = untraced + untraced_w1 + traced
    details = {"units": [asdict(u) for u in units], "counters": counts,
               "spans_file": str(spans_path.relative_to(ROOT))}
    return ph, units, {name: metrics[name] for name in PER_LAYER_UNITS}, details


def traced_pass(ph, workload, corpus, seed, expected_digest, workers):
    """One traced unit; returns (unit, tracer).  The tracer holds the spans
    and counters; close it when done."""
    tracer = Tracer(ph)
    with tracer.installed():
        unit = run_unit(ph, workload, corpus, seed, expected_digest, workers=workers, tracer=tracer)
    return unit, tracer


def environment(ph, workload):
    return {
        "backend": type(ph.rat(1)).__module__.split(".")[0],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workload.workers,
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs for the self-test; no pinned digests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "potts_hodge" / "__init__.py").is_file():
        print(f"cannot find the package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = select(args.workload, args.small)
    expected_digest = _pinned_digest(workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-small" if args.small else "")
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    if args.trace:
        ph, units, metrics, details = measure_traced(
            workload, args.seed, expected_digest, OUT_DIR / f"{stem}-spans.json")
        units_of = PER_LAYER_UNITS
    else:
        ph, units, metrics, details = measure(workload, args.seed, args.seconds, expected_digest)
        units_of = END_TO_END_UNITS
    env = environment(ph, workload)
    env.update(run_wall_s=time.perf_counter() - wall0, run_cpu_s=_cpu_seconds() - cpu0,
               units=len(units))
    if "wall_clock" in details:  # untraced: the metrics before host-speed scaling
        env["wall_clock"] = details["wall_clock"]
    attempted = sum(u.checks for u in units)
    failed = 0 if all(u.ok for u in units) else attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"workload": workload.name, "seed": args.seed, "env": env,
                    "result": result, "details": details}, indent=2, default=str) + "\n",
        encoding="utf-8")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
