"""Workload definitions for the campaign benchmark.

A workload is one seeded campaign: the default corpus of matroids, built
through the package's public generate_corpus, plus a CampaignConfig.  The
benchmark seed is the campaign seed; the program sees nothing but the
corpus and the config.

This module must not import potts_hodge at import time: timed_setup()
measures that import as part of the set-up a CLI user pays on every run.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

STRATA_THEOREMS = ("deg2", "ulc", "mason", "simplification")


@dataclass(frozen=True)
class Workload:
    name: str
    theorems: tuple | None  # None: every theorem, as `potts-hodge verify` runs
    samples: int
    workers: int
    q_grid: tuple  # (num, den) pairs; empty: the package's default grid
    expected_checks: int
    small: bool = False  # reduced inputs for the self-test


def build_corpus(ph, workload):
    """The workload's matroids."""
    return ph.generate_corpus("uniform,n<=4;graphic,edges<=3" if workload.small else "default")


def campaign_config(ph, workload, seed, workers=None):
    kwargs = {} if workload.theorems is None else {"theorems": workload.theorems}
    return ph.CampaignConfig(
        seed=seed,
        samples=workload.samples,
        workers=workload.workers if workers is None else workers,
        corpus_label=workload.name,
        q_grid=tuple(ph.rat(num, den) for num, den in workload.q_grid),
        **kwargs,
    )


def timed_setup(workload, tracer_factory=None):
    """Import potts_hodge and build the corpus; returns (seconds, ph, corpus,
    tracer).  With a tracer_factory, the corpus is built under a tracer
    installed right after the import, so set-up layers get spans."""
    start = time.perf_counter()
    import potts_hodge as ph

    tracer = tracer_factory(ph) if tracer_factory else None
    if tracer is None:
        corpus = build_corpus(ph, workload)
    else:
        with tracer.installed():
            corpus = build_corpus(ph, workload)
    return time.perf_counter() - start, ph, corpus, tracer


# Expected check counts are properties of the corpus and config, not of the
# seed; they were counted at the commit that introduced the benchmark.
WORKLOADS = {
    "default-campaign": Workload("default-campaign", None, 1, 1, ((1, 2),), 1308),
    "strata-parallel": Workload("strata-parallel", STRATA_THEOREMS, 3, 2, (), 1308),
}

SMALL_EXPECTED_CHECKS = {"default-campaign": 192, "strata-parallel": 192}


def select(name, small=False):
    """The named workload, or its reduced self-test variant."""
    if not small:
        return WORKLOADS[name]
    return replace(WORKLOADS[name], small=True, expected_checks=SMALL_EXPECTED_CHECKS[name])
