"""Host speed, measured with a fixed reference kernel.

On a shared host the cores slow down as a whole, by up to a factor of two,
in phases that last from seconds to minutes; process CPU time slows with
wall time, so neither can separate the program's speed from the host's.
The benchmark therefore times a fixed pure-Python kernel after every unit
and set-up sample of a run, and reports times in *reference seconds*:
measured seconds times REF_SECONDS over the kernel's mean time in the run.
On the host the baseline was measured on, at its usual speed, a reference
second is about one wall second; when the host runs at half speed, both
the kernel and the program take twice as long and the reference-second
figure stays put.

The kernel shares nothing with potts_hodge, so a change to the program
cannot move it: it is exact Fraction arithmetic of the kind the program
spends its time in (a subset-product pass, then Gaussian elimination of a
rational matrix).
"""
from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# one kernel run's time on the 2-core x86_64 baseline host, CPython 3.11,
# at that host's usual speed
REF_SECONDS = 0.004
# share of each measured interval spent timing the kernel after it
SHARE = 0.12


def _kernel():
    rng = random.Random(1811)
    n = 8
    w = [Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(n)]
    prod = [Fraction(1)] * (1 << n)
    strata = [Fraction(0)] * (n + 1)
    for mask in range(1, 1 << n):
        low = mask & -mask
        prod[mask] = prod[mask ^ low] * w[low.bit_length() - 1]
        strata[mask.bit_count()] += prod[mask]
    m = [[strata[(i + j) % (n + 1)] + (i == j) for j in range(n + 1)] for i in range(n + 1)]
    for i in range(n + 1):
        pivot = next(r for r in range(i, n + 1) if m[r][i] != 0)
        m[i], m[pivot] = m[pivot], m[i]
        for r in range(i + 1, n + 1):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return m[n][n]


def reference_seconds(interval_s):
    """Wall seconds one kernel run takes now: the mean over as many runs as
    fill SHARE of `interval_s`, the length of the measurement just taken."""
    gc.collect()  # so that no collection of the caller's garbage lands inside
    runs, start = 0, time.perf_counter()
    while True:
        _kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SHARE * interval_s:
            return elapsed / runs


def scale(ref_s):
    """Factor that turns measured seconds into reference seconds, given one
    kernel run's mean time `ref_s` over the measurements."""
    return REF_SECONDS / ref_s
