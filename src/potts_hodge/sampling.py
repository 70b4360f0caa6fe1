"""Seeded, reproducible samplers for campaign inputs.

Child generators are derived from (seed, indices...) with a fixed integer
mix, so each sampled tuple is independent of evaluation order and of how
work is split across processes.
"""
from __future__ import annotations

import random

from .errors import SamplingFailureError
from .potts import log_concave_integers
from .scalars import rat

_MIX = 0x9E3779B97F4A7C15


def child_rng(seed, *indices):
    """Deterministic RNG for one sampled tuple inside a campaign."""
    acc = seed & 0xFFFFFFFFFFFFFFFF
    for ix in indices:
        acc = (acc * _MIX + ix + 1) & 0xFFFFFFFFFFFFFFFF
    return random.Random(acc)


def default_q_grid():
    """Standard q grid used by the campaigns; always contains q = 1."""
    return (rat(1), rat(1, 2), rat(1, 4), rat(1, 10), rat(1, 100))


def sample_positive_rational(rng):
    """num/den with num and den uniform in [1, 100]."""
    return rat(rng.randint(1, 100), rng.randint(1, 100))


def sample_positive_point(rng, length):
    """Strictly positive rational vector of sample_positive_rational draws."""
    return tuple(sample_positive_rational(rng) for _ in range(length))


def sample_nonneg_point(rng, length):
    """Nonnegative rational vector; coordinates hit the boundary with
    probability 0.3, but never all at once."""
    out = [rat(0) if rng.random() < 0.3 else sample_positive_rational(rng)
           for _ in range(length)]
    if all(x == 0 for x in out) and length:
        out[rng.randrange(length)] = sample_positive_rational(rng)
    return tuple(out)


def sample_sign_mixed_point(rng, length):
    """Nonzero vector with mixed-sign small rational coordinates: num
    uniform in [-9, 9], den in [1, 9]."""
    for _ in range(100):
        out = []
        for _ in range(length):
            num = rng.randint(-9, 9)
            out.append(rat(num, rng.randint(1, 9)))
        if any(x != 0 for x in out):
            return tuple(out)
    raise SamplingFailureError("could not sample a nonzero sign-mixed vector")


def adversarial_points(length):
    """Deterministic stress points: nearly parallel to the first axis, the
    simplex center, and highly skewed magnitude ratios."""
    if length == 0:
        return [()]
    big, small = rat(1000), rat(1, 1000)
    near_axis = (big,) + (small,) * (length - 1)
    center = (rat(1),) * length
    skewed = tuple(big if i % 2 == 0 else small for i in range(length))
    return [near_axis, center, skewed]


def log_concave_coeffs(n, ratio=2):
    """Strictly log-concave positive integer sequence c_k ~ ratio^(k(n-k)).

    Adjacent ratios satisfy c_k^2 / (c_{k-1} c_{k+1}) = ratio^2 > 1, and a
    rational ratio a/b is cleared to integers with the complementary power
    of b, which rescales the sequence by a positive constant.
    """
    r = rat(ratio)
    if r <= 1:
        raise SamplingFailureError(f"log-concave generator needs ratio > 1, got {r}")
    a, b = r.numerator, r.denominator
    top = max((k * (n - k) for k in range(n + 1)), default=0)
    return tuple(a ** (k * (n - k)) * b ** (top - k * (n - k)) for k in range(n + 1))


def default_c_ratios():
    """Five generator ratios for strictly log-concave sequences."""
    return (rat(2), rat(3), rat(4), rat(3, 2), rat(5, 2))


def sample_alpha(rng, n, min_degree=2):
    """Admissible multi-index over w_0..w_n whose derivative is not
    identically zero and has degree at least min_degree.

    Entries past index 0 are kept in {0, 1}; index 0 absorbs the rest of
    the available order, so admissibility holds by construction.
    """
    max_order = n - min_degree
    if max_order < 0:
        raise SamplingFailureError(
            f"no admissible multi-index of degree >= {min_degree} exists for n = {n}")
    order = rng.randint(0, max_order)
    support_size = rng.randint(0, min(order, n))
    support = rng.sample(range(1, n + 1), support_size)
    alpha = [0] * (n + 1)
    alpha[0] = order - support_size
    for i in support:
        alpha[i] = 1
    return tuple(alpha)


def distinct_alphas(seed, n, count, min_degree=2):
    """Up to `count` distinct admissible multi-indices, the zero index
    first whenever it is admissible; smaller ground sets may admit fewer."""
    out = []
    seen = set()
    if n >= min_degree:
        zero = tuple([0] * (n + 1))
        out.append(zero)
        seen.add(zero)
    for attempt in range(count * 50):
        if len(out) >= count:
            break
        rng = child_rng(seed, attempt)
        try:
            a = sample_alpha(rng, n, min_degree)
        except SamplingFailureError:
            break
        if a not in seen:
            seen.add(a)
            out.append(a)
    return out


def sample_log_concave_coeffs(rng, n):
    """Random strictly log-concave sequence from the ratio family."""
    num = rng.randint(3, 8)
    den = rng.randint(1, num - 1)
    c = log_concave_coeffs(n, rat(num, den))
    assert log_concave_integers(c)
    return c
