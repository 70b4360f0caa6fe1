"""Seeded, reproducible samplers for campaign inputs.

Child generators are derived from (seed, indices...) with a fixed integer
mix, so each sampled tuple is independent of evaluation order and of how
work is split across processes.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .errors import SamplingFailureError
from .scalars import exact_scalar

_MIX = 0x9E3779B97F4A7C15


def child_rng(seed, *indices):
    """Deterministic RNG for one sampled tuple inside a campaign."""
    acc = seed & 0xFFFFFFFFFFFFFFFF
    for ix in indices:
        acc = (acc * _MIX + ix + 1) & 0xFFFFFFFFFFFFFFFF
    return random.Random(acc)


def _randint(rng, low, high):
    """rng.randint(low, high), drawn as Random.randint draws it, so a seed
    gives the same ints, in one call: the first getrandbits(k) below the
    width high - low + 1, k its bit length, plus low."""
    width = high - low + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return low + r


def default_q_grid():
    """Standard q grid used by the campaigns; always contains q = 1."""
    return (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(1, 100))


def sample_positive_rational(rng):
    """num/den with num and den uniform in [1, 100]."""
    return Fraction(_randint(rng, 1, 100), _randint(rng, 1, 100))


def sample_positive_point(rng, length):
    """Strictly positive rational vector of sample_positive_rational draws."""
    return tuple(sample_positive_rational(rng) for _ in range(length))


def sample_nonneg_point(rng, length):
    """Nonnegative rational vector; coordinates hit the boundary with
    probability 0.3, but never all at once."""
    out = [0 if rng.random() < 0.3 else sample_positive_rational(rng)
           for _ in range(length)]
    if length and not any(out):
        out[rng.randrange(length)] = sample_positive_rational(rng)
    return tuple(out)


#: a common denominator of every sign-mixed coordinate, lcm(1, ..., 9)
SIGN_MIXED_DEN = 2520


def sample_sign_mixed_numerators(rng, length):
    """The numerators, over SIGN_MIXED_DEN, of a nonzero vector with
    mixed-sign small rational coordinates: num uniform in [-9, 9], den in
    [1, 9], drawn in that order."""
    for _ in range(100):
        out = [_randint(rng, -9, 9) * (SIGN_MIXED_DEN // _randint(rng, 1, 9))
               for _ in range(length)]
        if any(out):
            return out
    raise SamplingFailureError("could not sample a nonzero sign-mixed vector")


def sample_sign_mixed_point(rng, length):
    """The vector of sample_sign_mixed_numerators, as rationals."""
    return tuple(Fraction(x, SIGN_MIXED_DEN) for x in sample_sign_mixed_numerators(rng, length))


def adversarial_points(length):
    """Deterministic stress points: nearly parallel to the first axis, the
    simplex center, and highly skewed magnitude ratios."""
    if length == 0:
        return [()]
    big, small = 1000, Fraction(1, 1000)
    near_axis = (big,) + (small,) * (length - 1)
    center = (1,) * length
    skewed = tuple(big if i % 2 == 0 else small for i in range(length))
    return [near_axis, center, skewed]


def log_concave_coeffs(n, ratio=2):
    """Strictly log-concave positive integer sequence c_k ~ ratio^(k(n-k)).

    Adjacent ratios satisfy c_k^2 / (c_{k-1} c_{k+1}) = ratio^2 > 1, and a
    rational ratio a/b is cleared to integers with the complementary power
    of b, which rescales the sequence by a positive constant.
    """
    a, b = exact_scalar(ratio).numerator, ratio.denominator
    if a <= b:
        raise SamplingFailureError(f"log-concave generator needs ratio > 1, got {ratio}")
    top = max((k * (n - k) for k in range(n + 1)), default=0)
    return tuple(a ** (k * (n - k)) * b ** (top - k * (n - k)) for k in range(n + 1))


def default_c_ratios():
    """Five generator ratios for strictly log-concave sequences."""
    return (2, 3, 4, Fraction(3, 2), Fraction(5, 2))


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
    order = _randint(rng, 0, max_order)
    support_size = _randint(rng, 0, min(order, n))
    support = set(rng.sample(range(1, n + 1), support_size))
    return (order - support_size,) + tuple(int(i in support) for i in range(1, n + 1))


def distinct_alphas(seed, n, count, min_degree=2):
    """Up to `count` distinct admissible multi-indices, the zero index
    first whenever it is admissible; smaller ground sets may admit fewer."""
    out = [(0,) * (n + 1)] if n >= min_degree and count > 0 else []
    seen = set(out)
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
    num = _randint(rng, 3, 8)
    den = _randint(rng, 1, num - 1)
    return log_concave_coeffs(n, Fraction(num, den))
