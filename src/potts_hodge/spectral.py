"""Signatures of symmetric matrices and the equivalence of the
one-positive-eigenvalue criteria.

Exact signatures, congruence transforms, ranks and nullspaces all come from
the one fraction-free symmetric elimination over integers in matrices.py,
so they are never subject to rounding.  There is no float signature: a
SymMatrix is exact, and float_eigenvalues, a diagnostic that no verdict
reads, bisects the exact eigenvalues with the same elimination and rounds
each once.  The Euler and kernel identities, which combine the integer
Hessian rows of potts.second_order_numerators, live in potts.py beside
that format: this module reads matrices only.  The package has no
runtime dependency beyond the standard library.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import mul
from typing import NamedTuple

from .errors import InvalidParametersError
from .matrices import SymMatrix, bareiss_inertia, bilinear, congruence_diagonalize, exact_rank, mat_vec
from .scalars import clear_denominators, is_int, to_float


class EigenSignature(NamedTuple):
    """Inertia triple of a symmetric matrix."""

    n_pos: int
    n_neg: int
    n_zero: int


def signature(matrix):
    """Inertia of a SymMatrix, or of raw rows of ints and rationals.

    The integer rows of SymMatrix.scaled_rows go through a fraction-free
    elimination over ints (bareiss_inertia); their scale is positive, so
    the inertia is that of the matrix.  It is exact: a float entry raises
    InvalidParametersError where the SymMatrix is built.
    """
    rows, _ = SymMatrix.from_rows(matrix).scaled_rows()
    return EigenSignature(*bareiss_inertia(rows))


def float_eigenvalues(matrix):
    """Diagnostic spectrum: the exact eigenvalues, ascending, each rounded
    once to the nearest double (to_float).  Classification belongs to
    signature().

    For the integer rows R = scale A and a rational t = p/q, q > 0, the
    negative and zero indices of bareiss_inertia(q R - p I) count the
    eigenvalues of R below t and at t.  The k-th is bisected, from a power
    of two above the Gershgorin bound, until a midpoint is it or both ends
    over the scale round to one double, which is then its rounding too.
    The midpoints reach every dyadic rational, so an eigenvalue halfway
    between two doubles is met exactly.  Counts are kept for the later
    eigenvalues, whose bisections start down the same path.
    """
    rows, scale = SymMatrix.from_rows(matrix).scaled_rows()
    bound = 1 << max((sum(map(abs, row)) for row in rows), default=0).bit_length()
    counts = {}  # t -> (eigenvalues of R below t, at t)
    out = []
    for k in range(len(rows)):
        lo, hi, at = Fraction(-bound), Fraction(bound), None
        while at is None and to_float(lo / scale) != to_float(hi / scale):
            t = (lo + hi) / 2
            if t not in counts:
                p, q = t.numerator, t.denominator
                shifted = [[q * x for x in row] for row in rows]
                for i, row in enumerate(shifted):
                    row[i] -= p
                counts[t] = bareiss_inertia(shifted)[1:]
            below, zero = counts[t]
            if below > k:
                hi = t
            elif below + zero <= k:
                lo = t
            else:
                at = t
        out.append(to_float((lo if at is None else at) / scale))
    return tuple(out)


@dataclass(frozen=True)
class EquivalenceReport:
    """Cross-check of the three equivalent one-positive-eigenvalue criteria.

    statement1: the signature has exactly one positive index.
    statement2: every sampled pair (u, v) with u^T A u > 0 satisfies
                (u^T A v)^2 >= (u^T A u)(v^T A v).
    statement3: some witness u with u^T A u > 0 satisfies the inequality
                against every sampled v.
    """

    applicable: bool
    signature: EigenSignature | None = None
    statement1: bool | None = None
    statement2: bool | None = None
    statement3: bool | None = None
    witness_u: tuple | None = None
    counterexample: dict | None = None
    trials: int = 0

    @property
    def agree(self):
        if not self.applicable:
            return True
        return self.statement1 == self.statement2 == self.statement3


def _sample_int_vector(rng, dim):
    return tuple(rng.randint(-9, 9) for _ in range(dim))


def _positive_form_draws(rng, mat, fallback):
    """(probe, vector, factor) triples of positive form: a draw is the
    first of up to 1000 with positive form, its own probe with factor 1.
    Once 1000 draws find none, the positive cone is too thin for the
    [-9, 9] sampler, and the fallback triple stands in for that draw and
    every later one, without drawing again."""
    while True:
        for _ in range(1000):
            u = _sample_int_vector(rng, mat.dim)
            if bilinear(u, mat, u) > 0:
                yield u, u, 1
                break
        else:
            yield from repeat(fallback)


def _dot(u, v):
    return sum(map(mul, u, v))


def one_positive_equivalence_check(matrix, trials=100, seed=0):
    """Check agreement of the three one-positive-eigenvalue criteria.

    The signature (statement 1) is read off the diagonal of the congruence
    diagonalization.  Requires at least one positive eigenvalue; otherwise
    the equivalence is about nothing and the report comes back not
    applicable.  Statements 2 and 3 are sampled over integer vectors,
    augmented with deterministic probes from the same diagonalization so
    the sampled verdicts cannot come out true by accident: with two
    positive axes p1, p2 the pair (p1, p2) violates statement 2 outright
    (their cross form vanishes), and every statement-3 candidate u is also
    tested against a vector in span(p1, p2) chosen so u^T A v = 0 while
    v^T A v > 0, which exists for every u with positive form whenever the
    positive index is at least two.  Where 1000 draws find no integer
    vector of positive form (the positive cone can be too thin for the
    [-9, 9] sampler), the first positive axis stands in for that draw and
    for every later one of the check, which makes no further attempt.

    The forms are evaluated in integers, on L A for L the lcm of the
    denominators of A, with each positive axis p probed as k p, k > 0 the
    lcm of its denominators: positive factors keep the sign of every form,
    so a counterexample reports its vectors as drawn (an axis as p) and
    its discriminant divided by (L k_u k_v)^2, the one of A.
    """
    if not is_int(trials) or trials < 0:
        raise InvalidParametersError(f"trials must be a nonnegative integer, got {trials!r}")
    rows, scale = SymMatrix.from_rows(matrix).scaled_rows()
    mat = SymMatrix(tuple(map(tuple, rows)))
    vectors, diag = congruence_diagonalize(mat)
    positive_axes = [v for v, d in zip(vectors, diag) if d > 0]
    n_neg = sum(1 for d in diag if d < 0)
    sig = EigenSignature(len(positive_axes), n_neg, mat.dim - len(positive_axes) - n_neg)
    if sig.n_pos == 0:
        return EquivalenceReport(applicable=False, signature=sig)
    rng = random.Random(seed)
    statement1 = sig.n_pos == 1
    axes = [(tuple(ints), p, k) for p in positive_axes for ints, k in [clear_denominators(p)]]

    # statement 2: all pairs with positive u-form
    statement2 = True
    counterexample = None
    pair_pool = []
    positive_draws = _positive_form_draws(rng, mat, axes[0])
    for _ in range(trials):
        u = next(positive_draws)
        v = _sample_int_vector(rng, mat.dim)
        pair_pool.append((u, (v, v, 1)))
    if len(axes) >= 2:
        pair_pool.append((axes[0], axes[1]))
    for (pu, u, ku), (pv, v, kv) in pair_pool:
        # the discriminant (u^T A v)^2 - (u^T A u)(v^T A v)
        uv = bilinear(pu, mat, pv)
        disc = uv * uv - bilinear(pu, mat, pu) * bilinear(pv, mat, pv)
        if disc < 0:
            statement2 = False
            counterexample = {"u": u, "v": v,
                              "discriminant": Fraction(disc, (scale * ku * kv) ** 2)}
            break

    # statement 3: some witness u works against every sampled v
    v_pool = [_sample_int_vector(rng, mat.dim) for _ in range(trials)]
    v_pool.extend(pa for pa, _, _ in axes)
    forms = [(v, bilinear(v, mat, v)) for v in v_pool]
    statement3 = False
    witness = None
    candidates = [axes[0]]
    candidates += islice(positive_draws, 5)
    for pu, u, _ in candidates:
        au = mat_vec(mat, pu)
        uu = _dot(pu, au)
        probes = forms
        if len(axes) >= 2:
            # v = g2*P1 - g1*P2 with g_i = u^T A P_i (axis probes P_i): then
            # u^T A v = 0 and v^T A v > 0 unless g1 = g2 = 0, impossible
            p1, p2 = axes[0][0], axes[1][0]
            g1, g2 = _dot(au, p1), _dot(au, p2)
            if g1 != 0 or g2 != 0:
                v = tuple(g2 * a - g1 * b for a, b in zip(p1, p2))
                probes = forms + [(v, bilinear(v, mat, v))]
        if all(_dot(v, au) ** 2 >= uu * vv for v, vv in probes):
            statement3 = True
            witness = u
            break
    return EquivalenceReport(applicable=True, signature=sig, statement1=statement1,
                        statement2=statement2, statement3=statement3,
                        witness_u=witness, counterexample=counterexample,
                        trials=trials)


def kernel_contains(basis, vector):
    """Is the vector inside the span of the basis (all exact)?"""
    return exact_rank([*basis, vector]) == exact_rank(basis)
