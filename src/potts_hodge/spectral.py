"""Signatures of symmetric matrices and the spectral identities used by the
verification campaigns.

Exact signatures, congruence transforms, ranks and nullspaces all come from
the one fraction-free symmetric elimination over integers in matrices.py,
so they are never subject to rounding.  Float matrices fall back to a
symmetric eigendecomposition with an explicit indeterminacy error when an
eigenvalue is too close to zero to classify.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    IndeterminateSignatureError,
    InvalidParametersError,
    NotApplicableError,
    SamplingFailureError,
)
from .matrices import (
    SymMatrix,
    bareiss_inertia,
    bilinear,
    congruence_diagonalize,
    exact_nullspace,
    exact_rank,
    same_subspace,
    stack_rows,
)
from .potts import derivative_degree, hessian, validate_alpha, validate_coeffs
from .scalars import as_rationals, clear_denominators, rat

FLOAT_TOL_FACTOR = 1e-9


class EigenSignature(NamedTuple):
    """Inertia triple of a symmetric matrix."""

    n_pos: int
    n_neg: int
    n_zero: int

    @property
    def dim(self):
        return self.n_pos + self.n_neg + self.n_zero


def signature(matrix, tol=None):
    """Inertia of a SymMatrix (or raw rows).

    Exact entries: the matrix times the lcm of its denominators, divided
    by the gcd of the resulting ints, then a fraction-free elimination over
    ints (bareiss_inertia); both factors are positive, so the inertia is
    that of the matrix.  Float entries: eigendecomposition with
    zero-threshold tol (default 1e-9 times the largest absolute entry); an
    eigenvalue within tol of zero cannot be classified and raises
    IndeterminateSignatureError rather than guessing.
    """
    mat = matrix if isinstance(matrix, SymMatrix) else SymMatrix.from_rows(matrix)
    if mat.dim == 0:
        return EigenSignature(0, 0, 0)
    if mat.is_exact:
        d = mat.dim
        ints, _ = clear_denominators([x for row in mat.entries for x in row])
        g = math.gcd(*ints) or 1
        ints = [x // g for x in ints]
        return EigenSignature(*bareiss_inertia(ints[i:i + d] for i in range(0, d * d, d)))
    import numpy as np

    arr = np.array([[float(x) for x in row] for row in mat.entries], dtype=float)
    eigs = np.linalg.eigvalsh(arr)
    if tol is None:
        tol = FLOAT_TOL_FACTOR * max(float(mat.max_abs()), 1e-300)
    near_zero = [float(e) for e in eigs if abs(e) <= tol]
    if near_zero:
        raise IndeterminateSignatureError(
            f"eigenvalues {near_zero} lie within tol={tol:g} of zero; "
            "use exact mode to classify them")
    pos = int((eigs > tol).sum())
    neg = int((eigs < -tol).sum())
    return EigenSignature(pos, neg, mat.dim - pos - neg)


def one_positive(matrix, tol=None):
    """True when the matrix has exactly one positive eigenvalue."""
    return signature(matrix, tol).n_pos == 1


def float_eigenvalues(matrix):
    """Diagnostic spectrum: eigenvalues of the entrywise-float matrix,
    ascending.  Not contractual; classification belongs to signature()."""
    mat = matrix if isinstance(matrix, SymMatrix) else SymMatrix.from_rows(matrix)
    if mat.dim == 0:
        return ()
    import numpy as np

    arr = np.array([[float(x) for x in row] for row in mat.entries], dtype=float)
    return tuple(float(e) for e in np.linalg.eigvalsh(arr))


@dataclass(frozen=True)
class HrDiscriminant:
    """(u^T A v)^2 - (u^T A u)(v^T A v) together with the three forms."""

    value: object
    uu: object
    uv: object
    vv: object

    @property
    def u_form_positive(self):
        return self.uu > 0


def hr_discriminant(matrix, u, v):
    mat = matrix if isinstance(matrix, SymMatrix) else SymMatrix.from_rows(matrix)
    if len(u) != mat.dim or len(v) != mat.dim:
        raise InvalidParametersError(
            f"vectors must have length {mat.dim}, got {len(u)} and {len(v)}")
    uu = bilinear(u, mat, u)
    uv = bilinear(u, mat, v)
    vv = bilinear(v, mat, v)
    return HrDiscriminant(value=uv * uv - uu * vv, uu=uu, uv=uv, vv=vv)


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


def _sample_int_vector(rng, dim, lo=-9, hi=9):
    return tuple(rat(rng.randint(lo, hi)) for _ in range(dim))


def _sample_positive_form_vector(rng, mat, budget=1000):
    for _ in range(budget):
        u = _sample_int_vector(rng, mat.dim)
        if bilinear(u, mat, u) > 0:
            return u
    raise SamplingFailureError(
        f"no vector with positive quadratic form found in {budget} attempts")


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
    positive index is at least two.
    """
    mat = matrix if isinstance(matrix, SymMatrix) else SymMatrix.from_rows(matrix)
    if not mat.is_exact:
        raise InvalidParametersError("one_positive_equivalence_check requires exact entries")
    vectors, diag = congruence_diagonalize(mat)
    positive_axes = [v for v, d in zip(vectors, diag) if d > 0]
    n_neg = sum(1 for d in diag if d < 0)
    sig = EigenSignature(len(positive_axes), n_neg, mat.dim - len(positive_axes) - n_neg)
    if sig.n_pos == 0:
        return EquivalenceReport(applicable=False, signature=sig)
    rng = random.Random(seed)
    statement1 = sig.n_pos == 1

    # statement 2: all pairs with positive u-form
    statement2 = True
    counterexample = None
    pair_pool = []
    for _ in range(trials):
        u = _sample_positive_form_vector(rng, mat)
        v = _sample_int_vector(rng, mat.dim)
        pair_pool.append((u, v))
    if len(positive_axes) >= 2:
        pair_pool.append((positive_axes[0], positive_axes[1]))
    for u, v in pair_pool:
        res = hr_discriminant(mat, u, v)
        if res.value < 0:
            statement2 = False
            counterexample = {"u": u, "v": v, "discriminant": res.value}
            break

    # statement 3: some witness u works against every sampled v
    v_pool = [_sample_int_vector(rng, mat.dim) for _ in range(trials)]
    v_pool.extend(positive_axes)
    statement3 = False
    witness = None
    candidates = [positive_axes[0]] + [_sample_positive_form_vector(rng, mat) for _ in range(5)]
    for u in candidates:
        probes = v_pool
        if len(positive_axes) >= 2:
            # v = g2*p1 - g1*p2 with g_i = u^T A p_i: then u^T A v = 0 and
            # v^T A v = g2^2 d1 + g1^2 d2 > 0 unless g1 = g2 = 0, impossible
            # for u of positive form
            g1 = bilinear(u, mat, positive_axes[0])
            g2 = bilinear(u, mat, positive_axes[1])
            if g1 != 0 or g2 != 0:
                v = tuple(g2 * a - g1 * b
                          for a, b in zip(positive_axes[0], positive_axes[1]))
                probes = v_pool + [v]
        if all(hr_discriminant(mat, u, v).value >= 0 for v in probes):
            statement3 = True
            witness = u
            break
    return EquivalenceReport(applicable=True, signature=sig, statement1=statement1,
                        statement2=statement2, statement3=statement3,
                        witness_u=witness, counterexample=counterexample,
                        trials=trials)


def euler_hessian_residual(matroid, c, q, alpha, w):
    """Largest absolute entry of (d-2) H_F - sum_i w_i H_{dF/dw_i} for the
    alpha-derivative F of Z_c; identically zero for every homogeneous F, so
    it must come out exactly 0.  Requires degree d >= 2."""
    n = matroid.n
    validate_coeffs(c, n)
    av = validate_alpha(alpha, n)
    d = derivative_degree(matroid, av)
    if d is None or d < 2:
        raise NotApplicableError(
            f"the derivative has degree {d}; the Euler Hessian identity needs degree >= 2")
    dim = n + 1
    wv = as_rationals(w)
    if len(wv) != dim:
        raise InvalidParametersError(f"w must have length {dim}, got {len(wv)}")
    hf = hessian(matroid, c, q, av, wv)
    total = [[(d - 2) * x for x in row] for row in hf.entries]
    for i in range(dim):
        bumped = list(av)
        bumped[i] += 1
        hi = hessian(matroid, c, q, tuple(bumped), wv)
        for r in range(dim):
            row = hi.entries[r]
            for s in range(dim):
                total[r][s] -= wv[i] * row[s]
    worst = max((x if x >= 0 else -x) for row in total for x in row)
    return worst


@dataclass(frozen=True)
class KernelIdentityReport:
    """Comparison of ker H_F with the joint kernel of all H_{dF/dw_i}.

    The identity requires every non-vanishing first derivative to have a
    Hessian with exactly one positive eigenvalue; identically-zero
    derivatives are exempt (their Hessians constrain nothing).  When the
    hypothesis fails the kernels are still computed and reported, but the
    equality verdict is diagnostic rather than a theorem instance.
    """

    hypothesis_ok: bool
    hypothesis_failures: tuple
    kernels_equal: bool
    kernel_dim: int
    stacked_kernel_dim: int
    kernel_basis: tuple
    degree: int
    notes: dict = field(default_factory=dict)


def kernel_identity_check(matroid, c, q, alpha, w):
    """Exact nullspace comparison for the Hessian kernel identity."""
    n = matroid.n
    validate_coeffs(c, n)
    av = validate_alpha(alpha, n)
    d = derivative_degree(matroid, av)
    if d is None:
        raise NotApplicableError("the derivative is identically zero; no Hessian to compare")
    dim = n + 1
    hf = hessian(matroid, c, q, av, w)
    derivative_hessians = []
    failures = []
    for i in range(dim):
        bumped = list(av)
        bumped[i] += 1
        if derivative_degree(matroid, tuple(bumped)) is None:
            continue  # vanishing derivative: exempt from the hypothesis
        hi = hessian(matroid, c, q, tuple(bumped), w)
        derivative_hessians.append(hi)
        sig = signature(hi)
        if sig.n_pos != 1:
            failures.append({"index": i, "signature": tuple(sig)})
    hypothesis_ok = not failures
    ker_f = exact_nullspace(hf.rows())
    if derivative_hessians:
        ker_stack = exact_nullspace(stack_rows(derivative_hessians))
    else:
        # no constraints at all: the joint kernel is the whole space
        ker_stack = [tuple(rat(1) if i == j else rat(0) for i in range(dim)) for j in range(dim)]
    equal = same_subspace(ker_f, ker_stack)
    return KernelIdentityReport(
        hypothesis_ok=hypothesis_ok,
        hypothesis_failures=tuple(failures),
        kernels_equal=equal,
        kernel_dim=len(ker_f),
        stacked_kernel_dim=len(ker_stack),
        kernel_basis=tuple(ker_f),
        degree=d,
        notes={"dim": dim},
    )


def kernel_contains(basis, vector):
    """Is the vector inside the span of the basis (all exact)?"""
    if all(x == 0 for x in vector):
        return True
    if not basis:
        return False
    rows = [list(v) for v in basis]
    return exact_rank(rows + [list(vector)]) == exact_rank(rows)
