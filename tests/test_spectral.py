"""Signatures, the two-form discriminant cross-check, and Hessian identities."""

import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from potts_hodge import (
    EigenSignature,
    InvalidParametersError,
    NotApplicableError,
    SymMatrix,
    bilinear,
    congruence_diagonalize,
    derivative_degree,
    euler_hessian_residual,
    exact_nullspace,
    exact_rank,
    float_eigenvalues,
    hessian,
    kernel_contains,
    kernel_identity_check,
    one_positive_equivalence_check,
    make_graphic,
    make_linear,
    make_rank_table,
    make_uniform,
    rat,
    signature,
)
from potts_hodge.errors import ImpossibleStateError
from potts_hodge.matrices import bareiss_inertia
from potts_hodge.scalars import from_float
from potts_hodge import spectral
from potts_hodge.potts import KernelIdentityReport

U12 = make_uniform(1, 2)
U24 = make_uniform(2, 4)
K3 = make_graphic(3, [(1, 2), (2, 3), (1, 3)])

H_U12 = [[rat(2), rat(1), rat(1)], [rat(1), rat(0), rat(1)], [rat(1), rat(1), rat(0)]]


def all_ones(dim):
    return [[rat(1)] * dim for _ in range(dim)]


def rand_symmetric(rng, dim, lo=-5, hi=5):
    rows = [[rat(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            v = rat(rng.randint(lo, hi))
            rows[i][j] = rows[j][i] = v
    return rows


def rand_unimodular(rng, dim):
    # product of random elementary shear matrices: determinant 1
    m = [[rat(1) if i == j else rat(0) for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        i, j = rng.sample(range(dim), 2)
        coef = rat(rng.randint(-2, 2))
        for k in range(dim):
            m[i][k] += coef * m[j][k]
    return m


def test_signature_frozen_examples():
    assert signature(H_U12) == EigenSignature(1, 1, 1)
    assert signature(all_ones(4)) == EigenSignature(1, 0, 3)
    assert signature([[rat(1), rat(0)], [rat(0), rat(-3)]]) == EigenSignature(1, 1, 0)
    assert signature([[rat(0), rat(1)], [rat(1), rat(0)]]) == EigenSignature(1, 1, 0)
    assert signature([[rat(0)]]) == EigenSignature(0, 0, 1)
    assert signature([]) == EigenSignature(0, 0, 0)
    assert signature(H_U12).dim == 3
    assert signature(H_U12).n_pos == 1
    assert signature([[rat(1), rat(0)], [rat(0), rat(1)]]).n_pos == 2  # two positive
    assert signature(all_ones(3)).n_pos == 1


def test_signature_congruence_invariance():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(2, 5)
        a = rand_symmetric(rng, dim)
        sig = signature(a)
        u = rand_unimodular(rng, dim)
        # congruent matrix u^T a u
        au = [[sum(a[i][k] * u[k][j] for k in range(dim)) for j in range(dim)]
              for i in range(dim)]
        uau = [[sum(u[k][i] * au[k][j] for k in range(dim)) for j in range(dim)]
               for i in range(dim)]
        assert signature(uau) == sig


def test_congruence_diagonalize_is_a_congruence():
    rng = random.Random(3)
    mats = [rand_symmetric(rng, d) for d in (2, 3, 4) for _ in range(8)]
    mats.append([[rat(0), rat(1)], [rat(1), rat(0)]])  # zero diagonal pivot
    mats.append([[rat(0), rat(0)], [rat(0), rat(0)]])
    for a in mats:
        mat = SymMatrix.from_rows(a)
        vectors, diag = congruence_diagonalize(mat)
        dim = mat.dim
        assert len(vectors) == len(diag) == dim
        for x, d in zip(vectors, diag):
            assert bilinear(x, mat, x) == d
        for i in range(dim):
            for j in range(i + 1, dim):
                assert bilinear(vectors[i], mat, vectors[j]) == 0


def rational_congruence_diagonalize(matrix):
    """Test reference for congruence_diagonalize: symmetric Gaussian
    reduction over rationals, X^T A X = diag(d); returns (columns of X, d).

    When every remaining diagonal entry is zero but some off-diagonal a_ij
    is not, adding column j to column i creates the nonzero diagonal entry
    2*a_ij; the subsequent pair of 1x1 pivots contributes one positive and
    one negative inertia index, exactly as the hyperbolic 2x2 block would.
    """
    rows = matrix.rows() if isinstance(matrix, SymMatrix) else [list(r) for r in matrix]
    d = len(rows)
    a = [[rat(x) for x in row] for row in rows]
    basis = [[rat(1) if i == j else rat(0) for i in range(d)] for j in range(d)]
    active = list(range(d))
    out_vectors = []
    out_diag = []
    while active:
        pivot = next((i for i in active if a[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in active for j in active if j != i and a[i][j]), None)
            if pair is None:
                for i in active:
                    out_vectors.append(tuple(basis[i]))
                    out_diag.append(rat(0))
                break
            i, j = pair
            # column operation col_i += col_j, mirrored on rows to stay congruent
            basis[i] = [x + y for x, y in zip(basis[i], basis[j])]
            for k in range(d):
                a[i][k] = a[i][k] + a[j][k]
            for k in range(d):
                a[k][i] = a[k][i] + a[k][j]
            continue
        p = pivot
        dval = a[p][p]
        out_vectors.append(tuple(basis[p]))
        out_diag.append(dval)
        active.remove(p)
        for i in active:
            coef = a[i][p] / dval
            if coef != 0:
                basis[i] = [x - coef * y for x, y in zip(basis[i], basis[p])]
                for k in range(d):
                    a[i][k] = a[i][k] - coef * a[p][k]
                for k in range(d):
                    a[k][i] = a[k][i] - coef * a[k][p]
    return out_vectors, out_diag


def reference_signature(rows):
    _, diag = rational_congruence_diagonalize(SymMatrix.from_rows(rows))
    pos = sum(1 for x in diag if x > 0)
    neg = sum(1 for x in diag if x < 0)
    return EigenSignature(pos, neg, len(diag) - pos - neg)


ENTRIES = st.one_of(
    st.integers(-3, 3).map(rat),
    st.builds(rat, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12)),
)


@st.composite
def symmetric_rational_matrices(draw):
    """A = M[m(r)][m(s)] for a random symmetric M.  With m onto, A is M;
    otherwise indices of A that m sends to the same index of M give
    duplicated rows and columns, hence rank deficiency.  A zero diagonal
    of M leaves no 1x1 pivot at the start, so the hyperbolic step runs."""
    dim = draw(st.integers(0, 9))
    base = draw(st.integers(1, dim)) if dim else 0
    index = [draw(st.integers(0, base - 1)) for _ in range(dim - base)]
    index = draw(st.permutations(list(range(base)) + index))
    zero_diagonal = draw(st.booleans())
    m = [[None] * base for _ in range(base)]
    for i in range(base):
        for j in range(i, base):
            m[i][j] = m[j][i] = rat(0) if i == j and zero_diagonal else draw(ENTRIES)
    return [[m[r][s] for s in index] for r in index]


@settings(max_examples=400, deadline=None)
@given(symmetric_rational_matrices())
def test_signature_matches_congruence_reference(rows):
    assert signature(rows) == reference_signature(rows)


@settings(max_examples=200, deadline=None)
@given(symmetric_rational_matrices(), st.integers(1, 10 ** 30))
@example([[rat(2), rat(4)], [rat(4), rat(-6)]], 6)
def test_signature_is_unchanged_by_positive_integer_scaling(rows, k):
    # signature eliminates the integer rows as they come, without dividing
    # out their gcd: a positive factor must not change the inertia
    assert signature([[k * x for x in row] for row in rows]) == signature(rows)


@st.composite
def bordered_forms(draw):
    """(z, g, rows): z > 0, a vector g and a symmetric matrix H = rows of
    one dimension.  Half the draws take H = M + g g^T / z, so that
    N = z H - g g^T = z M, singular whenever M has duplicated rows."""
    rows = draw(symmetric_rational_matrices())
    dim = len(rows)
    z = draw(st.builds(rat, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6)))
    g = [draw(ENTRIES) for _ in range(dim)]
    if draw(st.booleans()):
        rows = [[rows[i][j] + g[i] * g[j] / z for j in range(dim)] for i in range(dim)]
    return z, g, rows


@settings(max_examples=200, deadline=None)
@given(bordered_forms())
# N = 0: H = g g^T / z
@example((rat(2), [rat(1), rat(3)], [[rat(1, 2), rat(3, 2)], [rat(3, 2), rat(9, 2)]]))
@example((rat(1), [], []))
def test_bordered_signature_is_that_of_the_schur_complement(form):
    # Haynsworth: at z > 0 the bordered matrix [[z, g^T], [g, H]] has the
    # inertia (1, 0, 0) plus that of its Schur complement H - g g^T / z,
    # which is N / z for N = z H - g g^T: check_log_concavity_at reads the
    # signature of N off the bordered matrix
    z, g, rows = form
    dim = len(rows)
    bordered = [[z] + g] + [[g[i]] + rows[i] for i in range(dim)]
    n = [[z * rows[i][j] - g[i] * g[j] for j in range(dim)] for i in range(dim)]
    pos, neg, zero = signature(bordered)
    assert (pos - 1, neg, zero) == signature(n) == reference_signature(n)


@settings(max_examples=200, deadline=None)
@given(symmetric_rational_matrices())
@example([])
@example([[rat(0), rat(1, 2)], [rat(1, 2), rat(0)]])
def test_congruence_diagonalize_matches_rational_reference(rows):
    # the same columns and diagonal, not just a congruence
    assert congruence_diagonalize(rows) == rational_congruence_diagonalize(rows)


@st.composite
def known_rank_matrices(draw):
    """(rows, r): M = B C with r of the rows of B, and r of the columns of
    C, those of the r x r identity, so M has rank exactly r.  The other
    rows of B are random or copies of earlier rows (duplicated rows of M),
    and a column of M outside C's identity columns may be zeroed."""
    nrows = draw(st.one_of(st.just(1), st.integers(1, 7)))
    ncols = draw(st.one_of(st.just(1), st.integers(1, 7)))
    r = draw(st.integers(0, min(nrows, ncols)))
    unit_rows = draw(st.permutations(range(nrows)))[:r]
    unit_cols = draw(st.permutations(range(ncols)))[:r]
    b = []
    for i in range(nrows):
        if i in unit_rows:
            b.append([rat(int(k == unit_rows.index(i))) for k in range(r)])
        elif b and draw(st.booleans()):
            b.append(list(b[draw(st.integers(0, len(b) - 1))]))
        else:
            b.append([draw(ENTRIES) for _ in range(r)])
    c = [[rat(int(j == unit_cols[k])) if j in unit_cols else draw(ENTRIES)
          for j in range(ncols)] for k in range(r)]
    rows = [[sum((b[i][k] * c[k][j] for k in range(r)), rat(0)) for j in range(ncols)]
            for i in range(nrows)]
    others = [j for j in range(ncols) if j not in unit_cols]
    if others and draw(st.booleans()):
        zeroed = draw(st.sampled_from(others))
        for row in rows:
            row[zeroed] = rat(0)
    return rows, r


@settings(max_examples=300, deadline=None)
@given(known_rank_matrices())
def test_rank_and_nullspace_match_sympy(case):
    rows, r = case
    oracle = sympy.Matrix(rows)
    assert exact_rank(rows) == r == oracle.rank()
    # sympy's nullspace is the reduced-echelon basis, one vector per free
    # column in column order: the list must be the same, not only its span
    expected = [tuple(rat(int(x.p), int(x.q)) for x in v) for v in oracle.nullspace()]
    assert exact_nullspace(rows) == expected


def test_bareiss_hyperbolic_step_after_a_pivot():
    # after the first pivot the active block is zero on the diagonal but
    # not off it, so the hyperbolic step runs between two 1x1 pivots
    # (eigenvalues -1 and 2 +- sqrt(3))
    rows = [[1, 1, 1], [1, 1, 2], [1, 2, 1]]
    assert bareiss_inertia(rows) == (2, 1, 0)
    assert reference_signature([[rat(x) for x in row] for row in rows]) == (2, 1, 0)


def test_bareiss_checks_its_divisions():
    # not symmetric, so Sylvester's identity does not hold and the second
    # pivot step divides 1 by 2: the check raises instead of truncating
    with pytest.raises(ImpossibleStateError):
        bareiss_inertia([[2, 1, 1], [1, 1, 1], [0, 1, 1]])


def test_signature_rejects_float_entries():
    # a SymMatrix is exact by construction, so there is no float signature
    with pytest.raises(InvalidParametersError):
        SymMatrix(((2.0, 0.0), (0.0, -1.0)))
    with pytest.raises(InvalidParametersError):
        signature([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(InvalidParametersError):
        SymMatrix(((rat(1), True), (True, rat(1))))
    # a ragged matrix and an asymmetric one
    with pytest.raises(InvalidParametersError):
        SymMatrix(((1, 2), (2,)))
    with pytest.raises(InvalidParametersError, match="matrix is not symmetric"):
        SymMatrix(((1, 2, 3), (2, 1, 0), (3, 1, 1)))
    # rows given as lists are compared as tuples
    assert SymMatrix(([1, 2], [2, 3])).dim == 2
    with pytest.raises(InvalidParametersError, match="matrix is not symmetric"):
        SymMatrix(([1, 2], [3, 1]))
    # exact entries classify, the singular one included
    assert signature(SymMatrix(((2, 0), (0, -1)))) == EigenSignature(1, 1, 0)
    assert signature([[rat(1), rat(1)], [rat(1), rat(1)]]) == EigenSignature(1, 0, 1)


def test_scaled_rows_returns_integer_entries_as_they_are():
    ints = SymMatrix(((2, -3), (-3, 0)))
    rows, scale = ints.scaled_rows()
    assert rows is ints.entries and scale == 1
    # a rational entry clears the whole matrix over the lcm of the denominators
    mixed = SymMatrix(((2, rat(1, 2)), (rat(1, 2), rat(-1, 3))))
    assert mixed.scaled_rows() == ([[12, 3], [3, -2]], 6)


def test_float_eigenvalues_diagnostic():
    # U(1,2) Hessian at ones has exact spectrum {3, -1, 0}
    eigs = float_eigenvalues(SymMatrix.from_rows(H_U12))
    assert len(eigs) == 3
    assert abs(eigs[0] + 1) < 1e-12
    assert abs(eigs[1]) < 1e-12
    assert abs(eigs[2] - 3) < 1e-12
    assert float_eigenvalues([[rat(5)]]) == (5.0,)


def _reflection(v):
    """I - 2 v v^T / v^T v, a rational orthogonal matrix."""
    norm = sum(x * x for x in v)
    return [[int(i == j) - Fraction(2 * a * b, norm) for j, b in enumerate(v)]
            for i, a in enumerate(v)]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# planted eigenvalues: zeros and repeats, doubles, non-dyadic rationals, a
# tiny one, and two exactly halfway between doubles, which round to even
PLANTED = (0, 0, 1, 1, -1, 3, Fraction(1, 3), Fraction(-5, 7), Fraction(22, 7), 2 ** 40,
           Fraction(-1, 2 ** 60), 1 + Fraction(1, 2 ** 53), 1 + Fraction(3, 2 ** 53))


def _eigenvalue_cases():
    """(rows, planted eigenvalues or None): seeded random symmetric rational
    matrices of dims 0-6, then Q D Q^T for rational orthogonal Q (a product
    of two reflections) and diagonals D drawn from PLANTED, dims 1-6."""
    rng = random.Random(26)
    cases = []
    for dim in range(7):
        for _ in range(12):
            rows = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i, dim):
                    rows[i][j] = rows[j][i] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            cases.append((rows, None))
    spectra = [[rng.choice(PLANTED) for _ in range(dim)] for dim in range(1, 7) for _ in range(12)]
    spectra.append([0, PLANTED[-2], 0, PLANTED[-1]])
    for eig in spectra:
        dim = len(eig)
        q = _product(*(_reflection([rng.randint(-3, 3) or 1 for _ in range(dim)])
                       for _ in range(2)))
        diagonal = [[eig[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
        cases.append((_product(_product(q, diagonal), [list(c) for c in zip(*q)]), sorted(eig)))
    return cases


def test_float_eigenvalues_are_the_exact_ones_rounded_once():
    # against mpmath at 60 digits, and the planted spectra exactly: each
    # eigenvalue, ascending, is the double nearest it, ties to even, and
    # the signs count as the exact signature does
    cases = _eigenvalue_cases()
    assert len(cases) > 150
    for rows, planted in cases:
        got = float_eigenvalues(rows)
        with mpmath.workdps(60):
            reference = [Fraction(str(x)) for x in sorted(mpmath.eigsy(
                mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row]
                               for row in rows]), eigvals_only=True))] if rows else []
        if planted is not None:
            assert all(abs(r - e) < Fraction(1, 10 ** 40) * (1 + abs(e))
                       for r, e in zip(reference, planted))
            reference = planted
        assert got == tuple(float(Fraction(e)) for e in reference)
        sig = signature(rows)
        assert (sum(e > 0 for e in got), sum(e < 0 for e in got), got.count(0)) == sig
    # the last case plants both ties: 1 + 2^-53 rounds down, 1 + 3 * 2^-53 up
    assert float_eigenvalues(cases[-1][0]) == (0.0, 0.0, 1.0, 1 + 2 ** -51)


def hr_discriminant(matrix, u, v):
    """(u^T A v)^2 - (u^T A u)(v^T A v), from three bilinear forms."""
    mat = SymMatrix.from_rows(matrix)
    return bilinear(u, mat, v) ** 2 - bilinear(u, mat, u) * bilinear(v, mat, v)


def test_hr_discriminant_frozen():
    mat = SymMatrix.from_rows(H_U12)
    u, v = (rat(1), rat(1), rat(1)), (rat(0), rat(1), rat(0))
    assert bilinear(u, mat, u) == 8
    assert bilinear(u, mat, v) == 2
    assert bilinear(v, mat, v) == 0
    assert hr_discriminant(mat, u, v) == 4


def test_hr_discriminant_nonnegative_for_one_positive():
    # with exactly one positive eigenvalue, u^T A u > 0 forces the
    # two-variable form to be degenerate-or-indefinite
    rng = random.Random(11)
    mat = SymMatrix.from_rows(H_U12)
    found_positive_u = 0
    for _ in range(200):
        u = tuple(rat(rng.randint(-9, 9)) for _ in range(3))
        v = tuple(rat(rng.randint(-9, 9)) for _ in range(3))
        if bilinear(u, mat, u) > 0:
            found_positive_u += 1
            assert hr_discriminant(mat, u, v) >= 0
    assert found_positive_u > 50


def test_equivalence_agreement_one_positive():
    rep = one_positive_equivalence_check(all_ones(4), trials=40, seed=5)
    assert rep.applicable
    assert rep.signature == EigenSignature(1, 0, 3)
    assert rep.statement1 and rep.statement2 and rep.statement3
    assert rep.agree
    assert rep.witness_u is not None


def test_equivalence_agreement_two_positive():
    rep = one_positive_equivalence_check([[rat(1), rat(0), rat(0)],
                              [rat(0), rat(1), rat(0)],
                              [rat(0), rat(0), rat(-1)]], trials=40, seed=5)
    assert rep.applicable
    assert not rep.statement1
    # the congruence-probe pair guarantees the sampled statements also fail
    assert not rep.statement2
    assert not rep.statement3
    assert rep.agree
    assert rep.counterexample is not None
    u, v = rep.counterexample["u"], rep.counterexample["v"]
    assert rep.counterexample["discriminant"] < 0


def test_equivalence_reports_the_positive_axes_as_they_are():
    # with no sampled pairs the statement-2 counterexample is the pair of
    # positive axes, probed as integer multiples but reported as the
    # rational columns of the congruence, with the discriminant of A
    a = [[rat(1, 2), rat(1, 3), rat(0)], [rat(1, 3), rat(1), rat(0)], [rat(0), rat(0), rat(-1)]]
    vectors, diag = congruence_diagonalize(a)
    p1, p2 = [v for v, d in zip(vectors, diag) if d > 0]
    assert any(x.denominator > 1 for x in p1 + p2)
    rep = one_positive_equivalence_check(a, trials=0, seed=1)
    assert not rep.statement2
    assert rep.counterexample == {"u": p1, "v": p2, "discriminant": hr_discriminant(a, p1, p2)}
    assert rep.counterexample["discriminant"] < 0


def test_equivalence_not_applicable_without_positive_direction():
    rep = one_positive_equivalence_check([[rat(-2), rat(0)], [rat(0), rat(0)]])
    assert not rep.applicable
    assert rep.agree  # vacuously


def test_equivalence_random_agreement():
    rng = random.Random(2024)
    applicable = 0
    for _ in range(40):
        dim = rng.randint(2, 4)
        rep = one_positive_equivalence_check(rand_symmetric(rng, dim), trials=25, seed=rng.randint(0, 10**6))
        if rep.applicable:
            applicable += 1
            assert rep.agree
    assert applicable >= 20


def test_equivalence_rejects_float_matrices():
    with pytest.raises(InvalidParametersError):
        one_positive_equivalence_check([[1.0, 0.0], [0.0, 1.0]])


def test_equivalence_falls_back_to_a_positive_axis():
    # signature (1, 1, 0), but u^T A u > 0 needs |u_1| > 10^6 |u_2| with
    # u_2 != 0, which no vector of the [-9, 9] sampler has: the sampler
    # falls back to the positive axis of the congruence
    eps = rat(-3, 10**6)
    rep = one_positive_equivalence_check([[rat(0), eps], [eps, rat(-6)]], trials=20, seed=0)
    assert rep.applicable and rep.signature == EigenSignature(1, 1, 0)
    assert rep.statement1 and rep.statement2 and rep.statement3 and rep.agree
    assert rep.witness_u == (1, rat(-1, 2 * 10**6))


def test_equivalence_stops_drawing_once_the_sampler_is_exhausted(monkeypatch):
    # the first exhausted 1000-draw budget switches the check to the
    # positive axis for its other 104 draws of positive form: 1000 draws
    # plus the 200 plain v draws, where drawing on would make about 105,000
    calls = []
    draw = spectral._sample_int_vector
    monkeypatch.setattr(spectral, "_sample_int_vector",
                        lambda rng, dim: calls.append(dim) or draw(rng, dim))
    eps = rat(-3, 10**6)
    rep = one_positive_equivalence_check([[rat(0), eps], [eps, rat(-6)]], trials=100, seed=0)
    assert rep.statement1 and rep.statement2 and rep.statement3
    assert rep.witness_u == (1, rat(-1, 2 * 10**6))
    assert len(calls) < 2000


def test_euler_hessian_residual_is_exactly_zero():
    cases = [
        (U24, (1, 2, 3, 2, 1), rat(1, 2), (0, 0, 0, 0, 0)),
        (U24, (5, 4, 3, 2, 1), rat(1, 3), (1, 0, 1, 0, 0)),
        (K3, (1, 2, 2, 1), rat(1), (0, 0, 0, 0)),
        (K3, (1, 3, 3, 1), rat(2, 5), (1, 0, 0, 0)),
    ]
    for matroid, c, q, alpha in cases:
        w = tuple(rat(i + 1, 2) for i in range(matroid.n + 1))
        assert euler_hessian_residual(matroid, c, q, alpha, w) == 0


def test_euler_hessian_residual_needs_degree_two():
    w = (rat(1), rat(1), rat(1))
    with pytest.raises(NotApplicableError):
        euler_hessian_residual(U12, (1, 1, 1), rat(1), (1, 0, 0), w)  # degree 1
    with pytest.raises(NotApplicableError, match="identically zero"):
        euler_hessian_residual(U12, (1, 1, 1), rat(1), (0, 2, 0), w)  # zero


def test_kernel_identity_degenerate_degree_two():
    # degree-2 polynomial: its first derivatives have degree 1 and zero
    # Hessians, so the one-positive hypothesis fails and the kernels differ
    rep = kernel_identity_check(U12, (1, 1, 1), rat(1), (0, 0, 0),
                                (rat(1), rat(1), rat(1)))
    assert not rep.hypothesis_ok
    assert rep.hypothesis_failures
    assert not rep.kernels_equal
    assert rep.kernel_dim == 1
    assert rep.stacked_kernel_dim == 3
    assert rep.degree == 2
    assert kernel_contains(rep.kernel_basis, (rat(1), rat(-1), rat(-1)))
    assert not kernel_contains(rep.kernel_basis, (rat(1), rat(0), rat(0)))


def test_kernel_identity_holds_in_higher_degree():
    cases = [
        (U24, (1, 2, 3, 2, 1), rat(1, 2), (0, 0, 0, 0, 0)),
        (U24, (1, 2, 3, 2, 1), rat(1, 2), (1, 0, 0, 0, 0)),
        (K3, (1, 3, 3, 1), rat(1, 3), (0, 0, 0, 0)),
        (make_uniform(3, 5), (1, 4, 6, 4, 2, 1), rat(1), (0, 1, 0, 0, 0, 0)),
    ]
    for matroid, c, q, alpha in cases:
        w = tuple(rat(i + 2, 3) for i in range(matroid.n + 1))
        rep = kernel_identity_check(matroid, c, q, alpha, w)
        assert rep.hypothesis_ok
        assert rep.kernels_equal
        assert rep.kernel_dim == rep.stacked_kernel_dim
        assert rep.degree >= 3


def test_kernel_identity_rejects_vanishing_derivative():
    with pytest.raises(NotApplicableError):
        kernel_identity_check(U12, (1, 1, 1), rat(1), (0, 2, 0),
                              (rat(1), rat(1), rat(1)))


# ------------------------------------ identities against a rational reference
#
# Both identities read the congruent integer rows of the Hessians of F and
# of every dF/dw_i.  The Euler reference takes one public (Fraction)
# hessian per Hessian and combines them in Fractions.  The kernel
# reference builds every Hessian from a sympy expression of the weighted
# polynomial, with signatures from the rational congruence reference above
# and nullspaces and ranks from sympy, so it shares no code with the rows.


def reference_euler_hessian_residual(matroid, c, q, alpha, w):
    n = matroid.n
    d = derivative_degree(matroid, alpha)
    wv = tuple(w)
    total = [[(d - 2) * x for x in row] for row in hessian(matroid, c, q, alpha, wv).entries]
    for i in range(n + 1):
        bumped = list(alpha)
        bumped[i] += 1
        hi = hessian(matroid, c, q, tuple(bumped), wv)
        for r in range(n + 1):
            for s in range(n + 1):
                total[r][s] -= wv[i] * hi.entries[r][s]
    return max((x if x >= 0 else -x) for row in total for x in row)


def oracle_polynomial(matroid, c, q):
    """Sympy expression of sum_A c_|A| q^(-rk A) w_0^(n-|A|) w^A at the
    given q, written out term by term, and its variables w_0..w_n."""
    n = matroid.n
    ws = sympy.symbols(f"w0:{n + 1}")
    total = sympy.Integer(0)
    for mask, rank in enumerate(matroid.ranks):
        size = mask.bit_count()
        term = sympy.Rational(str(c[size])) * sympy.Rational(str(q)) ** -rank
        term *= ws[0] ** (n - size)
        for i in range(1, n + 1):
            if mask >> (i - 1) & 1:
                term *= ws[i]
        total += term
    return total, ws


def _fractions(vector):
    return tuple(Fraction(int(x.p), int(x.q)) for x in vector)


def reference_kernel_identity_check(matroid, c, q, alpha, w):
    expr, ws = oracle_polynomial(matroid, c, q)
    f = expr
    for x, a in zip(ws, alpha):
        if a:
            f = f.diff(x, a)
    point = {x: sympy.Rational(str(v)) for x, v in zip(ws, w)}

    def hessian_at(g):
        return sympy.hessian(g, ws).subs(point)

    def sympy_rank(vectors):
        return sympy.Matrix(vectors).rank() if vectors else 0

    dim = matroid.n + 1
    stacked = []
    failures = []
    for i, x in enumerate(ws):
        g = f.diff(x)
        if g == 0:
            continue
        hi = hessian_at(g)
        stacked.extend(hi.tolist())
        sig = reference_signature([_fractions(row) for row in hi.tolist()])
        if sig.n_pos != 1:
            failures.append({"index": i, "signature": tuple(sig)})
    ker_f = [_fractions(v) for v in hessian_at(f).nullspace()]
    if stacked:
        ker_stack = [_fractions(v) for v in sympy.Matrix(stacked).nullspace()]
    else:
        ker_stack = [tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)]
    joint = sympy_rank(ker_f + ker_stack)
    return KernelIdentityReport(
        hypothesis_ok=not failures, hypothesis_failures=tuple(failures),
        kernels_equal=sympy_rank(ker_f) == sympy_rank(ker_stack) == joint,
        kernel_dim=len(ker_f), stacked_kernel_dim=len(ker_stack), kernel_basis=tuple(ker_f),
        degree=sympy.Poly(f, *ws).total_degree(), notes={"dim": dim})


# all four constructors, with loops and parallel classes
IDENTITY_MATROIDS = [
    U24, K3, make_uniform(3, 5), make_uniform(0, 3),
    make_graphic(2, [(1, 2), (1, 2), (1, 1)]),
    make_graphic(3, [(1, 2), (1, 2), (2, 3), (3, 3)]),
    make_linear(3, [[1, 0, 1, 2, 0], [0, 1, 1, 1, 0]]),
    make_linear(2, [[1, 1, 0, 1], [0, 0, 1, 1]]),
    make_rank_table(4, make_graphic(3, [(1, 2), (2, 3), (2, 3), (1, 1)]).ranks),
]
# denominators up to 10^12
big_positive = st.builds(Fraction, st.integers(1, 10 ** 12), st.integers(1, 10 ** 12))
big_signed = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12))
unit_q = st.one_of(st.just(Fraction(1)), st.just(Fraction(1, 2)),
                   st.builds(lambda a, b: Fraction(min(a, b), max(a, b)),
                             st.integers(1, 10 ** 12), st.integers(1, 10 ** 12)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_identities_match_rational_reference(data):
    matroid = data.draw(st.sampled_from([m for m in IDENTITY_MATROIDS if m.n >= 2]))
    n = matroid.n
    # alpha of degree d in 2..n: alpha_0 plus an inner support of size s
    order = n - data.draw(st.integers(2, n))
    s = data.draw(st.integers(0, order))
    support = data.draw(st.permutations(range(1, n + 1)))[:s]
    alpha = tuple(order - s if i == 0 else int(i in support) for i in range(n + 1))
    c = data.draw(st.lists(big_positive, min_size=n + 1, max_size=n + 1))
    q = data.draw(unit_q)
    w = data.draw(st.lists(big_signed, min_size=n + 1, max_size=n + 1))
    assert euler_hessian_residual(matroid, c, q, alpha, w) == \
        reference_euler_hessian_residual(matroid, c, q, alpha, w) == 0


@pytest.mark.parametrize("index, c, q, alpha, w", [
    # U(2,4) at a positive point: the hypothesis holds
    (0, (1, 2, 3, 2, 1), Fraction(1, 2), (0, 0, 0, 0, 0),
     (Fraction(2, 3), 1, Fraction(4, 3), Fraction(5, 3), 2)),
    # a GF(2) matroid with a zero coordinate: a one-dimensional kernel
    (7, (1, 1, 1, 1, 1), 1, (0, 0, 0, 0, 0), (1, Fraction(2, 3), 1, 2, 0)),
    # a loop and a parallel pair at a sign-mixed point: a kernel again
    (4, (2, 2, 2, 2), 1, (0, 0, 0, 0), (Fraction(1, 2), 1, Fraction(-1, 3), -1)),
    # K3 with an inner derivative, a sign-mixed point and a zero coordinate
    (1, (Fraction(3, 7), 2, 5, Fraction(1, 11)), Fraction(2, 5), (0, 1, 0, 0),
     (Fraction(7, 5), 0, Fraction(-4, 9), Fraction(11, 2))),
    # a loop and a parallel pair, w_0 = 0
    (5, (1, 3, 3, 1, 1), Fraction(1, 3), (1, 0, 0, 0, 0),
     (0, Fraction(1, 2), 3, Fraction(-2, 7), 5)),
    # a GF(3) matroid in degree 2: the first derivatives have zero Hessians
    (6, (2, 3, 3, 2, 1, 1), 1, (2, 0, 1, 0, 0, 0),
     (1, Fraction(1, 3), 2, Fraction(3, 4), 1, Fraction(5, 2))),
    # U(2,4) with w_0 < 0: each dF/dw_i has odd degree 3, so its rows have
    # the inertia of its Hessian with the positive and negative counts swapped
    (0, (1, 2, 3, 2, 1), Fraction(1, 2), (0, 0, 0, 0, 0),
     (Fraction(-2, 3), 1, Fraction(4, 3), Fraction(5, 3), 2)),
    # a constant derivative: no first derivative survives, so the joint
    # kernel is the whole space
    (0, (1, 2, 3, 2, 1), Fraction(1, 2), (2, 1, 0, 1, 0), (1, 2, 0, -1, 3)),
])
def test_kernel_identity_matches_sympy_reference(index, c, q, alpha, w):
    matroid = IDENTITY_MATROIDS[index]
    assert kernel_identity_check(matroid, c, q, alpha, w) == \
        reference_kernel_identity_check(matroid, c, q, alpha, w)


def test_hessian_signature_of_weighted_polynomial():
    # strictly log-concave coefficients at an interior point: one positive
    h = hessian(K3, (1, 2, 2, 1), rat(1, 3), (0, 0, 0, 0),
                (rat(1), rat(1), rat(1), rat(1)))
    assert signature(h) == EigenSignature(1, 3, 0)
    # all-ones coefficients on U12: singular but still one-positive
    h2 = hessian(U12, (1, 1, 1), rat(1), (0, 0, 0), (rat(1), rat(1), rat(1)))
    assert signature(h2) == EigenSignature(1, 1, 1)


def test_float_hessian_signature():
    # float inputs are converted exactly, and the signature is that of the
    # exact Hessian of the converted inputs
    h = hessian(K3, [from_float(x) for x in (1.0, 2.0, 2.0, 1.0)], from_float(1 / 3),
                (0, 0, 0, 0), [from_float(x) for x in (1.0, 1.0, 1.0, 1.0)])
    assert signature(h) == EigenSignature(1, 3, 0)
