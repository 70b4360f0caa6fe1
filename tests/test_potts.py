"""Evaluator tests: frozen values, a symbolic oracle, and structural identities.

The oracle builds the weighted partition polynomial literally as a sympy
expression (one monomial per subset), differentiates symbolically, and
substitutes exact rationals.  The package evaluates the same quantities
through subset-mask passes; the two routes share no code.
"""

import json
import math
import random
from fractions import Fraction
from itertools import chain

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from potts_hodge import (
    InvalidParametersError,
    contract,
    dependent_mass,
    derivative_degree,
    elementary_symmetric,
    euler_hessian_residual,
    f_all,
    f_limit_residual,
    f_m_eval,
    generate_corpus,
    gradient,
    hessian,
    is_identically_zero,
    is_log_concave,
    is_strictly_log_concave,
    kernel_identity_check,
    make_graphic,
    make_linear,
    make_rank_table,
    make_uniform,
    partial_eval,
    rat,
    signature,
    z_weighted_eval,
    zk_all,
    zk_eval,
)
from potts_hodge.potts import (
    _single_sums,
    _superset_lists,
    _superset_sums,
    independent_numerators,
    quadratic_numerators,
    second_order_numerators,
    strata_numerators,
    validate_coeffs,
    validate_point,
    validate_q,
)
from potts_hodge.scalars import (
    from_float,
    is_exact_scalar,
    scalar_to_json,
    to_float,
    vector_to_json,
)

U24 = make_uniform(2, 4)
U12 = make_uniform(1, 2)
K3 = make_graphic(3, [(1, 2), (2, 3), (1, 3)])
LIN = make_linear(2, [[1, 0, 1, 1], [0, 1, 1, 0]])
LOOPY = make_graphic(2, [(1, 1), (2, 2), (1, 2)])


def frac(x):
    return Fraction(int(x.numerator), int(x.denominator))


def sym_frac(x):
    r = sympy.Rational(x)
    return Fraction(int(r.p), int(r.q))


def oracle_weighted(matroid, c):
    """Sympy expression of the weighted polynomial plus its variables."""
    n = matroid.n
    q = sympy.Symbol("q", positive=True)
    ws = sympy.symbols(f"w0:{n + 1}")
    total = sympy.Integer(0)
    for mask in range(1 << n):
        size = bin(mask).count("1")
        term = sympy.Rational(str(c[size])) * q ** (-matroid.ranks[mask])
        term *= ws[0] ** (n - size)
        for i in range(1, n + 1):
            if mask & (1 << (i - 1)):
                term *= ws[i]
        total += term
    return total, q, ws


def oracle_eval(expr, q, ws, q_val, w_val):
    subs = {q: sympy.Rational(str(q_val))}
    subs.update({ws[i]: sympy.Rational(str(w_val[i])) for i in range(len(ws))})
    return sym_frac(expr.subs(subs))


ORACLE_CASES = [
    (U24, (1, 1, 1, 1, 1), rat(1, 2), (rat(1), rat(1), rat(2), rat(3), rat(4))),
    (U24, (5, 4, 3, 2, 1), rat(1, 2), (rat(1), rat(1), rat(2), rat(3), rat(4))),
    (K3, (1, 2, 2, 1), rat(1, 3), (rat(1), rat(1), rat(1), rat(1))),
    (K3, (2, 1, 3, 1), rat(1), (rat(2), rat(5), rat(1, 2), rat(3))),
    (LIN, (1, 1, 1, 1, 1), rat(1, 5), (rat(1), rat(3), rat(1, 2), rat(2), rat(1))),
    (LOOPY, (3, 2, 1, 1), rat(2, 3), (rat(1), rat(1, 3), rat(4), rat(0))),
    # two zero inner coordinates
    (U24, (1, 2, 3, 2, 1), rat(1, 2), (rat(2), rat(0), rat(3), rat(0), rat(5))),
    # w_0 = 0
    (K3, (1, 2, 2, 1), rat(1, 2), (rat(0), rat(2), rat(3), rat(1, 2))),
    # a sign-mixed point
    (LIN, (2, 3, 3, 2, 1), rat(1, 3), (rat(1), rat(-2), rat(3), rat(-1, 2), rat(2))),
    # the evaluators clear denominators: q = 1 with pairwise coprime
    # denominators in w and non-integer c,
    (U24, (rat(1, 2), rat(3, 5), rat(7, 3), 2, rat(5, 4)), rat(1),
     (rat(1, 2), rat(2, 3), rat(5, 7), rat(3, 11), rat(13, 4))),
    # q just below 1 with a large numerator and denominator,
    (K3, (rat(3, 7), rat(2, 9), 5, rat(1, 11)), rat(10 ** 12 - 11, 10 ** 12 + 39),
     (rat(7, 5), rat(1, 3), rat(4, 9), rat(11, 2))),
    # and all three at once on a matroid with loops
    (LOOPY, (rat(5, 6), rat(1, 10), rat(9, 4), rat(2, 15)), rat(999983, 1000003),
     (rat(2, 3), rat(5, 7), rat(1, 11), rat(13, 17))),
]


def test_frozen_strata_u24():
    strata = zk_all(U24, rat(1, 2), (rat(1), rat(2), rat(3), rat(4)))
    assert strata == (1, 20, 140, 200, 96)


def test_frozen_weighted_value():
    val = z_weighted_eval(U24, (5, 4, 3, 2, 1), rat(1, 2),
                          (rat(1), rat(1), rat(2), rat(3), rat(4)))
    assert val == 1001


def test_frozen_partials():
    c = (5, 4, 3, 2, 1)
    q = rat(1, 2)
    w = (rat(1), rat(1), rat(2), rat(3), rat(4))
    assert partial_eval(U24, c, q, (1, 1, 0, 0, 0), w) == 448
    assert partial_eval(U24, c, q, (2, 0, 0, 0, 1), w) == 192


def test_frozen_hessian_k3():
    h = hessian(K3, (1, 2, 2, 1), rat(1, 3), (0, 0, 0, 0),
                (rat(1), rat(1), rat(1), rat(1)))
    assert [list(r) for r in h.entries] == [
        [42, 48, 48, 48],
        [48, 0, 27, 27],
        [48, 27, 0, 27],
        [48, 27, 27, 0],
    ]


def test_frozen_hessian_and_gradient_u12():
    ones = (rat(1), rat(1), rat(1))
    c = (1, 1, 1)
    g = gradient(U12, c, rat(1), (0, 0, 0), ones)
    assert g == (4, 2, 2)
    h = hessian(U12, c, rat(1), (0, 0, 0), ones)
    assert [list(r) for r in h.entries] == [[2, 1, 1], [1, 0, 1], [1, 1, 0]]


@pytest.mark.parametrize("matroid,c,q,w", ORACLE_CASES)
def test_oracle_weighted_value(matroid, c, q, w):
    expr, qs, ws = oracle_weighted(matroid, c)
    expected = oracle_eval(expr, qs, ws, q, w)
    assert frac(z_weighted_eval(matroid, c, q, w)) == expected


@pytest.mark.parametrize("matroid,c,q,w", ORACLE_CASES)
def test_oracle_strata(matroid, c, q, w):
    # strata of the unweighted polynomial: fix c = ones and read off the
    # coefficient of each w0 power
    expr, qs, ws = oracle_weighted(matroid, [1] * (matroid.n + 1))
    poly = sympy.Poly(expr, ws[0])
    strata = zk_all(matroid, q, w[1:])
    subs = {qs: sympy.Rational(str(q))}
    subs.update({ws[i]: sympy.Rational(str(w[i])) for i in range(1, matroid.n + 1)})
    for k in range(matroid.n + 1):
        coeff = poly.coeff_monomial(ws[0] ** (matroid.n - k))
        assert frac(strata[k]) == sym_frac(coeff.subs(subs))


ALPHA_CASES = [
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0),
    (0, 1, 0, 1, 0),
    (2, 0, 0, 0, 1),
    (1, 1, 1, 0, 0),
    (0, 0, 2, 0, 0),  # identically zero: inner entry 2
    (3, 1, 1, 0, 0),  # identically zero: order above n
]


@pytest.mark.parametrize("matroid,c,q,w", ORACLE_CASES[:3])
@pytest.mark.parametrize("alpha", ALPHA_CASES)
def test_oracle_partials(matroid, c, q, w, alpha):
    alpha = alpha[: matroid.n + 1]
    expr, qs, ws = oracle_weighted(matroid, c)
    deriv = expr
    for i, a in enumerate(alpha):
        deriv = sympy.diff(deriv, ws[i], a)
    expected = oracle_eval(deriv, qs, ws, q, w)
    assert frac(partial_eval(matroid, c, q, alpha, w)) == expected


@pytest.mark.parametrize("matroid,c,q,w", ORACLE_CASES)
def test_oracle_gradient_and_hessian(matroid, c, q, w):
    n = matroid.n
    expr, qs, ws = oracle_weighted(matroid, c)
    # the polynomial itself, and a mixed derivative in w_0 and w_2 (whose
    # gradient has the scale factor of the second-order derivatives)
    for alpha in ((0,) * (n + 1), (1, 0, 1) + (0,) * (n - 2)):
        deriv = expr
        for i, a in enumerate(alpha):
            deriv = sympy.diff(deriv, ws[i], a)
        g = gradient(matroid, c, q, alpha, w)
        h = hessian(matroid, c, q, alpha, w)
        rows = h.entries
        for i in range(n + 1):
            gi = sympy.diff(deriv, ws[i])
            assert frac(g[i]) == oracle_eval(gi, qs, ws, q, w)
            for j in range(i, n + 1):
                hij = sympy.diff(gi, ws[j])
                val = oracle_eval(hij, qs, ws, q, w)
                assert frac(rows[i][j]) == val
                assert frac(rows[j][i]) == val


@st.composite
def small_matroids(draw, max_n=5):
    """A random matroid on n <= max_n elements from any of the four
    constructors: graphic ones with loops and parallel edges, linear ones
    over GF(2) and GF(3), and rank tables copied from either."""
    kind = draw(st.sampled_from(("uniform", "graphic", "linear", "rank_table")))
    if kind == "uniform":
        n = draw(st.integers(1, max_n))
        return make_uniform(draw(st.integers(0, n)), n)
    if kind == "linear" or (kind == "rank_table" and draw(st.booleans())):
        prime = draw(st.sampled_from((2, 3)))
        n = draw(st.integers(1, max_n))
        rows = draw(st.integers(1, 4))
        matrix = draw(st.lists(st.lists(st.integers(0, prime - 1), min_size=n, max_size=n),
                               min_size=rows, max_size=rows))
        matroid = make_linear(prime, matrix)
    else:
        vertices = draw(st.integers(1, 5))
        vertex = st.integers(1, vertices)
        matroid = make_graphic(vertices, draw(st.lists(st.tuples(vertex, vertex),
                                                       min_size=1, max_size=max_n)))
    if kind == "rank_table":
        return make_rank_table(matroid.n, matroid.ranks)
    return matroid


# signed rationals; a zero numerator gives the zero coordinates
coordinates = st.builds(Fraction, st.integers(-7, 9), st.integers(1, 6))
positive = st.builds(Fraction, st.integers(1, 9), st.integers(1, 6))
# q = 1, just above 1, and random in (0, 1]
q_values = st.one_of(st.just(Fraction(1)), st.just(Fraction(1001, 1000)),
                     st.builds(lambda a, b: Fraction(min(a, b), max(a, b)),
                               st.integers(1, 60), st.integers(1, 60)))


@st.composite
def derivative_inputs(draw, coords=coordinates):
    """(matroid, c, q, alpha, w) on a random matroid from small_matroids,
    with the coordinates of w drawn from coords."""
    matroid = draw(small_matroids())
    n = matroid.n
    c = draw(st.lists(positive, min_size=n + 1, max_size=n + 1))
    q = draw(q_values)
    w = draw(st.lists(coords, min_size=n + 1, max_size=n + 1))
    # alpha_0 <= 2 and a sparse inner support, so that most derivatives
    # keep degree two or more
    alpha = (draw(st.integers(0, 2)),) + tuple(
        draw(st.lists(st.sampled_from((0, 0, 1)), min_size=n, max_size=n)))
    return matroid, c, q, alpha, w


@settings(max_examples=120, deadline=None)
@given(inputs=derivative_inputs())
# w_0 = 0 at w_0-orders 0, 1 and 2, with a zero inner coordinate in the last
@example(inputs=(K3, tuple(map(Fraction, (1, 2, 2, 1))), Fraction(1, 2), (0, 0, 0, 0),
                 (Fraction(0), Fraction(2), Fraction(3), Fraction(1, 2))))
@example(inputs=(U24, tuple(map(Fraction, (1, 2, 3, 2, 1))), Fraction(2, 3), (1, 0, 1, 0, 0),
                 (Fraction(0), Fraction(1, 4), Fraction(2), Fraction(5, 6), Fraction(-7, 6))))
@example(inputs=(LIN, tuple(map(Fraction, (2, 3, 3, 2, 1))), Fraction(1, 3), (2, 0, 0, 0, 0),
                 (Fraction(0), Fraction(-2), Fraction(3), Fraction(0), Fraction(2))))
def test_oracle_differential(inputs):
    matroid, c, q, alpha, w = inputs
    n = matroid.n
    expr, qs, ws = oracle_weighted(matroid, c)
    # the oracle at this q, as a polynomial in w_0..w_n over QQ
    poly = sympy.Poly(expr.subs(qs, sympy.Rational(str(q))), *ws)
    point = {ws[i]: sympy.Rational(str(w[i])) for i in range(n + 1)}
    # the coefficient of w0^(n-k) in Z_c is c_k Z[k]
    in_w0 = poly.eval({ws[i]: point[ws[i]] for i in range(1, n + 1)})
    strata = zk_all(matroid, q, w[1:])
    for k in range(n + 1):
        assert strata[k] == sym_frac(in_w0.coeff_monomial(ws[0] ** (n - k))) / c[k]
    deriv = poly
    for i, a in enumerate(alpha):
        for _ in range(a):
            deriv = deriv.diff(ws[i])
    assert partial_eval(matroid, c, q, alpha, w) == sym_frac(deriv.eval(point))
    g = gradient(matroid, c, q, alpha, w)
    rows = hessian(matroid, c, q, alpha, w).entries
    for i in range(n + 1):
        gi = deriv.diff(ws[i])
        assert g[i] == sym_frac(gi.eval(point))
        for j in range(i, n + 1):
            assert rows[i][j] == rows[j][i] == sym_frac(gi.diff(ws[j]).eval(point))


def over_one_scale(ints, scale):
    """The integers divided by their one positive integer scale."""
    ints = list(ints)
    assert type(scale) is int and scale > 0
    assert all(type(x) is int for x in ints)
    return tuple(Fraction(x, scale) for x in ints)


@pytest.mark.parametrize("bits", range(6))
def test_superset_sums_and_bit_sums_brute_force(bits):
    rng = random.Random(bits)
    size = 1 << bits
    f = [rng.randint(-9, 9) for _ in range(size)]
    for skip in range(size):
        # the sums over the supersets of b that agree with b on skip
        assert _superset_sums(f, skip) == [
            sum(f[a] for a in range(size) if a & b == b and a & skip == b & skip)
            for b in range(size)]
    assert _single_sums(f, bits) == (
        [sum(f[a] for a in range(size) if a >> i & 1) for i in range(bits)], sum(f))
    for low in range(bits + 1):
        # the reads of bit i that hold no other bit at or above low
        assert _single_sums(f, low) == (
            [sum(f[a] for a in range(size) if a >> i & 1 and a >> low << low in (0, 1 << i))
             for i in range(bits)],
            sum(f[:1 << low]))


def test_quadratic_numerators_match_the_strata():
    # Z[1] and Z[2] off the singletons and pairs equal those of the full
    # subset pass on every default-corpus matroid (loops and parallel
    # classes included), at q in (0, 1] and at positive, sign-mixed,
    # zero-holding and 10^(+-12)-sized points
    rng = random.Random(27)
    points = [
        lambda n: [Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(n)],
        lambda n: [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)],
        lambda n: [rng.choice((0, 0, 3, Fraction(-2, 7))) for _ in range(n)],
        lambda n: [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
                   * Fraction(10) ** rng.choice((-12, 12)) for _ in range(n)]]
    qs = (1, Fraction(1, 2), Fraction(3, 7), Fraction(1, 10 ** 12), Fraction(10 ** 12 - 1, 10 ** 12))
    for matroid in generate_corpus("default"):
        for q in qs:
            for point in points:
                w = tuple(point(matroid.n))
                z1, z2, scale = quadratic_numerators(matroid, q, w)
                strata = over_one_scale(*strata_numerators(matroid, q, w))
                assert over_one_scale([z1, z2], scale) == strata[1:3]


def principal(rows, indices):
    """The principal submatrix of rows on indices."""
    return [[rows[i][j] for j in indices] for i in indices]


@settings(max_examples=120, deadline=None)
@given(inputs=derivative_inputs(positive))
# alpha = 0, and a nonempty support with a w_0-order
@example(inputs=(U24, (1, 3, 4, 3, 1), Fraction(1, 2), (0, 0, 0, 0, 0),
                 (Fraction(1), Fraction(1, 2), Fraction(3), Fraction(2, 5), Fraction(7))))
@example(inputs=(LIN, (1, 2, 3, 2, 1), Fraction(1, 3), (1, 1, 0, 0, 1),
                 (Fraction(5, 4), Fraction(1, 6), Fraction(2), Fraction(9, 2), Fraction(1, 3))))
def test_congruent_hessian_has_the_inertia_of_the_hessian(inputs):
    # at a positive point D = diag(w_0, w_1, ..., w_n) is invertible and
    # w_0^(-d) > 0, so by Sylvester's law the rows of
    # second_order_numerators have the inertia of the Hessian, on the
    # active indices too
    matroid, c, q, alpha, w = inputs
    n = matroid.n
    active = [0] + [i for i in range(1, n + 1) if not alpha[i]]
    _, _, rows, _ = second_order_numerators(matroid, c, q, alpha, w)
    assert signature(principal(rows, active)) == \
        signature(principal(hessian(matroid, c, q, alpha, w).entries, active))


@settings(max_examples=200, deadline=None)
@given(inputs=derivative_inputs())
# denominators that share factors (4, 6, 6: lcm 12, product 144), a zero
# inner coordinate and w_0 = 0
@example(inputs=(U24, tuple(map(Fraction, (1, 2, 3, 2, 1))), Fraction(2, 3), (1, 0, 1, 0, 0),
                 (Fraction(0), Fraction(1, 4), Fraction(0), Fraction(5, 6), Fraction(-7, 6))))
# lcm 36, product 216, every coefficient a fraction
@example(inputs=(K3, (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)), Fraction(1),
                 (0, 0, 0, 0), (Fraction(3, 4), Fraction(0), Fraction(1, 6), Fraction(5, 9))))
def test_numerators_differential(inputs):
    # each numerator helper returns integers over one positive integer
    # scale, and they divide to the public values, which
    # test_oracle_differential holds to the sympy oracle;
    # second_order_numerators gives the alpha-derivative, D times its
    # gradient and D H D for D = diag(w_0', w'_1, ..., w'_n), where w' is w
    # with each zero coordinate replaced by 1, all times w_0'^(-d) for d
    # the degree of the derivative
    matroid, c, q, alpha, w = inputs
    n = matroid.n
    d = tuple(x or 1 for x in w)
    factor = Fraction(d[0]) ** (sum(alpha) - n)
    z, grad, rows, scale = second_order_numerators(matroid, c, q, alpha, w)
    assert over_one_scale([z], scale) == (factor * partial_eval(matroid, c, q, alpha, w),)
    assert over_one_scale(grad, scale) == \
        tuple(factor * x * y for x, y in zip(d, gradient(matroid, c, q, alpha, w)))
    h = hessian(matroid, c, q, alpha, w).entries
    assert over_one_scale(chain(*rows), scale) == \
        tuple(factor * d[i] * h[i][j] * d[j] for i in range(n + 1) for j in range(n + 1))
    # the strata and the independent-set strata at the inner point
    inner = w[1:]
    assert over_one_scale(*strata_numerators(matroid, q, inner)) == zk_all(matroid, q, inner)
    assert over_one_scale(*independent_numerators(matroid, inner)) == f_all(matroid, inner)


@settings(max_examples=150, deadline=None)
@given(inputs=derivative_inputs())
# w_0 = 0 with a zero inner coordinate, and w_0 < 0 at w_0-order 2
@example(inputs=(U24, tuple(map(Fraction, (1, 2, 3, 2, 1))), Fraction(2, 3), (1, 0, 1, 0, 0),
                 (Fraction(0), Fraction(1, 4), Fraction(0), Fraction(5, 6), Fraction(-7, 6))))
@example(inputs=(K3, tuple(map(Fraction, (1, 2, 2, 1))), Fraction(1, 2), (2, 0, 0, 0),
                 (Fraction(-3, 2), Fraction(1, 2), Fraction(2), Fraction(-4))))
def test_order_lists_brute_force(inputs):
    # the w_0-order-a list of _superset_lists, entry t for the subset
    # A = S + {free[x] : bit x of t} of size k and rank r, is
    # c_k (n-k)_a w_0^(n-k-a) q^(-r) w'^A over scale, divided by
    # w_0'^(n-|S|-a) w'^S, where w' is w with each 0 replaced by 1 (the
    # bits of the zero inner coordinates come last in free and are kept
    # out of the sums that read the list)
    matroid, c, q, alpha, w = inputs
    n = matroid.n
    monomials, free, low, scale = _superset_lists(matroid, c, q, alpha, w)
    assert type(scale) is int and scale > 0
    support = [i for i in range(n) if alpha[i + 1]]
    if alpha[0] + len(support) > n:  # an identically zero derivative
        assert not any(chain(monomials(0), monomials(1), monomials(2)))
        return
    assert sorted(free) == [i for i in range(n) if not alpha[i + 1]]
    assert all(w[i + 1] for i in free[:low]) and not any(w[i + 1] for i in free[low:])
    w0 = Fraction(w[0] or 1)
    wp = [x or 1 for x in w]
    for b in range(3):
        a = alpha[0] + b
        entries = list(monomials(b))
        assert len(entries) == 1 << len(free) and all(type(x) is int for x in entries)
        for t, value in enumerate(entries):
            subset = support + [i for x, i in enumerate(free) if t >> x & 1]
            k, r = len(subset), matroid.ranks[sum(1 << i for i in subset)]
            expected = 0 if n - k - a < 0 else \
                c[k] * math.perm(n - k, a) * w[0] ** (n - k - a) * q ** -r * \
                math.prod(wp[i + 1] for i in subset)
            assert Fraction(value, scale) * w0 ** (n - len(support) - a) * \
                math.prod(wp[i + 1] for i in support) == expected


def test_identically_zero_classification():
    c = (1, 1, 1, 1, 1)
    q = rat(1)
    assert is_identically_zero(U24, c, q, (0, 0, 2, 0, 0))
    assert is_identically_zero(U24, c, q, (3, 1, 1, 0, 0))
    assert not is_identically_zero(U24, c, q, (2, 1, 1, 0, 0))
    assert derivative_degree(U24, (0, 0, 2, 0, 0)) is None
    assert derivative_degree(U24, (2, 1, 1, 0, 0)) == 0
    assert derivative_degree(U24, (0, 0, 0, 0, 0)) == 4


def test_identically_zero_evaluates_to_zero():
    c = (1, 2, 3, 4, 5)
    q = rat(1, 2)
    w = (rat(1), rat(2), rat(3), rat(4), rat(5))
    alpha = (0, 2, 0, 0, 0)
    assert partial_eval(U24, c, q, alpha, w) == 0
    assert gradient(U24, c, q, alpha, w) == (0,) * 5
    h = hessian(U24, c, q, alpha, w)
    assert all(x == 0 for row in h.entries for x in row)


def test_euler_degree_identity():
    # homogeneity: sum_i w_i dF/dw_i == deg(F) * F for every derivative F
    for matroid, c, q, w in ORACLE_CASES[:4]:
        for alpha in [(0,) * (matroid.n + 1), (1, 0, 1) + (0,) * (matroid.n - 2)]:
            d = derivative_degree(matroid, alpha)
            val = partial_eval(matroid, c, q, alpha, w)
            g = gradient(matroid, c, q, alpha, w)
            assert sum(wi * gi for wi, gi in zip(w, g)) == d * val


def test_q_one_collapse_to_product():
    # at q = 1 the rank weighting disappears: Z_ones = prod_i (w0 + w_i)
    for matroid in (U24, K3, LIN, LOOPY):
        w = tuple(rat(i + 2, 3) for i in range(matroid.n + 1))
        val = z_weighted_eval(matroid, (1,) * (matroid.n + 1), rat(1), w)
        prod = rat(1)
        for wi in w[1:]:
            prod *= w[0] + wi
        assert val == prod


def test_strata_at_q_one_are_elementary_symmetric():
    w = (rat(2), rat(3), rat(5), rat(7))
    strata = zk_all(U24, rat(1), w)
    for k in range(5):
        assert strata[k] == elementary_symmetric((1, 2, 3, 4), k, w)


def test_contraction_derivative_identity():
    # d/dw_i of stratum m equals q^(-rk(i)) times stratum m-1 of the
    # single-element contraction, at the restricted weights
    q = rat(1, 3)
    for matroid in (U24, K3, LOOPY, LIN):
        n = matroid.n
        w = tuple(rat(j + 1, 2) for j in range(n))
        for i in (1, n):
            minor, names = contract(matroid, (i,))
            w_minor = tuple(w[names[j] - 1] for j in range(1, n))
            for m in range(1, n + 1):
                # brute-force derivative of the stratum against w_i
                lhs = rat(0)
                for mask in range(1 << n):
                    if bin(mask).count("1") != m or not mask & (1 << (i - 1)):
                        continue
                    term = rat(1)
                    for j in range(n):
                        if j != i - 1 and mask & (1 << j):
                            term *= w[j]
                    lhs += term / q ** matroid.ranks[mask]
                rhs = zk_eval(minor, m - 1, q, w_minor) / q ** matroid.rank((i,))
                assert lhs == rhs


def test_zero_weights():
    # a zero entry zeroes every product it enters, on every path
    w = (rat(1), rat(0), rat(2), rat(0), rat(3))
    c = (1, 2, 3, 2, 1)
    q = rat(1, 2)
    expr, qs, ws = oracle_weighted(U24, c)
    assert frac(z_weighted_eval(U24, c, q, w)) == oracle_eval(expr, qs, ws, q, w)
    g = gradient(U24, c, q, (0, 0, 0, 0, 0), w)
    for i in range(5):
        gi = sympy.diff(expr, ws[i])
        assert frac(g[i]) == oracle_eval(gi, qs, ws, q, w)


def floats(values):
    return [from_float(x) for x in values]


def test_float_mode_matches_exact():
    c = (1, 2, 2, 1)
    q = rat(1, 3)
    w = (rat(1), rat(1, 2), rat(3), rat(2))
    exact = z_weighted_eval(K3, c, q, w)
    approx = to_float(z_weighted_eval(K3, floats(c), from_float(q), floats(w)))
    assert abs(approx - float(exact)) <= 1e-12 * float(exact)
    he = hessian(K3, c, q, (0, 0, 0, 0), w)
    hf = hessian(K3, floats(c), from_float(q), (0, 0, 0, 0), floats(w))
    for re_, rf in zip(he.entries, hf.entries):
        for a, b in zip(re_, map(to_float, rf)):
            assert abs(b - float(a)) <= 1e-10 * max(1.0, abs(float(a)))


def test_float_mode_small_q_prescaling():
    # tiny q must not overflow: float inputs are evaluated exactly
    m = make_uniform(4, 8)
    w = tuple(float(i + 1) for i in range(8))
    strata = [to_float(x) for x in zk_all(m, from_float(1e-6), floats(w))]
    exact = zk_all(m, rat(1, 10**6), tuple(rat(i + 1) for i in range(8)))
    for a, b in zip(strata, exact):
        assert abs(a - float(b)) <= 1e-12 * float(b)


def test_float_mode_rounds_out_of_range_to_inf():
    # Z[2] of U(1,2) is 1e400 / q here, beyond the double range
    assert to_float(zk_all(U12, from_float(1.0), floats((1e200, 1e200)))[2]) == math.inf
    assert to_float(z_weighted_eval(U12, floats((1.0, 1.0, 1.0)), from_float(1.0),
                                    floats((0.0, 1e200, -1e200)))) == -math.inf


def test_exact_mode_rejects_floats():
    with pytest.raises(InvalidParametersError):
        zk_all(U12, 0.5, (rat(1), rat(1)))
    with pytest.raises(InvalidParametersError):
        zk_all(U12, rat(1, 2), (0.5, rat(1)))
    with pytest.raises(InvalidParametersError):
        z_weighted_eval(U12, (1.0, 1, 1), rat(1), (rat(1),) * 3)
    for args in [(0.5,), (1, 2.0), (True,), (1, 0)]:
        with pytest.raises(InvalidParametersError):
            rat(*args)
    with pytest.raises(InvalidParametersError, match="cannot convert <object object at"):
        from_float(object())


@pytest.mark.parametrize("value, exact", [
    (True, False),               # bool is an int subclass, but not a scalar
    (1.0, False),
    (3, True),
    (Fraction(1, 3), True),
    (sympy.Rational(1, 3), False),  # an exact scalar is an int or a Fraction
    ("1/3", False),
])
def test_is_exact_scalar(value, exact):
    assert is_exact_scalar(value) is exact


# The validators and the JSON encoder as they were when every exact input
# went through rat to a Fraction: the references for the ones that keep an
# int an int and test signs on numerators.
def reference_validate_q(q):
    qv = rat(q)
    if qv <= 0:
        raise InvalidParametersError(f"q must be positive, got {qv}")
    return qv


REFERENCE_SIGNS = {"any": lambda wv: True, "positive": lambda wv: all(x > 0 for x in wv),
                   "nonnegative": lambda wv: all(x >= 0 for x in wv), "nonzero": any}


def reference_validate_point(w, length, sign):
    wv = tuple(map(rat, w))
    if len(wv) != length:
        raise InvalidParametersError(f"w must have length {length}, got {len(wv)}")
    if not REFERENCE_SIGNS[sign](wv):
        raise InvalidParametersError(f"w must be a {sign} point of length {length}")
    return wv


def reference_validate_coeffs(c, n):
    cv = tuple(map(rat, c))
    if len(cv) != n + 1:
        raise InvalidParametersError("wrong length")
    if any(x <= 0 for x in cv):
        raise InvalidParametersError("coefficient sequence must be strictly positive")
    return cv


def reference_scalar_to_json(value):
    """scalar_to_json(Fraction(num, den)) for an exact value num/den."""
    if is_exact_scalar(value):
        value = Fraction(value.numerator, value.denominator)
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, float):
        return value
    raise InvalidParametersError(f"cannot serialize scalar {value!r}")


def outcome(fn, *args):
    """("value", the JSON text of the result) or ("raised", exception type)."""
    try:
        value = fn(*args)
    except Exception as exc:  # the type is the outcome
        return "raised", type(exc)
    return "value", json.dumps(value if isinstance(value, dict) else vector_to_json(value)
                               if isinstance(value, tuple) else scalar_to_json(value))


BOUNDARY_SCALARS = st.one_of(
    st.integers(-30, 30), st.just(0), st.just(Fraction(0)),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
    st.booleans(), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=400, deadline=None)
@given(st.lists(BOUNDARY_SCALARS, max_size=6), st.integers(0, 6),
       st.sampled_from(sorted(REFERENCE_SIGNS)))
def test_boundary_matches_the_fraction_reference(values, length, sign):
    # equal values (so equal JSON) and equal exception types, with the
    # validated tuples compared as values: an int equals its Fraction
    for value in values:
        assert outcome(validate_q, value) == outcome(reference_validate_q, value)
        assert outcome(scalar_to_json, value) == outcome(reference_scalar_to_json, value)
    new = outcome(validate_point, values, length, sign)
    assert new == outcome(reference_validate_point, values, length, sign)
    if new[0] == "value":
        assert validate_point(values, length, sign) == reference_validate_point(values, length, sign)
    for n in (length - 1, len(values) - 1):
        assert outcome(validate_coeffs, values, n) == outcome(reference_validate_coeffs, values, n)


def test_validated_values_keep_their_type():
    # ints stay ints and Fractions stay Fractions: nothing is converted
    w = (1, Fraction(1, 2), 0, Fraction(-3))
    assert [type(x) for x in validate_point(w, 4, "any")] == [int, Fraction, int, Fraction]
    assert type(validate_q(1)) is int and type(validate_q(Fraction(1, 2))) is Fraction
    assert vector_to_json(w) == [reference_scalar_to_json(x) for x in w]


def test_parameter_validation():
    ones3 = (rat(1),) * 3
    with pytest.raises(InvalidParametersError):
        zk_all(U12, rat(0), (rat(1), rat(1)))  # q must be positive
    with pytest.raises(InvalidParametersError):
        zk_all(U12, rat(-1), (rat(1), rat(1)))
    with pytest.raises(InvalidParametersError):
        zk_all(U12, rat(1), (rat(1),))  # wrong length
    with pytest.raises(InvalidParametersError):
        z_weighted_eval(U12, (1, 0, 1), rat(1), ones3)  # zero coefficient
    with pytest.raises(InvalidParametersError):
        z_weighted_eval(U12, (1, 1), rat(1), ones3)  # short coefficients
    with pytest.raises(InvalidParametersError):
        partial_eval(U12, (1, 1, 1), rat(1), (0, -1, 0), ones3)
    with pytest.raises(InvalidParametersError):
        partial_eval(U12, (1, 1, 1), rat(1), (0, 0), ones3)
    with pytest.raises(InvalidParametersError):
        zk_eval(U12, -1, rat(1), (rat(1), rat(1)))


# Every exported function that takes a point w, called on U24 (full rank
# 2, so q = 0 makes the scale a^R vanish): name -> (call(q, w), length of
# w, takes q).  The numerator helpers behind them trust their inputs, so
# each entry point must validate before it calls one.
C5, ZERO5 = (1, 2, 3, 2, 1), (0,) * 5
ENTRY_POINTS = {
    "zk_all": (lambda q, w: zk_all(U24, q, w), 4, True),
    "zk_eval": (lambda q, w: zk_eval(U24, 2, q, w), 4, True),
    "f_all": (lambda q, w: f_all(U24, w), 4, False),
    "f_m_eval": (lambda q, w: f_m_eval(U24, 2, w), 4, False),
    "dependent_mass": (lambda q, w: dependent_mass(U24, 3, w), 4, False),
    "f_limit_residual": (lambda q, w: f_limit_residual(U24, 2, w, q), 4, True),
    "z_weighted_eval": (lambda q, w: z_weighted_eval(U24, C5, q, w), 5, True),
    "partial_eval": (lambda q, w: partial_eval(U24, C5, q, (1, 1, 0, 0, 0), w), 5, True),
    "gradient": (lambda q, w: gradient(U24, C5, q, ZERO5, w), 5, True),
    "hessian": (lambda q, w: hessian(U24, C5, q, ZERO5, w), 5, True),
    "euler_hessian_residual": (lambda q, w: euler_hessian_residual(U24, C5, q, ZERO5, w), 5, True),
    "kernel_identity_check": (lambda q, w: kernel_identity_check(U24, C5, q, ZERO5, w), 5, True),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_validate_their_inputs(name):
    call, length, takes_q = ENTRY_POINTS[name]
    q = rat(1, 2)
    w = tuple(rat(k + 1, 3) for k in range(length))
    call(q, w)  # well-formed inputs go through
    with pytest.raises(InvalidParametersError):
        call(q, w[:-1] + (0.5,))  # a float coordinate
    with pytest.raises(InvalidParametersError):
        call(q, w[:-1])  # wrong length
    if takes_q:
        with pytest.raises(InvalidParametersError):
            call(rat(0), w)


def test_zk_eval_above_n_is_zero():
    assert zk_eval(U12, 3, rat(1, 2), (rat(1), rat(2))) == 0


def test_f_all_and_limit():
    w = (rat(1), rat(2), rat(3), rat(4))
    assert f_all(U24, w) == (1, 10, 35, 0, 0)
    assert f_m_eval(U24, 2, w) == 35
    # all four 3-subsets are dependent with nullity 1 and total mass 50
    assert dependent_mass(U24, 3, w) == 50
    assert dependent_mass(U24, 3, w, nullity=1) == 50
    assert dependent_mass(U24, 2, w) == 0
    assert f_limit_residual(U24, 3, w, rat(1, 100)) == rat(1, 2)
    assert f_limit_residual(U24, 3, w, rat(1, 10**4)) == rat(1, 200)
    # no stratum above n
    assert f_limit_residual(U24, 5, w, rat(1, 2)) == 0
    assert dependent_mass(U24, 5, w) == 0


def test_dependent_mass_mixed_nullity():
    # two loops and one ordinary edge: the loop pair has nullity 2, the
    # loop-edge pairs have nullity 1
    w = (rat(2), rat(3), rat(5))
    assert dependent_mass(LOOPY, 2, w, nullity=2) == 6
    assert dependent_mass(LOOPY, 2, w, nullity=1) == 10 + 15
    assert dependent_mass(LOOPY, 2, w) == 31
    with pytest.raises(InvalidParametersError):
        dependent_mass(LOOPY, 2, w, nullity=0)


def test_limit_residual_mixed_nullity_is_superlinear():
    # residual = q * (nullity-1 mass) + q^2 * (nullity-2 mass) here
    w = (rat(2), rat(3), rat(5))
    for q in (rat(1, 10), rat(1, 100)):
        resid = f_limit_residual(LOOPY, 2, w, q)
        assert resid == q * 25 + q * q * 6


def test_elementary_symmetric_values_and_errors():
    w = (rat(1), rat(2), rat(3))
    assert elementary_symmetric((1, 2, 3), 0, w) == 1
    assert elementary_symmetric((1, 2, 3), 2, w) == 11
    assert elementary_symmetric((1, 3), 2, w) == 3
    assert elementary_symmetric((1, 2, 3), 4, w) == 0
    with pytest.raises(InvalidParametersError):
        elementary_symmetric((1, 1), 1, w)
    with pytest.raises(InvalidParametersError):
        elementary_symmetric((0,), 1, w)
    with pytest.raises(InvalidParametersError, match="degree must be a nonnegative integer, got -1"):
        elementary_symmetric((1, 2), -1, w)


def test_log_concavity_predicates():
    assert is_strictly_log_concave((1, 2, 2))  # 4 > 2
    assert not is_strictly_log_concave((1, 2, 4))  # 4 == 4
    assert is_log_concave((1, 2, 4))
    assert not is_log_concave((1, 2, 5))
    assert not is_strictly_log_concave((1, -1, 1))
    assert is_strictly_log_concave((5,))


@settings(max_examples=200, deadline=None)
@given(s=st.builds(Fraction, st.integers(1, 10 ** 12), st.integers(1, 10 ** 12)),
       r=st.builds(Fraction, st.integers(1, 10 ** 12), st.integers(1, 10 ** 12)),
       length=st.integers(3, 7), data=st.data())
def test_log_concavity_predicates_at_the_equality_boundary(s, r, length, data):
    # a geometric sequence s r^k is tight at every inner index; nudging one
    # entry by 1/10^12 either way moves it to one side of the boundary.
    # The predicates compare cleared integers; the reference is the
    # Fraction comparison itself
    c = [s * r ** k for k in range(length)]
    k = data.draw(st.integers(0, length - 1))
    c[k] += data.draw(st.sampled_from((0, 1, -1))) * Fraction(1, 10 ** 12) * c[k]
    inner = range(1, length - 1)
    assert is_log_concave(c) == all(c[m] * c[m] >= c[m - 1] * c[m + 1] for m in inner)
    assert is_strictly_log_concave(c) == all(c[m] * c[m] > c[m - 1] * c[m + 1] for m in inner)


def test_log_concavity_predicates_with_rational_entries():
    # (4/5)^2 = 16/25 = (2/3)(24/25): tight, over three different denominators
    tight = (Fraction(2, 3), Fraction(4, 5), Fraction(24, 25))
    assert is_log_concave(tight) and not is_strictly_log_concave(tight)
    above = (Fraction(2, 3), Fraction(4, 5) + Fraction(1, 10 ** 12), Fraction(24, 25))
    assert is_log_concave(above) and is_strictly_log_concave(above)
    below = (Fraction(2, 3), Fraction(4, 5) - Fraction(1, 10 ** 12), Fraction(24, 25))
    assert not is_log_concave(below) and not is_strictly_log_concave(below)
    assert not is_log_concave((Fraction(1, 3), Fraction(0), Fraction(1, 3)))
    with pytest.raises(InvalidParametersError):
        is_log_concave((0.5, 1, 0.5))
