"""Evaluation of matroid rank-generating polynomials and their derivatives.

For a matroid M on ground set 1..n with rank function rk, the k-th stratum
is the homogeneous degree-k polynomial

    Z[k](q; w_1..w_n) = sum over k-subsets A of q^(-rk(A)) * prod_{i in A} w_i,

and the full weighted polynomial in n+1 variables w_0..w_n is

    Z_c(q; w) = sum_{m=0..n} c_m * Z[m](q; w_1..w_n) * w_0^(n-m),

homogeneous of degree n, multiaffine in each of w_1..w_n.  The independent
set generating polynomial f[m] keeps only the subsets with rk(A) = |A|.

Every evaluator reads one subset pass, _size_rank_sums: for a set S it
sums prod_{i in A - S} w_i over the subsets A containing S into a table
T_S[k][r], by size k = |A| and rank r = rk(A).  The strata, f[m] and the
dependent masses are read off T for S empty.  For S the inner support of
alpha and a_0 = alpha_0, the alpha-derivative of Z_c is

    sum_k c_k (n-k)_{a_0} w_0^(n-k-a_0) sum_r q^(-r) T_S[k][r],

and the gradient and the Hessian are that sum at alpha + e_i and at
alpha + e_i + e_j.  A zero coordinate zeroes the products it enters and
needs no other care.

The pass and the reductions run on Python ints.  Each call clears the
denominators of its inputs once: the point becomes W/L with integer W and
common denominator L, q = a/b in lowest terms, q^(-r) is b^r a^(R-r) / a^R
for the full rank R, and c becomes C/L_c.  Each output is one integer over
its scale factor:

    Z[k]                     (integer) / (a^R L^k),
    f[m], dependent masses   (integer) / L^m,
    alpha-derivative of Z_c  (integer) / (L_c a^R L^(n-|alpha|)).

By homogeneity the last factor is the same for every entry of a Hessian.
Inputs are ints or exact rationals (scalars.as_rational) and outputs are
Fractions; a caller with float inputs converts them with scalars.from_float.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParametersError
from .matrices import SymMatrix
from .scalars import as_rational, as_rationals, clear_denominators

ZERO = Fraction(0)


def _validate_q(q):
    qv = as_rational(q)
    if qv <= 0:
        raise InvalidParametersError(f"q must be positive, got {q!r}")
    return qv


def _validate_point(w, length, name="w"):
    wv = as_rationals(w)
    if len(wv) != length:
        raise InvalidParametersError(f"{name} must have length {length}, got {len(wv)}")
    return wv


def validate_coeffs(c, n):
    """Coefficient sequence c_0..c_n: right length, strictly positive.
    Returned as Fractions."""
    cv = as_rationals(c)
    if len(cv) != n + 1:
        raise InvalidParametersError(f"coefficient sequence must have length n+1 = {n + 1}, got {len(cv)}")
    if any(x <= 0 for x in cv):
        raise InvalidParametersError("coefficient sequence must be strictly positive")
    return cv


def validate_alpha(alpha, n):
    """Differentiation multi-index over w_0..w_n: n+1 nonnegative integers."""
    out = []
    for a in alpha:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise InvalidParametersError(f"multi-index entries must be nonnegative integers, got {a!r}")
        out.append(a)
    if len(out) != n + 1:
        raise InvalidParametersError(f"multi-index must have length n+1 = {n + 1}, got {len(out)}")
    return tuple(out)


def is_strictly_log_concave(c):
    """True when c is positive with c_m^2 > c_{m-1} c_{m+1} strictly inside."""
    cv = as_rationals(c)
    if any(x <= 0 for x in cv):
        return False
    return all(cv[m] * cv[m] > cv[m - 1] * cv[m + 1] for m in range(1, len(cv) - 1))


def is_log_concave(c):
    """Non-strict variant: positive with c_m^2 >= c_{m-1} c_{m+1} inside."""
    cv = as_rationals(c)
    if any(x <= 0 for x in cv):
        return False
    return all(cv[m] * cv[m] >= cv[m - 1] * cv[m + 1] for m in range(1, len(cv) - 1))


def _q_inverse_powers(q, max_rank):
    """([b^r a^(R-r) for r = 0..R], a^R) for q = a/b and R = max_rank: the
    integers a^R q^(-r) and their common denominator a^R."""
    a, b = int(q.numerator), int(q.denominator)
    return [b ** r * a ** (max_rank - r) for r in range(max_rank + 1)], a ** max_rank


def _products(values):
    """prod[mask]: the product of the integers at the set bits of mask."""
    prod = [1] * (1 << len(values))
    for mask in range(1, len(prod)):
        low = mask & -mask
        prod[mask] = prod[mask ^ low] * values[low.bit_length() - 1]
    return prod


def _size_rank_sums(matroid, prod, smask):
    """T[k][r]: the sum of prod[A - S] over the subsets A containing the set
    S given by smask, with |A| = k and rk(A) = r.  The only subset loop."""
    n = matroid.n
    ranks = matroid.ranks
    table = [[0] * (n + 1) for _ in range(n + 1)]
    comp = ((1 << n) - 1) ^ smask
    sub = comp
    while True:
        mask = sub | smask
        table[mask.bit_count()][ranks[mask]] += prod[sub]
        if not sub:
            break
        sub = (sub - 1) & comp
    return table


def _dot(weights, row):
    """sum_r weights[r] * row[r], skipping the (many) empty cells of row."""
    return sum(x * t for x, t in zip(weights, row) if t)


def zk_all(matroid, q, w):
    """All strata (Z[0], ..., Z[n]) at the length-n point w, one subset pass."""
    qv = _validate_q(q)
    wv, den = clear_denominators(_validate_point(w, matroid.n))
    powers, qden = _q_inverse_powers(qv, matroid.full_rank)
    table = _size_rank_sums(matroid, _products(wv), 0)
    return tuple(Fraction(_dot(powers, row), qden * den ** k) for k, row in enumerate(table))


def zk_eval(matroid, k, q, w):
    """Single stratum Z[k]; k > n gives 0 (there are no such subsets)."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidParametersError(f"stratum index must be a nonnegative integer, got {k!r}")
    strata = zk_all(matroid, q, w)
    return strata[k] if k <= matroid.n else ZERO


def _falling(k, j):
    """Falling factorial k (k-1) ... (k-j+1); equals k!/(k-j)! for k >= j."""
    out = 1
    for t in range(j):
        out *= k - t
    return out


def _alpha_split(alpha, n):
    """(a0, smask) for an admissible alpha, or None when the derivative
    annihilates every monomial (some inner entry >= 2, or order too high)."""
    if any(alpha[i] >= 2 for i in range(1, n + 1)):
        return None
    smask = 0
    for i in range(1, n + 1):
        if alpha[i]:
            smask |= 1 << (i - 1)
    a0 = alpha[0]
    if a0 + smask.bit_count() > n:
        return None
    return a0, smask


def _w0_weights(cv, powers, w0, a0):
    """W[k][r] = c_k (n-k)_{a0} w_0^(n-k-a0) q^(-r), in the integers of the
    cleared c, w_0 and q: the factor a subset of size k and rank r carries
    in a derivative of order a0 in w_0.  Sizes k > n - a0 lose their whole
    w_0 power and are left out."""
    n = len(cv) - 1
    weights = []
    for k in range(n - a0 + 1):
        coef = cv[k] * _falling(n - k, a0) * w0 ** (n - k - a0)
        weights.append([coef * p for p in powers])
    return weights


def _derivatives(matroid, c, q, w):
    """Validate c, q and the length-(n+1) point w, and return alpha -> the
    alpha-derivative of Z_c at w.  Calls share the product table, one T
    table per inner support and one weight table per alpha_0."""
    n = matroid.n
    cv, cden = clear_denominators(validate_coeffs(c, n))
    powers, qden = _q_inverse_powers(_validate_q(q), matroid.full_rank)
    wv, den = clear_denominators(_validate_point(w, n + 1))
    prod = None
    tables = {}
    weights = {}

    def derivative(alpha):
        nonlocal prod
        split = _alpha_split(alpha, n)
        if split is None:
            return ZERO
        a0, smask = split
        if smask not in tables:
            if prod is None:
                prod = _products(wv[1:])
            tables[smask] = _size_rank_sums(matroid, prod, smask)
        if a0 not in weights:
            weights[a0] = _w0_weights(cv, powers, wv[0], a0)
        value = sum(map(_dot, weights[a0], tables[smask]))
        return Fraction(value, cden * qden * den ** (n - a0 - smask.bit_count()))

    return derivative


def _bump(alpha, *indices):
    out = list(alpha)
    for i in indices:
        out[i] += 1
    return tuple(out)


def z_weighted_eval(matroid, c, q, w):
    """Weighted polynomial Z_c at the length-(n+1) point (w_0, ..., w_n)."""
    derivative = _derivatives(matroid, c, q, w)
    return derivative((0,) * (matroid.n + 1))


def is_identically_zero(matroid, c, q, alpha):
    """Symbolic test: is the alpha-derivative of Z_c the zero polynomial?

    With positive coefficients and q > 0 the derivative vanishes exactly
    when some inner index exceeds 1 (multiaffine variables) or the total
    order a_0 + |support| exceeds n.
    """
    n = matroid.n
    validate_coeffs(c, n)
    _validate_q(q)
    av = validate_alpha(alpha, n)
    return _alpha_split(av, n) is None


def derivative_degree(matroid, alpha):
    """Degree of the alpha-derivative of Z_c (None when identically zero)."""
    av = validate_alpha(alpha, matroid.n)
    if _alpha_split(av, matroid.n) is None:
        return None
    return matroid.n - sum(av)


def partial_eval(matroid, c, q, alpha, w):
    """Partial derivative of Z_c of multi-index alpha, evaluated at w.

    A monomial indexed by the subset A survives exactly when the inner
    support of alpha sits inside A and a_0 is at most the w_0-exponent
    n - |A|; it then carries the falling-factorial factor from w_0^(n-|A|).
    """
    derivative = _derivatives(matroid, c, q, w)
    return derivative(validate_alpha(alpha, matroid.n))


def gradient(matroid, c, q, alpha, w):
    """All first partials of the alpha-derivative of Z_c at w: entry i is
    the (alpha + e_i)-derivative."""
    derivative = _derivatives(matroid, c, q, w)
    av = validate_alpha(alpha, matroid.n)
    return tuple(derivative(_bump(av, i)) for i in range(matroid.n + 1))


def hessian(matroid, c, q, alpha, w):
    """Hessian of the alpha-derivative of Z_c at w, as a SymMatrix.

    Entry (i, j) equals the (alpha + e_i + e_j)-derivative at w.  Inner
    diagonal entries are identically zero (the polynomial is multiaffine in
    w_1..w_n), and the whole matrix is zero when the derivative has degree
    below two.
    """
    derivative = _derivatives(matroid, c, q, w)
    av = validate_alpha(alpha, matroid.n)
    d = matroid.n + 1
    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = derivative(_bump(av, i, j))
    return SymMatrix(tuple(tuple(row) for row in rows))


def f_all(matroid, w):
    """All strata of the independent-set generating polynomial at w."""
    wv, den = clear_denominators(_validate_point(w, matroid.n))
    table = _size_rank_sums(matroid, _products(wv), 0)
    return tuple(Fraction(row[k], den ** k) for k, row in enumerate(table))


def f_m_eval(matroid, m, w):
    """Stratum f[m]: sum over independent m-subsets of the weight products."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise InvalidParametersError(f"stratum index must be a nonnegative integer, got {m!r}")
    strata = f_all(matroid, w)
    return strata[m] if m <= matroid.n else ZERO


def f_limit_residual(matroid, m, w, q):
    """|Z[m](q; q*w) - f[m](w)|: the deviation of the rescaled stratum from
    its independent-set limit.  Each dependent subset contributes with a
    factor q^(|A| - rk(A)), so the residual is O(q) as q -> 0."""
    qv = _validate_q(q)
    wv = _validate_point(w, matroid.n)
    scaled = tuple(qv * x for x in wv)
    return abs(zk_eval(matroid, m, qv, scaled) - f_m_eval(matroid, m, wv))


def dependent_mass(matroid, m, w, nullity=None):
    """Sum of the weight products over dependent m-subsets.

    nullity=k restricts the sum to subsets with |A| - rk(A) == k; the k = 1
    slice is the leading term of Z[m](q; q*w) - f[m](w) as q -> 0.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise InvalidParametersError(f"stratum index must be a nonnegative integer, got {m!r}")
    if nullity is not None and (not isinstance(nullity, int) or isinstance(nullity, bool) or nullity < 1):
        raise InvalidParametersError(f"nullity must be a positive integer, got {nullity!r}")
    wv, den = clear_denominators(_validate_point(w, matroid.n))
    if m > matroid.n:
        return ZERO
    row = _size_rank_sums(matroid, _products(wv), 0)[m]
    if nullity is None:
        total = sum(row[:m])
    else:
        total = row[m - nullity] if nullity <= m else 0
    return Fraction(total, den ** m)


def elementary_symmetric(indices, k, w):
    """Elementary symmetric polynomial e_k over the w-values selected by the
    1-based index set `indices`."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidParametersError(f"degree must be a nonnegative integer, got {k!r}")
    wv, den = clear_denominators(as_rationals(w))
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise InvalidParametersError("index set contains repeats")
    for i in idx:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= len(wv):
            raise InvalidParametersError(f"index {i!r} outside 1..{len(wv)}")
    if k > len(idx):
        return ZERO
    acc = [1] + [0] * k
    for i in idx:
        v = wv[i - 1]
        for j in range(k, 0, -1):
            acc[j] += acc[j - 1] * v
    return Fraction(acc[k], den ** k)
