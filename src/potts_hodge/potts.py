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
T_S of the subsets' sizes k = |A| and ranks r = rk(A).  The table is one
flat list of (n+1)(R+1) cells, R the full rank: subset A lands in cell
bucket[A] = |A| (R+1) + rk(A), and the bucket list is cached per rank
table.  The strata, f[m] and the dependent masses are read off T for S
empty.  For S the inner support of alpha and a_0 = alpha_0, the
alpha-derivative of Z_c is

    sum_k c_k (n-k)_{a_0} w_0^(n-k-a_0) sum_r q^(-r) T_S[k (R+1) + r],

one dot product of a weight list laid out like T with T_S.  The gradient
and the Hessian are that sum at alpha + e_i and at alpha + e_i + e_j.  A
zero coordinate zeroes the products it enters and needs no other care.

The pass and the reductions run on Python ints, and all the integers
one call of a *_numerators helper or of _derivatives returns sit over one
positive integer scale, the same for every k, m, order and support: each
w_i = p_i / d_i is cleared on its own (_products), w_0 enters as
p_0^(n-k-a_0) d_0^(k+a_0) over d_0^n, q = a/b as b^r a^(R-r) over a^R for
the full rank R, and c as C over L_c.  The public evaluators divide once,
at their boundary; the checks compare the integers, or read the signature
of a Hessian's integer rows (a positive scale does not change the
inertia).  Inputs are validated where they enter: each public evaluator
validates its inputs once, and the *_numerators helpers and _derivatives
take validated inputs and trust them, as do the checks that call them.
Inputs are ints or exact rationals (scalars.as_rational) and outputs are
Fractions; a caller with float inputs converts them with
scalars.from_float.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from operator import ge, gt, mul

from .errors import InvalidParametersError
from .matrices import SymMatrix
from .matroids import mask_from_labels
from .scalars import as_rational, as_rationals, clear_denominators, is_int

ZERO = Fraction(0)


def validate_q(q):
    """q as a Fraction; it must be positive."""
    qv = as_rational(q)
    if qv <= 0:
        raise InvalidParametersError(f"q must be positive, got {qv}")
    return qv


_SIGNS = {"any": lambda wv: True, "positive": lambda wv: all(x > 0 for x in wv),
          "nonnegative": lambda wv: all(x >= 0 for x in wv), "nonzero": any}


def validate_point(w, length, sign):
    """w as Fractions, of the given length and with the sign its caller
    names: "positive" or "nonnegative" (every coordinate > 0 or >= 0),
    "nonzero" (some coordinate is not 0), or "any"."""
    wv = as_rationals(w)
    if len(wv) != length:
        raise InvalidParametersError(f"w must have length {length}, got {len(wv)}")
    if not _SIGNS[sign](wv):
        raise InvalidParametersError(f"w must be a {sign} point of length {length}")
    return wv


def _validate_index(k):
    if not is_int(k) or k < 0:
        raise InvalidParametersError(f"stratum index must be a nonnegative integer, got {k!r}")


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
        if not is_int(a) or a < 0:
            raise InvalidParametersError(f"multi-index entries must be nonnegative integers, got {a!r}")
        out.append(a)
    if len(out) != n + 1:
        raise InvalidParametersError(f"multi-index must have length n+1 = {n + 1}, got {len(out)}")
    return tuple(out)


def log_concave_integers(ints, strict=True):
    """True when the integers are positive with ints[m]^2 > ints[m-1] ints[m+1]
    at every inner m (>= when not strict).  Rationals c_m = ints[m] / L
    over one common denominator L > 0 are (strictly) log-concave exactly
    when their numerators are: L^2 cancels from both sides."""
    if any(x <= 0 for x in ints):
        return False
    above = gt if strict else ge
    return all(above(ints[m] * ints[m], ints[m - 1] * ints[m + 1])
               for m in range(1, len(ints) - 1))


def is_strictly_log_concave(c):
    """True when c is positive with c_m^2 > c_{m-1} c_{m+1} strictly inside."""
    return log_concave_integers(clear_denominators(as_rationals(c))[0])


def is_log_concave(c):
    """Non-strict variant: positive with c_m^2 >= c_{m-1} c_{m+1} inside."""
    return log_concave_integers(clear_denominators(as_rationals(c))[0], strict=False)


def _q_inverse_powers(q, max_rank):
    """([b^r a^(R-r) for r = 0..R], a^R) for q = a/b and R = max_rank: the
    integers a^R q^(-r) and their common denominator a^R."""
    a, b = q.numerator, q.denominator
    return [b ** r * a ** (max_rank - r) for r in range(max_rank + 1)], a ** max_rank


def _products(point):
    """prod[mask]: for the point's rationals w_i = p_i / d_i, the product
    of p_i over the set bits of mask times that of d_i over the others, so
    prod[mask] / prod[0] is the product of the w_i in mask.  Built by
    doubling: the masks below 2^i times d_i, then the same times p_i."""
    prod = [1]
    for x in point:
        prod = list(map(x.denominator.__mul__, prod)) + list(map(x.numerator.__mul__, prod))
    return prod


@functools.lru_cache(maxsize=256)
def _buckets(ranks, width):
    """bucket[mask] = |mask| * width + rk(mask), the cell of a subset in a
    flat size x rank table of the given width (R + 1).  Cached per rank
    table rather than stored on the Matroid, which a campaign pickles into
    each pool work unit."""
    return tuple(mask.bit_count() * width + r for mask, r in enumerate(ranks))


def _size_rank_sums(matroid, prod, smask):
    """T[k (R+1) + r]: the sum of prod[A - S] over the subsets A containing
    the set S given by smask, with |A| = k and rk(A) = r, as one flat list
    of (n+1)(R+1) cells.  The only subset loop."""
    n = matroid.n
    width = matroid.full_rank + 1
    bucket = _buckets(matroid.ranks, width)
    table = [0] * ((n + 1) * width)
    comp = ((1 << n) - 1) ^ smask
    sub = comp
    while True:
        table[bucket[sub | smask]] += prod[sub]
        if not sub:
            break
        sub = (sub - 1) & comp
    return table


def _strata_table(matroid, w):
    """(T, width, scale): the table T_S for S empty at the length-n point
    w, the width R + 1 of its rows, and the scale every cell is over."""
    prod = _products(w)
    return _size_rank_sums(matroid, prod, 0), matroid.full_rank + 1, prod[0]


def strata_numerators(matroid, q, w):
    """(nums, scale): the strata at the length-n point w are
    Z[k] = nums[k] / scale for every k, with integer nums and one positive
    integer scale.  One subset pass."""
    powers, qden = _q_inverse_powers(q, matroid.full_rank)
    table, width, scale = _strata_table(matroid, w)
    return ([sum(map(mul, powers, table[k * width:(k + 1) * width])) for k in range(matroid.n + 1)],
            qden * scale)


def zk_all(matroid, q, w):
    """All strata (Z[0], ..., Z[n]) at the length-n point w, one subset pass."""
    nums, scale = strata_numerators(matroid, validate_q(q), validate_point(w, matroid.n, "any"))
    return tuple(Fraction(x, scale) for x in nums)


def zk_eval(matroid, k, q, w):
    """Single stratum Z[k]; k > n gives 0 (there are no such subsets)."""
    _validate_index(k)
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
    """W[k (R+1) + r] = c_k (n-k)_{a0} w_0^(n-k-a0) q^(-r) times
    L_c a^R d_0^n, an integer for w_0 = p_0 / d_0: the factor a subset of
    size k and rank r carries in a derivative of order a0 in w_0, laid out
    like T.  Sizes k > n - a0 lose their whole w_0 power and are left out."""
    n = len(cv) - 1
    p0, d0 = w0.numerator, w0.denominator
    weights = []
    for k in range(n - a0 + 1):
        coef = cv[k] * _falling(n - k, a0) * p0 ** (n - k - a0) * d0 ** (k + a0)
        weights += [coef * p for p in powers]
    return weights


def _derivatives(matroid, c, q, w):
    """(derivative, scale) at the length-(n+1) point w.
    derivative(a0, smask) / scale is the alpha-derivative of Z_c at w for
    alpha_0 = a0 and inner support smask, with one positive integer scale
    for every order and support.  Calls share the product table, one T
    table per inner support and one weight table per a0."""
    n = matroid.n
    cv, cden = clear_denominators(c)
    powers, qden = _q_inverse_powers(q, matroid.full_rank)
    prod = _products(w[1:])
    tables = {}
    weights = {}

    def derivative(a0, smask):
        if a0 + smask.bit_count() > n:
            return 0
        table = tables.get(smask)
        if table is None:
            table = tables[smask] = _size_rank_sums(matroid, prod, smask)
        weight = weights.get(a0)
        if weight is None:
            weight = weights[a0] = _w0_weights(cv, powers, w[0], a0)
        return sum(map(mul, weight, table))

    return derivative, cden * qden * w[0].denominator ** n * prod[0]


def _first_partials(derivative, n, a0, smask):
    """Numerators of the (alpha + e_i)-derivatives, i = 0..n, for alpha
    given as (a0, smask)."""
    out = [derivative(a0 + 1, smask)]
    for i in range(n):
        bit = 1 << i
        out.append(0 if smask & bit else derivative(a0, smask | bit))
    return out


def _second_partials(derivative, n, a0, smask):
    """Rows of the numerators of the (alpha + e_i + e_j)-derivatives,
    i, j = 0..n, for alpha given as (a0, smask).  Entries that touch the
    support or repeat an inner index vanish (multiaffine)."""
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    rows[0][0] = derivative(a0 + 2, smask)
    free = [i for i in range(n) if not smask >> i & 1]
    for x, i in enumerate(free):
        with_i = smask | 1 << i
        rows[0][i + 1] = rows[i + 1][0] = derivative(a0 + 1, with_i)
        for j in free[x + 1:]:
            rows[i + 1][j + 1] = rows[j + 1][i + 1] = derivative(a0, with_i | 1 << j)
    return rows


def _validated(matroid, c, q, w):
    """(c, q, w) validated in that order, w of length n + 1: the inputs
    _derivatives trusts."""
    n = matroid.n
    return validate_coeffs(c, n), validate_q(q), validate_point(w, n + 1, "any")


def z_weighted_eval(matroid, c, q, w):
    """Weighted polynomial Z_c at the length-(n+1) point (w_0, ..., w_n)."""
    derivative, scale = _derivatives(matroid, *_validated(matroid, c, q, w))
    return Fraction(derivative(0, 0), scale)


def is_identically_zero(matroid, c, q, alpha):
    """Symbolic test: is the alpha-derivative of Z_c the zero polynomial?

    With positive coefficients and q > 0 the derivative vanishes exactly
    when some inner index exceeds 1 (multiaffine variables) or the total
    order a_0 + |support| exceeds n.
    """
    n = matroid.n
    validate_coeffs(c, n)
    validate_q(q)
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
    derivative, scale = _derivatives(matroid, *_validated(matroid, c, q, w))
    split = _alpha_split(validate_alpha(alpha, matroid.n), matroid.n)
    if split is None:
        return ZERO
    return Fraction(derivative(*split), scale)


def gradient(matroid, c, q, alpha, w):
    """All first partials of the alpha-derivative of Z_c at w: entry i is
    the (alpha + e_i)-derivative."""
    n = matroid.n
    derivative, scale = _derivatives(matroid, *_validated(matroid, c, q, w))
    split = _alpha_split(validate_alpha(alpha, n), n)
    if split is None:
        return (ZERO,) * (n + 1)
    return tuple(Fraction(x, scale) for x in _first_partials(derivative, n, *split))


def hessian_numerators(matroid, c, q, alpha, w):
    """(rows, scale): the Hessian of the alpha-derivative of Z_c at w is
    rows[i][j] / scale, over the one positive integer scale of
    _derivatives.  A positive scale does not change the inertia, so a
    signature can be read off the rows directly."""
    n = matroid.n
    derivative, scale = _derivatives(matroid, c, q, w)
    split = _alpha_split(alpha, n)
    if split is None:
        rows = [[0] * (n + 1) for _ in range(n + 1)]
    else:
        rows = _second_partials(derivative, n, *split)
    return tuple(map(tuple, rows)), scale


def hessian(matroid, c, q, alpha, w):
    """Hessian of the alpha-derivative of Z_c at w, as a SymMatrix.

    Entry (i, j) equals the (alpha + e_i + e_j)-derivative at w.  Inner
    diagonal entries are identically zero (the polynomial is multiaffine in
    w_1..w_n), and the whole matrix is zero when the derivative has degree
    below two.  The entries are hessian_numerators divided by its scale.
    """
    cv, qv, wv = _validated(matroid, c, q, w)
    rows, scale = hessian_numerators(matroid, cv, qv, validate_alpha(alpha, matroid.n), wv)
    return SymMatrix(tuple(tuple(Fraction(x, scale) for x in row) for row in rows))


def second_order_numerators(matroid, c, q, w):
    """(z, grad, rows, scale): Z_c, its gradient and its Hessian at the
    length-(n+1) point w, integers over one positive integer scale, from
    one subset pass per support.  The gradient is zero when n < 1 and the
    Hessian when n < 2."""
    n = matroid.n
    derivative, scale = _derivatives(matroid, c, q, w)
    return (derivative(0, 0), _first_partials(derivative, n, 0, 0),
            _second_partials(derivative, n, 0, 0), scale)


def independent_numerators(matroid, w):
    """(nums, scale): the independent-set strata at the length-n point w
    are f[m] = nums[m] / scale for every m, with integer nums and one
    positive integer scale (1 for an integer point)."""
    table, width, scale = _strata_table(matroid, w)
    return [table[k * width + k] if k < width else 0 for k in range(matroid.n + 1)], scale


def f_all(matroid, w):
    """All strata of the independent-set generating polynomial at w."""
    nums, scale = independent_numerators(matroid, validate_point(w, matroid.n, "any"))
    return tuple(Fraction(x, scale) for x in nums)


def f_m_eval(matroid, m, w):
    """Stratum f[m]: sum over independent m-subsets of the weight products."""
    _validate_index(m)
    strata = f_all(matroid, w)
    return strata[m] if m <= matroid.n else ZERO


def f_limit_residual(matroid, m, w, q):
    """|Z[m](q; q*w) - f[m](w)|: the deviation of the rescaled stratum from
    its independent-set limit.  Each dependent subset contributes with a
    factor q^(|A| - rk(A)), so the residual is O(q) as q -> 0.  Both strata
    are read from their numerators on the inputs validated here."""
    _validate_index(m)
    qv = validate_q(q)
    wv = validate_point(w, matroid.n, "any")
    if m > matroid.n:
        return ZERO
    nums, scale = strata_numerators(matroid, qv, tuple(qv * x for x in wv))
    f_nums, f_scale = independent_numerators(matroid, wv)
    return abs(Fraction(nums[m], scale) - Fraction(f_nums[m], f_scale))


def dependent_mass(matroid, m, w, nullity=None):
    """Sum of the weight products over dependent m-subsets.

    nullity=k restricts the sum to subsets with |A| - rk(A) == k; the k = 1
    slice is the leading term of Z[m](q; q*w) - f[m](w) as q -> 0.
    """
    _validate_index(m)
    if nullity is not None and (not is_int(nullity) or nullity < 1):
        raise InvalidParametersError(f"nullity must be a positive integer, got {nullity!r}")
    wv = validate_point(w, matroid.n, "any")
    if m > matroid.n:
        return ZERO
    table, width, scale = _strata_table(matroid, wv)
    row = table[m * width:(m + 1) * width]
    if nullity is None:
        total = sum(row[:m])
    else:
        total = row[m - nullity] if 0 <= m - nullity < width else 0
    return Fraction(total, scale)


def elementary_symmetric(indices, k, w):
    """Elementary symmetric polynomial e_k over the w-values selected by the
    1-based index set `indices`."""
    if not is_int(k) or k < 0:
        raise InvalidParametersError(f"degree must be a nonnegative integer, got {k!r}")
    wv, den = clear_denominators(as_rationals(w))
    idx = list(indices)
    if mask_from_labels(idx, len(wv)).bit_count() != len(idx):
        raise InvalidParametersError("index set contains repeats")
    if k > len(idx):
        return ZERO
    acc = [1] + [0] * k
    for i in idx:
        v = wv[i - 1]
        for j in range(k, 0, -1):
            acc[j] += acc[j - 1] * v
    return Fraction(acc[k], den ** k)
