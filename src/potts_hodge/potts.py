"""Evaluation of matroid rank-generating polynomials and their derivatives.

For a matroid M on ground set 1..n with rank function rk, the k-th stratum
is the homogeneous degree-k polynomial

    Z[k](q; w_1..w_n) = sum over k-subsets A of q^(-rk(A)) * prod_{i in A} w_i,

and the full weighted polynomial in n+1 variables w_0..w_n is

    Z_c(q; w) = sum_{m=0..n} c_m * Z[m](q; w_1..w_n) * w_0^(n-m),

homogeneous of degree n, multiaffine in each of w_1..w_n.  The independent
set generating polynomial f[m] keeps only the subsets with rk(A) = |A|.

A subset A of 1..n has the cell bucket[A] = |A| (R+1) + rk(A) in a flat
size x rank list of (n+1)(R+1) cells, R the full rank; the bucket list is
cached per rank table.  The strata, f[m] and the dependent masses are
read off one table T of the sums of prod_{i in A} w_i over the subsets in
each cell (_size_rank_sums).  A derivative weights each subset by its
cell: with W_a[k (R+1) + r] = c_k (n-k)_a w_0^(n-k-a) q^(-r) and the
weighted monomials u_a[A] = W_a[bucket[A]] prod_{i in A} w_i, the
alpha-derivative of Z_c for S the inner support of alpha and a = alpha_0
is

    (sum over the subsets A containing S of u_a[A]) / prod_{i in S} w_i,

a superset sum.  Every derivative is read off the monomials of the
supersets of S alone (_superset_lists): a value is one sum of them, a
gradient their per-bit sums, and a Hessian the congruent matrix
D H D w^S, D = diag(1, w_1, ..., w_n), whose inner pairs are reads of one
superset-sum transform (_congruent_hessian).  At a positive point it has
the inertia of H (Sylvester's law); the public evaluators divide D and
w^S back out.  A zero w_i enters as 1 with its bit kept out of the sums,
so every read is exact at any point.  These passes are list-level; the
strata table is the one per-subset loop.

The passes and the reductions run on Python ints, and all the integers
one call of a *_numerators helper or of _superset_lists returns sit over
one positive integer scale, the same for every k, m, order and support:
each w_i = p_i / d_i is cleared on its own (_products), w_0 enters as
p_0^(n-k-a_0) d_0^(k+a_0) over d_0^n, q = a/b as b^r a^(R-r) over a^R for
the full rank R, and c as C over L_c.  The public evaluators divide once,
at their boundary; the checks compare the integers, or read the signature
of a congruent Hessian's integer rows (a positive scale does not change
the inertia).  Inputs are validated where they enter: each public
evaluator validates its inputs once, and the *_numerators helpers and
_superset_lists take validated inputs and trust them, as do the checks
that call them.  Inputs are ints or Fractions, and the validators return
them as given, an int staying an int, with signs read off numerators;
outputs are Fractions; a caller with float inputs converts them with
scalars.from_float.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import islice
from operator import add, attrgetter, ge, gt, mul

from .errors import InvalidParametersError
from .matrices import SymMatrix
from .matroids import mask_from_labels
from .scalars import clear_denominators, exact_scalar, exact_values, is_int

ZERO = Fraction(0)


def validate_q(q):
    """q, an int or a Fraction as given; it must be positive."""
    if exact_scalar(q).numerator <= 0:
        raise InvalidParametersError(f"q must be positive, got {q}")
    return q


_numerator = attrgetter("numerator")  # a Fraction's denominator is positive
_SIGNS = {"any": lambda nums: True, "positive": lambda nums: min(nums, default=1) > 0,
          "nonnegative": lambda nums: min(nums, default=0) >= 0, "nonzero": any}


def validate_point(w, length, sign):
    """w as a tuple of its ints and Fractions, of the given length and with
    the sign its caller names: "positive" or "nonnegative" (every
    coordinate > 0 or >= 0), "nonzero" (some coordinate is not 0), or
    "any".  The signs are those of the numerators."""
    wv = exact_values(w)
    if len(wv) != length:
        raise InvalidParametersError(f"w must have length {length}, got {len(wv)}")
    if not _SIGNS[sign](map(_numerator, wv)):
        raise InvalidParametersError(f"w must be a {sign} point of length {length}")
    return wv


def _validate_index(k):
    if not is_int(k) or k < 0:
        raise InvalidParametersError(f"stratum index must be a nonnegative integer, got {k!r}")


def validate_coeffs(c, n):
    """Coefficient sequence c_0..c_n: right length, strictly positive.
    Returned as a tuple of its ints and Fractions."""
    cv = exact_values(c)
    if len(cv) != n + 1:
        raise InvalidParametersError(f"coefficient sequence must have length n+1 = {n + 1}, got {len(cv)}")
    if min(map(_numerator, cv), default=1) <= 0:
        raise InvalidParametersError("coefficient sequence must be strictly positive")
    return cv


def validate_alpha(alpha, n):
    """Differentiation multi-index over w_0..w_n: n+1 nonnegative integers."""
    out = tuple(alpha)
    for a in out:
        if not is_int(a) or a < 0:
            raise InvalidParametersError(f"multi-index entries must be nonnegative integers, got {a!r}")
    if len(out) != n + 1:
        raise InvalidParametersError(f"multi-index must have length n+1 = {n + 1}, got {len(out)}")
    return out


def log_concave_integers(ints, strict=True):
    """True when the integers are positive with ints[m]^2 > ints[m-1] ints[m+1]
    at every inner m (>= when not strict).  Rationals c_m = ints[m] / L
    over one common denominator L > 0 are (strictly) log-concave exactly
    when their numerators are: L^2 cancels from both sides."""
    if min(ints, default=1) <= 0:
        return False
    inner = ints[1:-1]
    return all(map(gt if strict else ge, map(mul, inner, inner), map(mul, ints, ints[2:])))


def is_strictly_log_concave(c):
    """True when c is positive with c_m^2 > c_{m-1} c_{m+1} strictly inside."""
    return log_concave_integers(clear_denominators(exact_values(c))[0])


def is_log_concave(c):
    """Non-strict variant: positive with c_m^2 >= c_{m-1} c_{m+1} inside."""
    return log_concave_integers(clear_denominators(exact_values(c))[0], strict=False)


def _q_inverse_powers(q, max_rank):
    """([b^r a^(R-r) for r = 0..R], a^R) for q = a/b and R = max_rank: the
    integers a^R q^(-r) and their common denominator a^R."""
    a, b = q.numerator, q.denominator
    return [b ** r * a ** (max_rank - r) for r in range(max_rank + 1)], a ** max_rank


def _products(point):
    """prod[mask]: for the point's rationals w_i = p_i / d_i, the product
    of p_i over the set bits of mask times that of d_i over the others, so
    prod[mask] / prod[0] is the product of the w_i in mask.  Built by
    doubling: the masks below 2^i times d_i (as they are when d_i = 1),
    then the same times p_i."""
    prod = [1]
    for x in point:
        p, d = x.numerator, x.denominator
        prod = (prod if d == 1 else [v * d for v in prod]) + [v * p for v in prod]
    return prod


@functools.lru_cache(maxsize=256)
def _buckets(ranks, width):
    """bucket[mask] = |mask| * width + rk(mask), the cell of a subset in a
    flat size x rank table of the given width (R + 1).  Cached per rank
    table rather than stored on the Matroid, which a campaign hands to
    each share's child process (pickled where children are spawned)."""
    return tuple(mask.bit_count() * width + r for mask, r in enumerate(ranks))


def _size_rank_sums(matroid, prod):
    """T[k (R+1) + r]: the sum of prod[A] over the subsets A with |A| = k
    and rk(A) = r, as one flat list of (n+1)(R+1) cells."""
    width = matroid.full_rank + 1
    table = [0] * ((matroid.n + 1) * width)
    for cell, x in zip(_buckets(matroid.ranks, width), prod):
        table[cell] += x
    return table


def _strata_table(matroid, w):
    """(T, width, scale): the table T_S for S empty at the length-n point
    w, the width R + 1 of its rows, and the scale every cell is over."""
    prod = _products(w)
    return _size_rank_sums(matroid, prod), matroid.full_rank + 1, prod[0]


def strata_numerators(matroid, q, w):
    """(nums, scale): the strata at the length-n point w are
    Z[k] = nums[k] / scale for every k, with integer nums and one positive
    integer scale.  One subset pass."""
    powers, qden = _q_inverse_powers(q, matroid.full_rank)
    table, width, scale = _strata_table(matroid, w)
    return [sum(map(mul, powers, row)) for row in zip(*[iter(table)] * width)], qden * scale


def zk_all(matroid, q, w):
    """All strata (Z[0], ..., Z[n]) at the length-n point w, one subset pass."""
    nums, scale = strata_numerators(matroid, validate_q(q), validate_point(w, matroid.n, "any"))
    return tuple(Fraction(x, scale) for x in nums)


def zk_eval(matroid, k, q, w):
    """Single stratum Z[k]; k > n gives 0 (there are no such subsets)."""
    _validate_index(k)
    strata = zk_all(matroid, q, w)
    return strata[k] if k <= matroid.n else ZERO


def _alpha_split(alpha, n):
    """(a0, smask) for an admissible alpha, or None when the derivative
    annihilates every monomial (some inner entry >= 2, or order too high)."""
    if any(alpha[i] >= 2 for i in range(1, n + 1)):
        return None
    smask = sum(1 << (i - 1) for i in range(1, n + 1) if alpha[i])
    if alpha[0] + smask.bit_count() > n:
        return None
    return alpha[0], smask


def _w0_weights(cv, powers, w0_powers, a0):
    """W[k (R+1) + r] = c_k (n-k)_{a0} w_0^(n-k-a0) q^(-r) times
    L_c a^R d_0^n, an integer for w_0 = p_0 / d_0 given as
    w0_powers[e] = p_0^e d_0^(n-e): the factor a subset of size k and rank
    r carries in a derivative of order a0 in w_0, laid out like T.  Sizes
    k > n - a0 lose their whole w_0 power: their cells are 0."""
    n = len(cv) - 1
    weights = []
    for k in range(n - a0 + 1):
        coef = cv[k] * math.perm(n - k, a0) * w0_powers[n - k - a0]
        weights += map(coef.__mul__, powers)
    return weights + [0] * ((n + 1) * len(powers) - len(weights))


def _weighting(matroid, c, q, w0, prod):
    """(weights, scale) for the inner products prod: weights(a0) is the
    _w0_weights list of w_0-order a0, and every sum of weights(a0)[cell]
    prod[A] is over the one positive integer scale."""
    n = matroid.n
    cv, cden = clear_denominators(c)
    powers, qden = _q_inverse_powers(q, matroid.full_rank)
    p0, d0 = w0.numerator, w0.denominator
    w0_powers = [p0 ** e * d0 ** (n - e) for e in range(n + 1)]
    return functools.partial(_w0_weights, cv, powers, w0_powers), cden * qden * d0 ** n * prod[0]


def _superset_sums(f, skip=0):
    """F[B] = the sum of f[A] over the A containing B that agree with B on
    the bits of skip, for f indexed by the subsets of b bits, len(f) = 2^b.
    Each step adds the entries with the bottom bit set to those without it
    and moves that bit to the top, so after b steps the layout is back."""
    for i in range(len(f).bit_length() - 1):
        hi = f[1::2]
        f = (f[0::2] if skip >> i & 1 else list(map(add, f[0::2], hi))) + hi
    return f


def _bit_sums(f):
    """([the sum of f[A] over the A containing bit i, for each bit i], the
    sum of f), for f indexed by the subsets of b bits.  Each step folds the
    bottom bit away."""
    sums = []
    while len(f) > 1:
        hi = f[1::2]
        sums.append(sum(hi))
        f = list(map(add, f[0::2], hi))
    return sums, f[0]


def _single_sums(f, low):
    """([for each bit x, the sum of f[A] over the A holding x and no other
    bit from low up], the sum of f[:2^low]), for f indexed by the subsets
    of b bits: _bit_sums of f[:2^low] and one slice per bit from low up."""
    head = 1 << low
    if head == len(f):
        return _bit_sums(f)
    singles, total = _bit_sums(f[:head])
    bits = range(low, len(f).bit_length() - 1)
    return singles + [sum(f[1 << x:(1 << x) + head]) for x in bits], total


def _superset_lists(matroid, c, q, alpha, w):
    """(monomials, free, low, scale) for the alpha-derivative of Z_c at the
    length-(n+1) point w, S its inner support and a0 = alpha_0.  free lists
    the indices not in S, the low ones with w_i != 0 first.  monomials(a)[t]
    is u_(a0+a)[A] = W[|A|, rk A] prod[A] for A = S + {free[x] : bit x of t},
    W the _w0_weights of w_0-order a0 + a and prod the _products of w',
    which is w with each 0 replaced by 1; every sum of them is over scale.
    An identically zero derivative has every u zero."""
    n = matroid.n
    zero = [not x for x in w[1:]]
    prod = _products([1 if z else x for x, z in zip(w[1:], zero)])
    weights, scale = _weighting(matroid, c, q, w[0], prod)
    a0, smask = _alpha_split(alpha, n) or (n + 1, 0)
    free = [i for i in range(n) if not smask >> i & 1 and not zero[i]]
    low = len(free)
    free += [i for i in range(n) if not smask >> i & 1 and zero[i]]
    cells = _buckets(matroid.ranks, matroid.full_rank + 1)
    if smask or low < len(free):
        index = [smask]
        for i in free:
            index += [x | 1 << i for x in index]
        cells = list(map(cells.__getitem__, index))
        prod = list(map(prod.__getitem__, index))

    def monomials(a):
        return list(map(mul, map(weights(a0 + a).__getitem__, cells), prod))

    return monomials, free, low, scale


def _divided(rows, scale, w, alpha):
    """X, one Fraction per entry, from the first rows of scale w'^S D' X D'
    for D' = diag(1, w'_1, ..., w'_n), w' as in _superset_lists and S the
    inner support of alpha."""
    ws = math.prod(x or 1 for x, a in zip(w[1:], alpha[1:]) if a)
    d = [1] + [x or 1 for x in w[1:]]
    out = []
    for row, y in zip(rows, d):
        top, bottom = ws.denominator * y.denominator, scale * ws.numerator * y.numerator
        out.append(tuple(Fraction(x * top * z.denominator, bottom * z.numerator)
                         for x, z in zip(row, d)))
    return tuple(out)


def _validated(matroid, c, q, w):
    """(c, q, w) validated in that order, w of length n + 1."""
    n = matroid.n
    return validate_coeffs(c, n), validate_q(q), validate_point(w, n + 1, "any")


def z_weighted_eval(matroid, c, q, w):
    """Weighted polynomial Z_c at the length-(n+1) point (w_0, ..., w_n)."""
    return partial_eval(matroid, c, q, (0,) * (matroid.n + 1), w)


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
    One sum of the restricted monomials, with no transform.
    """
    cv, qv, wv = _validated(matroid, c, q, w)
    av = validate_alpha(alpha, matroid.n)
    monomials, _, low, scale = _superset_lists(matroid, cv, qv, av, wv)
    return _divided([[sum(islice(monomials(0), 1 << low))]], scale, wv, av)[0][0]


def gradient(matroid, c, q, alpha, w):
    """All first partials of the alpha-derivative of Z_c at w: entry i is
    the (alpha + e_i)-derivative, read off the per-bit sums of the
    restricted monomials and the sum of those of one more w_0-order."""
    cv, qv, wv = _validated(matroid, c, q, w)
    av = validate_alpha(alpha, matroid.n)
    monomials, free, low, scale = _superset_lists(matroid, cv, qv, av, wv)
    row = [sum(islice(monomials(1), 1 << low))] + [0] * matroid.n
    for i, x in zip(free, _single_sums(monomials(0), low)[0]):
        row[i + 1] = x
    return _divided([row], scale, wv, av)[0]


def _congruent_hessian(matroid, c, q, alpha, w):
    """(rows, sums, total, free, scale): rows / scale = D' H D' w'^S for H
    the Hessian of the alpha-derivative of Z_c at w, as in _divided.  With
    the monomials u_a of _superset_lists, a0 = alpha_0 and i, j distinct
    free indices, exactly at every w:

        (D' H D')_ij w'^S = sum of u_a0[A] over the A containing S+i+j,
        (D' H D')_0i w'^S = sum of u_(a0+1)[A] over the A containing S+i,
        (D' H D')_00 w'^S = sum of u_(a0+2)[A] over the A containing S,

    each A holding no index with w_k = 0 but i and j; the rows of S are 0.
    The pairs are reads of sums, one superset-sum transform of u_a0 that
    skips those zero bits; row 0 comes from the _single_sums of u_(a0+1),
    whose sum is total, and the sum of u_(a0+2), never from Euler's
    identity.  At a positive point this is D H D w^S with D invertible and
    w^S > 0, so by Sylvester's law it has the inertia of H, also on the
    actives (0 and the free indices); every Hessian check validates a
    positive point before it calls here."""
    n = matroid.n
    monomials, free, low, scale = _superset_lists(matroid, c, q, alpha, w)
    head = 1 << low
    sums = _superset_sums(monomials(0), (1 << len(free)) - head)
    singles, total = _single_sums(monomials(1), low)
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    rows[0][0] = sum(islice(monomials(2), head))
    for x, i in enumerate(free):
        rows[0][i + 1] = rows[i + 1][0] = singles[x]
        for y in range(x + 1, len(free)):
            j = free[y]
            rows[i + 1][j + 1] = rows[j + 1][i + 1] = sums[1 << x | 1 << y]
    return rows, sums, total, free, scale


def hessian_numerators(matroid, c, q, alpha, w):
    """(rows, scale): D' H D' w'^S = rows / scale, for H the Hessian of the
    alpha-derivative of Z_c at w, D' = diag(1, w'_1, ..., w'_n), S the
    inner support of alpha and w' the point w with each 0 replaced by 1
    (_congruent_hessian).  At a positive point the rows have the inertia of
    H, also on the active indices."""
    rows, _, _, _, scale = _congruent_hessian(matroid, c, q, alpha, w)
    return tuple(map(tuple, rows)), scale


def hessian(matroid, c, q, alpha, w):
    """Hessian of the alpha-derivative of Z_c at w, as a SymMatrix.

    Entry (i, j) equals the (alpha + e_i + e_j)-derivative at w.  Inner
    diagonal entries are identically zero (the polynomial is multiaffine in
    w_1..w_n), and the whole matrix is zero when the derivative has degree
    below two.  The congruent rows of _congruent_hessian, divided back.
    """
    cv, qv, wv = _validated(matroid, c, q, w)
    av = validate_alpha(alpha, matroid.n)
    rows, _, _, _, scale = _congruent_hessian(matroid, cv, qv, av, wv)
    return SymMatrix(_divided(rows, scale, wv, av))


def second_order_numerators(matroid, c, q, w):
    """(z, grad, rows, scale): Z_c, D' times its gradient and D' H D' for
    its Hessian H at the length-(n+1) point w (_congruent_hessian at
    alpha = 0), integers over one positive integer scale: z and the inner
    gradient entries are reads of the same transform as the pairs.  The
    gradient is zero when n < 1 and the Hessian when n < 2."""
    n = matroid.n
    rows, sums, total, free, scale = _congruent_hessian(matroid, c, q, (0,) * (n + 1), w)
    return sums[0], [total] + [sums[1 << free.index(i)] for i in range(n)], rows, scale


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
    wv, den = clear_denominators(exact_values(w))
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
