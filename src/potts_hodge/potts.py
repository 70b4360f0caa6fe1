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
each cell (_strata_table), and Z[1] and Z[2] alone off the singleton and
pair ranks (quadratic_numerators).  A derivative of multi-index alpha, inner
support S and degree d reads one list over the subsets A containing S,
u[A] = c_|A| q^(-rk A) prod_{i in A - S} w'_i / w_0', w' the point w with
each 0 replaced by 1 (w_0' too): one _products pass over the ratios and
one weight per cell (_superset_lists).  Its w_0-order-a list is
u_a[A] = (n-|A|)_a u[A] (_order_factors), and by homogeneity the sum of
u_a[A] over the A containing S, for a = alpha_0, is w_0'^(-d) times the
alpha-derivative of Z_c.  A value is one sum of these monomials, a
gradient their per-bit sums, and second_order_numerators is the one
reader of second order: the value, D times the gradient and the
congruent Hessian D H D, D = diag(w_0', w'_1, ..., w'_n), all times
w_0'^(-d) and read off one superset-sum transform.  At a positive point
D H D has the inertia of H (Sylvester's law), and the public evaluators
divide D and w_0'^(-d) back out.  A zero w_i enters as 1 with its bit
kept out of the sums, so every read is exact at any point.  These passes
are list-level; the strata table is the one per-subset loop.  The Euler
and kernel identities of criterion 05 (euler_hessian_residual,
kernel_identity_check) live here too, beside the format of the rows
they combine.

The passes and the reductions run on Python ints.  The strata helpers
return integers over one positive integer scale: each w_i = p_i / d_i is
cleared on its own (_products) and q = a/b as b^r a^(R-r) over a^R for
the full rank R.  The derivative lists clear the ratios (in lowest terms)
and c (as C over L_c) the same way, and are w_0'^(-d) times their values
over their scale.  The public evaluators divide once, at their boundary;
the checks compare the integers, or read the signature of a congruent
Hessian's integer rows (a positive factor does not change the inertia).
Inputs are validated where they enter: each public evaluator validates
its inputs once, and the *_numerators helpers and _superset_lists take
validated inputs and trust them, as do the checks that call them.
Inputs are ints or Fractions, and the validators return them as given,
an int staying an int, with signs read off numerators; outputs are
Fractions; a caller with float inputs converts them with
scalars.from_float.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, islice
from operator import add, attrgetter, ge, gt, mul

from .errors import InvalidParametersError, NotApplicableError
from .matrices import SymMatrix, bareiss_inertia, exact_nullspace, exact_rank
from .matroids import mask_from_labels, subset_masks
from .scalars import clear_denominators, exact_scalar, exact_values, is_int

ZERO = Fraction(0)


def validate_q(q):
    """q, an int or a Fraction as given; it must be positive."""
    if exact_scalar(q).numerator <= 0:
        raise InvalidParametersError(f"q must be positive, got {q}")
    return q


_numerator = attrgetter("numerator")  # a Fraction's denominator is positive
_denominator = attrgetter("denominator")
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


def _products(nums, dens):
    """prod[mask]: for rationals x_i = p_i / d_i given as their numerators
    and positive denominators, the product of p_i over the set bits of
    mask times that of d_i over the others, so prod[mask] / prod[0] is the
    product of the x_i in mask.  Built by doubling: the masks below 2^i
    times d_i (as they are when d_i = 1), then the same times p_i."""
    prod = [1]
    for p, d in zip(nums, dens):
        prod = (prod if d == 1 else [v * d for v in prod]) + [v * p for v in prod]
    return prod


def _ratios(w):
    """(numerators, denominators) of the ratios w'_i / w_0', i = 1..n, in
    lowest terms over positive denominators (w' as in the docstring)."""
    p0, d0 = (w[0] or 1).numerator, (w[0] or 1).denominator
    pairs = [(x.numerator * d0, x.denominator * p0) if x else (d0, p0) for x in w[1:]]
    gcds = [math.gcd(p, d) if d > 0 else -math.gcd(p, d) for p, d in pairs]
    return [p // g for (p, _), g in zip(pairs, gcds)], [d // g for (_, d), g in zip(pairs, gcds)]


@functools.lru_cache(maxsize=256)
def _buckets(ranks, width):
    """bucket[mask] = |mask| * width + rk(mask), the cell of a subset in a
    flat size x rank table of the given width (R + 1).  Cached per rank
    table rather than stored on the Matroid, which stays as it was built."""
    return tuple(mask.bit_count() * width + r for mask, r in enumerate(ranks))


def _strata_table(matroid, w):
    """(T, width, scale) at the length-n point w: T[k (R+1) + r] is the
    sum of prod_{i in A} w_i over the subsets A with |A| = k and
    rk(A) = r, one flat list of (n+1)(R+1) cells, each an integer over
    the one positive scale; width is R + 1, the length of a row."""
    prod = _products(map(_numerator, w), map(_denominator, w))
    width = matroid.full_rank + 1
    table = [0] * ((matroid.n + 1) * width)
    for cell, x in zip(_buckets(matroid.ranks, width), prod):
        table[cell] += x
    return table, width, prod[0]


def strata_numerators(matroid, q, w):
    """(nums, scale): the strata at the length-n point w are
    Z[k] = nums[k] / scale for every k, with integer nums and one positive
    integer scale.  One subset pass."""
    powers, qden = _q_inverse_powers(q, matroid.full_rank)
    table, width, scale = _strata_table(matroid, w)
    return [sum(map(mul, powers, row)) for row in zip(*[iter(table)] * width)], qden * scale


def quadratic_numerators(matroid, q, w):
    """(z1, z2, scale): Z[1] = z1 / scale and Z[2] = z2 / scale at the
    length-n point w, integers over one positive scale (a L)^2 for q = a/b
    and w = W / L.  Read off the singleton and pair ranks r <= 2, each
    term times a^2 q^(-r) = a^(2-r) b^r: no subset pass."""
    a, b = q.numerator, q.denominator
    factors, ranks = (a * a, a * b, b * b), matroid.ranks
    wints, lcm = clear_denominators(w)
    z1 = sum(factors[ranks[1 << i]] * x for i, x in enumerate(wints))
    z2 = sum(factors[ranks[1 << i | 1 << j]] * x * y
             for (i, x), (j, y) in combinations(enumerate(wints), 2))
    return z1 * lcm, z2, (a * lcm) ** 2


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


@functools.lru_cache(maxsize=256)
def _order_factors(m, a, w0_zero):
    """factor[t] = (m - |t|)_a for t over the subsets of m bits, the factor
    a w_0-derivative of order a puts on w_0^(n-|A|) for A = S + t and
    m = n - |S|; None when every factor is 1 (a = 0 at w_0 != 0).  At
    w_0 = 0 the power w_0^(n-|A|-a) is 0 unless |A| = n - a, so only
    |t| = m - a keeps its factor, a!."""
    if a == 0 and not w0_zero:
        return None
    factors = [0 if w0_zero and k != m - a else math.perm(m - k, a) for k in range(m + 1)]
    return tuple(factors[t.bit_count()] for t in range(1 << m))


def _superset_sums(f, skip=0):
    """F[B] = the sum of f[A] over the A containing B that agree with B on
    the bits of skip, for f indexed by the subsets of b bits, len(f) = 2^b.
    Each step adds the entries with the bottom bit set to those without it
    and moves that bit to the top, so after b steps the layout is back."""
    for i in range(len(f).bit_length() - 1):
        hi = f[1::2]
        f = (f[0::2] if skip >> i & 1 else list(map(add, f[0::2], hi))) + hi
    return f


def _single_sums(f, low):
    """([for each bit x, the sum of f[A] over the A holding x and no other
    bit from low up], the sum of f[:2^low]), for f indexed by the subsets
    of b bits.  Each bit from low up is one slice of f; each step of the
    loop folds the bottom bit of f[:2^low] away."""
    size = 1 << low
    bits = range(low, len(f).bit_length() - 1)
    singles = [sum(f[1 << x:(1 << x) + size]) for x in bits]
    sums, f = [], f[:size]
    while len(f) > 1:
        hi = f[1::2]
        sums.append(sum(hi))
        f = list(map(add, f[0::2], hi))
    return sums + singles, f[0]


def _superset_lists(matroid, c, q, alpha, w):
    """(monomials, free, low, scale) for the alpha-derivative of Z_c at the
    length-(n+1) point w, S its inner support and a0 = alpha_0.  free lists
    the indices not in S, the low ones with w_i != 0 first.  monomials(a)
    iterates over u_(a0+a)[A] (module docstring) for A = S + {free[x] :
    bit x of t} in the order of t, integers over scale.  An identically
    zero derivative has every u_a zero."""
    n = matroid.n
    nums, dens = _ratios(w)
    cv, cden = clear_denominators(c)
    powers, qden = _q_inverse_powers(q, matroid.full_rank)
    weights = [x * y for x in cv for y in powers]
    a0, smask = _alpha_split(alpha, n) or (n + 1, 0)
    free = [i for i in range(n) if not smask >> i & 1 and w[i + 1]]
    low = len(free)
    free += [i for i in range(n) if not smask >> i & 1 and not w[i + 1]]
    prod = _products([nums[i] for i in free], [dens[i] for i in free])
    cells = _buckets(matroid.ranks, matroid.full_rank + 1)
    if smask or low < len(free):
        cells = map(cells.__getitem__, subset_masks(free, smask))
    u = list(map(mul, map(weights.__getitem__, cells), prod))

    def monomials(a):
        factors = _order_factors(len(free), a0 + a, not w[0])
        return iter(u) if factors is None else map(mul, factors, u)

    return monomials, free, low, cden * qden * prod[0]


def _divided(rows, scale, w, alpha, left, right):
    """X, one Fraction per entry, from rows = scale w_0'^(-d) L X R, d the
    degree of the alpha-derivative and L, R the diagonals left and right."""
    base = scale * Fraction(w[0] or 1) ** (sum(alpha) + 1 - len(w))
    out = []
    for row, y in zip(rows, left):
        m = base * y
        out.append(tuple(Fraction(x * m.denominator * z.denominator, m.numerator * z.numerator)
                         for x, z in zip(row, right)))
    return tuple(out)


def _validated(matroid, c, q, w):
    """(c, q, w) validated in that order, w of length n + 1."""
    n = matroid.n
    return validate_coeffs(c, n), validate_q(q), validate_point(w, n + 1, "any")


def z_weighted_eval(matroid, c, q, w):
    """Weighted polynomial Z_c at the length-(n+1) point (w_0, ..., w_n)."""
    return partial_eval(matroid, c, q, (0,) * (matroid.n + 1), w)


def derivative_degree(matroid, alpha):
    """Degree of the alpha-derivative of Z_c (None when identically zero)."""
    av = validate_alpha(alpha, matroid.n)
    if _alpha_split(av, matroid.n) is None:
        return None
    return matroid.n - sum(av)


def is_identically_zero(matroid, c, q, alpha):
    """Symbolic test: is the alpha-derivative of Z_c the zero polynomial?

    With positive coefficients and q > 0 the derivative vanishes exactly
    when some inner index exceeds 1 (multiaffine variables) or the total
    order a_0 + |support| exceeds n.
    """
    validate_coeffs(c, matroid.n)
    validate_q(q)
    return derivative_degree(matroid, alpha) is None


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
    return _divided([[sum(islice(monomials(0), 1 << low))]], scale, wv, av, (1,), (1,))[0][0]


def gradient(matroid, c, q, alpha, w):
    """All first partials of the alpha-derivative of Z_c at w: entry i is
    the (alpha + e_i)-derivative, read off the per-bit sums of the
    restricted monomials and the sum of those of one more w_0-order."""
    cv, qv, wv = _validated(matroid, c, q, w)
    av = validate_alpha(alpha, matroid.n)
    monomials, free, low, scale = _superset_lists(matroid, cv, qv, av, wv)
    row = [sum(islice(monomials(1), 1 << low))] + [0] * matroid.n
    for i, x in zip(free, _single_sums(list(monomials(0)), low)[0]):
        row[i + 1] = x
    return _divided([row], scale, wv, av, (1,), [x or 1 for x in wv])[0]


def second_order_numerators(matroid, c, q, alpha, w):
    """(z, grad, rows, scale): the alpha-derivative F of Z_c at the
    length-(n+1) point w, D times its gradient and D H D for its Hessian
    H, D = diag(w_0', w'_1, ..., w'_n), integers over one positive scale
    as w_0'^(-d) times their values, d the degree of F.  With the
    monomials u_a of _superset_lists, a0 = alpha_0, S the inner support
    and i, j distinct free indices, exactly at every w:

        w_0'^(-d) F          = sum of u_a0[A] over the A containing S,
        w_0'^(-d) (D grad)_0 = sum of u_(a0+1)[A] over the A containing S,
        w_0'^(-d) (D grad)_i = sum of u_a0[A] over the A containing S+i,
        w_0'^(-d) (D H D)_00 = sum of u_(a0+2)[A] over the A containing S,
        w_0'^(-d) (D H D)_0i = sum of u_(a0+1)[A] over the A containing S+i,
        w_0'^(-d) (D H D)_ij = sum of u_a0[A] over the A containing S+i+j,

    each A holding no index with w_k = 0 but i and j; the entries of S
    are 0.  z, the inner gradient and the pairs are reads of one
    superset-sum transform of u_a0 that skips those zero bits; row 0 and
    grad_0 come from the _single_sums of u_(a0+1), and the corner from the
    sum of u_(a0+2), never from Euler's identity.  At a positive point, by
    Sylvester's law, the rows have the inertia of H, also on the actives
    (0 and the free indices); every Hessian check validates a positive
    point first."""
    n = matroid.n
    monomials, free, low, scale = _superset_lists(matroid, c, q, alpha, w)
    head = 1 << low
    sums = _superset_sums(list(monomials(0)), (1 << len(free)) - head)
    singles, total = _single_sums(list(monomials(1)), low)
    grad = [total] + [0] * n
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    rows[0][0] = sum(islice(monomials(2), head))
    for x, i in enumerate(free):
        grad[i + 1] = sums[1 << x]
        rows[0][i + 1] = rows[i + 1][0] = singles[x]
        for y in range(x + 1, len(free)):
            j = free[y]
            rows[i + 1][j + 1] = rows[j + 1][i + 1] = sums[1 << x | 1 << y]
    return sums[0], grad, rows, scale


def hessian(matroid, c, q, alpha, w):
    """Hessian of the alpha-derivative of Z_c at w, as a SymMatrix.

    Entry (i, j) equals the (alpha + e_i + e_j)-derivative at w.  Inner
    diagonal entries are identically zero (the polynomial is multiaffine in
    w_1..w_n), and the whole matrix is zero when the derivative has degree
    below two.  The congruent rows of second_order_numerators, divided back.
    """
    cv, qv, wv = _validated(matroid, c, q, w)
    av = validate_alpha(alpha, matroid.n)
    _, _, rows, scale = second_order_numerators(matroid, cv, qv, av, wv)
    d = [x or 1 for x in wv]
    return SymMatrix(_divided(rows, scale, wv, av, d, d))


def _identity_hessians(matroid, c, q, alpha, w, least_degree):
    """(d, w, alpha, rows, scale, partials): c and alpha validated, the
    degree d of the alpha-derivative F checked (NotApplicableError), then
    q and w; rows / scale = w_0'^(-d) D H_F D (second_order_numerators),
    and partials[i] the congruent rows of each dF/dw_i not identically
    zero."""
    n = matroid.n
    cv = validate_coeffs(c, n)
    av = validate_alpha(alpha, n)
    d = derivative_degree(matroid, av)
    if d is None:
        raise NotApplicableError("the derivative is identically zero; no Hessian to compare")
    if d < least_degree:
        raise NotApplicableError(
            f"the derivative has degree {d}; the identity needs degree >= {least_degree}")
    qv = validate_q(q)
    wv = validate_point(w, n + 1, "any")
    _, _, rows, scale = second_order_numerators(matroid, cv, qv, av, wv)
    bumps = ([a + (i == j) for j, a in enumerate(av)] for i in range(n + 1))
    partials = {i: second_order_numerators(matroid, cv, qv, b, wv)[2]
                for i, b in enumerate(bumps) if _alpha_split(b, n) is not None}
    return d, wv, av, rows, scale, partials


def euler_hessian_residual(matroid, c, q, alpha, w):
    """Largest absolute entry of (d-2) H_F - sum_i w_i H_{dF/dw_i} for the
    alpha-derivative F of Z_c; identically zero for every homogeneous F, so
    it must come out exactly 0.  Requires degree d >= 2.

    The Hessians come from _identity_hessians, rows_G = scale_G w_0'^(-e)
    D H_G D for G of degree e, with scale_G d_i = scale_F for G = dF/dw_i
    and w_i / w_0' = p_i / d_i.  So scale_F w_0'^(-d) D R D for the residual
    R is (d-2) rows_F minus p_i rows_G for each dF/dw_i with w_i != 0
    (p_0 = 1), divided back entry by entry (_divided).
    """
    d, wv, av, rows, scale, partials = _identity_hessians(matroid, c, q, alpha, w, 2)
    total = [[(d - 2) * x for x in row] for row in rows]
    factors = [1] + _ratios(wv)[0]
    for i, rows_g in partials.items():
        if wv[i]:
            total = [[t - factors[i] * x for t, x in zip(r, s)] for r, s in zip(total, rows_g)]
    diagonal = [x or 1 for x in wv]
    return max(map(abs, chain(*_divided(total, scale, wv, av, diagonal, diagonal))))


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
    """Exact kernel comparison for the Hessian kernel identity.

    Each Hessian comes from _identity_hessians as a positive multiple of
    w_0'^(-e) D H D, e its degree and D = diag(w'), so by Sylvester's law
    H_G for G = dF/dw_i has the inertia of its rows, with the positive and
    negative counts swapped when w_0' < 0 and e = d - 1 is odd.  D is
    common and invertible, so the kernels compare as the rows give them,
    and each reduced-echelon vector y of F's rows, with its 1 at its last
    nonzero column j, is reported as D y / D_jj, that of ker H_F.
    """
    d, wv, _, rows, _, partials = _identity_hessians(matroid, c, q, alpha, w, 0)
    dim = len(wv)
    failures = []
    for i, rows_g in partials.items():
        pos, neg, zero = bareiss_inertia(rows_g)
        if wv[0] < 0 and d % 2 == 0:
            pos, neg = neg, pos
        if pos != 1:
            failures.append({"index": i, "signature": (pos, neg, zero)})
    ker_f = exact_nullspace(rows)
    # with no partials the joint kernel is the whole space, that of a zero row
    stacked = [row for rows_g in partials.values() for row in rows_g] or [[0] * dim]
    # the kernels are equal exactly when the row spaces are: equal ranks,
    # and no rank gained by joining the rows
    rank_stack = exact_rank(stacked)
    diagonal = [x or 1 for x in wv]
    basis = []
    for y in ker_f:
        j = max(k for k, x in enumerate(y) if x)
        basis.append(tuple(x * z / diagonal[j] for x, z in zip(y, diagonal)))
    return KernelIdentityReport(
        hypothesis_ok=not failures,
        hypothesis_failures=tuple(failures),
        kernels_equal=dim - len(ker_f) == rank_stack == exact_rank([*rows, *stacked]),
        kernel_dim=len(ker_f),
        stacked_kernel_dim=dim - rank_stack,
        kernel_basis=tuple(basis),
        degree=d,
        notes={"dim": dim},
    )


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
