"""Symmetric matrices and exact linear algebra.

Everything here is dimension-small (matrices are (n+1) x (n+1) for ground
sets capped at n <= 20), so clarity beats asymptotics and there are no
pivoting heuristics.  One routine does all the elimination: a symmetric
fraction-free (Bareiss) elimination over Python ints, bareiss_eliminate.
Inertia counts its pivot signs; the congruence diagonalization reads its
transform, carried along as a border of the matrix; rank and nullspace
come from the same elimination of the Gram matrix M^T M.  A SymMatrix is
exact by construction, and its scaled_rows are the integers that the
signature and the congruence diagonalization eliminate.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import ImpossibleStateError, InvalidParametersError
from .scalars import EXACT_TYPES, clear_denominators, exact_values, rat


@dataclass(frozen=True)
class SymMatrix:
    """Immutable symmetric matrix of exact entries: ints or rationals.

    The constructor rejects a non-square or non-symmetric matrix and any
    entry that is not exact (a float, say), so every SymMatrix is exact by
    construction.  scaled_rows is the one place where its entries become
    integers: every exact matrix computation reads them from there.
    """

    entries: tuple

    def __post_init__(self):
        entries = self.entries
        if any(len(row) != len(entries) for row in entries):
            raise InvalidParametersError("matrix is not square")
        # one comparison against the transpose; rows that are not tuples
        # compare as tuples
        transpose = tuple(zip(*entries))
        if transpose != entries and transpose != tuple(map(tuple, entries)):
            raise InvalidParametersError("matrix is not symmetric")
        if not EXACT_TYPES.issuperset(map(type, chain.from_iterable(entries))):
            raise InvalidParametersError("matrix entries must be ints or exact rationals")

    @property
    def dim(self):
        return len(self.entries)

    def scaled_rows(self):
        """(rows, scale): integer rows and one positive integer scale, the
        lcm of the denominators, with entries[i][j] = rows[i][j] / scale.
        All-int entries come back as they are, with scale 1."""
        if {int}.issuperset(map(type, chain.from_iterable(self.entries))):
            return self.entries, 1
        d = self.dim
        ints, scale = clear_denominators(list(chain.from_iterable(self.entries)))
        return [ints[i * d:(i + 1) * d] for i in range(d)], scale

    @staticmethod
    def from_rows(rows):
        """Exact matrix from rows of ints or rationals, kept as they are,
        floats raising; a SymMatrix comes back as is."""
        if isinstance(rows, SymMatrix):
            return rows
        return SymMatrix(tuple(map(tuple, rows)))


def mat_vec(matrix, vector):
    ents = SymMatrix.from_rows(matrix).entries
    if len(vector) != len(ents):
        raise InvalidParametersError(f"vector of length {len(vector)} for a matrix of size {len(ents)}")
    return tuple(sum(row[j] * vector[j] for j in range(len(vector))) for row in ents)


def bilinear(u, matrix, v):
    """u^T A v for a symmetric matrix A."""
    av = mat_vec(matrix, v)
    if len(u) != len(av):
        raise InvalidParametersError(f"vector of length {len(u)} for a matrix of size {len(av)}")
    return sum(ui * x for ui, x in zip(u, av))


def _zero_diagonal_pair(a, active):
    """An active pair (i, j), i != j, with a[i][j] != 0, or None."""
    for i in active:
        for j in active:
            if j != i and a[i][j]:
                return i, j
    return None


def bareiss_eliminate(a, d):
    """Symmetric fraction-free elimination (Bareiss 1968) of the leading
    d x d block of the symmetric integer matrix a, in place.

    Pivoting on a nonzero diagonal entry d_p updates the active entries as
    a_ik <- (d_p a_ik - a_ip a_pk) / d_prev, where d_prev is the previous
    pivot (1 at the start).  Every active entry is then a minor of the
    input, by Sylvester's identity, so the division is exact; it is checked
    all the same.  When every active diagonal entry is zero but some a_ij is
    not, row i += row j and column i += column j make a_ii = 2 a_ij; this
    congruence leaves the pivot block alone, so the later divisions stay
    exact.

    Rows and columns beyond d are never pivoted on; they ride along with the
    same updates.  Bordering A as [[A, I], [I, 0]] therefore carries the
    integer transform: entries d.. of an active row i are the column
    basis_i of the rational transform X times the last pivot, updated as
    basis_i <- (d_p basis_i - a_ip basis_p) / d_prev at a pivot and
    basis_i += basis_j at a hyperbolic step.  Row p stops changing when p
    is pivoted on.

    Returns (pivots, radical, last): pivots lists (p, d_p, d_prev) in pivot
    order, radical the indices left when the active block is zero, and last
    the last pivot (1 when there is none).
    """
    active = list(range(d))
    border = list(range(d, len(a)))
    prev = 1
    pivots = []
    while active:
        p = next((i for i in active if a[i][i]), None)
        if p is None:
            pair = _zero_diagonal_pair(a, active)
            if pair is None:
                break
            i, j = pair
            for k in active + border:
                a[i][k] += a[j][k]
            for k in active + border:
                a[k][i] += a[k][j]
            continue
        piv = a[p][p]
        pivots.append((p, piv, prev))
        active.remove(p)
        cols = active + border
        row_p = a[p]
        for x, i in enumerate(active):
            row_i = a[i]
            a_ip = row_i[p]
            for k in cols[x:]:
                value, rem = divmod(piv * row_i[k] - a_ip * row_p[k], prev)
                if rem:
                    raise ImpossibleStateError(
                        f"inexact Bareiss division by {prev} at ({i},{k})")
                row_i[k] = a[k][i] = value
        prev = piv
    return pivots, active, prev


def bareiss_inertia(rows):
    """(n_pos, n_neg, n_zero) of a symmetric integer matrix.

    The pivots of bareiss_eliminate are leading principal minors in pivot
    order, so the k-th diagonal entry of an LDL^T factorization has the
    sign of d_p d_prev.
    """
    a = [list(row) for row in rows]
    pivots, _, _ = bareiss_eliminate(a, len(a))
    pos = sum(1 for _, piv, prev in pivots if (piv > 0) == (prev > 0))
    return pos, len(pivots) - pos, len(a) - len(pivots)


def _bordered(square, d):
    """[[S, I], [I, 0]] for a d x d list of rows S."""
    top = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(square)]
    return top + [[int(i == j) for j in range(d)] + [0] * d for i in range(d)]


def congruence_diagonalize(matrix):
    """Exact congruence X^T A X = diag(D); returns (columns of X, D).

    A times the lcm L of its denominators is eliminated by
    bareiss_eliminate with the transform bordered on: a pivot p gives the
    column basis_p / d_prev and D entry d_p / (d_prev L), and each index
    left in the radical gives basis_i / last and 0.  These are the columns
    and the diagonal of the symmetric Gaussian reduction over rationals,
    with its choice of pivots and of hyperbolic steps.
    """
    mat = SymMatrix.from_rows(matrix)
    d = mat.dim
    square, den = mat.scaled_rows()
    a = _bordered(square, d)
    pivots, radical, last = bareiss_eliminate(a, d)
    vectors = [tuple(rat(x, prev) for x in a[p][d:]) for p, _, prev in pivots]
    vectors += [tuple(rat(x, last) for x in a[i][d:]) for i in radical]
    diag = [rat(piv, prev * den) for _, piv, prev in pivots] + [rat(0)] * len(radical)
    return vectors, diag


def _gram(rows):
    """M^T M for the rows of a rational matrix, each scaled to integers.

    Scaling a row keeps the row space, so M^T M has the rank and the right
    nullspace of the input.  It is positive semidefinite: a zero diagonal
    entry of it, or of a Schur complement of it, has a zero row, so
    bareiss_eliminate never takes a hyperbolic step on it, and its pivots
    are the columns of M from left to right that are not in the span of
    the earlier columns.
    """
    m = [clear_denominators(exact_values(row))[0] for row in rows]
    d = len(m[0]) if m else 0
    if any(len(row) != d for row in m):
        raise InvalidParametersError("matrix rows have unequal lengths")
    return [[sum(row[i] * row[j] for row in m) for j in range(d)] for i in range(d)]


def exact_rank(rows):
    """Rank of a rational matrix given as an iterable of rows."""
    gram = _gram(rows)
    pivots, _, _ = bareiss_eliminate(gram, len(gram))
    return len(pivots)


def exact_nullspace(rows):
    """Basis of the right nullspace of a rational matrix, as tuples.

    The basis is in the standard reduced-echelon parametrization (one vector
    per free column, with a 1 in that column), so it is deterministic.  It
    is the radical of the Gram matrix (_gram): the transform column of a
    free column i is 1 at i, zero at the other free columns, and in the
    kernel of M, which is that reduced-echelon vector.
    """
    gram = _gram(rows)
    d = len(gram)
    a = _bordered(gram, d)
    _, radical, last = bareiss_eliminate(a, d)
    return [tuple(rat(x, last) for x in a[i][d:]) for i in radical]
