"""Symmetric matrices and exact linear algebra.

Everything here is dimension-small (matrices are (n+1) x (n+1) for ground
sets capped at n <= 20), so clarity beats asymptotics and there are no
pivoting heuristics.  Inertia comes from a symmetric fraction-free
(Bareiss) elimination over Python ints.  Rank, nullspace and the congruence
diagonalization with its transform use Gaussian elimination over exact
rationals.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ImpossibleStateError, InvalidParametersError
from .scalars import (
    EXACT,
    coerce_scalar,
    is_exact_scalar,
    rat,
    scalar_from_json,
    scalar_to_json,
)


@dataclass(frozen=True)
class SymMatrix:
    """Immutable symmetric matrix; entries all-exact or all-float."""

    entries: tuple

    def __post_init__(self):
        d = len(self.entries)
        for row in self.entries:
            if len(row) != d:
                raise InvalidParametersError("matrix is not square")
        for i in range(d):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise InvalidParametersError(
                        f"matrix is not symmetric at ({i},{j}): "
                        f"{self.entries[i][j]!r} != {self.entries[j][i]!r}")

    @property
    def dim(self):
        return len(self.entries)

    @property
    def is_exact(self):
        return all(is_exact_scalar(x) for row in self.entries for x in row)

    def rows(self):
        return [list(row) for row in self.entries]

    def max_abs(self):
        best = None
        for row in self.entries:
            for x in row:
                a = -x if x < 0 else x
                if best is None or a > best:
                    best = a
        return best if best is not None else 0

    def to_json(self):
        return {"dim": self.dim, "entries": [[scalar_to_json(x) for x in row] for row in self.entries]}

    @staticmethod
    def from_json(obj):
        entries = tuple(tuple(scalar_from_json(x) for x in row) for row in obj["entries"])
        mat = SymMatrix(entries)
        if mat.dim != int(obj["dim"]):
            raise InvalidParametersError(f"declared dim {obj['dim']} does not match {mat.dim} rows")
        return mat

    @staticmethod
    def from_rows(rows, mode=EXACT):
        return SymMatrix(tuple(tuple(coerce_scalar(x, mode) for x in row) for row in rows))

    def submatrix(self, indices):
        idx = list(indices)
        return SymMatrix(tuple(tuple(self.entries[i][j] for j in idx) for i in idx))


def mat_vec(matrix, vector):
    ents = matrix.entries if isinstance(matrix, SymMatrix) else matrix
    return tuple(sum(row[j] * vector[j] for j in range(len(vector))) for row in ents)


def bilinear(u, matrix, v):
    """u^T A v for a symmetric matrix A."""
    av = mat_vec(matrix, v)
    return sum(ui * x for ui, x in zip(u, av))


def _echelon(rows):
    """Row-reduce in place over exact rationals; returns list of pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rat(1) / rat(rows[r][col])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                coef = rows[i][col]
                rows[i] = [a - coef * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def exact_rank(rows):
    """Rank of a rational matrix given as an iterable of rows."""
    work = [[rat(x) for x in row] for row in rows]
    if not work:
        return 0
    return len(_echelon(work))


def exact_nullspace(rows):
    """Basis of the right nullspace of a rational matrix, as tuples.

    The basis is in the standard reduced-echelon parametrization (one vector
    per free column, with a 1 in that column), so it is deterministic.
    """
    work = [[rat(x) for x in row] for row in rows]
    if not work:
        return []
    ncols = len(work[0])
    pivots = _echelon(work)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [rat(0)] * ncols
        vec[fc] = rat(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(tuple(vec))
    return basis


def same_subspace(basis_a, basis_b, dim):
    """Do two lists of vectors span the same subspace of R^dim?"""
    ra = exact_rank(list(basis_a)) if basis_a else 0
    rb = exact_rank(list(basis_b)) if basis_b else 0
    if ra != rb:
        return False
    joint = [list(v) for v in basis_a] + [list(v) for v in basis_b]
    if not joint:
        return True
    return exact_rank(joint) == ra


def _zero_diagonal_pair(a, active):
    """An active pair (i, j), i != j, with a[i][j] != 0, or None."""
    for i in active:
        for j in active:
            if j != i and a[i][j]:
                return i, j
    return None


def congruence_diagonalize(matrix):
    """Exact congruence X^T A X = diag(d); returns (columns of X, diagonal).

    Symmetric Gaussian reduction.  When every remaining diagonal entry is
    zero but some off-diagonal a_ij is not, adding column j to column i
    creates the nonzero diagonal entry 2*a_ij; the subsequent pair of 1x1
    pivots contributes one positive and one negative inertia index, exactly
    as the hyperbolic 2x2 block would.  signature() counts inertia with
    bareiss_inertia; this routine serves callers that need the transform X,
    and is an independent reference for that count.
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
            pair = _zero_diagonal_pair(a, active)
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


def bareiss_inertia(rows):
    """(n_pos, n_neg, n_zero) of a symmetric integer matrix.

    Symmetric fraction-free elimination (Bareiss 1968).  Pivoting on a
    nonzero diagonal entry d_p updates the active entries as
    a_ik <- (d_p a_ik - a_ip a_pk) / d_prev, where d_prev is the previous
    pivot (1 at the start).  Every active entry is then a minor of the
    input, by Sylvester's identity, so the division is exact; it is checked
    all the same.  The pivots are leading principal minors in pivot order,
    so the k-th diagonal entry of an LDL^T factorization has the sign of
    d_p d_prev.  When every active diagonal entry is zero but some a_ij
    is not, row i += row j and column i += column j make a_ii = 2 a_ij, as
    in congruence_diagonalize; this congruence leaves the pivot block alone,
    so the later divisions stay exact.
    """
    a = [list(row) for row in rows]
    active = list(range(len(a)))
    prev = 1
    pos = neg = 0
    while active:
        p = next((i for i in active if a[i][i]), None)
        if p is None:
            pair = _zero_diagonal_pair(a, active)
            if pair is None:
                break
            i, j = pair
            for k in active:
                a[i][k] += a[j][k]
            for k in active:
                a[k][i] += a[k][j]
            continue
        piv = a[p][p]
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        active.remove(p)
        row_p = a[p]
        for x, i in enumerate(active):
            row_i = a[i]
            a_ip = row_i[p]
            for k in active[x:]:
                value, rem = divmod(piv * row_i[k] - a_ip * row_p[k], prev)
                if rem:
                    raise ImpossibleStateError(
                        f"inexact Bareiss division by {prev} at ({i},{k})")
                row_i[k] = a[k][i] = value
        prev = piv
    return pos, neg, len(a) - pos - neg


def stack_rows(matrices):
    """All rows of the given (Sym)matrices, concatenated top to bottom."""
    rows = []
    for m in matrices:
        rows.extend(m.rows() if isinstance(m, SymMatrix) else [list(r) for r in m])
    return rows
