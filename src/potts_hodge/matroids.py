"""Matroid construction, validation, and structural queries.

Ground set elements are labeled 1..n.  A subset is canonically encoded as
an n-bit mask with element i at bit i-1; all JSON rank tables use the same
indexing.  Every matroid carries a fully materialized rank table (index =
mask).  Materializing is affordable because every downstream evaluation
enumerates all 2^n subsets anyway, and it makes matroids immutable,
hashable, and cheap to ship between processes.  Construction is therefore
capped at n <= enumeration_cap() and refuses larger ground sets outright.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import (
    InvalidParametersError,
    NotAMatroidError,
    ParseError,
    ResourceLimitError,
)
from .scalars import is_int

DEFAULT_MAX_N = 20
MAX_N_ENV_VAR = "POTTS_HODGE_MAX_N"


def enumeration_cap():
    """Largest permitted ground set size; override with POTTS_HODGE_MAX_N."""
    raw = os.environ.get(MAX_N_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidParametersError(f"{MAX_N_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise InvalidParametersError(f"{MAX_N_ENV_VAR} must be nonnegative, got {cap}")
    return cap


def _check_cap(n, what):
    cap = enumeration_cap()
    if n > cap:
        raise ResourceLimitError(
            f"{what} needs a ground set of size {n}, above the enumeration cap {cap} "
            f"(raise {MAX_N_ENV_VAR} to override)"
        )


def mask_from_labels(labels, n):
    """Bit mask for an iterable of 1-based element labels."""
    if not hasattr(labels, "__iter__"):
        raise InvalidParametersError(f"element labels must be an iterable, got {labels!r}")
    mask = 0
    for e in labels:
        if not is_int(e) or not 1 <= e <= n:
            raise InvalidParametersError(f"element label {e!r} outside 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def labels_from_mask(mask):
    """Sorted tuple of 1-based labels encoded by a mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class Matroid:
    """Immutable matroid given by its full rank table.

    ranks[mask] is the rank of the subset encoded by mask; ranks[0] == 0 and
    ranks[-1] is the rank of the whole ground set.  source holds the fields
    of the uniform, graphic or linear constructor that built it, for
    to_json; a matroid without one is recorded as its rank table.
    """

    n: int
    ranks: tuple
    provenance: str = "rank_table"
    source: dict | None = field(default=None, compare=False, repr=False)

    @property
    def full_rank(self):
        return self.ranks[-1]

    def rank(self, subset):
        """Rank of a subset given as an iterable of 1-based labels or a mask."""
        if is_int(subset):
            if not 0 <= subset < len(self.ranks):
                raise InvalidParametersError(f"mask {subset} out of range for n={self.n}")
            return self.ranks[subset]
        return self.ranks[mask_from_labels(subset, self.n)]

    def to_json(self):
        """A JSON-safe dict, reconstructible with from_json.  Its lists are
        new ones, so a caller that edits them leaves the matroid as it is."""
        if self.source is None:
            return {"type": "rank_table", "n": self.n, "ranks": list(self.ranks)}
        # a source holds ints, strings and lists of rows (edges, matrix)
        return {key: [list(row) for row in value] if type(value) is list else value
                for key, value in self.source.items()}

    def __str__(self):
        return f"{self.provenance}(n={self.n}, rank={self.full_rank})"


def _int(value, what):
    """value, which must be an int: a bool, float or str is refused, not
    coerced, so a matroid records exactly the fields it was given."""
    if not is_int(value):
        raise InvalidParametersError(f"{what} must be an integer, got {value!r}")
    return value


def _size(value, what):
    if _int(value, what) < 0:
        raise InvalidParametersError(f"{what} must be nonnegative, got {value}")


def _list(value, what, length=None):
    """value, which must be a list or tuple (of the given length)."""
    if type(value) not in (list, tuple) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length}"
        raise InvalidParametersError(f"{what} must be {shape}, got {value!r}")
    return value


def _build(n, fill, provenance, source):
    """Matroid whose rank table is fill(), the ranks of masks 0..2^n-1 in
    order; fill is called only once n passes the enumeration cap."""
    _check_cap(n, f"constructing a {provenance} matroid")
    return Matroid(n=n, ranks=tuple(fill()), provenance=provenance, source=source)


def make_uniform(rank, n):
    """Uniform matroid: every subset of size <= rank is independent."""
    _size(n, "ground set size")
    if not 0 <= _int(rank, "uniform rank") <= n:
        raise InvalidParametersError(f"uniform rank must satisfy 0 <= rank <= n, got rank={rank}, n={n}")
    source = {"type": "uniform", "rank": rank, "n": n}
    return _build(n, lambda: (min(mask.bit_count(), rank) for mask in range(1 << n)),
                  "uniform", source)


def make_graphic(vertices, edges):
    """Cycle matroid of a multigraph on vertices 1..vertices.

    Edge i of the list becomes ground set element i.  Loops (u == v) and
    parallel edges are allowed.  The ranks are those of the GF(2) incidence
    matrix (_prefix_basis_ranks), with one row per vertex that a non-loop
    edge touches (other rows are zero, as is a loop's column), so the cost
    does not depend on the vertex count.
    """
    _size(vertices, "vertex count")
    edge_list = []
    for e in _list(edges, "edges"):
        u, v = _list(e, "edge", 2)
        if not all(1 <= _int(x, "edge endpoint") <= vertices for x in (u, v)):
            raise InvalidParametersError(f"edge {e!r} has endpoints outside 1..{vertices}")
        edge_list.append((u, v))
    source = {"type": "graphic", "vertices": vertices, "edges": [list(e) for e in edge_list]}
    rows = sorted({x for u, v in edge_list if u != v for x in (u, v)})
    return _build(len(edge_list), lambda: _prefix_basis_ranks(
        2, [[int(u != v and x in (u, v)) for x in rows] for u, v in edge_list]),
        "graphic", source)


# the first 12 primes: as Miller-Rabin bases they decide every p < 2^64
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    """Deterministic Miller-Rabin over _BASES, exact for every p < 2^64
    (make_linear refuses larger field orders): 12 modular powers, where
    trial division to the square root of p ~ 2^61 takes ~10^9 steps."""
    if p < 2 or p in _BASES:
        return p in _BASES
    s = ((p - 1) & -(p - 1)).bit_length() - 1  # p - 1 = 2^s d with d odd
    for a in _BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _reduced(prime, basis, col):
    """basis, with col reduced against it appended when a nonzero remainder
    is left: a basis is ((pivot position, vector with a unit pivot), ...)."""
    vec = col
    for pos, pivot in basis:
        coef = vec[pos]
        if coef:
            vec = [(a - coef * b) % prime for a, b in zip(vec, pivot)]
    for pos, a in enumerate(vec):
        if a:
            inv = pow(a, prime - 2, prime)
            return basis + ((pos, [x * inv % prime for x in vec]),)
    return basis


def _prefix_basis_ranks(prime, cols):
    """The ranks of the columns selected by masks 0..2^n-1, by prefix bases
    (see make_linear), for the columns of make_linear over GF(prime) and
    the incidence columns of make_graphic over GF(2): a basis is shared
    with its prefix wherever the top column adds nothing.  A basis as
    large as the rank of all the columns spans them, so it is not reduced
    against again.  Only the masks without the last column keep their
    bases, since no later mask extends the others."""
    full = ()
    for col in cols:
        full = _reduced(prime, full, col)
    bases = [()]
    ranks = [0]
    for h, col in enumerate(cols, 1):
        for basis in bases[:]:
            if len(basis) < len(full):
                basis = _reduced(prime, basis, col)
            ranks.append(len(basis))
            if h < len(cols):
                bases.append(basis)
    return ranks


def make_linear(prime, matrix):
    """Column matroid of a matrix over GF(prime); ground set element i = column i.

    The rank table is filled by prefix bases: the echelon basis of a mask
    is the basis of the mask without its top column, a smaller mask built
    before it, plus that column reduced against it when the remainder is
    nonzero.  So each mask costs one vector reduction instead of a fresh
    elimination of all its columns, and none once its prefix has as many
    basis vectors as the rank of the whole matrix."""
    if _int(prime, "field order") >= 1 << 64:
        raise InvalidParametersError(f"field order must be below 2^64, got {prime}")
    if not _is_prime(prime):
        raise InvalidParametersError(f"field order must be prime, got {prime}")
    rows = [[_int(x, "matrix entry") % prime for x in _list(row, "matrix row")]
            for row in _list(matrix, "matrix")]
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise InvalidParametersError("matrix rows have unequal lengths")
    cols = list(zip(*rows))
    source = {"type": "linear", "field": prime, "matrix": rows}
    return _build(n, lambda: _prefix_basis_ranks(prime, cols), "linear", source)


def make_rank_table(n, ranks):
    """Matroid from an explicit rank table; the rank axioms are always verified."""
    _size(n, "ground set size")
    table = [_int(r, "rank table entry") for r in _list(ranks, "rank table")]

    def checked():
        if len(table) != 1 << n:
            raise InvalidParametersError(f"rank table must have 2^{n} = {1 << n} entries, got {len(table)}")
        validate_rank_axioms(n, table)
        return table

    return _build(n, checked, "rank_table", None)


def validate_rank_axioms(n, ranks):
    """Exhaustively verify the rank axioms of a full table; raise NotAMatroidError.

    Checked in local form, which is equivalent to the global axioms:
      - rank(empty) == 0,
      - 0 <= rank(A+e) - rank(A) <= 1 (unit increase; the lower bound gives
        monotonicity along chains),
      - rank(A+e) + rank(A+f) >= rank(A+e+f) + rank(A) (local submodularity).
    """
    size = 1 << n
    for mask in range(size):
        r = ranks[mask]
        if not is_int(r) or r < 0:
            raise NotAMatroidError(
                f"rank of {labels_from_mask(mask)} is {r!r}, not a nonnegative integer",
                witness={"subset": labels_from_mask(mask), "rank": r})
    if ranks[0] != 0:
        raise NotAMatroidError(f"rank of the empty set is {ranks[0]}, expected 0",
                               witness={"subset": (), "rank": ranks[0]})
    for mask in range(size):
        base = ranks[mask]
        free = [e for e in range(n) if not mask & (1 << e)]
        for e in free:
            step = ranks[mask | (1 << e)] - base
            if step < 0 or step > 1:
                a = labels_from_mask(mask)
                raise NotAMatroidError(
                    f"unit-increase axiom fails: rank({a} + {{{e + 1}}}) - rank({a}) = {step}",
                    witness={"subset": a, "element": e + 1, "delta": step})
        for i, e in enumerate(free):
            me = mask | (1 << e)
            re_ = ranks[me]
            for f in free[i + 1:]:
                mf = mask | (1 << f)
                if re_ + ranks[mf] < ranks[me | mf] + base:
                    a, b = labels_from_mask(me), labels_from_mask(mf)
                    raise NotAMatroidError(
                        f"submodularity fails on A={a}, B={b}: "
                        f"rank(A)+rank(B) = {re_ + ranks[mf]} < "
                        f"rank(A|B)+rank(A&B) = {ranks[me | mf] + base}",
                        witness={"A": a, "B": b})


def from_json(obj):
    """Parse a matroid from its JSON dict (or a JSON string).  The fields
    are checked by the constructors; a field they refuse is a ParseError
    here, while a table that breaks the rank axioms stays a
    NotAMatroidError."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed matroid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"matroid JSON must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    try:
        if kind == "uniform":
            return make_uniform(obj["rank"], obj["n"])
        if kind == "graphic":
            return make_graphic(obj["vertices"], obj["edges"])
        if kind == "linear":
            return make_linear(obj["field"], obj["matrix"])
        if kind == "rank_table":
            return make_rank_table(obj["n"], obj["ranks"])
    except KeyError as exc:
        raise ParseError(f"matroid JSON of type {kind!r} is missing field {exc}") from exc
    except InvalidParametersError as exc:
        raise ParseError(f"matroid JSON of type {kind!r}: {exc}") from exc
    raise ParseError(f"unknown matroid type {kind!r}")


def subset_masks(elements, base=0):
    """masks[t]: the mask of base together with the 0-based elements[x]
    for the set bits x of t, for t = 0 .. 2^len(elements) - 1."""
    masks = [base]
    for e in elements:
        masks += [x | 1 << e for x in masks]
    return masks


def contract(matroid, subset):
    """Contract a subset; returns (minor, relabeling).

    The minor lives on ground set 1..(n - |subset|) with
    rank'(A) = rank(A | subset) - rank(subset); relabeling maps each new
    label to the old label it came from.
    """
    smask = subset if is_int(subset) else mask_from_labels(subset, matroid.n)
    if not 0 <= smask < len(matroid.ranks):
        raise InvalidParametersError(f"mask {smask} out of range for n={matroid.n}")
    keep = [e for e in range(matroid.n) if not smask & (1 << e)]
    rs = matroid.ranks[smask]
    m = len(keep)
    new_ranks = tuple(matroid.ranks[x] - rs for x in subset_masks(keep, smask))
    relabeling = {new + 1: keep[new] + 1 for new in range(m)}
    minor = Matroid(n=m, ranks=new_ranks, provenance=f"contraction({matroid.provenance})")
    return minor, relabeling


@dataclass(frozen=True)
class StructureReport:
    """Loops and parallel classes of a matroid.

    parallel_classes partitions the non-loop elements; two non-loops are
    parallel when their pair has rank 1.
    """

    loops: frozenset
    parallel_classes: tuple


def structure(matroid):
    n = matroid.n
    ranks = matroid.ranks
    loops = frozenset(e + 1 for e in range(n) if ranks[1 << e] == 0)
    classes = []  # in order of their least elements
    for e in range(n):
        if ranks[1 << e] == 1:
            cls = next((cls for cls in classes if ranks[1 << cls[0] | 1 << e] == 1), None)
            if cls is None:
                classes.append([e])
            else:
                cls.append(e)
    return StructureReport(loops=loops,
                           parallel_classes=tuple(frozenset(x + 1 for x in cls) for cls in classes))


def simplify(matroid, info=None):
    """Simplification: drop loops, keep one representative per parallel class.

    Representatives are the minimal labels, in increasing order, so the result
    is deterministic.  An all-loop (or empty) matroid degenerates to the empty
    matroid, flagged through its provenance.  info: its structure, if known.
    """
    info = info or structure(matroid)
    reps = sorted(min(cls) for cls in info.parallel_classes)
    ell = len(reps)
    if ell == 0:
        return Matroid(n=0, ranks=(0,), provenance="simplification-degenerate")
    ranks = tuple(map(matroid.ranks.__getitem__, subset_masks([r - 1 for r in reps])))
    return Matroid(n=ell, ranks=ranks, provenance="simplification")


def independent_set_counts(matroid):
    """Tuple (I_0, ..., I_n) where I_k counts independent k-subsets."""
    counts = [0] * (matroid.n + 1)
    for mask, r in enumerate(matroid.ranks):
        if r == mask.bit_count():
            counts[r] += 1
    return tuple(counts)
