"""Test-corpus generation: families of small matroids for the campaigns.

The default corpus is the union of
  - every uniform matroid with 2 <= n <= 7,
  - the cycle matroid of every connected simple graph with 2..5 edges
    (one representative per isomorphism class),
  - 50 seeded random column matroids over GF(2)/GF(3) with n <= 8,
  - a handful of direct constructions with loops and parallel classes.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import ParseError, ResourceLimitError
from .matroids import MAX_N_ENV_VAR, enumeration_cap, make_graphic, make_linear, make_uniform
from .sampling import child_rng

DEFAULT_LINEAR_SEED = 271828


@dataclass(frozen=True)
class CorpusSpec:
    """Which families to generate and how large."""

    uniform_max_n: int = 7
    graphic_max_edges: int = 5
    linear_count: int = 50
    linear_max_n: int = 8
    linear_seed: int = DEFAULT_LINEAR_SEED
    families: tuple = ("uniform", "graphic", "linear", "structured")


# Most edge sets connected_graphs may visit; above it, it refuses before
# enumerating anything, since the enumeration and its relabeling table
# (nv! rows) grow factorially in the edge bound.  edges<=7 visits
# 1,369,865 edge sets and passes; edges<=8 would visit 34,948,280 and
# build a table of 9! rows.
GRAPH_ENUMERATION_BUDGET = 2 * 10**6


def _relabeled_pair_bits(num_vertices, pairs, bit):
    """One row per relabeling of the vertices: row[k] is the bit of the
    image of pair k."""
    pair_bit = [[0] * num_vertices for _ in range(num_vertices)]
    for (u, v), b in zip(pairs, bit):
        pair_bit[u][v] = pair_bit[v][u] = b
    return [[pair_bit[perm[u]][perm[v]] for u, v in pairs]
            for perm in itertools.permutations(range(num_vertices))]


def _spans_connected(num_vertices, ends):
    """Whether the edges, given as vertex masks, connect all the vertices."""
    everything = (1 << num_vertices) - 1
    reach = 1
    grown = True
    while grown:
        grown = False
        for e in ends:
            if e & reach and e | reach != reach:
                reach |= e
                grown = True
    return reach == everything


@functools.lru_cache(maxsize=None)
def connected_graphs(max_edges):
    """All connected simple graphs with 2..max_edges edges, one per
    isomorphism class, as (vertex_count, edge_tuple) with vertices 0-based
    and edge_tuple the lexicographically smallest sorted edge list over all
    relabelings of the vertices.

    A connected graph with m edges spans at most m+1 vertices, so the
    enumeration runs over vertex counts nv = 2..m+1 and keeps the edge sets
    that connect every vertex.  An edge set on nv vertices is an int mask
    over the P = C(nv, 2) vertex pairs in lexicographic order, pair k at
    bit P-1-k.  Two sorted edge lists of one length first differ at the
    pair of smallest index held by only one of them, which is the highest
    bit where their masks differ, so the larger mask is the
    lexicographically smaller list: the class representative, the minimum
    list over all relabelings, is the largest relabeled mask.  Each new
    class's labelled copies come from one table of relabeled pair bits per
    nv and are all recorded, so every later edge set of that class is
    skipped after one set lookup.

    Before enumerating anything, the work is estimated as the number of
    edge sets visited, the sum of C(C(nv, 2), m) over 2 <= m <= max_edges
    and 2 <= nv <= m + 1; above GRAPH_ENUMERATION_BUDGET it raises
    ResourceLimitError.
    """
    visited = 0
    for m in range(2, max_edges + 1):
        visited += sum(math.comb(math.comb(nv, 2), m) for nv in range(2, m + 2))
        if visited > GRAPH_ENUMERATION_BUDGET:
            raise ResourceLimitError(
                f"enumerating the connected graphs with at most {max_edges} edges visits "
                f"{'more than ' if m < max_edges else ''}{visited} edge sets, "
                f"above the bound {GRAPH_ENUMERATION_BUDGET}")
    found = []
    for nv in range(2, max_edges + 2):
        pairs = list(itertools.combinations(range(nv), 2))
        bit = [1 << k for k in reversed(range(len(pairs)))]
        ends = [1 << u | 1 << v for u, v in pairs]
        relabeled = _relabeled_pair_bits(nv, pairs, bit)
        seen = set()
        for m in range(max(2, nv - 1), min(max_edges, len(pairs)) + 1):
            for combo in itertools.combinations(range(len(pairs)), m):
                pick = operator.itemgetter(*combo)
                if sum(pick(bit)) in seen or not _spans_connected(nv, pick(ends)):
                    continue
                images = {sum(pick(row)) for row in relabeled}
                seen |= images
                best = max(images)
                found.append((nv, tuple(p for p, b in zip(pairs, bit) if best & b)))
    return tuple(sorted(found))


def uniform_family(max_n=7):
    return [make_uniform(r, n) for n in range(2, max_n + 1) for r in range(n + 1)]


def graphic_family(max_edges=5):
    return [make_graphic(nv, [(u + 1, v + 1) for u, v in edges])
            for nv, edges in connected_graphs(max_edges)]


def linear_family(count=50, max_n=8, seed=DEFAULT_LINEAR_SEED):
    """Seeded random GF(2)/GF(3) column matroids on 2..max_n elements, none
    when max_n < 2; zero columns (loops) and repeated columns (parallel
    elements) arise naturally."""
    if max_n < 2:
        return []
    out = []
    for i in range(count):
        rng = child_rng(seed, i)
        prime = rng.choice((2, 3))
        n = rng.randint(2, max_n)
        nrows = rng.randint(1, min(n, 4))
        matrix = [[rng.randrange(prime) for _ in range(n)] for _ in range(nrows)]
        out.append(make_linear(prime, matrix))
    return out


def structured_family():
    """Hand-built multigraph matroids exercising loops and parallel classes."""
    return [
        # two parallel edges plus a loop
        make_graphic(2, [(1, 2), (1, 2), (1, 1)]),
        # two parallel classes of size two (rank 2)
        make_graphic(3, [(1, 2), (1, 2), (2, 3), (2, 3)]),
        # a triple parallel class with a pendant edge
        make_graphic(3, [(1, 2), (1, 2), (1, 2), (2, 3)]),
        # two loops attached to a single real edge
        make_graphic(2, [(1, 1), (2, 2), (1, 2)]),
        # all loops (degenerate simplification)
        make_uniform(0, 3),
    ]


def generate_corpus(spec=None):
    """Materialize the corpus for a CorpusSpec (or its parseable string
    form).  A uniform or linear bound above enumeration_cap() raises
    ResourceLimitError before any member is built, even a linear one whose
    seeded draws would all stay below the cap."""
    if spec is None:
        spec = CorpusSpec()
    elif isinstance(spec, str):
        spec = parse_corpus_spec(spec)
    # refused before any member is built, as a constructor would refuse it
    cap = enumeration_cap()
    for family, n in (("uniform", spec.uniform_max_n), ("linear", spec.linear_max_n)):
        if family in spec.families and n > cap:
            raise ResourceLimitError(f"the {family} family with n<={n} is above the enumeration "
                                     f"cap {cap} (raise {MAX_N_ENV_VAR} to override)")
    out = []
    if "uniform" in spec.families:
        out.extend(uniform_family(spec.uniform_max_n))
    if "graphic" in spec.families:
        out.extend(graphic_family(spec.graphic_max_edges))
    if "linear" in spec.families:
        out.extend(linear_family(spec.linear_count, spec.linear_max_n, spec.linear_seed))
    if "structured" in spec.families:
        out.extend(structured_family())
    if "k3" in spec.families:
        out.append(make_graphic(3, [(1, 2), (2, 3), (1, 3)]))
    return out


def parse_corpus_spec(text):
    """Parse a CLI corpus spec.

    Grammar: "default", or comma-separated clauses starting with a family
    name: "uniform,n<=3", "graphic,edges<=5", "graphic,K3",
    "linear,count=50,n<=8,seed=7".  Multiple families can be joined with
    ";".  "graphic,K3" denotes the triangle cycle matroid.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty corpus spec")
    if text.lower() == "default":
        return CorpusSpec()
    families = []
    kwargs = {}
    for group in text.split(";"):
        parts = [p.strip() for p in group.split(",") if p.strip()]
        if not parts:
            raise ParseError(f"empty family group in corpus spec {text!r}")
        family = parts[0].lower()
        if family == "uniform":
            families.append("uniform")
            for clause in parts[1:]:
                kwargs["uniform_max_n"] = _parse_bound(clause, "n", text)
        elif family == "graphic":
            if len(parts) == 2 and parts[1].lower() == "k3":
                families.append("k3")
            else:
                families.append("graphic")
                for clause in parts[1:]:
                    kwargs["graphic_max_edges"] = _parse_bound(clause, "edges", text)
        elif family == "linear":
            families.append("linear")
            for clause in parts[1:]:
                if clause.startswith("count="):
                    kwargs["linear_count"] = _parse_bound(clause, "count", text)
                elif clause.startswith("seed="):
                    kwargs["linear_seed"] = _parse_bound(clause, "seed", text, signed=True)
                else:
                    kwargs["linear_max_n"] = _parse_bound(clause, "n", text)
        elif family == "structured":
            families.append("structured")
            if parts[1:]:
                raise ParseError(f"cannot parse clause {parts[1]!r} in corpus spec {text!r}")
        else:
            raise ParseError(f"unknown corpus family {family!r} in {text!r}")
    return CorpusSpec(families=tuple(families), **kwargs)


def _parse_bound(clause, key, context, signed=False):
    """The integer of a key<=N or key=N clause; negative only when signed
    (a seed), since a negative size bound can only empty its family."""
    for op in ("<=", "="):
        prefix = key + op
        if clause.startswith(prefix):
            try:
                value = int(clause[len(prefix):])
            except ValueError as exc:
                raise ParseError(f"bad bound {clause!r} in corpus spec {context!r}") from exc
            if value < 0 and not signed:
                raise ParseError(f"negative bound {clause!r} in corpus spec {context!r}")
            return value
    raise ParseError(f"cannot parse clause {clause!r} in corpus spec {context!r}")
