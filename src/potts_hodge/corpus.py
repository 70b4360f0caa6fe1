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
from dataclasses import dataclass

from .errors import ParseError
from .matroids import Matroid, make_graphic, make_linear, make_uniform
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


def _relabelings(num_vertices, edges):
    """The sorted edge list under every relabeling of the vertices."""
    for perm in itertools.permutations(range(num_vertices)):
        yield tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def _canonical_graph(num_vertices, edges):
    """Isomorphism-canonical form: the lexicographically smallest edge list
    over all relabelings of the vertices."""
    return min(_relabelings(num_vertices, edges))


def _is_connected(num_vertices, edges):
    if num_vertices <= 1:
        return True
    adj = {v: [] for v in range(num_vertices)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == num_vertices


@functools.lru_cache(maxsize=None)
def connected_graphs(max_edges):
    """All connected simple graphs with 2..max_edges edges, one per
    isomorphism class, as (vertex_count, edge_tuple) with vertices 0-based.

    A connected graph with m edges spans at most m+1 vertices, so the
    enumeration runs over vertex counts 2..m+1 and keeps the graphs whose
    edges cover every vertex.  Each new isomorphism class is canonicalized
    once, and all its relabelings are recorded, so every later edge set of
    that class is skipped after one set lookup.
    """
    found = {}
    seen = set()
    for m in range(2, max_edges + 1):
        for nv in range(2, m + 2):
            pairs = list(itertools.combinations(range(nv), 2))
            for combo in itertools.combinations(pairs, m):
                if combo in seen:
                    continue
                covered = set()
                for u, v in combo:
                    covered.add(u)
                    covered.add(v)
                if len(covered) != nv:
                    continue
                if not _is_connected(nv, combo):
                    continue
                key = _canonical_graph(nv, combo)
                seen.update(_relabelings(nv, key))
                found[key] = (nv, key)
    return tuple(sorted(found.values()))


def uniform_family(max_n=7):
    out = []
    for n in range(2, max_n + 1):
        for r in range(n + 1):
            out.append(make_uniform(r, n))
    return out


def graphic_family(max_edges=5):
    out = []
    for nv, edges in connected_graphs(max_edges):
        out.append(make_graphic(nv, [(u + 1, v + 1) for u, v in edges]))
    return out


def linear_family(count=50, max_n=8, seed=DEFAULT_LINEAR_SEED):
    """Seeded random GF(2)/GF(3) column matroids; zero columns (loops) and
    repeated columns (parallel elements) arise naturally."""
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
    """Materialize the corpus for a CorpusSpec (or its parseable string form)."""
    if spec is None:
        spec = CorpusSpec()
    elif isinstance(spec, str):
        spec = parse_corpus_spec(spec)
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
