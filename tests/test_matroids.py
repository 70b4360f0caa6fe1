"""Rank-function constructions, axiom validation, minors, and simplification."""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potts_hodge import (
    Matroid,
    NotAMatroidError,
    ParseError,
    InvalidParametersError,
    ResourceLimitError,
    contract,
    from_json,
    generate_corpus,
    independent_set_counts,
    labels_from_mask,
    make_graphic,
    make_linear,
    make_rank_table,
    make_uniform,
    mask_from_labels,
    simplify,
    structure,
    validate_rank_axioms,
)
from potts_hodge import matroids
from potts_hodge.matrices import exact_rank
from potts_hodge.matroids import MAX_N_ENV_VAR, enumeration_cap


def brute_rank_uniform(rank, labels):
    return min(rank, len(labels))


def test_mask_label_round_trip():
    for labels in [(), (1,), (2, 5), (1, 2, 3, 7)]:
        assert labels_from_mask(mask_from_labels(labels, 8)) == labels
    assert mask_from_labels((3, 1), 3) == mask_from_labels((1, 3), 3)


def test_mask_rejects_bad_labels():
    with pytest.raises(InvalidParametersError):
        mask_from_labels((0,), 3)
    with pytest.raises(InvalidParametersError):
        mask_from_labels((4,), 3)
    with pytest.raises(InvalidParametersError):
        mask_from_labels((True,), 3)


def test_uniform_ranks():
    m = make_uniform(2, 4)
    assert m.n == 4
    assert m.full_rank == 2
    for labels in itertools.chain.from_iterable(
            itertools.combinations(range(1, 5), k) for k in range(5)):
        assert m.rank(labels) == brute_rank_uniform(2, labels)
    # boundary shapes
    assert make_uniform(0, 3).full_rank == 0
    assert make_uniform(3, 3).rank((1, 2, 3)) == 3
    with pytest.raises(InvalidParametersError):
        make_uniform(4, 3)
    with pytest.raises(InvalidParametersError):
        make_uniform(-1, 3)


def test_uniform_passes_validation():
    for rank, n in [(0, 0), (0, 2), (1, 1), (2, 5), (3, 3)]:
        m = make_uniform(rank, n)
        validate_rank_axioms(m.n, m.ranks)


@pytest.mark.parametrize("build", [
    lambda: make_linear(2, [[0.5, 1.7]]),
    lambda: make_linear(2, [[1, "0"]]),
    lambda: make_linear(2, [[1, True]]),
    lambda: make_linear(2.0, [[1]]),
    lambda: make_linear(2, [[1, 0], [1]]),
    lambda: make_linear(2, [(1, 0), "10"]),
    lambda: make_linear(2, "10"),
    lambda: make_uniform(True, 3),
    lambda: make_uniform(1, 3.0),
    lambda: make_uniform("1", 3),
    lambda: make_graphic(2, [(True, 2)]),
    lambda: make_graphic(2, [(1, "2")]),
    lambda: make_graphic("2", [(1, 2)]),
    lambda: make_graphic(3, [(1, 2, 3)]),
    lambda: make_graphic(3, [5]),
    lambda: make_graphic(3, {1: 2}),
    lambda: make_rank_table(1, (0, 1.0)),
    lambda: make_rank_table(1, "01"),
    lambda: make_rank_table(False, (0,)),
    lambda: make_rank_table(1, (0, 1, 1)),
])
def test_constructors_refuse_non_integer_fields(build):
    # one rule for every integer field: an int, never a coerced bool,
    # float or str; edges are pairs, matrices lists of equal-length rows
    with pytest.raises(InvalidParametersError):
        build()


def test_constructors_record_exactly_their_fields():
    assert make_linear(3, [[4, -1, 3]]).to_json() == {
        "type": "linear", "field": 3, "matrix": [[1, 2, 0]]}
    assert make_graphic(2, ((1, 2), [2, 2])).to_json() == {
        "type": "graphic", "vertices": 2, "edges": [[1, 2], [2, 2]]}
    assert make_linear(2, []).n == 0 and make_linear(2, [[]]).n == 0


def test_to_json_hands_out_fresh_lists():
    # editing a returned dict must not edit the matroid's later records
    for m, key in [(make_linear(2, [[1, 0, 1]]), "matrix"),
                   (make_graphic(2, [(1, 2)]), "edges")]:
        expected = m.to_json()
        m.to_json()[key][0][0] = 0
        assert m.to_json() == expected
    m = make_rank_table(1, [0, 1])
    m.to_json()["ranks"][1] = 0
    assert m.to_json()["ranks"] == [0, 1]


def test_graphic_triangle():
    k3 = make_graphic(3, [(1, 2), (2, 3), (1, 3)])
    assert k3.full_rank == 2
    assert k3.rank((1,)) == 1
    assert k3.rank((1, 2)) == 2
    assert k3.rank((1, 2, 3)) == 2
    # every pair of edges spans the triangle
    for pair in itertools.combinations((1, 2, 3), 2):
        assert k3.rank(pair) == 2


def test_graphic_loops_and_parallels():
    # edge 3 is a loop, edges 1 and 2 are parallel
    m = make_graphic(2, [(1, 2), (1, 2), (1, 1)])
    assert m.rank((3,)) == 0
    assert m.rank((1, 2)) == 1
    assert m.full_rank == 1
    # disconnected graph: rank = V - #components
    m2 = make_graphic(4, [(1, 2), (3, 4)])
    assert m2.full_rank == 2
    with pytest.raises(InvalidParametersError):
        make_graphic(2, [(1, 3)])
    with pytest.raises(InvalidParametersError):
        make_graphic(-1, [])


def test_graphic_matches_forest_count():
    # rank of an edge subset = |edges in a spanning forest of the subgraph|
    edges = [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]
    m = make_graphic(4, edges)
    assert m.full_rank == 3
    assert m.rank((1, 2, 3, 4)) == 3  # 4-cycle
    assert m.rank((1, 2, 5)) == 2  # triangle 1-2-3
    validate_rank_axioms(m.n, m.ranks)


def forest_rank(vertices, edges):
    """vertices - components of the graph on 1..vertices with the given
    edges, the components counted by a breadth-first search."""
    adjacent = {x: set() for x in range(1, vertices + 1)}
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    seen = set()
    components = 0
    for start in adjacent:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adjacent[x] - seen:
                seen.add(y)
                queue.append(y)
    return vertices - components


@st.composite
def multigraphs(draw):
    """0-7 vertices and at most 10 edges, loops, parallel edges and
    untouched vertices included."""
    vertices = draw(st.integers(0, 7))
    if vertices == 0:
        return 0, []
    ends = st.integers(1, vertices)
    return vertices, draw(st.lists(st.tuples(ends, ends), max_size=10))


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_graphic_ranks_match_components(graph):
    vertices, edges = graph
    m = make_graphic(vertices, edges)
    assert m.n == len(edges)
    for mask in range(1 << m.n):
        chosen = [edges[i] for i in range(m.n) if mask >> i & 1]
        assert m.ranks[mask] == forest_rank(vertices, chosen)


def test_graphic_cost_is_independent_of_vertex_count():
    start = time.perf_counter()
    m = make_graphic(10 ** 9, [(1, 2)])
    assert m.ranks == (0, 1)
    assert time.perf_counter() - start < 0.05


def test_linear_gf2_example():
    # columns: e1, e2, e1+e2, e1 over GF(2)
    m = make_linear(2, [[1, 0, 1, 1], [0, 1, 1, 0]])
    assert m.n == 4
    assert m.full_rank == 2
    assert m.rank((1, 4)) == 1  # identical columns
    assert m.rank((1, 2, 3)) == 2
    assert independent_set_counts(m) == (1, 4, 5, 0, 0)


def test_linear_gf3_vs_gf2():
    # third column (1, 2) reduces to (1, 0) mod 2, so it collapses onto
    # column 1 over GF(2) but stays independent of it over GF(3)
    cols = [[1, 0, 1], [0, 1, 2]]
    m2 = make_linear(2, cols)
    m3 = make_linear(3, cols)
    assert m2.full_rank == m3.full_rank == 2
    assert m2.rank((1, 3)) == 1
    assert m3.rank((1, 3)) == 2
    assert m3.rank((1, 2, 3)) == 2
    with pytest.raises(InvalidParametersError):
        make_linear(4, cols)  # composite modulus
    with pytest.raises(InvalidParametersError):
        make_linear(2, [[1, 0], [0]])  # ragged rows


def test_field_order_test_agrees_with_trial_division():
    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))

    assert [p for p in range(10 ** 5) if matroids._is_prime(p)] == \
        [p for p in range(10 ** 5) if trial_division(p)]


def test_field_order_limits():
    # GF(2^61 - 1) builds at once; composites below 2^64, among them a
    # strong pseudoprime to the bases 2, 3, 5 and 7, are not prime, and
    # an order of 2^64 or more is refused before any primality test
    code = "from potts_hodge import make_linear; print(make_linear(2 ** 61 - 1, [[1, 2]]).ranks)"
    src = str(Path(matroids.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=10, check=True)
    assert out.stdout.strip() == "(0, 1, 1, 1)"
    for composite in ((2 ** 31 - 1) * (2 ** 32 - 5), 151 * 751 * 28351):
        with pytest.raises(InvalidParametersError, match="must be prime"):
            make_linear(composite, [[1, 2]])
    with pytest.raises(InvalidParametersError, match="below 2\\^64"):
        make_linear(2 ** 64 + 13, [[1, 2]])


def test_linear_zero_matrix_all_loops():
    m = make_linear(5, [[0, 0, 0]])
    assert m.full_rank == 0
    assert structure(m).loops == frozenset({1, 2, 3})


# The per-subset elimination make_linear replaced: a fresh Gaussian
# elimination mod prime of each subset's columns.

def reference_linear_rank(prime, cols, mask):
    basis = []
    for idx, col in enumerate(cols):
        if not mask >> idx & 1:
            continue
        vec = list(col)
        for pivot_pos, pivot_vec in basis:
            coef = vec[pivot_pos]
            if coef:
                vec = [(a - coef * b) % prime for a, b in zip(vec, pivot_vec)]
        for pos, a in enumerate(vec):
            if a:
                inv = pow(a, prime - 2, prime)
                basis.append((pos, [(x * inv) % prime for x in vec]))
                break
    return len(basis)


@st.composite
def gf_matrices(draw):
    """(prime, matrix) over GF(2), GF(3), GF(5) or GF(7), 0-4 rows and 0-9
    columns, each column random, zero, or a multiple of an earlier one."""
    prime = draw(st.sampled_from((2, 3, 5, 7)))
    nrows = draw(st.integers(0, 4))
    cols = []
    for _ in range(draw(st.integers(0, 9)) if nrows else 0):
        kind = draw(st.sampled_from(("random", "zero", "repeat")))
        if kind == "zero":
            col = [0] * nrows
        elif kind == "repeat" and cols:
            scale = draw(st.integers(1, prime - 1))
            col = [scale * x % prime for x in draw(st.sampled_from(cols))]
        else:
            col = draw(st.lists(st.integers(0, prime - 1), min_size=nrows, max_size=nrows))
        cols.append(col)
    return prime, [[col[r] for col in cols] for r in range(nrows)]


@settings(max_examples=300, deadline=None)
@given(gf_matrices())
def test_linear_ranks_match_per_subset_elimination(case):
    prime, matrix = case
    m = make_linear(prime, matrix)
    cols = list(zip(*matrix))
    assert m.n == len(cols)
    assert m.ranks == tuple(reference_linear_rank(prime, cols, mask) for mask in range(1 << m.n))
    validate_rank_axioms(m.n, m.ranks)


def reference_prefix_basis_ranks(prime, cols, rows):
    """The prefix-basis builder before it bounded its bases by the full
    rank: a basis stops growing only once it has `rows` vectors."""
    bases = [()]
    ranks = [0]
    for h, col in enumerate(cols, 1):
        for basis in bases[:]:
            if len(basis) < rows:
                vec = col
                for pos, pivot in basis:
                    coef = vec[pos]
                    if coef:
                        vec = [(a - coef * b) % prime for a, b in zip(vec, pivot)]
                for pos, a in enumerate(vec):
                    if a:
                        inv = pow(a, prime - 2, prime)
                        basis += ((pos, [x * inv % prime for x in vec]),)
                        break
            ranks.append(len(basis))
            if h < len(cols):
                bases.append(basis)
    return ranks


# a prime above every minor of a matrix of at most 4 rows with entries in
# [-9, 9] (Hadamard: (9 * 2)^4 = 104,976), so its ranks are the rational ones
BIG_PRIME = 1_000_003


@st.composite
def deficient_matrices(draw):
    """(prime, rows of integers) whose columns are combinations, with
    coefficients in {-1, 0, 1}, of at most max(1, rows - 1) seed columns,
    so the rank is below the row count wherever there are two rows or more:
    over GF(2), GF(3) or, with seed entries in [-3, 3] and so entries in
    [-9, 9], the rationals."""
    prime = draw(st.sampled_from((2, 3, BIG_PRIME)))
    nrows = draw(st.integers(1, 4))
    low = 0 if prime < BIG_PRIME else -3
    high = prime - 1 if prime < BIG_PRIME else 3
    entry = st.integers(low, high)
    seeds = draw(st.lists(st.lists(entry, min_size=nrows, max_size=nrows),
                          min_size=1, max_size=max(1, nrows - 1)))
    cols = []
    for _ in range(draw(st.integers(0, 9))):
        coefs = draw(st.lists(st.integers(-1, 1), min_size=len(seeds), max_size=len(seeds)))
        cols.append([sum(c * s[r] for c, s in zip(coefs, seeds)) for r in range(nrows)])
    return prime, [[col[r] for col in cols] for r in range(nrows)] if cols else [[]] * nrows


@settings(max_examples=300, deadline=None)
@given(multigraphs(), deficient_matrices())
def test_prefix_basis_ranks_match_the_row_bounded_builder(graph, case):
    vertices, edges = graph
    touched = sorted({x for u, v in edges if u != v for x in (u, v)})
    incidence = [[int(u != v and x in (u, v)) for x in touched] for u, v in edges]
    assert (matroids._prefix_basis_ranks(2, incidence)
            == reference_prefix_basis_ranks(2, incidence, len(touched)))
    prime, matrix = case
    cols = [[x % prime for x in col] for col in zip(*matrix)]
    ranks = matroids._prefix_basis_ranks(prime, cols)
    assert ranks == reference_prefix_basis_ranks(prime, cols, len(matrix))
    if prime == BIG_PRIME:
        for mask in range(1 << len(cols)):
            chosen = [col for i, col in enumerate(zip(*matrix)) if mask >> i & 1]
            assert ranks[mask] == (exact_rank(list(zip(*chosen))) if chosen else 0)


def test_prefix_bases_stop_at_the_full_rank(monkeypatch):
    # M(K6) has rank 5 on 6 touched vertices: the row bound never stopped
    # a basis, so every one of the 2^15 - 1 nonempty masks was reduced; the
    # full rank stops every basis that reaches it
    reductions = []
    reduce = matroids._reduced
    monkeypatch.setattr(matroids, "_reduced",
                        lambda *args: reductions.append(1) or reduce(*args))
    k6 = make_graphic(6, list(itertools.combinations(range(1, 7), 2)))
    assert k6.full_rank == 5
    assert len(reductions) < (1 << k6.n) // 2  # 10,789 of 32,768 masks


def test_rank_table_round_trip():
    u12 = make_uniform(1, 2)
    m = make_rank_table(2, u12.ranks)
    assert m.ranks == u12.ranks
    assert m.provenance == "rank_table"


def test_rank_table_rejects_unit_increase_violation():
    # rank jumps by two when adding the single element to the empty set
    with pytest.raises(NotAMatroidError) as exc:
        make_rank_table(1, (0, 2))
    wit = exc.value.witness
    assert wit["delta"] == 2
    assert wit["element"] == 1
    assert wit["subset"] == ()


def test_rank_table_rejects_nonzero_empty_rank():
    with pytest.raises(NotAMatroidError) as exc:
        make_rank_table(1, (1, 1))
    assert exc.value.witness["subset"] == ()


def test_rank_table_rejects_submodularity_violation():
    # two loops whose union has rank 1: passes unit increase, fails
    # submodularity on A={1}, B={2}
    table = (0, 0, 0, 1)
    with pytest.raises(NotAMatroidError) as exc:
        make_rank_table(2, table)
    wit = exc.value.witness
    assert set(wit) == {"A", "B"}
    a, b = set(wit["A"]), set(wit["B"])
    r = lambda s: table[mask_from_labels(tuple(sorted(s)), 2)]
    assert r(a) + r(b) < r(a | b) + r(a & b)


def test_validate_rank_axioms_negative_rank():
    with pytest.raises(NotAMatroidError):
        validate_rank_axioms(1, (0, -1))
    with pytest.raises(NotAMatroidError):
        validate_rank_axioms(1, (0, True))  # bools are not ranks


def test_contract_uniform():
    u24 = make_uniform(2, 4)
    minor, names = contract(u24, (1,))
    assert minor.n == 3
    assert names == {1: 2, 2: 3, 3: 4}
    # U(2,4) / {e} = U(1,3)
    u13 = make_uniform(1, 3)
    assert minor.ranks == u13.ranks
    assert minor.provenance.startswith("contraction")


def test_contract_rank_identity():
    m = make_graphic(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    subset = (2, 5)
    minor, names = contract(m, subset)
    base = m.rank(subset)
    for mask in range(1 << minor.n):
        new_labels = labels_from_mask(mask)
        old_labels = tuple(sorted(names[i] for i in new_labels)) + subset
        assert minor.rank(mask) == m.rank(tuple(sorted(old_labels))) - base


def test_subset_masks_lift_each_minor_mask_in_order():
    # mask t selects elements[x] for the set bits x of t, on top of base
    elements, base = [4, 0, 2], 0b10
    assert matroids.subset_masks(elements, base) == [
        base | sum(1 << e for x, e in enumerate(elements) if t >> x & 1) for t in range(8)]
    assert matroids.subset_masks([]) == [0]


def test_contract_empty_and_errors():
    m = make_uniform(2, 3)
    minor, names = contract(m, ())
    assert minor.ranks == m.ranks
    with pytest.raises(InvalidParametersError):
        contract(m, (4,))
    for mask in (-1, 8):
        with pytest.raises(InvalidParametersError, match=f"mask {mask} out of range for n=3"):
            m.rank(mask)
        with pytest.raises(InvalidParametersError, match=f"mask {mask} out of range for n=3"):
            contract(m, mask)


def test_structure_linear_example():
    m = make_linear(2, [[1, 0, 1, 1], [0, 1, 1, 0]])
    rep = structure(m)
    assert rep.loops == frozenset()
    assert [sorted(c) for c in rep.parallel_classes] == [[1, 4], [2], [3]]
    assert rep.rank_one_flats == 3


def test_structure_with_loops():
    m = make_graphic(2, [(1, 2), (1, 2), (1, 1)])
    rep = structure(m)
    assert rep.loops == frozenset({3})
    assert [sorted(c) for c in rep.parallel_classes] == [[1, 2]]


def test_simplify_linear_example():
    m = make_linear(2, [[1, 0, 1, 1], [0, 1, 1, 0]])
    simple = simplify(m)
    # representatives are the least labels of the classes: 1, 2, 3
    assert simple.n == 3
    assert simple.ranks == (0, 1, 1, 2, 1, 2, 2, 2)
    assert simple.provenance == "simplification"


def test_simplify_of_simple_matroid_is_identity_on_ranks():
    u24 = make_uniform(2, 4)
    simple = simplify(u24)
    assert simple.ranks == u24.ranks


def test_simplify_all_loops_degenerate():
    m = make_linear(3, [[0, 0]])
    simple = simplify(m)
    assert simple.n == 0
    assert simple.ranks == (0,)
    assert simple.provenance == "simplification-degenerate"


def test_independent_set_counts_examples():
    k3 = make_graphic(3, [(1, 2), (2, 3), (1, 3)])
    assert independent_set_counts(k3) == (1, 3, 3, 0)
    assert independent_set_counts(make_uniform(2, 4)) == (1, 4, 6, 0, 0)
    assert independent_set_counts(make_uniform(0, 2)) == (1, 0, 0)


def test_json_round_trips():
    members = [
        make_uniform(2, 4),
        make_graphic(3, [(1, 2), (2, 3), (1, 3), (1, 1)]),
        make_linear(2, [[1, 0, 1], [0, 1, 1]]),
        make_rank_table(2, (0, 1, 1, 1)),
    ]
    for m in members + generate_corpus():
        assert from_json(m.to_json()) == m
        # string form parses too, to the same fields
        again = from_json(json.dumps(m.to_json()))
        assert again == m and again.to_json() == m.to_json()


def test_from_json_error_positions():
    with pytest.raises(ParseError) as exc:
        from_json('{"type": "uniform", "rank": }')
    msg = str(exc.value)
    assert "line 1" in msg and "column" in msg
    with pytest.raises(ParseError):
        from_json('{"type": "mystery"}')
    with pytest.raises(ParseError):
        from_json('{"type": "uniform", "rank": 1}')  # missing n
    with pytest.raises(ParseError):
        from_json('[1, 2]')
    # every field has its JSON shape exactly: no float, bool or string
    # becomes an integer, and a list of the wrong shape does not escape as
    # a ValueError or TypeError
    for bad in ({"type": "uniform", "rank": "x", "n": 3},
                {"type": "uniform", "rank": 1.7, "n": 3},
                {"type": "uniform", "rank": 1, "n": 3.0},
                {"type": "uniform", "rank": True, "n": 3},
                {"type": "graphic", "vertices": 3, "edges": [5]},
                {"type": "graphic", "vertices": 3, "edges": [[1, 2, 3]]},
                {"type": "graphic", "vertices": 3, "edges": [[1, "2"]]},
                {"type": "graphic", "vertices": 3, "edges": {"1": 2}},
                {"type": "graphic", "vertices": "3", "edges": [[1, 2]]},
                {"type": "linear", "field": 2, "matrix": [[1, "a"]]},
                {"type": "linear", "field": 2, "matrix": [[1, 0.5]]},
                {"type": "linear", "field": 2, "matrix": 5},
                {"type": "linear", "field": 2, "matrix": [5]},
                {"type": "linear", "field": 2.0, "matrix": [[1]]},
                {"type": "rank_table", "n": 1, "ranks": [0, 1.0]},
                {"type": "rank_table", "n": 1, "ranks": "01"}):
        with pytest.raises(ParseError, match="^matroid JSON of type"):
            from_json(bad)
        with pytest.raises(ParseError, match="^matroid JSON of type"):
            from_json(json.dumps(bad))


def test_from_json_contents_validated():
    bad = {"type": "rank_table", "n": 2, "ranks": [0, 1, 1, 3]}
    with pytest.raises(NotAMatroidError):
        from_json(bad)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv(MAX_N_ENV_VAR, "4")
    assert enumeration_cap() == 4
    make_uniform(2, 4)
    with pytest.raises(ResourceLimitError):
        make_uniform(2, 5)
    monkeypatch.setenv(MAX_N_ENV_VAR, "not-a-number")
    with pytest.raises(InvalidParametersError):
        enumeration_cap()
    monkeypatch.setenv(MAX_N_ENV_VAR, "-1")
    with pytest.raises(InvalidParametersError, match="must be nonnegative, got -1"):
        enumeration_cap()


def test_str_and_immutability():
    m = make_uniform(2, 4)
    assert str(m) == "uniform(n=4, rank=2)"
    with pytest.raises(Exception):
        m.n = 5
    # equal ranks compare equal even when sources differ
    t = make_rank_table(4, m.ranks)
    assert t == Matroid(n=4, ranks=m.ranks)
