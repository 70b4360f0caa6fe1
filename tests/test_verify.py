"""Theorem checks, campaign plumbing, replay, and the corpus generators."""

import concurrent.futures
import importlib.util
import itertools
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potts_hodge import (
    CampaignConfig,
    CheckResult,
    InvalidParametersError,
    ParseError,
    SymMatrix,
    VerificationReport,
    connected_graphs,
    derivative_degree,
    generate_corpus,
    gradient,
    hessian,
    make_graphic,
    make_linear,
    make_rank_table,
    make_uniform,
    parse_corpus_spec,
    rat,
    run_campaign,
    signature,
    z_weighted_eval,
    zk_all,
)
from potts_hodge.sampling import child_rng, sample_positive_point
from potts_hodge.scalars import scalar_to_json
from potts_hodge.verify import (
    ALL_THEOREMS,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    TAG_COUNT_LOG_CONCAVITY,
    TAG_DEGREE_TWO,
    TAG_DERIVATIVE_ONE_POSITIVE,
    TAG_LOG_CONCAVITY,
    TAG_ONE_POSITIVE,
    TAG_SIMPLIFICATION,
    TAG_STRATA_ULC,
    VACUOUS,
    binomial_dominance,
    check_count_log_concavity,
    check_degree_two,
    check_degree_two_zero_line,
    check_derivative_one_positive,
    check_log_concavity_at,
    check_one_positive,
    check_simplification_bound,
    check_strata_ultra_log_concave,
    dependent_mass_ratio,
    log_slice_second_difference,
    replay_check,
    replay_report,
    summarize,
)

U12 = make_uniform(1, 2)
U24 = make_uniform(2, 4)
K3 = make_graphic(3, [(1, 2), (2, 3), (1, 3)])
PARALLEL3 = make_graphic(3, [(1, 2), (1, 2), (2, 3)])
SINGLE = make_uniform(1, 1)

ONES3 = (rat(1), rat(1), rat(1))
ONES4 = (rat(1),) * 4
ONES5 = (rat(1),) * 5


def test_one_positive_pass_and_annotations():
    res = check_one_positive(U12, rat(1), ONES3)
    assert res.theorem == TAG_ONE_POSITIVE
    assert res.verdict == PASS
    assert res.witness["signature"] == [1, 1, 1]
    assert "singular-hessian" in res.annotations


def test_one_positive_not_applicable():
    assert check_one_positive(U12, rat(2), ONES3).verdict == NOT_APPLICABLE
    assert check_one_positive(SINGLE, rat(1), (rat(1), rat(1))).verdict == NOT_APPLICABLE


def test_one_positive_rejects_bad_points():
    with pytest.raises(InvalidParametersError):
        check_one_positive(U24, rat(1), (rat(1),) * 4)  # wrong length
    with pytest.raises(InvalidParametersError):
        check_one_positive(U24, rat(1), (rat(1), rat(0), rat(1), rat(1), rat(1)))


def test_derivative_one_positive_pass():
    res = check_derivative_one_positive(K3, (1, 3, 3, 1), rat(1, 2),
                                        (0, 0, 0, 0), ONES4)
    assert res.verdict == PASS
    assert res.witness["signature"] == [1, 3, 0]
    assert res.witness["active"] == [0, 1, 2, 3]
    # differentiating one inner variable removes it from the active block
    res2 = check_derivative_one_positive(U24, (1, 4, 6, 4, 1), rat(1, 2),
                                         (0, 1, 0, 0, 0), ONES5)
    assert res2.verdict == PASS
    assert res2.witness["active"] == [0, 2, 3, 4]
    assert res2.witness["signature"] == [1, 3, 0]


def test_derivative_one_positive_guards():
    with pytest.raises(InvalidParametersError):
        check_derivative_one_positive(K3, (1, 1, 1, 1), rat(1, 2), (0, 0, 0, 0), ONES4)
    low = check_derivative_one_positive(K3, (1, 3, 3, 1), rat(1, 2), (2, 0, 0, 0), ONES4)
    assert low.verdict == NOT_APPLICABLE
    high_q = check_derivative_one_positive(K3, (1, 3, 3, 1), rat(3, 2), (0, 0, 0, 0), ONES4)
    assert high_q.verdict == NOT_APPLICABLE


def test_degree_two_positive_point():
    res = check_degree_two(PARALLEL3, (1, 3, 3, 1), rat(1, 2), ONES3)
    assert res.verdict == PASS
    assert res.witness["routes_match"]
    assert "route-match" in res.annotations
    # q = 1 additionally certifies the coefficient-free mean bound
    res1 = check_degree_two(PARALLEL3, (1, 3, 3, 1), rat(1), ONES3)
    assert res1.verdict == PASS
    assert "mean-bound-at-q1" in res1.annotations


def test_degree_two_route_values():
    # hand check on the parallel pair: y = (w1/q, w2/q, w3/q), class {1,2}
    q = rat(1, 2)
    w = (rat(1), rat(2), rat(3))
    strata = zk_all(PARALLEL3, q, w)
    y = tuple(x / q for x in w)
    e2 = y[0] * y[1] + y[0] * y[2] + y[1] * y[2]
    assert strata[2] == e2 - (1 - q) * y[0] * y[1]


def test_degree_two_guards_and_zero_line():
    with pytest.raises(InvalidParametersError):
        check_degree_two(K3, (1, 2, 4, 1), rat(1, 2), ONES3)  # t = 1: not allowed
    assert check_degree_two(K3, (1, 3, 3, 1), rat(2), ONES3).verdict == NOT_APPLICABLE

    # Z[1](w) = (1/q)(w1 + w2 + w3) on K3: the plane is w1 + w2 + w3 = 0
    res = check_degree_two_zero_line(K3, rat(1, 2), (rat(1), rat(1), rat(-2)))
    assert res.verdict == PASS
    with pytest.raises(InvalidParametersError):
        check_degree_two_zero_line(K3, rat(1, 2), (rat(1), rat(1), rat(1)))
    with pytest.raises(InvalidParametersError):
        check_degree_two_zero_line(K3, rat(1, 2), (rat(0), rat(0), rat(0)))


def test_strata_ulc_reference_point_is_tight_everywhere():
    res = check_strata_ultra_log_concave(U24, rat(1), ONES4)
    assert res.verdict == PASS
    notes = res.annotations
    assert "zero-slack-everywhere" in notes
    assert {"equality-at-1", "equality-at-2", "equality-at-3"} <= set(notes)


def test_strata_ulc_generic_point():
    res = check_strata_ultra_log_concave(U24, rat(1, 2), (rat(1), rat(2), rat(3), rat(4)))
    assert res.verdict == PASS
    assert "zero-slack-everywhere" not in res.annotations
    # boundary points (some zero weights) stay in scope
    res0 = check_strata_ultra_log_concave(U24, rat(1, 2), (rat(0), rat(2), rat(0), rat(4)))
    assert res0.verdict == PASS
    assert check_strata_ultra_log_concave(SINGLE, rat(1), (rat(1),)).verdict == VACUOUS
    with pytest.raises(InvalidParametersError):
        check_strata_ultra_log_concave(U24, rat(1), (rat(-1), rat(1), rat(1), rat(1)))


def test_mason_counts_and_saturation():
    res = check_count_log_concavity(K3)
    assert res.verdict == PASS
    assert res.witness["counts"] == [1, 3, 3, 0]
    assert "route-match" in res.annotations
    assert "equality-at-1" in res.annotations  # 1*2*9 == 2*3*1*3, saturated at k=2
    res24 = check_count_log_concavity(U24)
    assert res24.verdict == PASS
    assert res24.witness["counts"] == [1, 4, 6, 0, 0]
    assert check_count_log_concavity(SINGLE).verdict == VACUOUS


def test_simplification_bound_example():
    res = check_simplification_bound(PARALLEL3)
    assert res.verdict == PASS
    assert res.witness["counts"] == [1, 3, 2, 0]
    assert res.witness["simple_size"] == 2
    assert "class-size-route-match" in res.annotations
    loops = make_linear(2, [[0, 0]])
    res0 = check_simplification_bound(loops)
    assert res0.verdict == PASS
    assert "no-interior-indices" in res0.annotations


def test_binomial_dominance_sweep():
    for n in range(2, 13):
        for ell in range(2, n + 1):
            for m in range(1, ell):
                assert binomial_dominance(ell, n, m), (ell, n, m)
    # the comparison is strict for ell < n at interior m, tight at ell = n
    assert binomial_dominance(3, 3, 1)


def test_log_concavity_check():
    res = check_log_concavity_at(U12, (1, 1, 1), rat(1), ONES3)
    assert res.verdict == PASS
    assert res.witness["signature"] == [0, 2, 1]
    assert "ray-identity" in res.annotations
    # -n Z^2 = -2 * 16 = -32 on U(1,2) at ones
    assert res.witness["ray"] == {"num": "-32", "den": "1"}
    with pytest.raises(InvalidParametersError):
        check_log_concavity_at(U12, (1, 1, 2), rat(1), ONES3)  # not log-concave
    assert check_log_concavity_at(U12, (1, 1, 1), rat(2), ONES3).verdict == NOT_APPLICABLE


# ----------------------------------------- checks against a rational reference
#
# The Hessian checks eliminate integer numerators.  The reference below is
# the rational route they replace: the public (Fraction) hessian, gradient
# and weighted value, the signature of the Fraction matrix, and N and the
# ray formed in Fractions.


def reference_one_positive(matroid, q, w):
    sig = signature(hessian(matroid, (1,) * (matroid.n + 1), q, (0,) * (matroid.n + 1), w))
    witness = {"signature": list(sig)}
    if sig.n_zero:
        witness["annotations"] = ["singular-hessian"]
    return (PASS if sig.n_pos == 1 else FAIL), witness


def reference_derivative_one_positive(matroid, c, q, alpha, w):
    active = [0] + [i for i in range(1, matroid.n + 1) if alpha[i] == 0]
    sig = signature(hessian(matroid, c, q, alpha, w).submatrix(active))
    ok = sig.n_pos == 1 and sig.n_zero == 0 and sig.n_neg == len(active) - 1
    return (PASS if ok else FAIL), {"signature": list(sig), "active": active}


def reference_log_concavity(matroid, c, q, w):
    n = matroid.n
    zero = (0,) * (n + 1)
    z = z_weighted_eval(matroid, c, q, w)
    grad = gradient(matroid, c, q, zero, w)
    hess = hessian(matroid, c, q, zero, w).entries
    entries = tuple(tuple(z * hess[i][j] - grad[i] * grad[j] for j in range(n + 1))
                    for i in range(n + 1))
    sig = signature(SymMatrix(entries))
    ray = sum(w[i] * sum(entries[i][j] * w[j] for j in range(n + 1)) for i in range(n + 1))
    witness = {"signature": list(sig), "ray": scalar_to_json(ray)}
    ray_ok = ray == -n * z * z
    if ray_ok:
        witness["annotations"] = ["ray-identity"]
    return (PASS if sig.n_pos == 0 and ray_ok else FAIL), witness


CHECK_MATROIDS = [U12, U24, K3, PARALLEL3, make_uniform(3, 5), make_uniform(0, 3),
                  make_graphic(2, [(1, 2), (1, 2), (1, 1)]),
                  make_linear(3, [[1, 0, 1, 2, 0], [0, 1, 1, 1, 0]]),
                  make_graphic(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])]
# denominators up to 10^12
big_positive = st.builds(Fraction, st.integers(1, 10 ** 12), st.integers(1, 10 ** 12))
unit_q = st.one_of(st.just(Fraction(1)), st.just(Fraction(1, 2)),
                   st.builds(lambda a, b: Fraction(min(a, b), max(a, b)),
                             st.integers(1, 10 ** 12), st.integers(1, 10 ** 12)))


@st.composite
def strictly_log_concave_coeffs(draw, n):
    """c_k = s u^k (1 + d_k) / (k! (n-k)!): the factor 1/(k! (n-k)!) is
    strictly log-concave, c_k^2 / (c_(k-1) c_(k+1)) > 1 + 4/n > 1.01^2 for
    n <= 5, the geometric factor leaves that ratio alone, and 1 + d_k in
    [1, 1.01] cannot undo it."""
    s, u = draw(big_positive), draw(big_positive)
    d = draw(st.lists(st.builds(Fraction, st.integers(0, 10 ** 10), st.just(10 ** 12)),
                      min_size=n + 1, max_size=n + 1))
    return tuple(s * u ** k * (1 + d[k]) / (math.factorial(k) * math.factorial(n - k))
                 for k in range(n + 1))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hessian_checks_match_rational_reference(data):
    matroid = data.draw(st.sampled_from(CHECK_MATROIDS))
    n = matroid.n
    q = data.draw(unit_q)
    w = tuple(data.draw(st.lists(big_positive, min_size=n + 1, max_size=n + 1)))
    c = data.draw(strictly_log_concave_coeffs(n))
    alpha = (data.draw(st.integers(0, 2)),) + tuple(
        data.draw(st.lists(st.sampled_from((0, 0, 1)), min_size=n, max_size=n)))
    checks = [(check_log_concavity_at(matroid, c, q, w), reference_log_concavity(matroid, c, q, w))]
    if n >= 2:
        checks.append((check_one_positive(matroid, q, w), reference_one_positive(matroid, q, w)))
    if (derivative_degree(matroid, alpha) or 0) >= 2:
        checks.append((check_derivative_one_positive(matroid, c, q, alpha, w),
                       reference_derivative_one_positive(matroid, c, q, alpha, w)))
    for result, (verdict, witness) in checks:
        assert (result.verdict, result.witness) == (verdict, witness)


def test_log_slice_second_difference():
    w = (1.0, 0.7, 1.3, 2.0, 0.5)
    for direction in [(1.0, 0.0, -1.0, 0.5, 0.0), (0.0, 1.0, 1.0, -1.0, 2.0)]:
        val = log_slice_second_difference(U24, (1.0, 2.0, 3.0, 2.0, 1.0),
                                          0.5, w, direction)
        assert val <= 1e-8
    with pytest.raises(InvalidParametersError):
        log_slice_second_difference(U24, (1.0,) * 5, 0.5, w, (0.0,) * 5)


def test_dependent_mass_ratio():
    w = (rat(1), rat(2), rat(3), rat(4))
    assert dependent_mass_ratio(U24, 3, w, rat(1, 100)) == 1
    with pytest.raises(InvalidParametersError):
        dependent_mass_ratio(U24, 2, w, rat(1, 100))  # no dependent 2-subsets


def test_summarize_counts():
    checks = [
        CheckResult("qHR", {}, PASS),
        CheckResult("qHR", {}, NOT_APPLICABLE),
        CheckResult("ulc", {}, VACUOUS),
    ]
    s = summarize(checks)
    assert s["total"] == 3
    assert s[PASS] == 1 and s[NOT_APPLICABLE] == 1 and s[VACUOUS] == 1 and s[FAIL] == 0
    assert s["by_theorem"]["qHR"][PASS] == 1


def test_connected_graph_counts():
    assert len(connected_graphs(2)) == 1
    assert len(connected_graphs(3)) - len(connected_graphs(2)) == 3
    assert len(connected_graphs(4)) - len(connected_graphs(3)) == 5
    assert len(connected_graphs(5)) - len(connected_graphs(4)) == 12


def test_connected_graphs_match_brute_force():
    # canonicalize every connected edge set on 2..5 vertices by trying all
    # vertex relabelings, with no memo of the classes found so far
    classes = set()
    for m in range(2, 5):
        for nv in range(2, m + 2):
            pairs = list(itertools.combinations(range(nv), 2))
            for combo in itertools.combinations(pairs, m):
                if len({v for e in combo for v in e}) != nv:
                    continue
                adj = {v: {u for e in combo if v in e for u in e} for v in range(nv)}
                reached = {0}
                while True:
                    grown = reached.union(*(adj[v] for v in reached))
                    if grown == reached:
                        break
                    reached = grown
                if len(reached) != nv:
                    continue
                key = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in combo))
                          for p in itertools.permutations(range(nv)))
                classes.add((nv, key))
    assert connected_graphs(4) == tuple(sorted(classes))


def test_default_corpus_composition():
    corpus = generate_corpus()
    assert len(corpus) == 109
    by_prov = {}
    for m in corpus:
        by_prov[m.provenance] = by_prov.get(m.provenance, 0) + 1
    assert by_prov["uniform"] == 33 + 1  # one structured member is uniform
    assert by_prov["graphic"] == 21 + 4
    assert by_prov["linear"] == 50


def test_corpus_spec_parsing():
    small = generate_corpus("uniform,n<=3")
    assert all(m.provenance == "uniform" and m.n <= 3 for m in small)
    assert len(small) == 3 + 4  # ranks 0..n for n = 2 and n = 3
    k3 = generate_corpus("graphic,K3")
    assert len(k3) == 1 and k3[0].ranks == K3.ranks
    lin = generate_corpus("linear,count=4,n<=4,seed=7")
    assert len(lin) == 4 and all(m.n <= 4 for m in lin)
    mixed = generate_corpus("graphic,K3;structured")
    assert len(mixed) == 6
    assert generate_corpus("default") == generate_corpus()
    with pytest.raises(ParseError):
        parse_corpus_spec("unknown-family")
    with pytest.raises(ParseError):
        parse_corpus_spec("uniform,count=x")
    for spec in ("linear,count=-1", "uniform,n<=-1", "graphic,edges<=-3", "linear,n<=-2"):
        with pytest.raises(ParseError, match="negative bound"):
            parse_corpus_spec(spec)
    # a seed is not a bound: it may be negative
    assert parse_corpus_spec("linear,count=2,seed=-7").linear_seed == -7


def test_corpus_members_are_matroids():
    # spot-validate a slice of the generated corpus against the axioms
    from potts_hodge import validate_rank_axioms

    corpus = generate_corpus("linear,count=8,n<=5,seed=3;structured")
    for m in corpus:
        validate_rank_axioms(m.n, m.ranks)


def test_run_campaign_small():
    corpus = generate_corpus("uniform,n<=3;graphic,K3")
    cfg = CampaignConfig(seed=1, samples=2, corpus_label="unit")
    report = run_campaign(corpus, cfg)
    assert report.ok
    assert report.summary["total"] == len(report.checks)
    assert report.summary[FAIL] == 0
    assert report.campaign["corpus"] == "unit"
    assert report.campaign["matroids"] == len(corpus)
    assert report.campaign["theorems"] == list(ALL_THEOREMS)
    assert report.timing_seconds is not None
    # every theorem family produced at least one check
    seen = {c.theorem for c in report.checks}
    assert seen == set(ALL_THEOREMS)


def test_run_campaign_q_grid_override():
    corpus = generate_corpus("uniform,n<=3")
    tags = (TAG_ONE_POSITIVE, TAG_DERIVATIVE_ONE_POSITIVE, TAG_DEGREE_TWO,
            TAG_LOG_CONCAVITY)
    cfg = CampaignConfig(theorems=tags, samples=2, q_grid=(rat(1, 7),))
    report = run_campaign(corpus, cfg)
    assert report.ok
    assert report.campaign["q_grid"] == [{"num": "1", "den": "7"}]
    pinned = {"num": "1", "den": "7"}
    assert all(c.inputs["q"] == pinned for c in report.checks)
    # the default-grid campaign dict carries no q_grid key
    assert "q_grid" not in run_campaign(corpus, CampaignConfig(
        theorems=(TAG_ONE_POSITIVE,), samples=1)).campaign


def test_campaign_determinism_and_worker_independence():
    corpus = generate_corpus("graphic,K3;uniform,n<=2")
    cfg1 = CampaignConfig(seed=5, samples=2, workers=1)
    cfg2 = CampaignConfig(seed=5, samples=2, workers=2)
    r1 = run_campaign(corpus, cfg1)
    r2 = run_campaign(corpus, cfg2)
    a = json.dumps(r1.to_json(), sort_keys=True)
    b = json.dumps(r2.to_json(), sort_keys=True)
    assert a == b
    # a different seed moves the sampled points
    r3 = run_campaign(corpus, CampaignConfig(seed=6, samples=2))
    assert json.dumps(r3.to_json(), sort_keys=True) != a


def test_theorem_subset_and_unknown_tag():
    corpus = generate_corpus("graphic,K3")
    cfg = CampaignConfig(theorems=(TAG_COUNT_LOG_CONCAVITY, TAG_SIMPLIFICATION), samples=1)
    report = run_campaign(corpus, cfg)
    assert {c.theorem for c in report.checks} == {TAG_COUNT_LOG_CONCAVITY, TAG_SIMPLIFICATION}
    with pytest.raises(InvalidParametersError):
        run_campaign(corpus, CampaignConfig(theorems=("nope",)))


def test_campaign_rejects_an_empty_corpus():
    with pytest.raises(InvalidParametersError, match="uniform,n<=1"):
        run_campaign([], CampaignConfig(corpus_label="uniform,n<=1"))


def test_campaign_under_the_benchmark_tracer():
    # perfbench/tracing.py wraps names that potts_hodge.verify binds; a
    # name the checks stop importing would break it with an AttributeError
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import potts_hodge as ph

    corpus = generate_corpus("graphic,K3")
    config = CampaignConfig(seed=1, samples=2)
    expected = json.dumps(run_campaign(corpus, config).to_json(), sort_keys=True)
    tracer = tracing.Tracer(ph)
    try:
        with tracer.installed():
            report = run_campaign(corpus, config)
        counts = tracer.counters.snapshot()
    finally:
        tracer.close()
    assert json.dumps(report.to_json(), sort_keys=True) == expected
    assert counts["verify.check.calls"] == len(report.checks) > 0
    assert counts["spectral.signature.calls"] > 0


def test_campaign_rejects_negative_samples_and_workers():
    corpus = generate_corpus("graphic,K3")
    with pytest.raises(InvalidParametersError):
        run_campaign(corpus, CampaignConfig(samples=-1))
    for workers in (0, -5):
        with pytest.raises(InvalidParametersError):
            run_campaign(corpus, CampaignConfig(workers=workers))


@pytest.mark.parametrize("workers, cpus, expected", [
    (5000, 3, 3),     # capped at the core count
    (5000, 64, 7),    # capped at the task count
    (2, 64, 2),
    (5000, 1, None),  # one core: serial, no pool at all
])
def test_pool_size_is_capped(monkeypatch, workers, cpus, expected):
    sizes = []

    class InProcessPool:
        """Records the pool size and maps in this process; starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    corpus = generate_corpus("uniform,n<=3")  # 7 matroids: 7 mason tasks
    theorems = (TAG_COUNT_LOG_CONCAVITY,)
    report = run_campaign(corpus, CampaignConfig(theorems=theorems, workers=workers))
    assert sizes == ([] if expected is None else [expected])
    serial = run_campaign(corpus, CampaignConfig(theorems=theorems))
    assert report.to_json() == serial.to_json()


def test_report_round_trip_and_replay():
    corpus = generate_corpus("uniform,n<=3;graphic,K3")
    report = run_campaign(corpus, CampaignConfig(seed=3, samples=2))
    again = VerificationReport.from_json(report.to_json())
    assert again.checks == report.checks
    assert again.summary == report.summary
    assert again.timing_seconds is None  # timing excluded by default
    assert replay_report(again) == []
    # single-check replay round-trips through plain dicts as well
    fresh = replay_check(report.checks[0].to_json())
    assert fresh == report.checks[0]


def test_replay_report_names_exactly_the_edited_checks():
    corpus = generate_corpus("uniform,n<=3;graphic,K3")
    stored = run_campaign(corpus, CampaignConfig(seed=3, samples=2)).to_json()
    edited = json.loads(json.dumps(stored))
    checks = edited["checks"]
    flip = 1
    edit = next(i for i, c in enumerate(checks) if c["theorem"] == TAG_LOG_CONCAVITY)
    checks[flip]["verdict"] = FAIL if checks[flip]["verdict"] != FAIL else PASS
    checks[edit]["witness"]["signature"][0] += 1
    mismatches = replay_report(VerificationReport.from_json(edited))
    assert [i for i, _, _ in mismatches] == [flip, edit]
    # the fresh runs reproduce the unedited records
    assert [fresh.to_json() for _, _, fresh in mismatches] == \
        [stored["checks"][flip], stored["checks"][edit]]


@pytest.mark.parametrize("theorem, aspect", [
    ("nope", None),
    (TAG_DEGREE_TWO, None),
    (TAG_DEGREE_TWO, "sideways"),
    (TAG_ONE_POSITIVE, "zero-line"),
])
def test_replay_check_rejects_unknown_theorem_or_aspect(theorem, aspect):
    inputs = {"matroid": U12.to_json(), "q": {"num": "1", "den": "1"},
              "w": [{"num": "1", "den": "1"}] * 3}
    if aspect is not None:
        inputs["aspect"] = aspect
    with pytest.raises(InvalidParametersError):
        replay_check(CheckResult(theorem, inputs, PASS))


def test_check_result_parsing_errors():
    with pytest.raises(ParseError):
        CheckResult.from_json({"theorem": "qHR", "inputs": {}})
    with pytest.raises(ParseError):
        CheckResult.from_json({"theorem": "qHR", "inputs": {}, "verdict": "maybe"})
    with pytest.raises(ParseError):
        VerificationReport.from_json({"campaign": {}})
    with pytest.raises(ParseError):
        VerificationReport.from_json([1])


def test_sampled_points_are_positive():
    for j in range(10):
        w = sample_positive_point(child_rng(0, 99, j), 5)
        assert len(w) == 5
        assert all(x > 0 for x in w)
