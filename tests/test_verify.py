"""Theorem checks, campaign plumbing, replay, and the corpus generators."""

import ast
import dataclasses
import hashlib
import importlib.util
import itertools
import json
import marshal
import math
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potts_hodge import (
    CampaignConfig,
    CheckResult,
    InvalidParametersError,
    ParseError,
    ResourceLimitError,
    SamplingFailureError,
    SymMatrix,
    VerificationReport,
    bilinear,
    connected_graphs,
    contract,
    derivative_degree,
    elementary_symmetric,
    exact_nullspace,
    exact_rank,
    generate_corpus,
    gradient,
    hessian,
    make_graphic,
    make_linear,
    make_rank_table,
    make_uniform,
    one_positive_equivalence_check,
    parse_corpus_spec,
    rat,
    run_campaign,
    signature,
    structure,
    z_weighted_eval,
    zk_all,
)
from potts_hodge import sampling, verify
from potts_hodge.errors import ImpossibleStateError
from potts_hodge.matrices import mat_vec
from potts_hodge.potts import log_concave_integers, quadratic_numerators, strata_numerators
from potts_hodge.sampling import (
    child_rng,
    log_concave_coeffs,
    sample_positive_point,
    sample_sign_mixed_point,
)
from potts_hodge.scalars import scalar_to_json, shared_wire
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


# each check's point: (check, args before w, length of w, a point of that
# length that breaks the sign condition of the check)
POINT_RULES = [
    (check_one_positive, (U24, rat(1)), 5, (1, 0, 1, 1, 1)),
    (check_derivative_one_positive, (K3, (1, 3, 3, 1), rat(1, 2), (0, 0, 0, 0)), 4,
     (1, 1, -1, 1)),
    (check_degree_two, (K3, (1, 3, 3, 1), rat(1, 2)), 3, (0, 0, 0)),
    (check_degree_two_zero_line, (K3, rat(1, 2)), 3, (0, 0, 0)),
    (check_strata_ultra_log_concave, (U24, rat(1)), 4, (-1, 1, 1, 1)),
    (check_log_concavity_at, (U12, (1, 1, 1), rat(1)), 3, (1, 1, 0)),
]


@pytest.mark.parametrize("check, args, length, bad_sign", POINT_RULES,
                         ids=[rule[0].__name__ for rule in POINT_RULES])
def test_checks_reject_bad_points(check, args, length, bad_sign):
    for w in [(1,) * (length - 1), (1,) * (length + 1), bad_sign]:
        with pytest.raises(InvalidParametersError):
            check(*args, w)


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
    # one element: Z has no quadratic stratum
    single = check_degree_two(make_uniform(1, 1), (1, 2), rat(1, 2), (rat(3),))
    assert single.verdict == NOT_APPLICABLE
    assert single.witness == {"annotations": ["degree-below-two"]}

    # Z[1](w) = (1/q)(w1 + w2 + w3) on K3: the plane is w1 + w2 + w3 = 0
    res = check_degree_two_zero_line(K3, rat(1, 2), (rat(1), rat(1), rat(-2)))
    assert res.verdict == PASS
    with pytest.raises(InvalidParametersError):
        check_degree_two_zero_line(K3, rat(1, 2), (rat(1), rat(1), rat(1)))


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


# The FAIL branches of mason and simplification never run on a matroid,
# which satisfies both theorems, so these tests feed K3's checks counts
# that are not log-concave by patching the counting routes verify calls.
NOT_LOG_CONCAVE = (1, 2, 4, 1)  # 1*2*2^2 = 8 < 2*3*1*4 = 24 at k = 1


def patch_counts(monkeypatch, counts, numerators=None):
    """Make independent_set_counts return counts and independent_numerators
    return numerators (default: counts) over scale 1."""
    monkeypatch.setattr(verify, "independent_set_counts", lambda matroid: tuple(counts))
    nums = list(counts if numerators is None else numerators)
    monkeypatch.setattr(verify, "independent_numerators", lambda matroid, w: (nums, 1))


def test_mason_fail_witnesses(monkeypatch):
    patch_counts(monkeypatch, NOT_LOG_CONCAVE)
    res = check_count_log_concavity(K3)
    assert res.verdict == FAIL
    assert res.witness == {
        "counts": [1, 2, 4, 1],
        "annotations": ["route-match"],
        "violations": [
            {"k": 1, "lhs": 8, "rhs": 24},
            # 2*1*4^2 = 32 > 3*2*2*1 = 12 while I_3 = C(3, 3): saturated
            {"k": 2, "reason": "saturation-without-equality", "lhs": 32, "rhs": 12},
        ],
    }
    # 1*2*6^2 = 72 = 2*3*1*12 at k = 1, but I_2 = 12 is not C(3, 2) = 3
    patch_counts(monkeypatch, (1, 6, 12, 0))
    res = check_count_log_concavity(K3)
    assert res.verdict == FAIL
    assert res.witness == {
        "counts": [1, 6, 12, 0],
        "annotations": ["route-match", "equality-at-1"],
        "violations": [{"k": 1, "reason": "equality-without-saturation",
                        "count": 12, "expected": 3}],
    }


def test_mason_route_mismatch(monkeypatch):
    monkeypatch.setattr(verify, "independent_numerators", lambda matroid, w: (list(NOT_LOG_CONCAVE), 1))
    res = check_count_log_concavity(K3)
    assert res.verdict == FAIL
    assert res.witness == {"counts": [1, 3, 3, 0], "recount": [1, 2, 4, 1],
                           "annotations": ["route-mismatch"]}


def test_simplification_fail_witnesses(monkeypatch):
    patch_counts(monkeypatch, NOT_LOG_CONCAVE)
    res = check_simplification_bound(K3)
    assert res.verdict == FAIL
    assert res.witness == {
        "counts": [1, 2, 4, 1],
        "simple_size": 3,
        "annotations": ["class-size-route-match"],
        "violations": [{"m": 1, "lhs": 8, "rhs": 24, "reason": "simple-size-bound"}],
    }
    # binomial dominance holds for every ell <= n, so only a patch breaks it
    monkeypatch.setattr(verify, "binomial_dominance", lambda ell, n, m: m != 2)
    assert check_simplification_bound(K3).witness["violations"] == [
        {"m": 1, "lhs": 8, "rhs": 24, "reason": "simple-size-bound"},
        {"m": 2, "reason": "binomial-dominance"},
    ]


def test_simplification_route_mismatch(monkeypatch):
    monkeypatch.setattr(verify, "independent_numerators", lambda matroid, w: (list(NOT_LOG_CONCAVE), 1))
    res = check_simplification_bound(K3)
    assert res.verdict == FAIL
    assert res.witness == {
        "counts": [1, 3, 3, 0],
        "simple_size": 3,
        # K3's true counts still meet the bound, with equality at m = 1
        "annotations": ["equality-at-1"],
        "violations": [
            {"m": 1, "count": 3, "rerouted": 2, "reason": "class-size-route-mismatch"},
            {"m": 2, "count": 3, "rerouted": 4, "reason": "class-size-route-mismatch"},
            {"m": 3, "count": 0, "rerouted": 1, "reason": "class-size-route-mismatch"},
        ],
    }


# The FAIL branches of qHR, cqHR and logconcavity never run inside the
# theorems' range 0 < q <= 1, which the paper proves them on.  These tests
# let _q_in_range accept every q, so the arithmetic is the checks' own, and
# pin the witness each reaches above q = 1.
def test_main_theorem_fail_witnesses_above_q_one(monkeypatch):
    monkeypatch.setattr(verify, "_q_in_range", lambda q: True)
    res = check_one_positive(U12, rat(2), ONES3)
    assert (res.verdict, res.witness) == (FAIL, {"signature": [2, 1, 0]})
    flat = (0, 0, 0)
    res = check_derivative_one_positive(U12, (10, 11, 10), rat(2), flat, ONES3)
    assert (res.verdict, res.witness) == (FAIL, {"signature": [2, 1, 0], "active": [0, 1, 2]})
    # one positive eigenvalue, but a zero one too: cqHR asks for none
    res = check_derivative_one_positive(U12, (1, 2, 1), rat(4), flat, ONES3)
    assert (res.verdict, res.witness) == (FAIL, {"signature": [1, 1, 1], "active": [0, 1, 2]})
    # the ray identity holds at any q; the positive eigenvalue fails it
    res = check_log_concavity_at(U12, (1, 1, 1), rat(2), ONES3)
    assert (res.verdict, res.witness) == (FAIL, {
        "signature": [1, 2, 0], "ray": {"num": "-25", "den": "2"},
        "annotations": ["ray-identity"]})


def test_degree_two_bound_is_strict_at_newtons_equality(monkeypatch):
    # c = (1, 1, 1, 1) is log-concave but not strictly, so _coeffs must
    # be let through; on U(2,3) at q = 1 and w = (1/2, 1/2, 1/2) the routes
    # match and Z[1]^2 = bound = 9/4, which the strict bound refuses
    monkeypatch.setattr(verify, "log_concave_integers", lambda ints, strict: True)
    half = (rat(1, 2),) * 3
    res = check_degree_two(make_uniform(2, 3), (1, 1, 1, 1), rat(1), half)
    assert res.verdict == FAIL
    assert res.witness == {
        "z1": {"num": "3", "den": "2"}, "z2": {"num": "3", "den": "4"},
        "bound": {"num": "9", "den": "4"}, "routes_match": True,
        "annotations": ["route-match", "mean-bound-at-q1"]}


def test_log_concave_coeffs_prints_a_rejected_ratio_as_a_rational():
    with pytest.raises(SamplingFailureError, match=r"needs ratio > 1, got 1/2$"):
        log_concave_coeffs(3, Fraction(1, 2))
    with pytest.raises(SamplingFailureError, match=r"needs ratio > 1, got 1$"):
        log_concave_coeffs(3, 1)


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


def test_log_concavity_check_raises_where_z_is_not_positive(monkeypatch):
    # the bordered signature gives that of N only at Z > 0, which a positive
    # point always has: a Z <= 0 there is an impossible state, not a verdict
    for z in (0, -5):
        monkeypatch.setattr(verify, "second_order_numerators",
                            lambda *args, z=z: (z, [1, 1, 1], [[0, 1, 1], [1, 0, 1], [1, 1, 0]], 1))
        with pytest.raises(ImpossibleStateError):
            check_log_concavity_at(U12, (1, 1, 1), rat(1), ONES3)


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
    h = hessian(matroid, c, q, alpha, w).entries
    sig = signature([[h[i][j] for j in active] for i in active])
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


# ------------------------------------ strata checks against a rational reference
#
# The strata checks compare integer numerators.  The references below are
# the rational routes they replace: the public (Fraction) strata and
# elementary symmetric polynomials, combined by the old Fraction formulas.
# Each takes the strata as an argument, so that a test can hand both sides
# the same altered strata and reach the failure witnesses.


def _reference_singleton_weights(matroid, q, w):
    """y_i = q^(-rk({i})) w_i: loop weights pass through, others divide by q."""
    return tuple(w[i] * (1 if matroid.ranks[1 << i] == 0 else 1 / q) for i in range(matroid.n))


def reference_degree_two(matroid, c, q, w, strata):
    n = matroid.n
    if n < 2:
        return NOT_APPLICABLE, {"annotations": ["degree-below-two"]}
    if q > 1:
        return NOT_APPLICABLE, {"annotations": ["q-above-one"]}
    c = tuple(map(Fraction, c))
    t = c[0] * c[2] / (c[1] * c[1])
    z1, z2 = strata[1], strata[2]
    y = _reference_singleton_weights(matroid, q, w)
    e1 = elementary_symmetric(range(1, n + 1), 1, y)
    e2 = elementary_symmetric(range(1, n + 1), 2, y)
    correction = sum((elementary_symmetric(sorted(cls), 2, y)
                      for cls in structure(matroid).parallel_classes if len(cls) >= 2),
                     start=Fraction(0))
    routes_match = z1 == e1 and z2 == e2 - (1 - q) * correction
    bound = 2 * t * Fraction(n, n - 1) * z2
    notes = ["route-match"] if routes_match else []
    newton_ok = True
    if q == 1:
        newton_ok = e1 * e1 >= 2 * Fraction(n, n - 1) * e2
        if newton_ok:
            notes.append("mean-bound-at-q1")
    witness = {"z1": scalar_to_json(z1), "z2": scalar_to_json(z2),
               "bound": scalar_to_json(bound), "routes_match": routes_match}
    if notes:
        witness["annotations"] = notes
    return (PASS if routes_match and z1 * z1 > bound and newton_ok else FAIL), witness


def reference_zero_line(matroid, q, w, strata):
    if q > 1:
        return NOT_APPLICABLE, {"annotations": ["q-above-one"]}
    assert strata[1] == 0
    return (PASS if strata[2] < 0 else FAIL), {"z2": scalar_to_json(strata[2])}


def reference_strata_ulc(matroid, q, w, strata):
    n = matroid.n
    if n < 2:
        return VACUOUS, {"annotations": ["no-interior-indices"]}
    if q > 1:
        return NOT_APPLICABLE, {"annotations": ["q-above-one"]}
    notes, violations, tight_nonzero = [], [], 0
    for m in range(1, n):
        lhs = m * (n - m) * strata[m] * strata[m]
        rhs = (m + 1) * (n - m + 1) * strata[m - 1] * strata[m + 1]
        if lhs < rhs:
            violations.append({"m": m, "lhs": scalar_to_json(lhs), "rhs": scalar_to_json(rhs)})
        elif lhs == rhs:
            if lhs == 0:
                notes.append(f"vacuous-at-{m}")
            else:
                notes.append(f"equality-at-{m}")
                tight_nonzero += 1
    if tight_nonzero == n - 1:
        notes.append("zero-slack-everywhere")
    witness = {}
    if notes:
        witness["annotations"] = notes
    if violations:
        witness["violations"] = violations
    return (FAIL if violations else PASS), (witness or None)


def reference_zero_line_projection(matroid, q, v):
    """Project v along the all-ones direction onto the Z[1] = 0 plane."""
    lam = [1 / q if matroid.ranks[1 << i] else Fraction(1) for i in range(matroid.n)]
    total = sum(lam)
    s = sum(lam[i] * v[i] for i in range(matroid.n))
    return tuple(total * x - s for x in v)


def reference_zero_line_point(matroid, q, rng, attempts=32):
    for _ in range(attempts):
        w = reference_zero_line_projection(matroid, q, sample_sign_mixed_point(rng, matroid.n))
        if any(x != 0 for x in w):
            return w
    raise InvalidParametersError("could not sample a nonzero point on the Z[1] = 0 plane")


STRATA_MATROIDS = CHECK_MATROIDS + [
    # a parallel class {1, 2}, a loop 4 and a second parallel pair {3, 5}
    make_graphic(3, [(1, 2), (1, 2), (2, 3), (3, 3), (2, 3)]),
]
big_signed = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                                 st.integers(1, 10 ** 12)))
big_nonneg = st.one_of(st.just(Fraction(0)), big_positive)
# unit_q plus q just below and just above 1
strata_q = st.one_of(unit_q, st.just(Fraction(10 ** 12 - 1, 10 ** 12)),
                     st.just(Fraction(10 ** 12 + 1, 10 ** 12)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_strata_checks_match_rational_reference(data):
    matroid = data.draw(st.sampled_from(STRATA_MATROIDS))
    n = matroid.n
    q = data.draw(strata_q)
    c = data.draw(strictly_log_concave_coeffs(n))
    signed = list(data.draw(st.lists(big_signed, min_size=n, max_size=n)))
    if not any(signed):
        signed[0] = Fraction(1, 10 ** 12)
    nonneg = tuple(data.draw(st.lists(big_nonneg, min_size=n, max_size=n)))
    on_plane = reference_zero_line_projection(matroid, q, signed)
    # optionally scale one stratum on both sides (by 0, -1 or 10^6), which
    # drives the checks into their failure witnesses
    alter = data.draw(st.one_of(st.none(), st.tuples(st.integers(0, n),
                                                    st.sampled_from((0, -1, 10 ** 6)))))

    def altered(nums):
        if alter is not None:
            nums = list(nums)
            nums[alter[0]] *= alter[1]
        return nums

    def altered_numerators(*args):
        nums, scale = strata_numerators(*args)
        return altered(nums), scale

    def altered_quadratic(*args):
        z1, z2, scale = quadratic_numerators(*args)
        return (*altered([0, z1, z2] + [0] * (n - 2))[1:3], scale)

    cases = [(check_degree_two, reference_degree_two, (c, q, tuple(signed))),
             (check_strata_ultra_log_concave, reference_strata_ulc, (q, nonneg))]
    if any(on_plane) and (alter is None or alter[0] >= 2):
        cases.append((check_degree_two_zero_line, reference_zero_line, (q, on_plane)))
    for check, reference, args in cases:
        strata = altered(zk_all(matroid, q, args[-1]))
        with mock.patch.object(verify, "strata_numerators", altered_numerators), \
                mock.patch.object(verify, "quadratic_numerators", altered_quadratic):
            result = check(matroid, *args)
        assert (result.verdict, result.witness) == reference(matroid, *args, strata)
    if n >= 2:
        seed = data.draw(st.integers(0, 2 ** 32))
        assert verify._zero_line_point(matroid, q, random.Random(seed)) == \
            reference_zero_line_point(matroid, q, random.Random(seed))


def test_log_slice_second_difference():
    w = (1.0, 0.7, 1.3, 2.0, 0.5)
    for direction in [(1.0, 0.0, -1.0, 0.5, 0.0), (0.0, 1.0, 1.0, -1.0, 2.0)]:
        val = log_slice_second_difference(U24, (1.0, 2.0, 3.0, 2.0, 1.0),
                                          0.5, w, direction)
        assert val <= 1e-8
    with pytest.raises(InvalidParametersError):
        log_slice_second_difference(U24, (1.0,) * 5, 0.5, w, (0.0,) * 5)
    # Z_c is exact at the tiny float points, about 10^-1200, and rounds to
    # 0.0, so its log is undefined
    tiny = (1e-300,) * 5
    with pytest.raises(InvalidParametersError, match="log Z is undefined"):
        log_slice_second_difference(U24, (1.0,) * 5, 0.5, tiny, (1.0, 0.0, 0.0, 0.0, 0.0))


def test_zero_line_sampling_gives_up_after_32_draws(monkeypatch):
    # a constant sample projects to the zero vector, which is not a point
    draws = []

    def constant(rng, length):
        draws.append(length)
        return [1] * length

    monkeypatch.setattr(verify, "sample_sign_mixed_numerators", constant)
    with pytest.raises(InvalidParametersError, match="could not sample a nonzero point"):
        verify._zero_line_point(U24, Fraction(1, 2), random.Random(0))
    assert draws == [4] * 32


def test_sign_mixed_sampling_of_an_empty_vector_fails():
    # no vector of length 0 is nonzero
    with pytest.raises(SamplingFailureError, match="nonzero sign-mixed vector"):
        sampling.sample_sign_mixed_numerators(random.Random(0), 0)


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
    # connected graphs by edge count, OEIS A002905
    assert len(connected_graphs(2)) == 1
    assert len(connected_graphs(3)) - len(connected_graphs(2)) == 3
    assert len(connected_graphs(4)) - len(connected_graphs(3)) == 5
    assert len(connected_graphs(5)) - len(connected_graphs(4)) == 12
    assert len(connected_graphs(6)) - len(connected_graphs(5)) == 30


# The enumeration connected_graphs replaced: edge sets as tuples of vertex
# pairs, canonicalized by sorting the edge list under every relabeling.

def _reference_relabelings(num_vertices, edges):
    for perm in itertools.permutations(range(num_vertices)):
        yield tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def _reference_is_connected(num_vertices, edges):
    adj = {v: [] for v in range(num_vertices)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == num_vertices


def reference_connected_graphs(max_edges):
    found = {}
    seen = set()
    for m in range(2, max_edges + 1):
        for nv in range(2, m + 2):
            pairs = list(itertools.combinations(range(nv), 2))
            for combo in itertools.combinations(pairs, m):
                if combo in seen:
                    continue
                if len({v for e in combo for v in e}) != nv:
                    continue
                if not _reference_is_connected(nv, combo):
                    continue
                key = min(_reference_relabelings(nv, combo))
                seen.update(_reference_relabelings(nv, key))
                found[key] = (nv, key)
    return tuple(sorted(found.values()))


@pytest.mark.parametrize("max_edges", range(7))
def test_connected_graphs_match_reference(max_edges):
    assert connected_graphs(max_edges) == reference_connected_graphs(max_edges)


def test_connected_graphs_refuse_before_building_a_table():
    # edges<=8 would visit 34,948,280 edge sets and tabulate 9! relabelings
    with mock.patch("potts_hodge.corpus._relabeled_pair_bits",
                    side_effect=AssertionError("built a relabeling table")):
        with pytest.raises(ResourceLimitError, match="34948280 edge sets.*2000000"):
            connected_graphs(8)
        with pytest.raises(ResourceLimitError, match="more than 34948280 edge sets"):
            connected_graphs(10 ** 9)
        # edges<=7 visits 1,369,865 edge sets: within the budget, so it
        # goes on to build its first table
        with pytest.raises(AssertionError, match="built a relabeling table"):
            connected_graphs(7)


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


def test_default_corpus_is_pinned():
    # element order and ranks feed every report, so a corpus change shows
    # here before any report digest moves
    corpus = generate_corpus("default")
    text = json.dumps([[m.to_json(), list(m.ranks)] for m in corpus], sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "4884bc6a095bbe211cc274ca253d03101f0ae0738cad351e67508bdc92cbdc41"


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
    # linear matroids start at n = 2, as uniform ones do: no draw below it
    assert generate_corpus("linear,count=3,n<=1") == generate_corpus("uniform,n<=1") == []
    mixed = generate_corpus("graphic,K3;structured")
    assert len(mixed) == 6
    with pytest.raises(ParseError, match="cannot parse clause 'n<=3'"):
        parse_corpus_spec("structured,n<=3")
    assert generate_corpus("default") == generate_corpus()
    with pytest.raises(ParseError):
        parse_corpus_spec("unknown-family")
    with pytest.raises(ParseError):
        parse_corpus_spec("uniform,count=x")
    with pytest.raises(ParseError, match="empty corpus spec"):
        parse_corpus_spec("  ")
    with pytest.raises(ParseError, match="empty family group"):
        parse_corpus_spec("uniform,n<=3; ,")
    for spec in ("linear,count=-1", "uniform,n<=-1", "graphic,edges<=-3", "linear,n<=-2"):
        with pytest.raises(ParseError, match="negative bound"):
            parse_corpus_spec(spec)
    # a seed is not a bound: it may be negative
    assert parse_corpus_spec("linear,count=2,seed=-7").linear_seed == -7


def test_every_checks_row_generates_the_inputs_of_its_check():
    # a row's generator yields (matroid, *inputs), one input per key, and
    # its check records that theorem, aspect and keys, each input in the
    # wire form that _FROM_JSON decodes back to its value, so a record sent
    # through JSON replays to itself; on n >= 2, on n < 2 and on a member
    # with a loop and a parallel class
    assert ALL_THEOREMS == ("qHR", "cqHR", "deg2", "ulc", "mason", "simplification",
                            "logconcavity")
    looped = generate_corpus("structured")[0]
    assert not looped.ranks[0b100] and max(map(len, structure(looped).parallel_classes)) == 2
    for (tag, aspect), (tasks, name, keys) in verify.CHECKS.items():
        assert list(tasks(0, K3, 3, 2, (rat(1, 2),)))
        for matroid in (K3, SINGLE, looped):
            for args in tasks(0, matroid, 3, 2, (rat(1, 2),)):
                assert len(args) == 1 + len(keys) and args[0] is matroid
                result = verify.call_check(name, args)
                assert (result.theorem, result.inputs.get("aspect")) == (tag, aspect)
                assert result.inputs.keys() - {"aspect"} == {"matroid", *keys}
                for key, value in zip(keys, args[1:]):
                    decoded = verify._FROM_JSON[key](result.inputs[key])
                    assert decoded == (value if key == "q" else tuple(value)), (name, key)
                assert verify.replay_check(json.loads(json.dumps(result.to_json()))) == result


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


def test_degree_two_campaign_runs_no_subset_pass():
    # deg2 reads Z[1] and Z[2] off the singletons and pairs alone, so a
    # campaign of it passes with the full strata pass unavailable
    def no_subset_pass(*args):
        raise AssertionError("deg2 called strata_numerators")

    corpus = generate_corpus("default")
    cfg = CampaignConfig(theorems=(TAG_DEGREE_TWO,), samples=1)
    with mock.patch.object(verify, "strata_numerators", no_subset_pass):
        report = run_campaign(corpus, cfg)
    assert report.ok and report.summary[PASS] == report.summary["total"]
    aspects = {c.inputs["aspect"] for c in report.checks}
    assert aspects == {"positive-point", "zero-line"}


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


# one matroid for each n = 0..8, with loops and parallel classes among them
SPAN_CORPUS = [
    make_uniform(0, 0), make_uniform(1, 1), make_graphic(2, [(1, 1), (1, 2)]),
    make_graphic(2, [(1, 2), (1, 2), (1, 2)]), make_linear(2, [[1, 0, 1, 0], [0, 1, 1, 0]]),
    make_uniform(2, 5), make_graphic(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4)]),
    make_graphic(4, [(1, 2), (1, 2), (2, 3), (3, 3), (3, 4), (1, 4), (2, 4)]),
    make_uniform(4, 8),
]


# this thread's CPU affinity set, read through the real function whatever a
# test fakes (None where the platform has no affinity sets), and its value
# when the tests were collected, before any campaign ran: a campaign that
# left this thread pinned would also move a set read at the start of a test
_real_affinity = getattr(os, "sched_getaffinity", lambda pid: None)
_AFFINITY_AT_START = _real_affinity(0)


def _usable_cpus(monkeypatch, count):
    """Make a campaign see `count` usable CPUs whatever the host has: the
    affinity set it reads has that size."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _refuse_affinity(pid, cpus):
    """Stands in for os.sched_setaffinity, which a campaign never calls:
    not an OSError, so no best-effort handler can swallow the call."""
    raise AssertionError(f"a campaign changed the CPU set of pid {pid}")


def test_per_matroid_units_are_worker_independent(monkeypatch):
    assert [m.n for m in SPAN_CORPUS] == list(range(9))
    # three usable CPUs, so workers=3 runs three processes, this one and
    # two children
    _usable_cpus(monkeypatch, 3)
    reports = [run_campaign(SPAN_CORPUS, CampaignConfig(seed=4, samples=2, workers=workers))
               for workers in (1, 2, 3)]
    assert _real_affinity(0) == _AFFINITY_AT_START
    texts = [json.dumps(r.to_json(), sort_keys=True) for r in reports]
    assert texts[0] == texts[1] == texts[2]
    # fewer units than workers: two processes at workers=3
    few = {json.dumps(run_campaign([K3, U24], CampaignConfig(
        seed=2, samples=2, workers=workers)).to_json(), sort_keys=True) for workers in (1, 2, 3)}
    assert len(few) == 1
    # theorem by theorem in ALL_THEOREMS order, matroid by matroid within
    # a theorem
    checks = reports[0].checks
    assert {c.theorem for c in checks} == set(ALL_THEOREMS)
    members = [m.to_json() for m in SPAN_CORPUS]
    order = [(ALL_THEOREMS.index(c.theorem), members.index(c.inputs["matroid"])) for c in checks]
    assert order == sorted(order)


@pytest.mark.parametrize("member", [3, 2], ids=["first-claimed", "last-claimed"])
def test_a_unit_exception_reaches_the_caller(monkeypatch, member):
    # the campaign raises on one named matroid, whichever process claims
    # it: member 3 is claimed first (n = 3, lowest index), member 2 last
    # (n = 2, highest index); this process takes 0.05 s a unit, so it
    # usually runs the first and the child the last
    parent = os.getpid()
    corpus = generate_corpus("uniform,n<=3")
    bad = corpus[member].to_json()
    original = verify.check_count_log_concavity

    def check(matroid):
        if matroid.to_json() == bad:
            raise SamplingFailureError(f"raised on member {member}")
        if os.getpid() == parent:
            time.sleep(0.05)
        return original(matroid)

    _usable_cpus(monkeypatch, 2)
    config = CampaignConfig(theorems=(TAG_COUNT_LOG_CONCAVITY,))
    monkeypatch.setattr(verify, "check_count_log_concavity", check)
    for workers in (1, 2):
        with pytest.raises(SamplingFailureError, match=f"on member {member}$"):
            run_campaign(corpus, dataclasses.replace(config, workers=workers))
        assert _real_affinity(0) == _AFFINITY_AT_START
        assert multiprocessing.active_children() == []


def test_a_child_process_that_exits_without_sending_is_reported(monkeypatch):
    parent = os.getpid()
    original = verify.check_count_log_concavity

    def check(matroid):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.1)  # so the child claims a unit before this process takes them all
        return original(matroid)

    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "check_count_log_concavity", check)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_campaign(generate_corpus("uniform,n<=3"),
                     CampaignConfig(theorems=(TAG_COUNT_LOG_CONCAVITY,), workers=2))
    assert _real_affinity(0) == _AFFINITY_AT_START
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_after_streaming_a_unit_is_reported(monkeypatch):
    # the child runs its first unit, then exits on its second before it
    # writes anything: the caller finds exit code 3 and an empty file
    parent = os.getpid()
    original = verify.check_count_log_concavity
    done = []

    def check(matroid):
        if os.getpid() == parent:
            time.sleep(0.1)  # so the child claims two units
        elif done:
            os._exit(3)
        done.append(matroid)
        return original(matroid)

    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "check_count_log_concavity", check)
    with pytest.raises(RuntimeError, match="exited with code 3 without sending its records"):
        run_campaign(generate_corpus("uniform,n<=3"),
                     CampaignConfig(theorems=(TAG_COUNT_LOG_CONCAVITY,), workers=2))
    assert _real_affinity(0) == _AFFINITY_AT_START
    assert multiprocessing.active_children() == []


def test_a_slow_child_unit_leaves_every_other_unit_to_the_caller(monkeypatch, tmp_path):
    # the child's first unit takes 0.3 s; meanwhile this process claims
    # and runs all the others, and the report is the serial one.  Each
    # call appends "<pid> <corpus index>" to a log (one O_APPEND write, so
    # the two processes never interleave a line)
    parent = os.getpid()
    corpus = generate_corpus("uniform,n<=3")
    members = [m.to_json() for m in corpus]
    config = CampaignConfig(theorems=(TAG_COUNT_LOG_CONCAVITY,), workers=2)
    serial = json.dumps(run_campaign(corpus, dataclasses.replace(config, workers=1)).to_json(),
                        sort_keys=True)
    log = tmp_path / "units"
    original = verify.check_count_log_concavity
    slept = []

    def check(matroid):
        if os.getpid() == parent:
            time.sleep(0.01)  # so the child starts before every unit is claimed
        elif not slept:
            slept.append(matroid)
            time.sleep(0.3)
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {members.index(matroid.to_json())}\n".encode())
        finally:
            os.close(fd)
        return original(matroid)

    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "check_count_log_concavity", check)
    report = run_campaign(corpus, config)
    ran = {}
    for line in log.read_text().splitlines():
        pid, mi = map(int, line.split())
        ran.setdefault(pid, []).append(mi)
    assert parent in ran and len(ran) == 2
    child = next(pid for pid in ran if pid != parent)
    assert len(ran[child]) == 1
    assert sorted(ran[parent] + ran[child]) == list(range(7))
    assert json.dumps(report.to_json(), sort_keys=True) == serial
    assert multiprocessing.active_children() == []


def test_a_child_writes_its_claimed_units_as_one_message(monkeypatch, tmp_path):
    # the child's side of the file, run in this process: units in claims
    # file order, all in one marshal message written to a real temporary
    # file, their records as plain tuples (each unit's share one matroid
    # JSON dict); a raised exception goes over pickled in place of them
    units = [(mi, m, ALL_THEOREMS, 1, 1, verify.default_q_grid()) for mi, m in enumerate([K3, U24])]

    def run_claims(order):
        with open(tmp_path / "claims", "w+b", buffering=0) as file, \
                tempfile.TemporaryFile() as out:
            file.write(b"".join(i.to_bytes(4, "little") for i in order))
            file.seek(0)
            verify._run_claims(units, file.fileno(), out)
            out.seek(0)
            message = marshal.load(out)
            assert out.read() == b""  # one message and nothing after it
        return message

    ok, sent = run_claims([1, 0])
    assert ok and [i for i, _ in sent] == [1, 0]
    for i, records in sent:
        assert records == [[(r.theorem, r.inputs, r.verdict, r.witness) for r in results]
                           for results in verify._matroid_checks(*units[i])]
        matroids = [inputs["matroid"] for per_theorem in records for _, inputs, _, _ in per_theorem]
        assert len(matroids) > 1 and all(m is matroids[0] for m in matroids)
    original = verify.check_count_log_concavity

    def check(matroid):
        if matroid is K3:
            raise SamplingFailureError("raised on K3")
        return original(matroid)

    monkeypatch.setattr(verify, "check_count_log_concavity", check)
    ok, exc = run_claims([1, 0])
    assert not ok
    with pytest.raises(SamplingFailureError, match="raised on K3"):
        raise pickle.loads(exc)


def test_a_child_never_waits_on_the_caller(monkeypatch):
    # the child's unit returns a witness larger than a pipe buffer, and it
    # must exit while this process is still inside a long unit of its own
    parent = os.getpid()
    original = verify.check_count_log_concavity
    exited = []

    def check(matroid):
        if os.getpid() != parent:
            time.sleep(0.05)  # so this process claims the other unit
            return dataclasses.replace(original(matroid), witness={"pad": "x" * 100_000})
        deadline = time.monotonic() + 5
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)
        exited.append(not multiprocessing.active_children())
        return original(matroid)

    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "check_count_log_concavity", check)
    report = run_campaign([K3, U24], CampaignConfig(theorems=(TAG_COUNT_LOG_CONCAVITY,),
                                                    workers=2))
    assert exited == [True]
    assert [c.witness == {"pad": "x" * 100_000} for c in report.checks].count(True) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(_AFFINITY_AT_START is None, reason="the platform has no affinity sets")
def test_every_process_runs_on_the_callers_unchanged_set(monkeypatch):
    # narrow this thread to the last CPU of its set (so the set differs
    # from the one it started with on a host of two CPUs or more), run a
    # workers=2 campaign while any change of a CPU set raises, and read
    # each check's process and real affinity set off its witness
    last = {max(_AFFINITY_AT_START)}
    original = verify.check_count_log_concavity

    def check(matroid):
        time.sleep(0.05)  # so both processes claim units
        result = original(matroid)
        return dataclasses.replace(
            result, witness={"cpus": sorted(_real_affinity(0)), "pid": os.getpid()})

    set_affinity = os.sched_setaffinity
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "check_count_log_concavity", check)
    set_affinity(0, last)
    try:
        monkeypatch.setattr(os, "sched_setaffinity", _refuse_affinity)
        report = run_campaign(generate_corpus("uniform,n<=3"),
                              CampaignConfig(theorems=(TAG_COUNT_LOG_CONCAVITY,), workers=2))
        assert _real_affinity(0) == last
    finally:
        set_affinity(0, _AFFINITY_AT_START)
    # both processes ran their units on the set the caller had
    assert len({c.witness["pid"] for c in report.checks}) == 2
    assert {tuple(c.witness["cpus"]) for c in report.checks} == {tuple(last)}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_editing_a_record_leaves_the_corpus_and_later_campaigns(monkeypatch, workers):
    _usable_cpus(monkeypatch, 2)
    corpus = [K3, make_linear(2, [[1, 0, 1], [0, 1, 1]])]
    members = [m.to_json() for m in corpus]
    config = CampaignConfig(seed=1, samples=1, workers=workers)
    report = run_campaign(corpus, config)
    expected = json.dumps(report.to_json(), sort_keys=True)
    # a unit's records share one matroid JSON dict
    shared = report.checks[0].inputs["matroid"]
    same_unit = [c for c in report.checks if c.inputs["matroid"] == members[0]]
    assert len(same_unit) > 1 and all(c.inputs["matroid"] is shared for c in same_unit)
    shared["edges"][0][0] = 99
    shared["vertices"] = 0
    assert [m.to_json() for m in corpus] == members
    assert json.dumps(run_campaign(corpus, config).to_json(), sort_keys=True) == expected
    # outside a unit each check builds a fresh one
    for matroid in corpus:
        assert check_count_log_concavity(matroid).inputs["matroid"] is not \
            check_count_log_concavity(matroid).inputs["matroid"]


def _scalar_dicts(check):
    """The exact scalar dicts of a record's q and w, each with its value."""
    objs = ([check.inputs["q"]] if "q" in check.inputs else []) + check.inputs.get("w", [])
    return [((obj["num"], obj["den"]), obj) for obj in objs]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_campaign_shares_one_dict_per_distinct_scalar(monkeypatch, workers):
    # every record of the campaign holds one dict per distinct exact
    # value: serially, and at workers=2, where the caller here claims no
    # unit, so a child runs both and writes them in one message
    _usable_cpus(monkeypatch, 2)
    caller = os.getpid()
    claim = verify._claim
    monkeypatch.setattr(verify, "_claim",
                        lambda claims: None if os.getpid() == caller else claim(claims))
    corpus = [K3, make_linear(2, [[1, 0, 1], [0, 1, 1]])]
    config = CampaignConfig(seed=1, samples=2, workers=workers)
    report = run_campaign(corpus, config)
    assert report.to_json() == run_campaign(corpus, dataclasses.replace(config, workers=1)) \
        .to_json()
    members = [m.to_json() for m in corpus]
    held = {}  # value -> {matroid index -> ids of the dicts that hold it}
    uses = 0
    for check in report.checks:
        mi = members.index(check.inputs["matroid"])
        for value, obj in _scalar_dicts(check):
            held.setdefault(value, {}).setdefault(mi, set()).add(id(obj))
            uses += 1
    # one dict per value within each unit, for many more uses than values
    assert all(len(ids) == 1 for per_unit in held.values() for ids in per_unit.values())
    assert uses > 2 * len(held)
    # and across the units: a value that both hold has one dict
    across = [per_unit[0] | per_unit[1] for per_unit in held.values() if len(per_unit) == 2]
    assert across and {len(ids) for ids in across} == {1}


def test_a_check_on_its_own_builds_fresh_dicts(monkeypatch):
    q, w = rat(1, 2), (rat(1), rat(1), rat(1), rat(1))
    first, second = check_one_positive(K3, q, w), check_one_positive(K3, q, w)
    assert first.inputs == second.inputs
    assert first.inputs["q"] is not second.inputs["q"]
    assert len({id(obj) for obj in first.inputs["w"]}) == 4
    # the block run_campaign opens shares the dicts of equal exact values,
    # an int and its Fraction alike, and never a float
    with shared_wire():
        assert scalar_to_json(rat(1, 2)) is scalar_to_json(Fraction(2, 4))
        # and distinct values with equal numerators hold one str
        assert scalar_to_json(rat(10**20 + 1, 3))["num"] is \
            scalar_to_json(rat(10**20 + 1, 7))["num"]
        assert scalar_to_json(1) is scalar_to_json(rat(1))
        assert scalar_to_json(0.5) == 0.5
        assert check_one_positive(K3, q, w).inputs["q"] is check_one_positive(K3, q, w).inputs["q"]
    # and its table lives only as long as the campaign, which returned or raised
    run_campaign([K3], CampaignConfig(theorems=("ulc",), samples=1))
    assert scalar_to_json(q) is not scalar_to_json(q)

    def broken(matroid, q, w):
        raise RuntimeError("stubbed check")

    monkeypatch.setattr(verify, "check_strata_ultra_log_concave", broken)
    with pytest.raises(RuntimeError, match="stubbed check"):
        run_campaign([K3], CampaignConfig(theorems=("ulc",), samples=1))
    assert scalar_to_json(q) == scalar_to_json(q)
    assert scalar_to_json(q) is not scalar_to_json(q)


def test_theorems_report_in_canonical_order():
    corpus = generate_corpus("uniform,n<=3;graphic,K3")
    shuffled = (TAG_LOG_CONCAVITY, TAG_STRATA_ULC, TAG_ONE_POSITIVE, TAG_DEGREE_TWO)
    report = run_campaign(corpus, CampaignConfig(theorems=shuffled, seed=2, samples=1))
    canonical = [t for t in ALL_THEOREMS if t in shuffled]
    assert report.campaign["theorems"] == canonical
    ordered = run_campaign(corpus, CampaignConfig(theorems=tuple(canonical), seed=2, samples=1))
    assert report.to_json() == ordered.to_json()
    seen = [c.theorem for c in report.checks]
    assert sorted(seen, key=ALL_THEOREMS.index) == seen


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


def test_campaign_under_the_benchmark_tracer(monkeypatch):
    # perfbench/tracing.py wraps names that potts_hodge.verify binds; a
    # name the checks stop importing would break it with an AttributeError.
    # Its counters must read the same at workers 1 and 2, as
    # perfbench/selftest.py requires; one matroid would run serially
    _usable_cpus(monkeypatch, 2)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import potts_hodge as ph

    corpus = generate_corpus("graphic,K3;uniform,n<=2")
    strata = CampaignConfig(theorems=("deg2", "ulc", "simplification"), seed=3, samples=2)
    for config, hessians in ((CampaignConfig(seed=1, samples=2), True), (strata, False)):
        expected = json.dumps(run_campaign(corpus, config).to_json(), sort_keys=True)
        snapshots = []
        for workers in (1, 2):
            tracer = tracing.Tracer(ph)
            try:
                with tracer.installed():
                    report = run_campaign(corpus, dataclasses.replace(config, workers=workers))
                snapshots.append(tracer.counters.snapshot())
            finally:
                tracer.close()
            assert json.dumps(report.to_json(), sort_keys=True) == expected
        counts = snapshots[0]
        assert snapshots[1] == counts
        assert counts["verify.check.calls"] == len(report.checks) > 0
        assert (counts["spectral.signature.calls"] > 0) == hessians
        assert counts["scalars.json.calls"] > 0
        assert counts["matroids.structure.calls"] >= 1
    # each matroid's work unit computes structure and the independent-set
    # counts once for all its deg2 and simplification checks, plus one
    # simplify, however many checks there are
    assert len(report.checks) > 3 * len(corpus)
    assert counts["matroids.structure.calls"] == 3 * len(corpus)


def test_benchmark_seeds_reproduce_their_pinned_reports(monkeypatch):
    # the benchmark rejects a run whose report moved from perfbench/pins.json;
    # seeds 0 and 19 of each workload, as perfbench/workloads.py builds them
    # (strata-parallel at its two workers), show such a move here first
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    pins = json.loads((bench / "pins.json").read_text(encoding="utf-8"))
    import potts_hodge as ph

    for name, workload in workloads.WORKLOADS.items():
        corpus = workloads.build_corpus(ph, workload)
        for seed in (0, 19):
            report = run_campaign(corpus, workloads.campaign_config(ph, workload, seed))
            text = json.dumps(report.to_json(), sort_keys=True, indent=2)
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pins[name][str(seed)], \
                (name, seed)


def test_a_work_unit_computes_structure_once(monkeypatch):
    # the simplification check hands simplify the unit's cached structure,
    # so one structure pass serves every deg2 and simplification check of
    # a matroid: wrapped where matroids.simplify and verify look it up
    from potts_hodge import matroids

    calls = []
    real = matroids.structure

    def counted(matroid):
        calls.append(matroid)
        return real(matroid)

    monkeypatch.setattr(matroids, "structure", counted)
    monkeypatch.setattr(verify, "structure", counted)
    corpus = generate_corpus("graphic,K3;uniform,n<=4")
    report = run_campaign(corpus, CampaignConfig(theorems=("deg2", "simplification"), samples=2))
    assert len(report.checks) > 2 * len(corpus)
    assert len(calls) == len(corpus)


def test_the_package_imports_only_the_standard_library():
    # the runtime has no dependency: every import of every module is the
    # standard library's or the package's own
    package = Path(verify.__file__).resolve().parent
    foreign = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.partition(".")[0] not in {*sys.stdlib_module_names, package.name}]
    assert foreign == []


def test_no_module_imports_another_modules_private_names():
    # a module's leading-underscore names are its own: a relative import
    # of one from another module of the package is a leak of its format
    package = Path(verify.__file__).resolve().parent
    leaks = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                leaks += [(path.name, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    assert leaks == []


def test_sampling_and_corpus_import_nothing_from_potts():
    # sampling and corpus build a campaign's inputs; the evaluators that
    # read those inputs are below neither of them in the import graph
    package = Path(verify.__file__).resolve().parent
    found = []
    for name in ("sampling.py", "corpus.py"):
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [(name, m) for m in modules if m.split(".")[-1] == "potts"]
    assert found == []


def test_exact_library_never_loads_numpy():
    # importing the package, running a campaign and printing a spectrum in
    # both modes and formats, in a fresh interpreter, leaves numpy out
    code = (
        "import json, sys\n"
        "from potts_hodge import CampaignConfig, generate_corpus, run_campaign\n"
        "from potts_hodge.cli import main\n"
        "corpus = generate_corpus('graphic,K3')\n"
        "report = run_campaign(corpus, CampaignConfig(samples=1))\n"
        "assert report.checks and report.ok\n"
        "k3 = json.dumps(corpus[0].to_json())\n"
        "for flags in ([], ['--json'], ['--mode', 'float'], ['--mode', 'float', '--json']):\n"
        "    assert main(['spectrum', '--matroid', k3, '--q', '1/2', '--w', '1,2,3,4', *flags]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.count("signature: 1 positive, 3 negative, 0 zero") == 2
    assert done.stdout.splitlines()[-1] == "[]"


def test_campaign_rejects_negative_samples_and_workers(monkeypatch):
    # run_campaign is the gate for its config: a refused field raises
    # before any unit runs
    def reached(units, workers):
        raise AssertionError("a unit ran on a refused config")

    monkeypatch.setattr(verify, "_execute", reached)
    corpus = generate_corpus("graphic,K3")
    refused = [{"samples": -1}, {"workers": 0}, {"workers": -5},
               {"seed": 1.5}, {"seed": True}, {"samples": True}, {"samples": 2.5},
               {"workers": 2.5}, {"workers": True},
               {"q_grid": (0,)}, {"q_grid": (0.5,)}, {"q_grid": ("1/2",)},
               {"corpus_label": 7}, {"corpus_label": None}, {"theorems": ()}]
    for fields in refused:
        with pytest.raises(InvalidParametersError):
            run_campaign(corpus, CampaignConfig(**fields))


IDENTITY2 = [[1, 0], [0, 1]]


@pytest.mark.parametrize("call, error", [
    (lambda: exact_rank([[1, 2], [3]]), InvalidParametersError),
    (lambda: exact_nullspace([[1, 2], [3]]), InvalidParametersError),
    (lambda: bilinear((1,), IDENTITY2, (1, 1)), InvalidParametersError),
    (lambda: mat_vec(IDENTITY2, (1,)), InvalidParametersError),
    (lambda: contract(make_uniform(1, 2), True), InvalidParametersError),
    (lambda: VerificationReport.from_json({"campaign": {}, "checks": 5, "summary": {}}),
     ParseError),
    (lambda: VerificationReport.from_json({"campaign": {}, "checks": [], "summary": 5}),
     ParseError),
    (lambda: VerificationReport.from_json({"campaign": 3, "checks": [], "summary": {}}),
     ParseError),
    (lambda: CheckResult.from_json({"theorem": "qHR", "inputs": {}, "verdict": "pass",
                                    "witness": 5}), ParseError),
    (lambda: one_positive_equivalence_check(IDENTITY2, trials=2.5), InvalidParametersError),
    (lambda: one_positive_equivalence_check(IDENTITY2, trials=-3), InvalidParametersError),
    (lambda: replay_check({"theorem": ["qHR"], "inputs": {}, "verdict": "pass"}), ParseError),
    (lambda: replay_check(CheckResult(["qHR"], {}, "pass")), ParseError),
    (lambda: replay_check({"theorem": "qHR", "inputs": {"aspect": ["x"]}, "verdict": "pass"}),
     ParseError),
    (lambda: VerificationReport.from_json({"campaign": {}, "checks": [], "summary": {},
                                           "timing_seconds": "soon"}), ParseError),
], ids=["rank-ragged", "nullspace-ragged", "bilinear-length", "mat_vec-length", "contract-bool",
        "report-checks", "report-summary", "report-campaign", "check-witness",
        "trials-float", "trials-negative", "check-theorem", "record-theorem", "replay-aspect",
        "report-timing"])
def test_public_entry_points_refuse_malformed_input(call, error):
    # ragged rows, a vector of the wrong length, a bool for a subset, a
    # non-list of checks, a report's campaign or summary or a record's
    # witness that is not an object, a non-integer or negative trial
    # count, a record's theorem (stored or in a CheckResult) or aspect
    # that is not a string and a report's timing that is neither a number
    # nor null raise the package's own errors, not IndexError or
    # TypeError, and never return a result
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("workers, cpus, cap", [
    # cpus: the machine's count, on a platform without sched_getaffinity
    (5000, 3, 3),     # capped at the core count
    (5000, 64, 7),    # capped at the unit (matroid) count
    (2, 64, 2),
    (5000, 1, None),  # one core: serial, no child process at all
    # cpus: (the machine's count, the size of the affinity set, its last
    # CPUs)
    (5000, (64, 1), None),  # taskset -c 63 on a large machine: serial
    (5000, (64, 3), 3),     # capped at the affinity set, not the machine
    (2, (64, 3), 2),        # two of the set's three CPUs
])
def test_pool_size_is_capped(monkeypatch, workers, cpus, cap):
    started, ran = [], []

    class InProcessChild:
        """Stands in for a child process: takes a made-up pid and claims
        units in this process when started; starts nothing."""

        def __init__(self, target, args):
            self._target, self._args = target, args
            self.pid = None
            self.exitcode = 0

        def start(self):
            self.pid = 10**6 + len(started)
            started.append(self.pid)
            self._target(*self._args)

        def is_alive(self):
            return False

        def join(self):
            pass

    original = verify.check_count_log_concavity

    def check(matroid):
        ran.append(matroid.to_json())
        return original(matroid)

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", InProcessChild)
    monkeypatch.setattr(verify, "check_count_log_concavity", check)
    # no process's CPU set changes, whatever the cap
    monkeypatch.setattr(os, "sched_setaffinity", _refuse_affinity, raising=False)
    machine, usable = cpus if isinstance(cpus, tuple) else (cpus, None)
    monkeypatch.setattr(os, "cpu_count", lambda: machine)
    if usable is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(machine - usable, machine)),
                            raising=False)
    corpus = generate_corpus("uniform,n<=3")  # 7 matroids: 7 work units
    members = [m.to_json() for m in corpus]
    theorems = (TAG_COUNT_LOG_CONCAVITY,)
    report = run_campaign(corpus, CampaignConfig(theorems=theorems, workers=workers))
    # cap - 1 children beside this process; every unit runs once, claimed
    # costliest first: the four n = 3 members (3..6), then the three n = 2
    # ones (0..2) (the first stand-in child claims them all); serially in
    # corpus order
    assert len(started) == (0 if cap is None else cap - 1)
    by_cost = [3, 4, 5, 6, 0, 1, 2]
    assert [members.index(m) for m in ran] == (list(range(7)) if cap is None else by_cost)
    ran.clear()
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
    with pytest.raises(ParseError, match="check record must be an object, got list"):
        CheckResult.from_json([report.checks[0].to_json()])


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
    # a stored scalar is a {"num", "den"} object: a bare number or bool is
    # refused when the record is read, not by the check it feeds
    record = check_one_positive(U12, rat(1), ONES3).to_json()
    for q in (1, 0.5, True, "1", {"num": 1.5, "den": "1"}, {"num": "1", "den": "0"}):
        with pytest.raises(ParseError):
            replay_check(dict(record, inputs=dict(record["inputs"], q=q)))


@pytest.mark.parametrize("key", ["w", "c", "alpha"])
def test_replay_check_refuses_a_non_list_vector_or_multi_index(key):
    record = check_derivative_one_positive(K3, (1, 3, 3, 1), rat(1, 2),
                                           (0, 0, 0, 0), ONES4).to_json()
    assert replay_check(record).to_json() == record
    for bad in (5, None, {"num": "1", "den": "1"}):
        with pytest.raises(ParseError):
            replay_check(dict(record, inputs=dict(record["inputs"], **{key: bad})))


@pytest.mark.parametrize("drop", [None, "w", "matroid"])
def test_replay_check_refuses_inputs_that_are_not_a_full_object(drop):
    # inputs that are not an object, or that lack a key of the record's
    # CHECKS row or the matroid
    record = check_one_positive(U12, rat(1), ONES3).to_json()
    if drop is None:
        bad = [1]
    else:
        bad = {k: v for k, v in record["inputs"].items() if k != drop}
    with pytest.raises(ParseError):
        replay_check(dict(record, inputs=bad))


def test_sampled_points_are_positive():
    for j in range(10):
        w = sample_positive_point(child_rng(0, 99, j), 5)
        assert len(w) == 5
        assert all(x > 0 for x in w)
    # the sampled coefficient sequences are strictly log-concave integers
    for n in range(9):
        for j in range(10):
            c = sampling.sample_log_concave_coeffs(child_rng(0, 98, n, j), n)
            assert len(c) == n + 1 and log_concave_integers(c)
    # the stress points of an empty ground set are the one empty point
    assert sampling.adversarial_points(0) == [()]


def test_distinct_alphas_returns_at_most_count():
    assert sampling.distinct_alphas(1, 4, 0) == []
    assert sampling.distinct_alphas(1, 4, 1) == [(0, 0, 0, 0, 0)]
    # n = 3 admits five indices of degree >= 2 (zero, e_0 and each inner
    # e_i), n = 2 only zero, and n = 1 none, all fewer than asked for
    alphas = sampling.distinct_alphas(1, 3, 10)
    assert alphas[0] == (0, 0, 0, 0)
    assert sorted(alphas) == sorted([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 0, 1)])
    assert sampling.distinct_alphas(1, 2, 5) == [(0, 0, 0)]
    assert sampling.distinct_alphas(1, 1, 3) == []


def test_sampler_draws_are_random_randint_draws():
    # the samplers draw their ints in one call each; a seed gives the ints
    # Random.randint gives it, so campaigns keep their pinned reports
    for seed in range(40):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for low, high in [(1, 100), (-9, 9), (1, 9), (3, 8), (0, 0), (0, 1), (1, 2 ** 40)]:
            assert ([sampling._randint(ours, low, high) for _ in range(25)]
                    == [stdlib.randint(low, high) for _ in range(25)])


def test_sign_mixed_samples_are_the_rational_draws():
    # the numerators over SIGN_MIXED_DEN are the coordinates num/den drawn
    # num first, each num uniform in [-9, 9] and den in [1, 9]
    for j in range(30):
        rng, reference = child_rng(0, 7, j), child_rng(0, 7, j)
        w = sample_sign_mixed_point(rng, 6)
        while True:
            drawn = [Fraction(reference.randint(-9, 9), reference.randint(1, 9)) for _ in range(6)]
            if any(drawn):
                break
        assert w == tuple(drawn)
        assert all(type(x) is Fraction for x in w)
