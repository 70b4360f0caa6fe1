"""Acceptance gate: ten end-to-end criteria over the default corpus.

Each criterion is one test function, so the verbose pytest line is its
pass/fail line; a matching summary line is printed for log scraping.
Exact arithmetic throughout except where a float tolerance is stated.
"""

import random

from potts_hodge import (
    generate_corpus,
    hessian,
    kernel_contains,
    kernel_identity_check,
    one_positive_equivalence_check,
    make_uniform,
    rat,
    structure,
)
from potts_hodge.matrices import mat_vec
from potts_hodge.potts import dependent_mass, f_limit_residual
from potts_hodge.sampling import (
    child_rng,
    default_q_grid,
    distinct_alphas,
    sample_log_concave_coeffs,
    sample_positive_point,
    sample_sign_mixed_point,
)
from potts_hodge.spectral import euler_hessian_residual
from potts_hodge.verify import (
    FAIL,
    PASS,
    TAG_DEGREE_TWO,
    TAG_DERIVATIVE_ONE_POSITIVE,
    TAG_LOG_CONCAVITY,
    TAG_ONE_POSITIVE,
    TAG_STRATA_ULC,
    CampaignConfig,
    binomial_dominance,
    check_count_log_concavity,
    check_simplification_bound,
    dependent_mass_ratio,
    log_slice_second_difference,
    run_campaign,
)

CORPUS = generate_corpus()


def campaign(tag, samples):
    """One theorem's campaign over the default corpus at seed 0, run at two
    workers: counts and verdicts are the same at any worker count, so the
    criteria also exercise the parallel path."""
    report = run_campaign(CORPUS, CampaignConfig(theorems=(tag,), seed=0, samples=samples,
                                                 workers=2))
    return report.checks, report.summary


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_hessian_one_positive():
    # corpus x q-grid x (3 deterministic stress points + 20 seeded
    # positive points), all exactly one positive
    _, s = campaign(TAG_ONE_POSITIVE, 20)
    expected = len(CORPUS) * len(default_q_grid()) * 23
    ok = s["total"] == expected and s[PASS] == expected
    report(1, "one-positive Hessian", ok,
           f"{s[PASS]}/{s['total']} pass, expected {expected}")


def test_criterion_02_derivative_one_positive():
    # corpus x 5 log-concave coefficient sets x 10 admissible multi-indices
    # x 10 (q, w) pairs; nondegenerate one-positive signature on the active
    # variables, which is the full (1, n, 0) form whenever no inner variable
    # was differentiated
    checks, s = campaign(TAG_DERIVATIVE_ONE_POSITIVE, 10)
    full_form = 0
    for c in checks:
        if c.verdict != PASS:
            continue
        alpha = c.inputs["alpha"]
        if all(a == 0 for a in alpha[1:]):
            n = len(alpha) - 1
            if c.witness["active"] != list(range(n + 1)):
                report(2, "derivative one-positive", False,
                       f"full alpha support mismatch: {c.witness}")
            full_form += 1
    ok = s[FAIL] == 0 and s[PASS] == s["total"] and s["total"] >= 40000
    report(2, "derivative one-positive", ok,
           f"{s[PASS]}/{s['total']} pass, {full_form} in literal (1, n, 0) form")


def test_criterion_03_equivalence_agreement():
    # 200 seeded symmetric integer matrices (dims 2..8) with at least one
    # positive eigenvalue; the three equivalence statements agree on all,
    # statements 2/3 sampled over 100 exact vector trials
    rng = random.Random(20250815)
    agree = 0
    applicable = 0
    for idx in range(200):
        dim = rng.randint(2, 8)
        rows = [[rat(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                v = rat(rng.randint(-4, 4))
                rows[i][j] = rows[j][i] = v
        rep = one_positive_equivalence_check(rows, trials=100, seed=idx)
        if not rep.applicable:
            # no positive eigenvalue: negating flips the spectrum
            rows = [[-x for x in row] for row in rows]
            rep = one_positive_equivalence_check(rows, trials=100, seed=idx)
        if not rep.applicable:  # the zero matrix; give it a positive axis
            rows[0][0] = rat(1)
            rep = one_positive_equivalence_check(rows, trials=100, seed=idx)
        applicable += 1
        if rep.agree:
            agree += 1
    ok = applicable == 200 and agree == 200
    report(3, "three-statement equivalence", ok, f"{agree}/200 agree")


def test_criterion_04_degree_two():
    # per matroid: 100 seeded (c, q, w) triples checking the exact
    # parallel-class decomposition and the strict quadratic bound at
    # nonzero w (half the samples sign-mixed), plus 100 constructed points
    # on the Z[1] = 0 plane checking Z[2] < 0
    assert any(structure(m).loops for m in CORPUS)
    assert any(len(cls) > 1 for m in CORPUS
               for cls in structure(m).parallel_classes)
    checks, s = campaign(TAG_DEGREE_TWO, 100)
    zero_line = sum(1 for c in checks if c.inputs.get("aspect") == "zero-line")
    routed = sum(1 for c in checks if "route-match" in c.annotations)
    expected = len(CORPUS) * 200
    ok = (s["total"] == expected and s[PASS] == expected
          and zero_line == len(CORPUS) * 100 and routed == len(CORPUS) * 100)
    report(4, "quadratic stratum bounds", ok,
           f"{s[PASS]}/{s['total']} pass, {routed} exact decompositions, "
           f"{zero_line} zero-line points")


def test_criterion_05_euler_and_kernel_identities():
    # exact zero Euler residual on 100 seeded degree >= 3 inputs; kernel
    # equality on 50 seeded inputs meeting the one-positive hypothesis;
    # and the degenerate all-ones quadratic with its known kernel vector
    qs = default_q_grid()
    pool = [m for m in CORPUS if m.n >= 3]
    zero_residuals = 0
    for idx in range(100):
        m = pool[idx % len(pool)]
        rng = child_rng(777, 51, idx)
        alphas = distinct_alphas(rng.randrange(2 ** 32), m.n, 4, min_degree=3)
        alpha = alphas[idx % len(alphas)]
        c = sample_log_concave_coeffs(rng, m.n)
        w = sample_positive_point(rng, m.n + 1)
        if euler_hessian_residual(m, c, qs[idx % len(qs)], alpha, w) == 0:
            zero_residuals += 1
    kernels_equal = 0
    hypothesis_met = 0
    for idx in range(50):
        m = pool[(7 * idx) % len(pool)]
        rng = child_rng(777, 52, idx)
        alphas = distinct_alphas(rng.randrange(2 ** 32), m.n, 4, min_degree=3)
        alpha = alphas[idx % len(alphas)]
        c = sample_log_concave_coeffs(rng, m.n)
        w = sample_positive_point(rng, m.n + 1)
        rep = kernel_identity_check(m, c, qs[idx % len(qs)], alpha, w)
        if rep.hypothesis_ok:
            hypothesis_met += 1
            if rep.kernels_equal:
                kernels_equal += 1

    u12 = make_uniform(1, 2)
    ones = (rat(1), rat(1), rat(1))
    rep = kernel_identity_check(u12, (1, 1, 1), rat(1), (0, 0, 0), ones)
    known = (rat(1), rat(-1), rat(-1))
    h = hessian(u12, (1, 1, 1), rat(1), (0, 0, 0), ones)
    singular_ok = (kernel_contains(rep.kernel_basis, known)
                   and all(x == 0 for x in mat_vec(h, known))
                   and rep.kernel_dim == 1
                   and not rep.hypothesis_ok)

    ok = zero_residuals == 100 and hypothesis_met == 50 and kernels_equal == 50 \
        and singular_ok
    report(5, "Euler and kernel identities", ok,
           f"{zero_residuals}/100 zero residuals, {kernels_equal}/50 kernel "
           f"equalities, degenerate case kernel contains (1,-1,-1)")


def test_criterion_06_ultra_log_concavity():
    # corpus x q-grid x 20 boundary-inclusive nonnegative points, plus the
    # q = 1 all-ones reference point where every interior index is tight
    checks, s = campaign(TAG_STRATA_ULC, 20)
    references = checks[:: 21]  # one reference + 20 samples per matroid
    tight = sum(1 for c in references if "zero-slack-everywhere" in c.annotations)
    ok = (s[FAIL] == 0 and s["total"] == len(CORPUS) * 21
          and s[PASS] == s["total"] and tight == len(CORPUS))
    report(6, "ultra log-concave strata", ok,
           f"{s[PASS]}/{s['total']} pass, {tight}/{len(CORPUS)} tight references")


def test_criterion_07_count_log_concavity():
    # every corpus matroid: dual-route counts agree and the binomially
    # weighted inequality holds, with equality exactly at saturation
    results = [check_count_log_concavity(m) for m in CORPUS]
    fails = [r for r in results if r.verdict == FAIL]
    routed = sum(1 for r in results if "route-match" in r.annotations)
    # the full uniform matroids saturate every index: equality throughout
    equalities = 0
    for n in range(2, 8):
        res = check_count_log_concavity(make_uniform(n, n))
        assert res.verdict == PASS
        assert all(f"equality-at-{k}" in res.annotations for k in range(1, n))
        equalities += 1
    ok = not fails and routed == len(CORPUS) and equalities == 6
    report(7, "count log-concavity", ok,
           f"{len(results) - len(fails)}/{len(results)} pass, "
           f"{routed} route matches, saturation spot checks pass")


def test_criterion_08_limit_convergence():
    # residual of the rescaled stratum against its independent-set limit:
    # bounded by q times the dependent mass at q in {1e-2, 1e-4, 1e-6},
    # with successive residuals shrinking like q when the leading
    # dependent stratum has nullity one
    grid = (rat(1, 100), rat(1, 10 ** 4), rat(1, 10 ** 6))
    inputs = []
    for mi, m in enumerate(CORPUS):
        if len(inputs) == 50:
            break
        w = sample_positive_point(child_rng(888, 81, mi), m.n)
        for k in range(1, m.n + 1):
            if dependent_mass(m, k, w, nullity=1) > 0:
                inputs.append((m, k, w))
                break
    assert len(inputs) == 50
    bounded = 0
    ordered = 0
    for m, k, w in inputs:
        residuals = []
        good = True
        for q in grid:
            resid = f_limit_residual(m, k, w, q)
            if resid > q * dependent_mass(m, k, w):
                good = False
            if not rat(1, 2) <= dependent_mass_ratio(m, k, w, q) <= 2:
                good = False
            residuals.append(resid)
        if good:
            bounded += 1
        # successive q values shrink by 100, residuals should track that
        if all(rat(1, 2) * 100 <= residuals[i] / residuals[i + 1] <= 2 * 100
               for i in range(2)):
            ordered += 1
    ok = bounded == 50 and ordered == 50
    report(8, "stratum limit convergence", ok,
           f"{bounded}/50 within the mass bound, {ordered}/50 first-order decay")


def test_criterion_09_simplification_bound():
    # sharper count inequality through the simplification on the corpus,
    # and the pure binomial dominance for every 1 <= ell <= n <= 12
    results = [check_simplification_bound(m) for m in CORPUS]
    fails = [r for r in results if r.verdict == FAIL]
    routed = sum(1 for r in results if "class-size-route-match" in r.annotations)
    sweep_ok = all(
        binomial_dominance(ell, n, m)
        for n in range(1, 13)
        for ell in range(1, n + 1)
        for m in range(1, ell)
    )
    ok = not fails and routed == len(CORPUS) and sweep_ok
    report(9, "simplification bound", ok,
           f"{len(results) - len(fails)}/{len(results)} pass, "
           f"binomial sweep to n=12 {'holds' if sweep_ok else 'fails'}")


def test_criterion_10_log_concavity():
    # curvature matrix Z*H - grad grad^T has no positive eigenvalue on
    # corpus x q-grid x 20 positive points with the exact ray identity;
    # float second-difference slices confirm within 1e-8
    checks, s = campaign(TAG_LOG_CONCAVITY, 20)
    rays = sum(1 for c in checks if "ray-identity" in c.annotations)
    slice_ok = 0
    for idx in range(20):
        m = CORPUS[(11 * idx) % len(CORPUS)]
        rng = child_rng(999, 101, idx)
        c = [float(x) for x in sample_log_concave_coeffs(rng, m.n)]
        q = float(default_q_grid()[idx % 5])
        w = [float(x) for x in sample_positive_point(rng, m.n + 1)]
        direction = [float(x) for x in sample_sign_mixed_point(rng, m.n + 1)]
        if log_slice_second_difference(m, c, q, w, direction) <= 1e-8:
            slice_ok += 1
    ok = (s[PASS] == s["total"] == len(CORPUS) * 20
          and rays == s["total"] and slice_ok == 20)
    report(10, "log-concavity of the partition function", ok,
           f"{s[PASS]}/{s['total']} pass, {rays} exact rays, "
           f"{slice_ok}/20 float slices within 1e-8")
