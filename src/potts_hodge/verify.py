"""Verification campaigns: randomized and deterministic theorem checks.

Each check takes explicit inputs, re-derives both sides of one claimed
property in exact arithmetic, and reports a CheckResult with one of four
verdicts:

  pass            the claim held on this input
  fail            the claim was violated (witness carries the numbers)
  vacuous         the claim quantifies over an empty range here
  not-applicable  a hypothesis is not met (q > 1, degree too low, ...)

Each theorem has one task generator that draws seeded inputs for one
corpus member; run_campaign executes the tasks of every requested theorem
in one batch, optionally across processes.  One table (CHECKS) maps a
theorem and aspect to its check and input keys for campaigns, replay and
the CLI.  Reports are plain data: serializing with sort_keys produces
byte-identical output for identical (corpus, seed, samples), independent
of the worker count.

Theorem tags used on the wire:

  qHR             Hessian of the all-ones weighted polynomial has exactly
                  one positive eigenvalue at positive points (0 < q <= 1)
  cqHR            same for derivatives under strictly log-concave
                  coefficients, nondegenerate on the active variables
  deg2            quadratic-stratum bounds and the two-route evaluation
                  of Z[1], Z[2] through parallel-class data
  ulc             ultra-log-concavity of the stratum sequence at
                  nonnegative points
  mason           count-sequence log-concavity with binomial weights,
                  with its equality characterization
  simplification  the sharper count bound through the simplification,
                  plus the class-size reweighting identity
  logconcavity    concavity of log Z_c on the positive orthant
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import InvalidParametersError, ParseError
from .matrices import SymMatrix
from .matroids import from_json as matroid_from_json
from .matroids import independent_set_counts, simplify, structure
from .potts import (
    dependent_mass,
    derivative_degree,
    elementary_symmetric,
    f_all,
    hessian_numerators,
    is_log_concave,
    is_strictly_log_concave,
    second_order_numerators,
    validate_alpha,
    validate_coeffs,
    z_weighted_eval,
    zk_all,
)
# not called here, but perfbench/tracing.py wraps these names on this module
from .potts import gradient, hessian  # noqa: F401
from .scalars import (
    RAT_ONE,
    as_rational,
    as_rationals,
    from_float,
    rat,
    scalar_from_json,
    scalar_to_json,
    to_float,
    vector_from_json,
    vector_to_json,
)
from .sampling import (
    adversarial_points,
    child_rng,
    default_c_ratios,
    default_q_grid,
    distinct_alphas,
    log_concave_coeffs,
    sample_log_concave_coeffs,
    sample_nonneg_point,
    sample_positive_point,
    sample_sign_mixed_point,
)
from .spectral import signature

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
NOT_APPLICABLE = "not-applicable"
VERDICTS = (PASS, FAIL, VACUOUS, NOT_APPLICABLE)

TAG_ONE_POSITIVE = "qHR"
TAG_DERIVATIVE_ONE_POSITIVE = "cqHR"
TAG_DEGREE_TWO = "deg2"
TAG_STRATA_ULC = "ulc"
TAG_COUNT_LOG_CONCAVITY = "mason"
TAG_SIMPLIFICATION = "simplification"
TAG_LOG_CONCAVITY = "logconcavity"
ALL_THEOREMS = (
    TAG_ONE_POSITIVE,
    TAG_DERIVATIVE_ONE_POSITIVE,
    TAG_DEGREE_TWO,
    TAG_STRATA_ULC,
    TAG_COUNT_LOG_CONCAVITY,
    TAG_SIMPLIFICATION,
    TAG_LOG_CONCAVITY,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single theorem check on one input tuple."""

    theorem: str
    inputs: dict
    verdict: str
    witness: dict | None = None

    @property
    def annotations(self):
        if self.witness and "annotations" in self.witness:
            return tuple(self.witness["annotations"])
        return ()

    def to_json(self):
        return {
            "theorem": self.theorem,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "witness": self.witness,
        }

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict):
            raise ParseError(f"check record must be an object, got {type(obj).__name__}")
        try:
            verdict = obj["verdict"]
            if verdict not in VERDICTS:
                raise ParseError(f"unknown verdict {verdict!r}")
            return CheckResult(theorem=obj["theorem"], inputs=obj["inputs"],
                               verdict=verdict, witness=obj.get("witness"))
        except KeyError as exc:
            raise ParseError(f"check record is missing field {exc}") from exc


@dataclass(frozen=True)
class VerificationReport:
    """A campaign's checks plus aggregate counts.

    timing_seconds is measured wall time; it is excluded from to_json unless
    explicitly requested, so the default serialization stays byte-stable.
    """

    campaign: dict
    checks: tuple
    summary: dict
    timing_seconds: float | None = field(default=None, compare=False)

    @property
    def ok(self):
        return self.summary.get(FAIL, 0) == 0

    def to_json(self, include_timing=False):
        out = {
            "campaign": self.campaign,
            "checks": [c.to_json() for c in self.checks],
            "summary": self.summary,
        }
        if include_timing and self.timing_seconds is not None:
            out["timing_seconds"] = self.timing_seconds
        return out

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict):
            raise ParseError(f"report must be an object, got {type(obj).__name__}")
        try:
            checks = tuple(CheckResult.from_json(c) for c in obj["checks"])
            return VerificationReport(campaign=obj["campaign"], checks=checks,
                                      summary=obj["summary"],
                                      timing_seconds=obj.get("timing_seconds"))
        except KeyError as exc:
            raise ParseError(f"report is missing field {exc}") from exc


def summarize(checks):
    counts = {v: 0 for v in VERDICTS}
    by_theorem = {}
    for c in checks:
        counts[c.verdict] += 1
        per = by_theorem.setdefault(c.theorem, {v: 0 for v in VERDICTS})
        per[c.verdict] += 1
    out = {"total": len(checks)}
    out.update(counts)
    out["by_theorem"] = by_theorem
    return out


def _q_in_range(q):
    """The theorems quantify over 0 < q <= 1; reject q > 1 as out of scope."""
    return q <= 1


def _ones(length):
    return tuple([RAT_ONE] * length)


def _sig_list(sig):
    return [sig.n_pos, sig.n_neg, sig.n_zero]


def _matroid_inputs(matroid, **extra):
    out = {"matroid": matroid.to_json()}
    out.update(extra)
    return out


# ---------------------------------------------------------------- checks


def check_one_positive(matroid, q, w):
    """Hessian of Z_c with all-ones coefficients at a positive point must
    have exactly one positive eigenvalue (degenerate directions allowed)."""
    n = matroid.n
    qv = as_rational(q)
    wv = as_rationals(w)
    inputs = _matroid_inputs(matroid, q=scalar_to_json(qv), w=vector_to_json(wv))
    if n < 2:
        return CheckResult(TAG_ONE_POSITIVE, inputs, NOT_APPLICABLE,
                           {"annotations": ["degree-below-two"]})
    if not _q_in_range(qv):
        return CheckResult(TAG_ONE_POSITIVE, inputs, NOT_APPLICABLE,
                           {"annotations": ["q-above-one"]})
    if len(wv) != n + 1 or any(x <= 0 for x in wv):
        raise InvalidParametersError(f"w must be a positive point of length {n + 1}")
    rows, _ = hessian_numerators(matroid, _ones(n + 1), qv, [0] * (n + 1), wv)
    sig = signature(SymMatrix(rows))
    notes = []
    if sig.n_zero:
        notes.append("singular-hessian")
    witness = {"signature": _sig_list(sig)}
    if notes:
        witness["annotations"] = notes
    verdict = PASS if sig.n_pos == 1 else FAIL
    return CheckResult(TAG_ONE_POSITIVE, inputs, verdict, witness)


def check_derivative_one_positive(matroid, c, q, alpha, w):
    """Hessian of a derivative of Z_c under strictly log-concave c: on the
    active variables (index 0 plus the undifferentiated inner ones) the
    signature must be exactly (1, actives - 1, 0)."""
    n = matroid.n
    cv = validate_coeffs(c, n)
    if not is_strictly_log_concave(cv):
        raise InvalidParametersError("coefficient sequence must be strictly log-concave")
    qv = as_rational(q)
    wv = as_rationals(w)
    alpha = validate_alpha(alpha, n)
    inputs = _matroid_inputs(matroid, c=vector_to_json(cv), q=scalar_to_json(qv),
                             alpha=list(alpha), w=vector_to_json(wv))
    if not _q_in_range(qv):
        return CheckResult(TAG_DERIVATIVE_ONE_POSITIVE, inputs, NOT_APPLICABLE,
                           {"annotations": ["q-above-one"]})
    if len(wv) != n + 1 or any(x <= 0 for x in wv):
        raise InvalidParametersError(f"w must be a positive point of length {n + 1}")
    deg = derivative_degree(matroid, alpha)
    if deg is None or deg < 2:
        return CheckResult(TAG_DERIVATIVE_ONE_POSITIVE, inputs, NOT_APPLICABLE,
                           {"annotations": ["degree-below-two"]})
    active = [0] + [i for i in range(1, n + 1) if alpha[i] == 0]
    rows, _ = hessian_numerators(matroid, cv, qv, alpha, wv)
    sig = signature(SymMatrix(tuple(tuple(rows[i][j] for j in active) for i in active)))
    witness = {"signature": _sig_list(sig), "active": active}
    expected = sig.n_pos == 1 and sig.n_zero == 0 and sig.n_neg == len(active) - 1
    return CheckResult(TAG_DERIVATIVE_ONE_POSITIVE, inputs, PASS if expected else FAIL, witness)


def _singleton_q_weights(matroid, q, w):
    """y_i = q^(-rk({i})) w_i: loop weights pass through, others divide by q."""
    qinv = RAT_ONE / q
    return tuple(w[i] * (RAT_ONE if matroid.ranks[1 << i] == 0 else qinv)
                 for i in range(matroid.n))


def check_degree_two(matroid, c, q, w):
    """Quadratic-stratum checks at a nonzero inner point (signs allowed).

    Route equality: Z[1] and Z[2] from subset enumeration must match the
    parallel-class form e_1(y) and e_2(y) - (1-q) * sum over classes of
    e_2(y restricted to the class), with y_i = q^(-rk({i})) w_i.

    Inequality: Z[1]^2 > 2 (c_0 c_2 / c_1^2) (n / (n-1)) Z[2] for every
    w != 0; the coefficient ratio is below one by strict log-concavity.
    At q = 1 the stronger coefficient-free bound
    Z[1]^2 >= 2 (n/(n-1)) e_2(y) is also confirmed (the classical mean
    inequality, valid for arbitrary signs).
    """
    n = matroid.n
    cv = validate_coeffs(c, n)
    if not is_strictly_log_concave(cv):
        raise InvalidParametersError("coefficient sequence must be strictly log-concave")
    qv = as_rational(q)
    wv = as_rationals(w)
    inputs = _matroid_inputs(matroid, c=vector_to_json(cv), q=scalar_to_json(qv),
                             w=vector_to_json(wv), aspect="positive-point")
    if n < 2:
        return CheckResult(TAG_DEGREE_TWO, inputs, NOT_APPLICABLE,
                           {"annotations": ["degree-below-two"]})
    t = cv[0] * cv[2] / (cv[1] * cv[1])
    if not _q_in_range(qv):
        return CheckResult(TAG_DEGREE_TWO, inputs, NOT_APPLICABLE,
                           {"annotations": ["q-above-one"]})
    if len(wv) != n:
        raise InvalidParametersError(f"w must have length {n}")
    if all(x == 0 for x in wv):
        raise InvalidParametersError("w must be nonzero")
    strata = zk_all(matroid, qv, wv)
    z1, z2 = strata[1], strata[2]
    y = _singleton_q_weights(matroid, qv, wv)
    all_idx = range(1, n + 1)
    e1 = elementary_symmetric(all_idx, 1, y)
    e2 = elementary_symmetric(all_idx, 2, y)
    correction = sum(
        (elementary_symmetric(sorted(cls), 2, y) for cls in structure(matroid).parallel_classes
         if len(cls) >= 2),
        start=rat(0),
    )
    z2_routed = e2 - (1 - qv) * correction
    routes_match = z1 == e1 and z2 == z2_routed
    bound = 2 * t * rat(n, n - 1) * z2
    strict_ok = z1 * z1 > bound
    notes = ["route-match"] if routes_match else []
    newton_ok = True
    if qv == 1:
        newton_ok = e1 * e1 >= 2 * rat(n, n - 1) * e2
        if newton_ok:
            notes.append("mean-bound-at-q1")
    witness = {
        "z1": scalar_to_json(z1),
        "z2": scalar_to_json(z2),
        "bound": scalar_to_json(bound),
        "routes_match": routes_match,
    }
    if notes:
        witness["annotations"] = notes
    verdict = PASS if (routes_match and strict_ok and newton_ok) else FAIL
    return CheckResult(TAG_DEGREE_TWO, inputs, verdict, witness)


def check_degree_two_zero_line(matroid, q, w):
    """On the hyperplane Z[1] = 0, every nonzero point must give Z[2] < 0."""
    n = matroid.n
    qv = as_rational(q)
    wv = as_rationals(w)
    inputs = _matroid_inputs(matroid, q=scalar_to_json(qv), w=vector_to_json(wv),
                             aspect="zero-line")
    if n < 2:
        return CheckResult(TAG_DEGREE_TWO, inputs, NOT_APPLICABLE,
                           {"annotations": ["degree-below-two"]})
    if not _q_in_range(qv):
        return CheckResult(TAG_DEGREE_TWO, inputs, NOT_APPLICABLE,
                           {"annotations": ["q-above-one"]})
    if len(wv) != n:
        raise InvalidParametersError(f"w must have length {n}")
    if all(x == 0 for x in wv):
        raise InvalidParametersError("the zero-line point must be nonzero")
    strata = zk_all(matroid, qv, wv)
    if strata[1] != 0:
        raise InvalidParametersError("the point does not lie on the Z[1] = 0 hyperplane")
    witness = {"z2": scalar_to_json(strata[2])}
    return CheckResult(TAG_DEGREE_TWO, inputs, PASS if strata[2] < 0 else FAIL, witness)


def check_strata_ultra_log_concave(matroid, q, w):
    """m(n-m) Z[m]^2 >= (m+1)(n-m+1) Z[m-1] Z[m+1] for 1 <= m <= n-1 at a
    nonnegative point.  Indices with equality are annotated; at q = 1 and
    the all-ones point every index is tight."""
    n = matroid.n
    qv = as_rational(q)
    wv = as_rationals(w)
    inputs = _matroid_inputs(matroid, q=scalar_to_json(qv), w=vector_to_json(wv))
    if n < 2:
        return CheckResult(TAG_STRATA_ULC, inputs, VACUOUS,
                           {"annotations": ["no-interior-indices"]})
    if not _q_in_range(qv):
        return CheckResult(TAG_STRATA_ULC, inputs, NOT_APPLICABLE,
                           {"annotations": ["q-above-one"]})
    if len(wv) != n or any(x < 0 for x in wv):
        raise InvalidParametersError(f"w must be a nonnegative point of length {n}")
    strata = zk_all(matroid, qv, wv)
    notes = []
    violations = []
    tight_nonzero = 0
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
    return CheckResult(TAG_STRATA_ULC, inputs, FAIL if violations else PASS, witness or None)


def check_count_log_concavity(matroid):
    """Binomially weighted log-concavity of the independent-set counts.

    Two independent enumeration routes must agree on the counts; then
    k(n-k) I_k^2 >= (k+1)(n-k+1) I_{k-1} I_{k+1} for 1 <= k <= n-1, and a
    nonzero equality holds exactly when every (k+1)-subset is independent.
    """
    n = matroid.n
    inputs = _matroid_inputs(matroid)
    counts = independent_set_counts(matroid)
    recount = tuple(int(x) for x in f_all(matroid, _ones(n)))
    if recount != counts:
        return CheckResult(TAG_COUNT_LOG_CONCAVITY, inputs, FAIL,
                           {"counts": list(counts), "recount": list(recount),
                            "annotations": ["route-mismatch"]})
    if n < 2:
        return CheckResult(TAG_COUNT_LOG_CONCAVITY, inputs, VACUOUS,
                           {"counts": list(counts),
                            "annotations": ["route-match", "no-interior-indices"]})
    notes = ["route-match"]
    violations = []
    for k in range(1, n):
        lhs = k * (n - k) * counts[k] * counts[k]
        rhs = (k + 1) * (n - k + 1) * counts[k - 1] * counts[k + 1]
        saturated = counts[k + 1] == math.comb(n, k + 1)
        if lhs < rhs:
            violations.append({"k": k, "lhs": lhs, "rhs": rhs})
            continue
        if lhs == rhs:
            if lhs == 0:
                notes.append(f"vacuous-at-{k}")
                continue
            notes.append(f"equality-at-{k}")
            if not saturated:
                violations.append({"k": k, "reason": "equality-without-saturation",
                                   "count": counts[k + 1], "expected": math.comb(n, k + 1)})
        elif saturated:
            violations.append({"k": k, "reason": "saturation-without-equality",
                               "lhs": lhs, "rhs": rhs})
    witness = {"counts": list(counts), "annotations": notes}
    if violations:
        witness["violations"] = violations
    return CheckResult(TAG_COUNT_LOG_CONCAVITY, inputs, FAIL if violations else PASS, witness)


def binomial_dominance(ell, n, m):
    """C(ell,m)^2 C(n,m-1) C(n,m+1) >= C(n,m)^2 C(ell,m-1) C(ell,m+1):
    the binomial log-concavity ratio only tightens as the size shrinks."""
    lhs = math.comb(ell, m) ** 2 * math.comb(n, m - 1) * math.comb(n, m + 1)
    rhs = math.comb(n, m) ** 2 * math.comb(ell, m - 1) * math.comb(ell, m + 1)
    return lhs >= rhs


def check_simplification_bound(matroid):
    """Count bounds through the simplification.

    With ell = number of rank-one classes, the counts must satisfy the
    sharper bound m(ell-m) I_m^2 >= (m+1)(ell-m+1) I_{m-1} I_{m+1} for
    1 <= m <= ell-1, which dominates the plain n-version.  Independently,
    I_m must equal the m-th stratum of the simplification's independent-set
    polynomial at the class-size point, and I_m = 0 for m > ell.
    """
    n = matroid.n
    inputs = _matroid_inputs(matroid)
    counts = independent_set_counts(matroid)
    info = structure(matroid)
    classes = sorted(info.parallel_classes, key=min)
    ell = len(classes)
    simple = simplify(matroid)
    sizes = tuple(rat(len(cls)) for cls in classes)
    rerouted = f_all(simple, sizes)
    notes = []
    violations = []
    for m in range(n + 1):
        expected = int(rerouted[m]) if m <= simple.n else 0
        if counts[m] != expected:
            violations.append({"m": m, "count": counts[m], "rerouted": expected,
                               "reason": "class-size-route-mismatch"})
    if not violations:
        notes.append("class-size-route-match")
    for m in range(1, ell):
        lhs = m * (ell - m) * counts[m] * counts[m]
        rhs = (m + 1) * (ell - m + 1) * counts[m - 1] * counts[m + 1]
        if lhs < rhs:
            violations.append({"m": m, "lhs": lhs, "rhs": rhs,
                               "reason": "simple-size-bound"})
        elif lhs == rhs:
            notes.append(f"equality-at-{m}" if lhs else f"vacuous-at-{m}")
        if not binomial_dominance(ell, n, m):
            violations.append({"m": m, "reason": "binomial-dominance"})
    if ell < 2:
        notes.append("no-interior-indices")
    witness = {"counts": list(counts), "simple_size": ell, "annotations": notes}
    if violations:
        witness["violations"] = violations
    return CheckResult(TAG_SIMPLIFICATION, inputs, FAIL if violations else PASS, witness)


def check_log_concavity_at(matroid, c, q, w):
    """log Z_c is concave at a positive point: the matrix
    N = Z * H - grad grad^T must have no positive eigenvalue, and along the
    base ray w^T N w = -n Z^2 exactly (homogeneity of degree n)."""
    n = matroid.n
    cv = validate_coeffs(c, n)
    if not is_log_concave(cv):
        raise InvalidParametersError("coefficient sequence must be log-concave")
    qv = as_rational(q)
    wv = as_rationals(w)
    inputs = _matroid_inputs(matroid, c=vector_to_json(cv), q=scalar_to_json(qv),
                             w=vector_to_json(wv))
    if not _q_in_range(qv):
        return CheckResult(TAG_LOG_CONCAVITY, inputs, NOT_APPLICABLE,
                           {"annotations": ["q-above-one"]})
    if len(wv) != n + 1 or any(x <= 0 for x in wv):
        raise InvalidParametersError(f"w must be a positive point of length {n + 1}")
    # N = z H - grad grad^T in the integers of second_order_numerators: N
    # is the integer matrix over base^2 den^(2n-2), and with the point
    # cleared to integers p = den w the ray w^T N w is p^T N p over
    # base^2 den^(2n), as is -n Z^2 = -n z^2 / (base^2 den^(2n))
    z, grad, hess, base, den = second_order_numerators(matroid, cv, qv, wv)
    entries = tuple(
        tuple(z * hess[i][j] - grad[i] * grad[j] for j in range(n + 1))
        for i in range(n + 1)
    )
    sig = signature(SymMatrix(entries))
    point = [x.numerator * (den // x.denominator) for x in wv]
    ray = sum(point[i] * sum(map(mul, entries[i], point)) for i in range(n + 1))
    ray_ok = ray == -n * z * z
    notes = ["ray-identity"] if ray_ok else []
    witness = {"signature": _sig_list(sig),
               "ray": scalar_to_json(Fraction(ray, base * base * den ** (2 * n)))}
    if notes:
        witness["annotations"] = notes
    verdict = PASS if (sig.n_pos == 0 and ray_ok) else FAIL
    return CheckResult(TAG_LOG_CONCAVITY, inputs, verdict, witness)


def log_slice_second_difference(matroid, c, q, w, direction, rel_step=0.25):
    """Float-mode concavity probe: central second difference of
    t -> log Z_c(w + t * direction) at t = 0; concavity makes this <= 0 up
    to roundoff.  The step keeps the probed points strictly positive.
    Inputs are finite floats (or anything float() takes); Z_c is evaluated
    exactly at the float points and rounded once."""
    n = matroid.n
    wf = [float(from_float(x)) for x in w]
    df = [float(from_float(x)) for x in direction]
    if len(wf) != n + 1 or len(df) != n + 1:
        raise InvalidParametersError(f"w and direction must have length {n + 1}")
    if any(x <= 0 for x in wf):
        raise InvalidParametersError("w must be strictly positive")
    if all(x == 0 for x in df):
        raise InvalidParametersError("direction must be nonzero")
    h = min((wf[i] / abs(df[i]) for i in range(n + 1) if df[i]), default=1.0)
    h = min(1.0, rel_step * h)
    cv = [from_float(x) for x in c]
    qv = from_float(q)

    def logz(point):
        val = to_float(z_weighted_eval(matroid, cv, qv, [from_float(x) for x in point]))
        if val <= 0:
            raise InvalidParametersError("log Z is undefined at a probed point")
        return math.log(val)

    plus = [wf[i] + h * df[i] for i in range(n + 1)]
    minus = [wf[i] - h * df[i] for i in range(n + 1)]
    return logz(plus) + logz(minus) - 2.0 * logz(wf)


# ----------------------------------------------------------- campaigns


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for run_campaign; samples s is the one count.

    Per matroid, s sizes each theorem's checks as: qHR |grid|*(s+3)
    (three deterministic stress points per q), cqHR min(5,s)*s*s
    (coefficient sets x multi-indices x points), deg2 2s (s bound points
    and s zero-line points; none when n < 2), ulc s+1 (plus the q = 1
    all-ones reference), mason and simplification 1, logconcavity s.

    q_grid overrides the default q cycle for the campaigns that sweep one
    (empty tuple = default grid); count-based checks ignore it."""

    theorems: tuple = ALL_THEOREMS
    seed: int = 0
    samples: int = 5
    workers: int = 1
    corpus_label: str = "default"
    q_grid: tuple = ()


# (theorem, aspect) -> (check function name, input keys after the matroid,
# in call order).  Campaign tasks, replay_check and the CLI's single check
# all call through it; aspect is the "aspect" input of the record (None
# when the theorem has one check), and a theorem's first row is its
# single-check default.  Functions are looked up in this module's globals
# at call time, so a wrapper installed on a check_* name is what runs.
CHECKS = {
    (TAG_ONE_POSITIVE, None): ("check_one_positive", ("q", "w")),
    (TAG_DERIVATIVE_ONE_POSITIVE, None):
        ("check_derivative_one_positive", ("c", "q", "alpha", "w")),
    (TAG_DEGREE_TWO, "positive-point"): ("check_degree_two", ("c", "q", "w")),
    (TAG_DEGREE_TWO, "zero-line"): ("check_degree_two_zero_line", ("q", "w")),
    (TAG_STRATA_ULC, None): ("check_strata_ultra_log_concave", ("q", "w")),
    (TAG_COUNT_LOG_CONCAVITY, None): ("check_count_log_concavity", ()),
    (TAG_SIMPLIFICATION, None): ("check_simplification_bound", ()),
    (TAG_LOG_CONCAVITY, None): ("check_log_concavity_at", ("c", "q", "w")),
}


def call_check(name, args):
    """Run the check named in a CHECKS row on (matroid, *inputs)."""
    return globals()[name](*args)


def _execute(tasks, workers):
    # more processes than tasks or cores gain nothing, and a pool starts
    # all of its processes at once
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [call_check(name, args) for name, args in tasks]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call_check, *zip(*tasks), chunksize=chunk))


# Task generators: (mi, matroid, seed, samples, q_grid) -> (check name,
# args) tasks for corpus member mi.  Every sample draws from its own
# child_rng(seed, stream, mi, ...), so a task does not depend on the order
# in which the others were generated.


def _tasks_one_positive(mi, matroid, seed, samples, q_grid):
    dim = matroid.n + 1
    for qi, q in enumerate(q_grid):
        points = list(adversarial_points(dim))
        points += [sample_positive_point(child_rng(seed, 11, mi, qi, j), dim)
                   for j in range(samples)]
        for w in points:
            yield "check_one_positive", (matroid, q, w)


def _tasks_derivative_one_positive(mi, matroid, seed, samples, q_grid):
    n = matroid.n
    coeffs = [log_concave_coeffs(n, ratio) for ratio in default_c_ratios()[:samples]]
    alphas = distinct_alphas(child_rng(seed, 21, mi).randrange(2 ** 32),
                             n, samples, min_degree=2)
    for ci, c in enumerate(coeffs):
        for ai, alpha in enumerate(alphas):
            for t in range(samples):
                w = sample_positive_point(child_rng(seed, 22, mi, ci, ai, t), n + 1)
                yield ("check_derivative_one_positive",
                       (matroid, c, q_grid[t % len(q_grid)], alpha, w))


def _zero_line_point(matroid, q, rng, attempts=32):
    """Nonzero inner point with Z[1] = 0, built by projecting a sign-mixed
    sample along the all-ones direction (Z[1] is linear with positive
    singleton coefficients, so the projection always lands on the plane)."""
    n = matroid.n
    lam = [RAT_ONE / q if matroid.ranks[1 << i] else RAT_ONE for i in range(n)]
    total = sum(lam, start=rat(0))
    for _ in range(attempts):
        v = sample_sign_mixed_point(rng, n)
        s = sum((lam[i] * v[i] for i in range(n)), start=rat(0))
        w = tuple(total * v[i] - s for i in range(n))
        if any(x != 0 for x in w):
            return w
    raise InvalidParametersError("could not sample a nonzero point on the Z[1] = 0 plane")


def _tasks_degree_two(mi, matroid, seed, samples, q_grid):
    n = matroid.n
    if n < 2:
        return
    for j in range(samples):
        rng = child_rng(seed, 31, mi, j)
        c = sample_log_concave_coeffs(rng, n)
        # the strict bound quantifies over all nonzero w: alternate
        # positive and sign-mixed samples
        w = sample_positive_point(rng, n) if j % 2 == 0 else \
            sample_sign_mixed_point(rng, n)
        yield "check_degree_two", (matroid, c, q_grid[j % len(q_grid)], w)
    for j in range(samples):
        q = q_grid[j % len(q_grid)]
        w = _zero_line_point(matroid, q, child_rng(seed, 32, mi, j))
        yield "check_degree_two_zero_line", (matroid, q, w)


def _tasks_strata_ulc(mi, matroid, seed, samples, q_grid):
    n = matroid.n
    # reference point first: q = 1 at all-ones is tight at every index
    yield "check_strata_ultra_log_concave", (matroid, rat(1), _ones(n))
    for j in range(samples):
        w = sample_nonneg_point(child_rng(seed, 41, mi, j), n)
        yield "check_strata_ultra_log_concave", (matroid, q_grid[j % len(q_grid)], w)


def _tasks_count_log_concavity(mi, matroid, seed, samples, q_grid):
    yield "check_count_log_concavity", (matroid,)


def _tasks_simplification(mi, matroid, seed, samples, q_grid):
    yield "check_simplification_bound", (matroid,)


def _tasks_log_concavity(mi, matroid, seed, samples, q_grid):
    n = matroid.n
    for j in range(samples):
        rng = child_rng(seed, 71, mi, j)
        c = _ones(n + 1) if j == 0 else sample_log_concave_coeffs(rng, n)
        w = sample_positive_point(rng, n + 1)
        yield "check_log_concavity_at", (matroid, c, q_grid[j % len(q_grid)], w)


THEOREM_TASKS = {
    TAG_ONE_POSITIVE: _tasks_one_positive,
    TAG_DERIVATIVE_ONE_POSITIVE: _tasks_derivative_one_positive,
    TAG_DEGREE_TWO: _tasks_degree_two,
    TAG_STRATA_ULC: _tasks_strata_ulc,
    TAG_COUNT_LOG_CONCAVITY: _tasks_count_log_concavity,
    TAG_SIMPLIFICATION: _tasks_simplification,
    TAG_LOG_CONCAVITY: _tasks_log_concavity,
}


def run_campaign(corpus, config=None):
    """Run the configured theorems over a corpus and aggregate a report.

    Tasks are generated theorem by theorem (in ALL_THEOREMS order), matroid
    by matroid, and executed in one batch; the worker count affects wall
    time only, so the report content is a function of (corpus, seed,
    samples, theorems, q_grid) alone.
    """
    cfg = config or CampaignConfig()
    unknown = [t for t in cfg.theorems if t not in THEOREM_TASKS]
    if unknown:
        raise InvalidParametersError(f"unknown theorem tags {unknown!r}")
    if cfg.samples < 0:
        raise InvalidParametersError(f"samples must be nonnegative, got {cfg.samples}")
    if cfg.workers < 1:
        raise InvalidParametersError(f"workers must be at least 1, got {cfg.workers}")
    if not corpus:
        # a campaign over no matroids would pass vacuously
        raise InvalidParametersError(f"corpus {cfg.corpus_label!r} has no matroids")
    start = time.perf_counter()
    theorems = [t for t in ALL_THEOREMS if t in cfg.theorems]
    q_grid = tuple(cfg.q_grid) or default_q_grid()
    tasks = [task for tag in theorems for mi, matroid in enumerate(corpus)
             for task in THEOREM_TASKS[tag](mi, matroid, cfg.seed, cfg.samples, q_grid)]
    checks = _execute(tasks, cfg.workers)
    elapsed = time.perf_counter() - start
    campaign = {
        "name": "verification-campaign",
        "corpus": cfg.corpus_label,
        "matroids": len(corpus),
        "seed": cfg.seed,
        "samples": cfg.samples,
        "theorems": theorems,
    }
    if cfg.q_grid:
        campaign["q_grid"] = [scalar_to_json(q) for q in cfg.q_grid]
    return VerificationReport(campaign=campaign, checks=tuple(checks),
                              summary=summarize(checks), timing_seconds=elapsed)


# -------------------------------------------------------------- replay


_FROM_JSON = {"c": vector_from_json, "q": scalar_from_json, "alpha": tuple,
              "w": vector_from_json}


def replay_check(check):
    """Re-run a stored check from its recorded inputs and return the fresh
    result; replaying a report must reproduce every verdict and witness."""
    if isinstance(check, dict):
        check = CheckResult.from_json(check)
    inputs = check.inputs
    key = (check.theorem, inputs.get("aspect"))
    if key not in CHECKS:
        raise InvalidParametersError(f"cannot replay theorem {key[0]!r} with aspect {key[1]!r}")
    name, keys = CHECKS[key]
    matroid = matroid_from_json(inputs["matroid"])
    return call_check(name, (matroid, *(_FROM_JSON[k](inputs[k]) for k in keys)))


def replay_report(report):
    """Replay every check in a report; returns the list of (index, stored,
    fresh) triples where the fresh run disagrees."""
    mismatches = []
    for i, stored in enumerate(report.checks):
        fresh = replay_check(stored)
        if fresh.verdict != stored.verdict or fresh.witness != stored.witness:
            mismatches.append((i, stored, fresh))
    return mismatches


def dependent_mass_ratio(matroid, m, w, q):
    """Ratio of the stratum-limit residual to q times the nullity-one mass;
    tends to 1 as q -> 0 whenever some m-subset has nullity exactly one."""
    from .potts import f_limit_residual

    mass = dependent_mass(matroid, m, w, nullity=1)
    if mass == 0:
        raise InvalidParametersError("no m-subset of nullity one: the leading term vanishes")
    qv = as_rational(q)
    return f_limit_residual(matroid, m, w, qv) / (qv * mass)
