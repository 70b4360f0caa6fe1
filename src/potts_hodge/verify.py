"""Verification campaigns: randomized and deterministic theorem checks.

Each check takes explicit inputs, re-derives both sides of one claimed
property in exact arithmetic, and reports a CheckResult with one of four
verdicts:

  pass            the claim held on this input
  fail            the claim was violated (witness carries the numbers)
  vacuous         the claim quantifies over an empty range here
  not-applicable  a hypothesis is not met (q > 1, degree too low, ...)

Each theorem has one task generator that draws seeded inputs for one
corpus member.  run_campaign's unit of work is one matroid: the unit
generates and runs that matroid's tasks for every requested theorem, its
records share one matroid JSON dict, and its checks compute structure
and independent_set_counts once (_once).  With workers > 1 the units are
dealt, costliest first, into shares: this process runs one share and one
child process per other share runs the rest, each placed on its own CPU
when the shares fill the affinity set and sending its records back over
a pipe, so the sampling runs where the checks do.  One table (CHECKS)
maps a theorem and aspect to its check and input keys for campaigns,
replay and the CLI.  run_campaign validates its config before any unit
runs, and every check validates all of its inputs (potts.validate_q,
validate_point with the sign its theorem needs, validate_coeffs) before
it returns any verdict.  The validators keep ints as ints and read signs
off numerators, so a check runs on the integers it was given: the
Hessian checks eliminate integer numerators and the strata checks
compare them (potts.hessian_numerators, second_order_numerators,
strata_numerators), and values are encoded through scalar_to_json and
vector_to_json from their numerators and denominators; a Fraction is
built only for a witness value.  The Hessian checks eliminate D H D,
D = diag(1, w_1, ..., w_n), in place of H (logconcavity D N D in place
of N): the point is positive, so by Sylvester's law of inertia the
signature is that of H (of N).  Reports are plain data: serializing
with sort_keys produces byte-identical output for identical (corpus,
seed, samples), independent of the worker count.

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
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import InvalidParametersError, ParseError
from .matrices import SymMatrix
from .matroids import from_json as matroid_from_json
from .matroids import independent_set_counts, simplify, structure
from .potts import (
    _alpha_split,
    dependent_mass,
    f_limit_residual,
    hessian_numerators,
    independent_numerators,
    log_concave_integers,
    second_order_numerators,
    strata_numerators,
    validate_alpha,
    validate_coeffs,
    validate_point,
    validate_q,
    z_weighted_eval,
)
# not called here, but perfbench/tracing.py wraps these names on this module
from .potts import elementary_symmetric, f_all, gradient, hessian, zk_all  # noqa: F401
from .scalars import (
    clear_denominators, from_float, is_int, scalar_from_json, scalar_to_json, to_float,
    vector_from_json, vector_to_json,
)
from .sampling import (
    SIGN_MIXED_DEN, adversarial_points, child_rng, default_c_ratios, default_q_grid,
    distinct_alphas, log_concave_coeffs, sample_log_concave_coeffs, sample_nonneg_point,
    sample_positive_point, sample_sign_mixed_numerators, sample_sign_mixed_point,
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
    return {"total": len(checks), **counts, "by_theorem": by_theorem}


def _q_in_range(q):
    """The theorems quantify over 0 < q <= 1; reject q > 1 as out of scope."""
    return q.numerator <= q.denominator


def _ones(length):
    return (1,) * length


def _skipped(tag, inputs, note, verdict=NOT_APPLICABLE):
    """The result of a check whose hypothesis fails, annotated with why."""
    return CheckResult(tag, inputs, verdict, {"annotations": [note]})


def _sig_list(sig):
    return [sig.n_pos, sig.n_neg, sig.n_zero]


# (matroid, its JSON, a cache) while a campaign work unit runs: the unit's
# records share one JSON dict, and its checks compute each matroid query
# (structure, independent_set_counts) once; a check called on any other
# matroid, or outside a unit, computes its own
_unit = ContextVar("unit", default=None)


def _unit_of(matroid):
    unit = _unit.get()
    return unit if unit is not None and unit[0] is matroid else None


def _matroid_inputs(matroid, **extra):
    unit = _unit_of(matroid)
    return {"matroid": unit[1] if unit else matroid.to_json(), **extra}


def _once(query, matroid):
    """query(matroid), computed once per work unit."""
    unit = _unit_of(matroid)
    if unit is None:
        return query(matroid)
    if query not in unit[2]:
        unit[2][query] = query(matroid)
    return unit[2][query]


def _coeffs(c, n, strict=True):
    """c validated and coerced once: (Fractions, their integers over one
    common denominator).  Raises unless c is (strictly) log-concave."""
    cv = validate_coeffs(c, n)
    ints, _ = clear_denominators(cv)
    if not log_concave_integers(ints, strict):
        kind = "strictly log-concave" if strict else "log-concave"
        raise InvalidParametersError(f"coefficient sequence must be {kind}")
    return cv, ints


# ---------------------------------------------------------------- checks
#
# Every check validates all of its inputs before it returns any verdict,
# so a malformed input raises even where a hypothesis (q <= 1, degree at
# least two) would have made the check not applicable.


def check_one_positive(matroid, q, w):
    """Hessian of Z_c with all-ones coefficients at a positive point must
    have exactly one positive eigenvalue (degenerate directions allowed)."""
    n = matroid.n
    qv = validate_q(q)
    wv = validate_point(w, n + 1, "positive")
    inputs = _matroid_inputs(matroid, q=scalar_to_json(qv), w=vector_to_json(wv))
    if n < 2:
        return _skipped(TAG_ONE_POSITIVE, inputs, "degree-below-two")
    if not _q_in_range(qv):
        return _skipped(TAG_ONE_POSITIVE, inputs, "q-above-one")
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
    cv, _ = _coeffs(c, n)
    qv = validate_q(q)
    alpha = validate_alpha(alpha, n)
    wv = validate_point(w, n + 1, "positive")
    inputs = _matroid_inputs(matroid, c=vector_to_json(cv), q=scalar_to_json(qv),
                             alpha=list(alpha), w=vector_to_json(wv))
    if not _q_in_range(qv):
        return _skipped(TAG_DERIVATIVE_ONE_POSITIVE, inputs, "q-above-one")
    if _alpha_split(alpha, n) is None or n - sum(alpha) < 2:
        return _skipped(TAG_DERIVATIVE_ONE_POSITIVE, inputs, "degree-below-two")
    active = [0] + [i for i in range(1, n + 1) if alpha[i] == 0]
    rows, _ = hessian_numerators(matroid, cv, qv, alpha, wv)
    sig = signature(SymMatrix(tuple(tuple(rows[i][j] for j in active) for i in active)))
    witness = {"signature": _sig_list(sig), "active": active}
    expected = sig.n_pos == 1 and sig.n_zero == 0 and sig.n_neg == len(active) - 1
    return CheckResult(TAG_DERIVATIVE_ONE_POSITIVE, inputs, PASS if expected else FAIL, witness)


def _singleton_factors(matroid, q):
    """a q^(-rk({i})) for q = a/b: b for a non-loop, a for a loop.  At a
    point w = W / L, y_i = q^(-rk({i})) w_i is W_i times this factor
    over a L, and Z[1] = sum y_i."""
    a, b = q.numerator, q.denominator
    return [b if matroid.ranks[1 << i] else a for i in range(matroid.n)]


def _e2(values):
    """Second elementary symmetric polynomial of integers."""
    total = sum(values)
    return (total * total - sum(x * x for x in values)) // 2


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

    Both run on integers, Z[k] = nums[k] / scale and y_i = Y_i / (a L) for
    q = a/b and w = W / L, cross-multiplied by their positive denominators.
    """
    n = matroid.n
    cv, cints = _coeffs(c, n)
    qv = validate_q(q)
    wv = validate_point(w, n, "nonzero")
    inputs = _matroid_inputs(matroid, c=vector_to_json(cv), q=scalar_to_json(qv),
                             w=vector_to_json(wv), aspect="positive-point")
    if n < 2:
        return _skipped(TAG_DEGREE_TWO, inputs, "degree-below-two")
    if not _q_in_range(qv):
        return _skipped(TAG_DEGREE_TWO, inputs, "q-above-one")
    nums, scale = strata_numerators(matroid, qv, wv)
    a, b = qv.numerator, qv.denominator
    wints, lcm = clear_denominators(wv)
    y = [x * f for x, f in zip(wints, _singleton_factors(matroid, qv))]
    e1, e2 = sum(y), _e2(y)
    correction = sum(_e2([y[i - 1] for i in cls])
                     for cls in _once(structure, matroid).parallel_classes if len(cls) >= 2)
    # Z[1] = nums[1] / scale against e_1(y) = e1 / (a L), and
    # Z[2] = nums[2] / scale against
    # e_2(y) - (1 - q) correction = (b e2 - (b - a) correction) / (b (a L)^2)
    y_den = a * lcm
    routes_match = (nums[1] * y_den == e1 * scale
                    and nums[2] * b * y_den * y_den == (b * e2 - (b - a) * correction) * scale)
    # bound = 2 (c_0 c_2 / c_1^2) (n / (n-1)) Z[2], with c_k = cints[k] / L_c
    bound_num = 2 * cints[0] * cints[2] * n * nums[2]
    bound_den = cints[1] * cints[1] * (n - 1) * scale
    strict_ok = nums[1] * nums[1] * bound_den > bound_num * scale * scale
    notes = ["route-match"] if routes_match else []
    newton_ok = True
    if a == b:
        # e_1(y)^2 >= 2 (n/(n-1)) e_2(y); both sides are over (a L)^2
        newton_ok = (n - 1) * e1 * e1 >= 2 * n * e2
        if newton_ok:
            notes.append("mean-bound-at-q1")
    witness = {
        "z1": scalar_to_json(Fraction(nums[1], scale)),
        "z2": scalar_to_json(Fraction(nums[2], scale)),
        "bound": scalar_to_json(Fraction(bound_num, bound_den)),
        "routes_match": routes_match,
    }
    if notes:
        witness["annotations"] = notes
    verdict = PASS if (routes_match and strict_ok and newton_ok) else FAIL
    return CheckResult(TAG_DEGREE_TWO, inputs, verdict, witness)


def check_degree_two_zero_line(matroid, q, w):
    """On the hyperplane Z[1] = 0, every nonzero point must give Z[2] < 0.

    Z[1] has positive singleton coefficients, so no nonzero point lies on
    the plane when n < 2: the input checks leave n >= 2."""
    n = matroid.n
    qv = validate_q(q)
    wv = validate_point(w, n, "nonzero")
    inputs = _matroid_inputs(matroid, q=scalar_to_json(qv), w=vector_to_json(wv),
                             aspect="zero-line")
    nums, scale = strata_numerators(matroid, qv, wv)
    if nums[1] != 0:
        raise InvalidParametersError("the point does not lie on the Z[1] = 0 hyperplane")
    if not _q_in_range(qv):
        return _skipped(TAG_DEGREE_TWO, inputs, "q-above-one")
    witness = {"z2": scalar_to_json(Fraction(nums[2], scale))}
    return CheckResult(TAG_DEGREE_TWO, inputs, PASS if nums[2] < 0 else FAIL, witness)


def check_strata_ultra_log_concave(matroid, q, w):
    """m(n-m) Z[m]^2 >= (m+1)(n-m+1) Z[m-1] Z[m+1] for 1 <= m <= n-1 at a
    nonnegative point.  Indices with equality are annotated; at q = 1 and
    the all-ones point every index is tight.  Both sides are over scale^2
    at every m (Z[k] = nums[k] / scale), so the numerators are compared."""
    n = matroid.n
    qv = validate_q(q)
    wv = validate_point(w, n, "nonnegative")
    inputs = _matroid_inputs(matroid, q=scalar_to_json(qv), w=vector_to_json(wv))
    if n < 2:
        return _skipped(TAG_STRATA_ULC, inputs, "no-interior-indices", VACUOUS)
    if not _q_in_range(qv):
        return _skipped(TAG_STRATA_ULC, inputs, "q-above-one")
    nums, scale = strata_numerators(matroid, qv, wv)
    notes = []
    violations = []
    tight_nonzero = 0
    for m in range(1, n):
        lhs = m * (n - m) * nums[m] * nums[m]
        rhs = (m + 1) * (n - m + 1) * nums[m - 1] * nums[m + 1]
        if lhs < rhs:
            violations.append({"m": m, "lhs": scalar_to_json(Fraction(lhs, scale * scale)),
                               "rhs": scalar_to_json(Fraction(rhs, scale * scale))})
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
    counts = _once(independent_set_counts, matroid)
    recount = tuple(independent_numerators(matroid, (1,) * n)[0])
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
    counts = _once(independent_set_counts, matroid)
    classes = sorted(_once(structure, matroid).parallel_classes, key=min)
    ell = len(classes)
    simple = simplify(matroid)
    # an integer point: scale = 1, so the numerators are the strata
    rerouted, _ = independent_numerators(simple, [len(cls) for cls in classes])
    notes = []
    violations = []
    for m in range(n + 1):
        expected = rerouted[m] if m <= simple.n else 0
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
    cv, _ = _coeffs(c, n, strict=False)
    qv = validate_q(q)
    wv = validate_point(w, n + 1, "positive")
    inputs = _matroid_inputs(matroid, c=vector_to_json(cv), q=scalar_to_json(qv),
                             w=vector_to_json(wv))
    if not _q_in_range(qv):
        return _skipped(TAG_LOG_CONCAVITY, inputs, "q-above-one")
    # D N D = z D H D - (D grad)(D grad)^T, D = diag(1, w_1, ..., w_n), is an
    # integer matrix over scale^2, with the inertia of N by Sylvester's law
    # (w is positive).  D v = w for v = (w_0, 1, ..., 1) = V / d_0 with
    # V = (p_0, d_0, ..., d_0), so the ray w^T N w is V^T (D N D) V over
    # (d_0 scale)^2, as is -n Z^2 = -n (d_0 z)^2 / (d_0 scale)^2
    z, grad, hess, scale = second_order_numerators(matroid, cv, qv, wv)
    entries = tuple(
        tuple(z * hess[i][j] - grad[i] * grad[j] for j in range(n + 1))
        for i in range(n + 1)
    )
    sig = signature(SymMatrix(entries))
    d0 = wv[0].denominator
    ray_point = [wv[0].numerator] + [d0] * n
    ray = sum(ray_point[i] * sum(map(mul, entries[i], ray_point)) for i in range(n + 1))
    ray_ok = ray == -n * (d0 * z) ** 2
    notes = ["ray-identity"] if ray_ok else []
    witness = {"signature": _sig_list(sig),
               "ray": scalar_to_json(Fraction(ray, (d0 * scale) ** 2))}
    if notes:
        witness["annotations"] = notes
    verdict = PASS if (sig.n_pos == 0 and ray_ok) else FAIL
    return CheckResult(TAG_LOG_CONCAVITY, inputs, verdict, witness)


def log_slice_second_difference(matroid, c, q, w, direction):
    """Float-mode concavity probe: central second difference of
    t -> log Z_c(w + t * direction) at t = 0; concavity makes this <= 0 up
    to roundoff.  The step, at most 1 and a quarter of the way to the
    boundary of the orthant, keeps the probed points strictly positive.
    Inputs are finite floats (or anything float() takes); Z_c is evaluated
    exactly at the float points and rounded once."""
    n = matroid.n
    wf = [float(x) for x in validate_point([from_float(v) for v in w], n + 1, "positive")]
    df = [float(from_float(x)) for x in direction]
    if len(df) != n + 1 or not any(df):
        raise InvalidParametersError(f"direction must be a nonzero vector of length {n + 1}")
    h = min((wf[i] / abs(df[i]) for i in range(n + 1) if df[i]), default=1.0)
    h = min(1.0, 0.25 * h)
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


def _matroid_checks(mi, matroid, theorems, seed, samples, q_grid):
    """One work unit: generate the tasks of corpus member mi for each
    theorem and run them, returning one list of results per theorem.  The
    unit's records share one matroid JSON dict, and its checks each
    matroid query (_once)."""
    token = _unit.set((matroid, matroid.to_json(), {}))
    try:
        return [[call_check(name, args)
                 for name, args in THEOREM_TASKS[tag](mi, matroid, seed, samples, q_grid)]
                for tag in theorems]
    finally:
        _unit.reset(token)


def _place(cpu):
    """Pin the calling thread to CPU `cpu`.  Best effort: a CPU the thread
    may not use leaves it where it was."""
    try:
        os.sched_setaffinity(0, (cpu,))
    except OSError:
        pass


def _run_share(units, sender, cpu):
    """A share's child process: pin itself to `cpu` (see _place; None
    leaves it unplaced), run its units and send back over the pipe end
    `sender` either (True, per unit, per theorem, its records as plain
    (theorem, inputs, verdict, witness) tuples) or (False, the exception
    that stopped it)."""
    if cpu is not None:
        _place(cpu)
    try:
        records = [[[(r.theorem, r.inputs, r.verdict, r.witness) for r in results]
                    for results in _matroid_checks(*unit)]
                   for unit in units]
    except Exception as exc:  # the caller raises it
        sender.send((False, exc))
    else:
        sender.send((True, records))
    finally:
        sender.close()


def _receive(child, receiver):
    """The records a share's child process sent, or raise what stopped it."""
    try:
        ok, payload = receiver.recv()
    except EOFError:
        child.join()
        raise RuntimeError(
            f"a campaign share's process exited with code {child.exitcode} "
            "without sending its records") from None
    if not ok:
        raise payload
    return payload


def _execute(units, workers):
    """Run (mi, matroid, theorems, seed, samples, q_grid) units through
    _matroid_checks; results come back in unit order, so a report is the
    same at any worker count.

    The processes are capped at min(workers, units, usable CPUs).  Under a
    cap of one everything runs here.  Otherwise the units are dealt
    round-robin into cap shares, costliest first (2^n down, then unit
    index): this process runs share 0 and one child process per other
    share runs that share, sending its records back as plain tuples (or
    the exception that stopped it) over a one-way pipe.  Tasks are sampled
    in the process that runs them.  When the shares fill the whole
    affinity set (cap equal to its size), share s is placed on the s-th of
    its CPUs in sorted order: each child pins itself, and this thread pins
    itself to the first once the children have started (so a child that
    cannot be placed keeps the whole set) and gets its saved set back when
    the campaign returns or raises.  Without placement the kernel may keep
    a young child on the caller's CPU for longer than a short campaign
    lasts, and the shares take turns instead of running side by side.  A
    campaign that uses only part of the set is not placed, so campaigns
    running side by side do not all pin themselves to the same lowest
    CPUs.  Every child is joined; one still running when the campaign
    raises is terminated first."""
    # more processes than units or usable CPUs (the affinity set, where the
    # platform has one) gain nothing
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    cap = min(workers, len(units), len(cpus) or os.cpu_count() or 1)
    if cap <= 1:
        return [_matroid_checks(*unit) for unit in units]
    import multiprocessing

    order = sorted(range(len(units)), key=lambda i: (-units[i][1].n, i))
    shares = [order[s::cap] for s in range(cap)]
    placed = cap == len(cpus)
    results = [None] * len(units)
    children = []
    try:
        for s, share in enumerate(shares[1:], 1):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_run_share,
                args=([units[i] for i in share], sender, cpus[s] if placed else None))
            children.append((share, child, receiver))
            try:
                child.start()
            finally:
                sender.close()
        if placed:
            _place(cpus[0])
        for i in shares[0]:
            results[i] = _matroid_checks(*units[i])
        for share, child, receiver in children:
            for i, records in zip(share, _receive(child, receiver)):
                results[i] = [[CheckResult(*r) for r in per_theorem] for per_theorem in records]
    except BaseException:
        for _, child, _ in children:
            if child.is_alive():
                child.terminate()
        raise
    finally:
        for _, child, receiver in children:
            if child.pid is not None:
                child.join()
            receiver.close()
        if placed:
            os.sched_setaffinity(0, cpus)
    return results


# Task generators: (mi, matroid, seed, samples, q_grid) -> (check name,
# args) tasks for corpus member mi.  Every sample draws from its own
# child_rng(seed, stream, mi, ...), so a task does not depend on the order
# in which the others were generated.


def _tasks_one_positive(mi, matroid, seed, samples, q_grid):
    dim = matroid.n + 1
    stress = adversarial_points(dim)
    for qi, q in enumerate(q_grid):
        points = stress + [sample_positive_point(child_rng(seed, 11, mi, qi, j), dim)
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


def _zero_line_point(matroid, q, rng):
    """Nonzero inner point with Z[1] = 0, built by projecting a sign-mixed
    sample along the all-ones direction (Z[1] is linear with positive
    singleton coefficients, so the projection always lands on the plane).

    In integers: a Z[1] = sum_i lam_i w_i with lam = _singleton_factors,
    and a sample v = V / D projects to w_i = (total V_i - s) / (a D), with
    total = sum_i lam_i and s = sum_i lam_i V_i."""
    n = matroid.n
    lam = _singleton_factors(matroid, q)
    total = sum(lam)
    den = q.numerator * SIGN_MIXED_DEN
    for _ in range(32):
        v = sample_sign_mixed_numerators(rng, n)
        s = sum(map(mul, lam, v))
        w = [total * x - s for x in v]
        if any(w):
            return tuple(Fraction(x, den) for x in w)
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
    yield "check_strata_ultra_log_concave", (matroid, 1, _ones(n))
    for j in range(samples):
        w = sample_nonneg_point(child_rng(seed, 41, mi, j), n)
        yield "check_strata_ultra_log_concave", (matroid, q_grid[j % len(q_grid)], w)


def _tasks_once(name):
    """The task generator of a theorem checked once per matroid."""
    return lambda mi, matroid, seed, samples, q_grid: [(name, (matroid,))]


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
    TAG_COUNT_LOG_CONCAVITY: _tasks_once("check_count_log_concavity"),
    TAG_SIMPLIFICATION: _tasks_once("check_simplification_bound"),
    TAG_LOG_CONCAVITY: _tasks_log_concavity,
}


def run_campaign(corpus, config=None):
    """Run the configured theorems over a corpus and aggregate a report.

    The unit of work is one matroid: it generates and runs that matroid's
    tasks for every requested theorem, and its records share one matroid
    JSON dict.  At workers=1 every unit runs in this process; above it,
    this process runs one share of the units and at most workers - 1
    child processes, one per share and each on its own CPU when they
    fill the affinity set, run the rest (see _execute).  The checks are
    reported theorem by theorem (in ALL_THEOREMS order), matroid by
    matroid within a theorem.  The worker count affects wall time only, so
    the report content is a function of (corpus, seed, samples, theorems,
    q_grid) alone.
    """
    cfg = config or CampaignConfig()
    unknown = [t for t in cfg.theorems if t not in THEOREM_TASKS]
    if unknown:
        raise InvalidParametersError(f"unknown theorem tags {unknown!r}")
    if not is_int(cfg.seed):
        raise InvalidParametersError(f"seed must be an integer, got {cfg.seed!r}")
    if not is_int(cfg.samples) or cfg.samples < 0:
        raise InvalidParametersError(f"samples must be a nonnegative integer, got {cfg.samples!r}")
    if not is_int(cfg.workers) or cfg.workers < 1:
        raise InvalidParametersError(f"workers must be a positive integer, got {cfg.workers!r}")
    if not isinstance(cfg.corpus_label, str):
        raise InvalidParametersError(f"corpus_label must be a string, got {cfg.corpus_label!r}")
    given_grid = tuple(map(validate_q, cfg.q_grid))
    if not corpus:
        # a campaign over no matroids would pass vacuously
        raise InvalidParametersError(f"corpus {cfg.corpus_label!r} has no matroids")
    start = time.perf_counter()
    theorems = tuple(t for t in ALL_THEOREMS if t in cfg.theorems)
    q_grid = given_grid or default_q_grid()
    units = [(mi, matroid, theorems, cfg.seed, cfg.samples, q_grid)
             for mi, matroid in enumerate(corpus)]
    per_matroid = _execute(units, cfg.workers)
    checks = [check for ti in range(len(theorems)) for unit in per_matroid for check in unit[ti]]
    elapsed = time.perf_counter() - start
    campaign = {"name": "verification-campaign", "corpus": cfg.corpus_label,
                "matroids": len(corpus), "seed": cfg.seed, "samples": cfg.samples,
                "theorems": list(theorems)}
    if given_grid:
        campaign["q_grid"] = vector_to_json(given_grid)
    return VerificationReport(campaign=campaign, checks=tuple(checks),
                              summary=summarize(checks), timing_seconds=elapsed)


# -------------------------------------------------------------- replay


def _multi_index_from_json(obj):
    if not isinstance(obj, (list, tuple)):
        raise ParseError(f"not a multi-index list: {obj!r}")
    return tuple(obj)


_FROM_JSON = {"c": vector_from_json, "q": scalar_from_json, "alpha": _multi_index_from_json,
              "w": vector_from_json}


def replay_check(check):
    """Re-run a stored check from its recorded inputs and return the fresh
    result; replaying a report must reproduce every verdict and witness."""
    if isinstance(check, dict):
        check = CheckResult.from_json(check)
    inputs = check.inputs
    if not isinstance(inputs, dict):
        raise ParseError(f"check inputs must be an object, got {type(inputs).__name__}")
    key = (check.theorem, inputs.get("aspect"))
    if key not in CHECKS:
        raise InvalidParametersError(f"cannot replay theorem {key[0]!r} with aspect {key[1]!r}")
    name, keys = CHECKS[key]
    for k in ("matroid", *keys):
        if k not in inputs:
            raise ParseError(f"check inputs are missing field {k!r}")
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
    mass = dependent_mass(matroid, m, w, nullity=1)
    if mass == 0:
        raise InvalidParametersError("no m-subset of nullity one: the leading term vanishes")
    qv = validate_q(q)
    return f_limit_residual(matroid, m, w, qv) / (qv * mass)
