"""Verification campaigns: randomized and deterministic theorem checks.

Each check takes explicit inputs, re-derives both sides of one claimed
property in exact arithmetic, and reports a CheckResult with one of four
verdicts:

  pass            the claim held on this input
  fail            the claim was violated (witness carries the numbers)
  vacuous         the claim quantifies over an empty range here
  not-applicable  a hypothesis is not met (q > 1, degree too low, ...)

Each check kind is one row of one table (CHECKS), read by campaigns,
replay and the CLI: its theorem and aspect map to the task generator
that draws its seeded inputs for one corpus member, its check function
name and its input keys.  run_campaign's unit of work is one matroid:
the unit generates and runs that matroid's tasks for every requested
theorem, its records share one matroid JSON dict, and its checks compute
structure and independent_set_counts once (_once).  Within a campaign
(scalars.shared_wire) records also share one dict per distinct exact
scalar, so records are read-only data.  With workers > 1 this process
and its forked children claim the units one at a time, costliest first,
from one claims file; a child writes all its records back to a file of
its own in one write when its claims run out, so the sampling runs
where the checks do and no process waits on a fixed share or on
another process.  When the processes fill the affinity set each child
is pinned to a CPU of its own; the calling thread's set is never
changed.
run_campaign validates its config before any unit runs, and every check
validates all of its inputs (potts.validate_q, validate_point with the
sign its theorem needs, validate_coeffs) before it returns any verdict.
The validators keep ints as ints and read signs off numerators, so a
check runs on the integers it was given: the Hessian checks eliminate
the integer rows of potts.second_order_numerators, the one reader of a
derivative's value, gradient and Hessian, and the strata checks compare
those of strata_numerators and quadratic_numerators; a Fraction is built
only for a witness value.  No module imports another's private names.  A
check's body holds its mathematics only: its validated inputs are
encoded in one place (_matroid_inputs, beside their decoder _FROM_JSON),
and _result builds every record, its notes and violations joining the
witness.  The Hessian checks eliminate D H D,
D = diag(w_0, w_1, ..., w_n), times a positive factor, in place of H
(Sylvester's law: the point is positive), and logconcavity the bordered
[[Z, (D grad)^T], [D grad, D H D]] in place of N = Z H - grad grad^T
(Haynsworth's inertia additivity).  Reports are plain data: serializing
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

import marshal
import math
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import ImpossibleStateError, InvalidParametersError, ParseError
from .matrices import SymMatrix
from .matroids import from_json as matroid_from_json
from .matroids import independent_set_counts, simplify, structure
from .potts import (
    dependent_mass,
    derivative_degree,
    f_limit_residual,
    independent_numerators,
    log_concave_integers,
    quadratic_numerators,
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
    clear_denominators, from_float, is_int, scalar_from_json, scalar_to_json, shared_wire,
    to_float, vector_from_json, vector_to_json,
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


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of a single theorem check on one input tuple.

    A record is read-only data, slotted and frozen: the records of one
    campaign share the matroid JSON dict of their work unit and one dict
    per distinct exact scalar, so editing a dict inside one record edits
    every record that holds it.  A campaign child writes its records to
    a file as marshal tuples; nothing pickles one."""

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
            theorem = obj["theorem"]
            if not isinstance(theorem, str):
                raise ParseError(f"check theorem must be a string, got {type(theorem).__name__}")
            witness = obj.get("witness")
            if not (witness is None or isinstance(witness, dict)):
                raise ParseError(f"check witness must be an object or null, "
                                 f"got {type(witness).__name__}")
            return CheckResult(theorem=theorem, inputs=obj["inputs"],
                               verdict=verdict, witness=witness)
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
            if not isinstance(obj["checks"], list):
                raise ParseError(f"report checks must be a list, got {type(obj['checks']).__name__}")
            for key in ("campaign", "summary"):
                if not isinstance(obj[key], dict):
                    raise ParseError(f"report {key} must be an object, "
                                     f"got {type(obj[key]).__name__}")
            timing = obj.get("timing_seconds")
            if not (timing is None or type(timing) in (int, float)):
                raise ParseError(f"report timing_seconds must be a number or null, got {timing!r}")
            checks = tuple(CheckResult.from_json(c) for c in obj["checks"])
            return VerificationReport(campaign=obj["campaign"], checks=checks,
                                      summary=obj["summary"], timing_seconds=timing)
        except KeyError as exc:
            raise ParseError(f"report is missing field {exc}") from exc


def summarize(checks):
    by_theorem = {}
    for c in checks:
        per = by_theorem.get(c.theorem)
        if per is None:
            per = by_theorem[c.theorem] = dict.fromkeys(VERDICTS, 0)
        per[c.verdict] += 1
    counts = {v: sum(per[v] for per in by_theorem.values()) for v in VERDICTS}
    return {"total": len(checks), **counts, "by_theorem": by_theorem}


def _q_in_range(q):
    """The theorems quantify over 0 < q <= 1; reject q > 1 as out of scope."""
    return q.numerator <= q.denominator


def _ones(length):
    return (1,) * length


def _result(tag, inputs, verdict, witness=None, notes=(), violations=()):
    """A check's record, the one place one is built: a nonempty list of
    notes becomes the "annotations" of the witness (a new dict if None),
    and then a nonempty list of violations its "violations"."""
    if notes or violations:
        witness = {} if witness is None else witness
        if notes:
            witness["annotations"] = notes
        if violations:
            witness["violations"] = violations
    return CheckResult(tag, inputs, verdict, witness)


# (matroid, its JSON, a cache) while a campaign work unit runs: the unit's
# records share one JSON dict, and its checks compute each matroid query
# (structure, independent_set_counts) once; a check called on any other
# matroid, or outside a unit, computes its own
_unit = ContextVar("unit", default=None)


def _unit_of(matroid):
    unit = _unit.get()
    return unit if unit is not None and unit[0] is matroid else None


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


def _matroid_inputs(matroid, aspect=None, **values):
    """A record's inputs: the matroid's JSON (a work unit's shared dict),
    each validated value in call order in the wire form that _FROM_JSON
    reads back (q a scalar, c and w vectors, alpha a list), then the aspect
    if any.  The encoders are looked up at call time, so a wrapper on this
    module's *_to_json names sees every call."""
    unit = _unit_of(matroid)
    inputs = {"matroid": unit[1] if unit else matroid.to_json()}
    for key, value in values.items():
        inputs[key] = (scalar_to_json(value) if key == "q" else list(value) if key == "alpha"
                       else vector_to_json(value))
    if aspect is not None:
        inputs["aspect"] = aspect
    return inputs


def _multi_index_from_json(obj):
    if not isinstance(obj, (list, tuple)):
        raise ParseError(f"not a multi-index list: {obj!r}")
    return tuple(obj)


_FROM_JSON = {"c": vector_from_json, "q": scalar_from_json, "alpha": _multi_index_from_json,
              "w": vector_from_json}


def _ulc_terms(seq, size):
    """The two sides of ultra-log-concavity at size s: the triples
    (m, m (s-m) a_m^2, (m+1) (s-m+1) a_(m-1) a_(m+1)) for 1 <= m <= s-1."""
    for m in range(1, size):
        yield (m, m * (size - m) * seq[m] * seq[m],
               (m + 1) * (size - m + 1) * seq[m - 1] * seq[m + 1])


def _tight(m, lhs):
    """The note of an index m where both sides are equal."""
    return f"equality-at-{m}" if lhs else f"vacuous-at-{m}"


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
    inputs = _matroid_inputs(matroid, q=qv, w=wv)
    if n < 2:
        return _result(TAG_ONE_POSITIVE, inputs, NOT_APPLICABLE, notes=["degree-below-two"])
    if not _q_in_range(qv):
        return _result(TAG_ONE_POSITIVE, inputs, NOT_APPLICABLE, notes=["q-above-one"])
    _, _, rows, _ = second_order_numerators(matroid, _ones(n + 1), qv, (0,) * (n + 1), wv)
    sig = signature(SymMatrix(rows))
    return _result(TAG_ONE_POSITIVE, inputs, PASS if sig.n_pos == 1 else FAIL,
                   {"signature": list(sig)}, ["singular-hessian"] if sig.n_zero else ())


def check_derivative_one_positive(matroid, c, q, alpha, w):
    """Hessian of a derivative of Z_c under strictly log-concave c: on the
    active variables (index 0 plus the undifferentiated inner ones) the
    signature must be exactly (1, actives - 1, 0)."""
    n = matroid.n
    cv, _ = _coeffs(c, n)
    qv = validate_q(q)
    alpha = validate_alpha(alpha, n)
    wv = validate_point(w, n + 1, "positive")
    inputs = _matroid_inputs(matroid, c=cv, q=qv, alpha=alpha, w=wv)
    if not _q_in_range(qv):
        return _result(TAG_DERIVATIVE_ONE_POSITIVE, inputs, NOT_APPLICABLE, notes=["q-above-one"])
    degree = derivative_degree(matroid, alpha)
    if degree is None or degree < 2:
        return _result(TAG_DERIVATIVE_ONE_POSITIVE, inputs, NOT_APPLICABLE,
                       notes=["degree-below-two"])
    active = [0] + [i for i in range(1, n + 1) if alpha[i] == 0]
    _, _, rows, _ = second_order_numerators(matroid, cv, qv, alpha, wv)
    sig = signature(SymMatrix(tuple(tuple(rows[i][j] for j in active) for i in active)))
    witness = {"signature": list(sig), "active": active}
    expected = sig.n_pos == 1 and sig.n_zero == 0 and sig.n_neg == len(active) - 1
    return _result(TAG_DERIVATIVE_ONE_POSITIVE, inputs, PASS if expected else FAIL, witness)


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

    Route equality: Z[1] and Z[2] read off the singleton and pair ranks
    (potts.quadratic_numerators) must match the parallel-class form e_1(y)
    and e_2(y) - (1-q) * sum over classes of e_2(y restricted to the
    class), with y_i = q^(-rk({i})) w_i.

    Inequality: Z[1]^2 > 2 (c_0 c_2 / c_1^2) (n / (n-1)) Z[2] for every
    w != 0; the coefficient ratio is below one by strict log-concavity.
    At q = 1 the stronger coefficient-free bound
    Z[1]^2 >= 2 (n/(n-1)) e_2(y) is also confirmed (the classical mean
    inequality, valid for arbitrary signs).

    Both run on integers, Z[1] = z1 / scale, Z[2] = z2 / scale and
    y_i = Y_i / (a L) for q = a/b and w = W / L, cross-multiplied by their
    positive denominators.
    """
    n = matroid.n
    cv, cints = _coeffs(c, n)
    qv = validate_q(q)
    wv = validate_point(w, n, "nonzero")
    inputs = _matroid_inputs(matroid, "positive-point", c=cv, q=qv, w=wv)
    if n < 2:
        return _result(TAG_DEGREE_TWO, inputs, NOT_APPLICABLE, notes=["degree-below-two"])
    if not _q_in_range(qv):
        return _result(TAG_DEGREE_TWO, inputs, NOT_APPLICABLE, notes=["q-above-one"])
    z1, z2, scale = quadratic_numerators(matroid, qv, wv)
    a, b = qv.numerator, qv.denominator
    wints, lcm = clear_denominators(wv)
    y = [x * f for x, f in zip(wints, _singleton_factors(matroid, qv))]
    e1, e2 = sum(y), _e2(y)
    correction = sum(_e2([y[i - 1] for i in cls])
                     for cls in _once(structure, matroid).parallel_classes if len(cls) >= 2)
    # Z[1] = z1 / scale against e_1(y) = e1 / (a L), and Z[2] = z2 / scale
    # against e_2(y) - (1 - q) correction = (b e2 - (b - a) correction) / (b (a L)^2)
    y_den = a * lcm
    routes_match = (z1 * y_den == e1 * scale
                    and z2 * b * y_den * y_den == (b * e2 - (b - a) * correction) * scale)
    # bound = 2 (c_0 c_2 / c_1^2) (n / (n-1)) Z[2], with c_k = cints[k] / L_c
    bound_num = 2 * cints[0] * cints[2] * n * z2
    bound_den = cints[1] * cints[1] * (n - 1) * scale
    strict_ok = z1 * z1 * bound_den > bound_num * scale * scale
    notes = ["route-match"] if routes_match else []
    newton_ok = True
    if a == b:
        # e_1(y)^2 >= 2 (n/(n-1)) e_2(y); both sides are over (a L)^2
        newton_ok = (n - 1) * e1 * e1 >= 2 * n * e2
        if newton_ok:
            notes.append("mean-bound-at-q1")
    witness = {
        "z1": scalar_to_json(Fraction(z1, scale)),
        "z2": scalar_to_json(Fraction(z2, scale)),
        "bound": scalar_to_json(Fraction(bound_num, bound_den)),
        "routes_match": routes_match,
    }
    verdict = PASS if (routes_match and strict_ok and newton_ok) else FAIL
    return _result(TAG_DEGREE_TWO, inputs, verdict, witness, notes)


def check_degree_two_zero_line(matroid, q, w):
    """On the hyperplane Z[1] = 0, every nonzero point must give Z[2] < 0.

    Z[1] has positive singleton coefficients, so no nonzero point lies on
    the plane when n < 2: the input checks leave n >= 2."""
    n = matroid.n
    qv = validate_q(q)
    wv = validate_point(w, n, "nonzero")
    inputs = _matroid_inputs(matroid, "zero-line", q=qv, w=wv)
    z1, z2, scale = quadratic_numerators(matroid, qv, wv)
    if z1 != 0:
        raise InvalidParametersError("the point does not lie on the Z[1] = 0 hyperplane")
    if not _q_in_range(qv):
        return _result(TAG_DEGREE_TWO, inputs, NOT_APPLICABLE, notes=["q-above-one"])
    witness = {"z2": scalar_to_json(Fraction(z2, scale))}
    return _result(TAG_DEGREE_TWO, inputs, PASS if z2 < 0 else FAIL, witness)


def check_strata_ultra_log_concave(matroid, q, w):
    """m(n-m) Z[m]^2 >= (m+1)(n-m+1) Z[m-1] Z[m+1] for 1 <= m <= n-1 at a
    nonnegative point.  Indices with equality are annotated; at q = 1 and
    the all-ones point every index is tight.  Both sides are over scale^2
    at every m (Z[k] = nums[k] / scale), so the numerators are compared."""
    n = matroid.n
    qv = validate_q(q)
    wv = validate_point(w, n, "nonnegative")
    inputs = _matroid_inputs(matroid, q=qv, w=wv)
    if n < 2:
        return _result(TAG_STRATA_ULC, inputs, VACUOUS, notes=["no-interior-indices"])
    if not _q_in_range(qv):
        return _result(TAG_STRATA_ULC, inputs, NOT_APPLICABLE, notes=["q-above-one"])
    nums, scale = strata_numerators(matroid, qv, wv)
    notes = []
    violations = []
    tight_nonzero = 0
    for m, lhs, rhs in _ulc_terms(nums, n):
        if lhs < rhs:
            violations.append({"m": m, "lhs": scalar_to_json(Fraction(lhs, scale * scale)),
                               "rhs": scalar_to_json(Fraction(rhs, scale * scale))})
        elif lhs == rhs:
            notes.append(_tight(m, lhs))
            if lhs:
                tight_nonzero += 1
    if tight_nonzero == n - 1:
        notes.append("zero-slack-everywhere")
    return _result(TAG_STRATA_ULC, inputs, FAIL if violations else PASS, None, notes, violations)


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
        return _result(TAG_COUNT_LOG_CONCAVITY, inputs, FAIL,
                       {"counts": list(counts), "recount": list(recount)}, ["route-mismatch"])
    if n < 2:
        return _result(TAG_COUNT_LOG_CONCAVITY, inputs, VACUOUS, {"counts": list(counts)},
                       ["route-match", "no-interior-indices"])
    notes = ["route-match"]
    violations = []
    for k, lhs, rhs in _ulc_terms(counts, n):
        saturated = counts[k + 1] == math.comb(n, k + 1)
        if lhs < rhs:
            violations.append({"k": k, "lhs": lhs, "rhs": rhs})
        elif lhs == rhs:
            notes.append(_tight(k, lhs))
            if lhs and not saturated:
                violations.append({"k": k, "reason": "equality-without-saturation",
                                   "count": counts[k + 1], "expected": math.comb(n, k + 1)})
        elif saturated:
            violations.append({"k": k, "reason": "saturation-without-equality",
                               "lhs": lhs, "rhs": rhs})
    return _result(TAG_COUNT_LOG_CONCAVITY, inputs, FAIL if violations else PASS,
                   {"counts": list(counts)}, notes, violations)


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
    simple = simplify(matroid, _once(structure, matroid))
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
    for m, lhs, rhs in _ulc_terms(counts, ell):
        if lhs < rhs:
            violations.append({"m": m, "lhs": lhs, "rhs": rhs,
                               "reason": "simple-size-bound"})
        elif lhs == rhs:
            notes.append(_tight(m, lhs))
        if not binomial_dominance(ell, n, m):
            violations.append({"m": m, "reason": "binomial-dominance"})
    if ell < 2:
        notes.append("no-interior-indices")
    # the annotations list is part of the witness even when it is empty
    witness = {"counts": list(counts), "simple_size": ell, "annotations": notes}
    return _result(TAG_SIMPLIFICATION, inputs, FAIL if violations else PASS, witness,
                   violations=violations)


def check_log_concavity_at(matroid, c, q, w):
    """log Z_c is concave at a positive point: the matrix
    N = Z * H - grad grad^T must have no positive eigenvalue, and along the
    base ray w^T N w = -n Z^2 exactly (homogeneity of degree n).

    No N is built: for D = diag(w_0, ..., w_n) the bordered matrix
    B = [[Z, (D grad)^T], [D grad, D H D]] has the Schur complement
    D N D / Z at Z > 0, so In(B) = (1, 0, 0) + In(N) by Haynsworth's
    inertia additivity and Sylvester's law.  D 1 = w, so the ray is
    Z 1^T (D H D) 1 - (1^T D grad)^2."""
    n = matroid.n
    cv, _ = _coeffs(c, n, strict=False)
    qv = validate_q(q)
    wv = validate_point(w, n + 1, "positive")
    inputs = _matroid_inputs(matroid, c=cv, q=qv, w=wv)
    if not _q_in_range(qv):
        return _result(TAG_LOG_CONCAVITY, inputs, NOT_APPLICABLE, notes=["q-above-one"])
    # B and the ray over a positive factor: z / scale = Z / w_0^n
    z, grad, hess, scale = second_order_numerators(matroid, cv, qv, (0,) * (n + 1), wv)
    if z <= 0:
        raise ImpossibleStateError(f"Z_c is not positive at the positive point {wv}")
    bordered = (z, *grad), *((g, *row) for g, row in zip(grad, hess))
    n_pos, n_neg, n_zero = signature(SymMatrix(bordered))
    sig = [n_pos - 1, n_neg, n_zero]
    ray = z * sum(map(sum, hess)) - sum(grad) ** 2
    ray_ok = ray == -n * z * z
    witness = {"signature": sig,
               "ray": scalar_to_json(Fraction(ray, scale * scale) * wv[0] ** (2 * n))}
    return _result(TAG_LOG_CONCAVITY, inputs, PASS if (sig[0] == 0 and ray_ok) else FAIL,
                   witness, ["ray-identity"] if ray_ok else ())


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


# Task generators: (mi, matroid, seed, samples, q_grid) -> the argument
# tuples (matroid, *inputs) of one CHECKS row's check for corpus member mi.
# Every sample draws from its own child_rng(seed, stream, mi, ...), so a
# task does not depend on the order in which the others were generated.


def _tasks_one_positive(mi, matroid, seed, samples, q_grid):
    dim = matroid.n + 1
    stress = adversarial_points(dim)
    for qi, q in enumerate(q_grid):
        points = stress + [sample_positive_point(child_rng(seed, 11, mi, qi, j), dim)
                           for j in range(samples)]
        for w in points:
            yield matroid, q, w


def _tasks_derivative_one_positive(mi, matroid, seed, samples, q_grid):
    n = matroid.n
    coeffs = [log_concave_coeffs(n, ratio) for ratio in default_c_ratios()[:samples]]
    alphas = distinct_alphas(child_rng(seed, 21, mi).randrange(2 ** 32),
                             n, samples, min_degree=2)
    for ci, c in enumerate(coeffs):
        for ai, alpha in enumerate(alphas):
            for t in range(samples):
                w = sample_positive_point(child_rng(seed, 22, mi, ci, ai, t), n + 1)
                yield matroid, c, q_grid[t % len(q_grid)], alpha, w


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
        yield matroid, c, q_grid[j % len(q_grid)], w


def _tasks_degree_two_zero_line(mi, matroid, seed, samples, q_grid):
    if matroid.n < 2:
        return
    for j in range(samples):
        q = q_grid[j % len(q_grid)]
        yield matroid, q, _zero_line_point(matroid, q, child_rng(seed, 32, mi, j))


def _tasks_strata_ulc(mi, matroid, seed, samples, q_grid):
    n = matroid.n
    # reference point first: q = 1 at all-ones is tight at every index
    yield matroid, 1, _ones(n)
    for j in range(samples):
        w = sample_nonneg_point(child_rng(seed, 41, mi, j), n)
        yield matroid, q_grid[j % len(q_grid)], w


def _tasks_once(mi, matroid, seed, samples, q_grid):
    """The one task of a theorem checked once per matroid."""
    yield (matroid,)


def _tasks_log_concavity(mi, matroid, seed, samples, q_grid):
    n = matroid.n
    for j in range(samples):
        rng = child_rng(seed, 71, mi, j)
        c = _ones(n + 1) if j == 0 else sample_log_concave_coeffs(rng, n)
        w = sample_positive_point(rng, n + 1)
        yield matroid, c, q_grid[j % len(q_grid)], w


# One row per check kind, in report order: (theorem, aspect) -> (task
# generator, check function name, input keys after the matroid, in call
# order).  Campaigns, replay_check and the CLI's single check all read it;
# aspect is the "aspect" input of the record (None when the theorem has
# one check), and a theorem's first row is its single-check default.
# Checks are looked up by name in this module's globals at call time, so
# a wrapper installed on a check_* name is what runs.
CHECKS = {
    (TAG_ONE_POSITIVE, None): (_tasks_one_positive, "check_one_positive", ("q", "w")),
    (TAG_DERIVATIVE_ONE_POSITIVE, None): (
        _tasks_derivative_one_positive, "check_derivative_one_positive",
        ("c", "q", "alpha", "w")),
    (TAG_DEGREE_TWO, "positive-point"): (_tasks_degree_two, "check_degree_two", ("c", "q", "w")),
    (TAG_DEGREE_TWO, "zero-line"): (
        _tasks_degree_two_zero_line, "check_degree_two_zero_line", ("q", "w")),
    (TAG_STRATA_ULC, None): (_tasks_strata_ulc, "check_strata_ultra_log_concave", ("q", "w")),
    (TAG_COUNT_LOG_CONCAVITY, None): (_tasks_once, "check_count_log_concavity", ()),
    (TAG_SIMPLIFICATION, None): (_tasks_once, "check_simplification_bound", ()),
    (TAG_LOG_CONCAVITY, None): (_tasks_log_concavity, "check_log_concavity_at", ("c", "q", "w")),
}
# the theorem tags, in report order
ALL_THEOREMS = tuple(dict.fromkeys(tag for tag, _ in CHECKS))


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


def call_check(name, args):
    """Run the check named in a CHECKS row on (matroid, *inputs)."""
    return globals()[name](*args)


def _matroid_checks(mi, matroid, theorems, seed, samples, q_grid):
    """One work unit: run the tasks of corpus member mi that each theorem's
    CHECKS rows generate, returning one list of results per theorem.  The
    unit's records share one matroid JSON dict, and its checks compute
    each matroid query once (_once)."""
    token = _unit.set((matroid, matroid.to_json(), {}))
    try:
        return [[call_check(name, args)
                 for (tag, _), (tasks, name, _) in CHECKS.items() if tag == theorem
                 for args in tasks(mi, matroid, seed, samples, q_grid)]
                for theorem in theorems]
    finally:
        _unit.reset(token)


def _claim(claims):
    """The index of the next unclaimed unit in the claims file (file
    descriptor `claims`), or None once every unit is taken.  The processes
    of a campaign share the file's one offset, which the kernel moves
    atomically, so each four-byte read takes a different unit."""
    taken = os.read(claims, 4)
    return int.from_bytes(taken, "little") if taken else None


def _run_claims(units, claims, out):
    """A campaign's child process: claim units until none is left, keeping
    each one's records as plain (theorem, inputs, verdict, witness) tuples,
    then write to the file `out`, in one write, the marshal data (True,
    [(unit index, per theorem its records), ...]), or (False, the pickled
    exception that stopped it)."""
    try:
        sent = []
        while (i := _claim(claims)) is not None:
            sent.append((i, [[(r.theorem, r.inputs, r.verdict, r.witness) for r in results]
                             for results in _matroid_checks(*units[i])]))
        data = marshal.dumps((True, sent))
    except Exception as exc:  # the caller raises it
        import pickle
        data = marshal.dumps((False, pickle.dumps(exc)))
    out.write(data)
    out.flush()


def _execute(units, workers):
    """Run (mi, matroid, theorems, seed, samples, q_grid) units through
    _matroid_checks; results come back in unit order, so a report is the
    same at any worker count.

    The processes are capped at min(workers, units, usable CPUs).  Under a
    cap of one, or where the platform cannot fork, everything runs here.
    Otherwise this process forks cap - 1 children, and all of them claim
    units one at a time, costliest first (2^n down, then unit index),
    from one claims file whose offset they share: a process that draws
    long units or starts late runs fewer, and no unit is bound to any
    process.  Tasks are sampled in the process that runs them.  Each
    child has a temporary file of its own, made before the fork; when its
    claims run out it writes all its records there in one write, as
    marshal data (the records are plain data; marshal writes an object
    repeated in one message once, so a child's records still share one
    matroid JSON dict per unit and one dict per equal scalar), or the
    exception that stopped it.  A file never fills, so a child never waits
    on this process.  Once its own claims run out, this process joins
    each child, reads its file with one read, and rebuilds its
    CheckResults; a child that exited with a nonzero code or wrote
    nothing is a RuntimeError, and a child's exception is raised here,
    only after this process has run the units that are left.  When the
    processes fill the whole affinity set (cap equal to its size), this
    thread pins child s (s = 1, ..., cap - 1) to the s-th of its CPUs in
    sorted order, counting from 0, as soon as the child has started,
    which leaves the first free for this thread (a child that cannot be
    placed keeps the whole set); this thread's own set is never changed.
    Without placement the kernel may keep a young child on the caller's
    CPU for longer than a short campaign lasts, and the processes take
    turns instead of running side by side.  A campaign that uses only part
    of the set is not placed, so campaigns running side by side do not all
    pin children to the same lowest CPUs.  Every child is joined; one
    still running when the campaign raises is terminated first."""
    # more processes than units or usable CPUs (the affinity set, where the
    # platform has one) gain nothing
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    cap = min(workers, len(units), len(cpus) or os.cpu_count() or 1)
    if cap <= 1 or not hasattr(os, "fork"):
        return [_matroid_checks(*unit) for unit in units]
    import multiprocessing
    import pickle
    import tempfile

    # the children inherit the claims file's descriptor, so they are forked
    fork = multiprocessing.get_context("fork")
    order = sorted(range(len(units)), key=lambda i: (-units[i][1].n, i))
    placed = cap == len(cpus)
    results = [None] * len(units)
    children = []
    # a regular file, not a memfd: concurrent reads through one memfd
    # offset have returned the same position to two processes
    with tempfile.TemporaryFile(buffering=0) as file:
        file.write(b"".join(i.to_bytes(4, "little") for i in order))
        file.seek(0)
        claims = file.fileno()
        try:
            for s in range(1, cap):
                out = tempfile.TemporaryFile()
                child = fork.Process(target=_run_claims, args=(units, claims, out))
                children.append((child, out))
                child.start()
                if placed:
                    # best effort: a CPU the child may not use, or a child
                    # that has already exited, leaves it where it was
                    try:
                        os.sched_setaffinity(child.pid, (cpus[s],))
                    except OSError:
                        pass
            while (i := _claim(claims)) is not None:
                results[i] = _matroid_checks(*units[i])
            for child, out in children:
                child.join()
                out.seek(0)
                data = out.read()
                if child.exitcode or not data:
                    raise RuntimeError(
                        f"a campaign child process exited with code {child.exitcode} "
                        "without sending its records")
                ok, sent = marshal.loads(data)
                if not ok:
                    raise pickle.loads(sent)
                for i, records in sent:
                    results[i] = [[CheckResult(*r) for r in per_theorem] for per_theorem in records]
        except BaseException:
            for child, _ in children:
                if child.is_alive():
                    child.terminate()
            raise
        finally:
            for child, out in children:
                if child.pid is not None:
                    child.join()
                out.close()
    return results


def run_campaign(corpus, config=None):
    """Run the configured theorems over a corpus and aggregate a report.

    The unit of work is one matroid: it generates and runs that matroid's
    tasks for every requested theorem, and its records share one matroid
    JSON dict.  While _execute runs (scalars.shared_wire), every record
    holds one shared dict per distinct exact scalar; a forked child fills
    its own table, and its one message carries its repeated dicts once.
    The records are read-only data.  At workers=1 every unit runs in this
    process; above it, this process and at most workers - 1 child
    processes claim the units one at a time and each child writes all
    its records back in one file write.  The children are pinned to CPUs
    of their own when the processes fill the affinity set; this thread's
    set is never changed (see _execute).  The checks are reported theorem
    by theorem (in ALL_THEOREMS order), matroid by matroid within a
    theorem.  The worker count affects wall time only, so the report
    content is a function of (corpus, seed, samples, theorems, q_grid)
    alone.
    """
    cfg = config or CampaignConfig()
    unknown = [t for t in cfg.theorems if t not in ALL_THEOREMS]
    if unknown:
        raise InvalidParametersError(f"unknown theorem tags {unknown!r}")
    if not cfg.theorems:
        # like an empty corpus: a campaign of no checks would pass vacuously
        raise InvalidParametersError("no theorem selected")
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
    with shared_wire():
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


def replay_check(check):
    """Re-run a stored check from its recorded inputs and return the fresh
    result; replaying a report must reproduce every verdict and witness."""
    if isinstance(check, dict):
        check = CheckResult.from_json(check)
    inputs = check.inputs
    if not isinstance(inputs, dict):
        raise ParseError(f"check inputs must be an object, got {type(inputs).__name__}")
    key = (check.theorem, inputs.get("aspect"))
    if not (key[1] is None or isinstance(key[1], str)):
        raise ParseError(f"check aspect must be a string, got {key[1]!r}")
    if key not in CHECKS:
        raise InvalidParametersError(f"cannot replay theorem {key[0]!r} with aspect {key[1]!r}")
    _, name, keys = CHECKS[key]
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
