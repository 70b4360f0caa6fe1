"""Command line interface.

Subcommands:

  eval       evaluate strata Z[k] or the weighted polynomial Z_c
  hessian    print the Hessian of a derivative of Z_c
  spectrum   print the exact signature of that Hessian
  verify     run verification campaigns over a corpus, or one check
  corpus     list the matroids a corpus spec expands to
  mason      count-sequence log-concavity report for one matroid

Exit codes: 0 success / all checks passed, 1 a verification check failed,
2 usage or configuration error, 3 resource limit exceeded.

Scalar arguments are rationals written as "num/den" (or plain integers).
Floats are accepted only with --mode float, a format: each scalar is
rounded to a double and converted exactly, the library evaluates exactly,
and each printed result is rounded once.  So spectrum prints the exact
signature in either mode; its float eigenvalues are only a diagnostic.
All JSON output is printed with
sorted keys so identical inputs give byte-identical output; timing is
only written to --out report files, never to stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .corpus import generate_corpus, parse_corpus_spec
from .errors import InvalidParametersError, ParseError, PottsHodgeError, ResourceLimitError
from .matroids import from_json as matroid_from_json
from .potts import derivative_degree, hessian, z_weighted_eval, zk_all, zk_eval
from .scalars import EXACT, FLOAT, from_float, parse_rational, to_float
from .scalars import scalar_to_json, vector_to_json
from .spectral import float_eigenvalues, signature
from .verify import (
    ALL_THEOREMS,
    CHECKS,
    CampaignConfig,
    FAIL,
    VERDICTS,
    VerificationReport,
    call_check,
    check_count_log_concavity,
    run_campaign,
    summarize,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_scalar(text, mode):
    """A rational literal; in float mode also a float literal, and either is
    rounded to a double and then converted exactly."""
    try:
        value = parse_rational(text)
    except ParseError:
        if mode == EXACT:
            raise
        try:
            value = float(text)
        except ValueError as exc:
            raise ParseError(f"cannot parse scalar {text!r}") from exc
    return from_float(value) if mode == FLOAT else value


def _parse_vector(text, mode, name):
    if not text.strip():
        raise ParseError(f"{name} must be a nonempty comma-separated list")
    return tuple(_parse_scalar(tok.strip(), mode) for tok in text.split(","))


def _parse_alpha(text):
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"multi-index entries must be integers: {text!r}") from exc


def _load_matroid(arg):
    """--matroid accepts inline JSON (starts with '{') or a file path."""
    text = arg.strip()
    if not text.startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read matroid file {arg!r}: {exc}") from exc
    return matroid_from_json(text)


_FLOAT_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj, indent="\n"):
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, one
    join per container instead of json's pure-Python indented encoder;
    TypeError for anything but JSON values with string keys."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_JSON.get(text, text)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return f"[{inner}{(',' + inner).join([_json_text(x, inner) for x in obj])}{indent}]"
    if not isinstance(obj, dict):
        raise TypeError(f"{type(obj).__name__} is not a JSON value")
    if not obj:
        return "{}"
    items = [f"{_encode_str(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items())]
    return f"{{{inner}{(',' + inner).join(items)}{indent}}}"


def _dump_json(obj, file=None):
    print(_json_text(obj), file=file)


def _format_scalar(x):
    if isinstance(x, float):
        return repr(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _shown(value, mode):
    """An exact result in the output form of the mode: rounded once in
    float mode."""
    return to_float(value) if mode == FLOAT else value


# ------------------------------------------------------------ commands


def _cmd_eval(args):
    if args.c is not None and args.k is not None:
        raise InvalidParametersError("eval takes --k or --c, not both")
    matroid = _load_matroid(args.matroid)
    mode = args.mode
    q = _parse_scalar(args.q, mode)
    w = _parse_vector(args.w, mode, "--w")
    if args.c is not None:
        payload, value = {}, z_weighted_eval(matroid, _parse_vector(args.c, mode, "--c"), q, w)
    elif args.k is not None:
        payload, value = {"k": args.k}, zk_eval(matroid, args.k, q, w)
    else:
        strata = [_shown(x, mode) for x in zk_all(matroid, q, w)]
        if args.json:
            _dump_json({"strata": vector_to_json(strata)})
        else:
            for k, value in enumerate(strata):
                print(f"Z[{k}] = {_format_scalar(value)}")
        return EXIT_OK
    value = _shown(value, mode)
    if args.json:
        _dump_json({**payload, "value": scalar_to_json(value)})
    else:
        print(_format_scalar(value))
    return EXIT_OK


def _hessian_inputs(args):
    matroid = _load_matroid(args.matroid)
    mode = args.mode
    q = _parse_scalar(args.q, mode)
    w = _parse_vector(args.w, mode, "--w")
    c = _parse_vector(args.c, mode, "--c") if args.c is not None else (1,) * (matroid.n + 1)
    alpha = _parse_alpha(args.alpha) if args.alpha is not None else \
        tuple([0] * (matroid.n + 1))
    return matroid, c, q, alpha, w


def _cmd_hessian(args):
    rows = [[_shown(x, args.mode) for x in row]
            for row in hessian(*_hessian_inputs(args)).entries]
    if args.json:
        _dump_json({"dim": len(rows), "entries": [vector_to_json(row) for row in rows]})
    else:
        for row in rows:
            print("  ".join(_format_scalar(x) for x in row))
    return EXIT_OK


def _cmd_spectrum(args):
    matroid, c, q, alpha, w = _hessian_inputs(args)
    # the exact signature of the exact Hessian, in either mode; the Hessian
    # validates every input, and alpha alone decides whether it is zero
    mat = hessian(matroid, c, q, alpha, w)
    sig = signature(mat)
    zero = derivative_degree(matroid, alpha) is None
    eigs = [] if zero else list(float_eigenvalues(mat))
    payload = {
        "signature": [sig.n_pos, sig.n_neg, sig.n_zero],
        "identically_zero": zero,
        "eigenvalues_float": eigs,
    }
    if args.json:
        _dump_json(payload)
    else:
        if zero:
            print("the derivative is identically zero; its Hessian is the zero matrix")
        print(f"signature: {sig.n_pos} positive, {sig.n_neg} negative, {sig.n_zero} zero")
        if not zero:
            print("eigenvalues (float, diagnostic): "
                  + "[" + ", ".join(f"{e:.6g}" for e in eigs) + "]")
    return EXIT_OK


# parse one --c/--q/--alpha/--w argument of a single check
_PARSE_INPUT = {
    "c": lambda text: _parse_vector(text, EXACT, "--c"),
    "q": lambda text: _parse_scalar(text, EXACT),
    "alpha": _parse_alpha,
    "w": lambda text: _parse_vector(text, EXACT, "--w"),
}


def _run_single_check(args):
    if args.matroid is None:
        raise InvalidParametersError("--c, --q, --alpha and --w need --matroid")
    for option in ("q_grid", "seed", "samples", "workers"):
        if getattr(args, option) is not None:
            raise InvalidParametersError(f"--{option.replace('_', '-')} applies to campaigns, "
                                         "not to a single check")
    if len(args.theorem or ()) != 1:
        raise InvalidParametersError("--matroid verification takes exactly one --theorem")
    tag = args.theorem[0]
    # a theorem's first CHECKS row is the one a single input runs
    _, name, keys = next(row for (theorem, _), row in CHECKS.items() if theorem == tag)
    for key in _PARSE_INPUT:
        if key not in keys and getattr(args, key) is not None:
            raise InvalidParametersError(f"theorem {tag} takes no --{key}")
    for key in keys:
        if getattr(args, key) is None:
            raise InvalidParametersError(f"theorem {tag} needs --{key}")
    matroid = _load_matroid(args.matroid)
    values = [_PARSE_INPUT[key](getattr(args, key)) for key in keys]
    checks = (call_check(name, (matroid, *values)),)
    return VerificationReport(
        campaign={"name": "single-check", "theorems": [tag]},
        checks=checks, summary=summarize(checks))


def _report_text(report):
    lines = []
    for tag, counts in report.summary.get("by_theorem", {}).items():
        parts = ", ".join(f"{counts[v]} {v}" for v in VERDICTS if counts.get(v))
        lines.append(f"{tag}: {parts}")
    for check in report.checks:
        if check.verdict == FAIL:
            lines.append(f"FAIL {check.theorem}: witness={json.dumps(check.witness, sort_keys=True)}")
    total = report.summary.get("total", 0)
    fails = report.summary.get(FAIL, 0)
    lines.append(f"{total} checks: " + ("all passed" if fails == 0 else f"{fails} FAILED"))
    return "\n".join(lines)


def _cmd_verify(args):
    if args.corpus is not None and args.matroid is not None:
        raise InvalidParametersError("verify takes --corpus or --matroid, not both")
    if args.out:
        # an unwritable path is a usage error before any check runs (append
        # mode: an existing report is not truncated until one replaces it; a
        # file the probe creates is removed again, so a failed run leaves none)
        try:
            created = not os.path.exists(args.out)
            open(args.out, "a", encoding="utf-8").close()
            if created:
                os.remove(args.out)
        except OSError as exc:
            raise InvalidParametersError(f"cannot write --out file {args.out!r}: {exc}") from exc
    if any(getattr(args, key) is not None for key in _PARSE_INPUT):
        report = _run_single_check(args)
    else:
        if args.matroid is not None:
            # an explicit matroid with no point arguments: campaign of one
            corpus = [_load_matroid(args.matroid)]
            corpus_spec = "explicit-matroid"
        else:
            corpus_spec = args.corpus or "default"
            corpus = generate_corpus(parse_corpus_spec(corpus_spec))
        # CampaignConfig holds the default of every option not given
        given = {key: getattr(args, key) for key in ("seed", "samples", "workers")
                 if getattr(args, key) is not None}
        if args.theorem:
            given["theorems"] = tuple(args.theorem)
        if args.q_grid is not None:
            # run_campaign validates the grid with the rest of the config
            given["q_grid"] = _parse_vector(args.q_grid, EXACT, "--q-grid")
        report = run_campaign(corpus, CampaignConfig(corpus_label=corpus_spec, **given))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _dump_json(report.to_json(include_timing=True), fh)
    if args.json:
        _dump_json(report.to_json())
    else:
        print(_report_text(report))
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_corpus(args):
    corpus = generate_corpus(parse_corpus_spec(args.spec))
    if args.json:
        _dump_json({"count": len(corpus), "matroids": [m.to_json() for m in corpus]})
    else:
        for i, m in enumerate(corpus):
            print(f"[{i}] {m}")
        print(f"{len(corpus)} matroids")
    return EXIT_OK


def _cmd_mason(args):
    matroid = _load_matroid(args.matroid)
    check = check_count_log_concavity(matroid)
    if args.json:
        _dump_json(check.to_json())
    else:
        counts = check.witness["counts"]
        print(f"independent-set counts: {counts}")
        print(f"verdict: {check.verdict}")
        for note in check.annotations:
            print(f"  note: {note}")
        for violation in (check.witness or {}).get("violations", ()):
            print(f"  violation: {json.dumps(violation, sort_keys=True)}")
    return EXIT_OK if check.verdict != FAIL else EXIT_CHECK_FAILED


# -------------------------------------------------------------- parser


def _add_point_args(sub, with_c=True, with_alpha=False):
    sub.add_argument("--matroid", required=True,
                     help="matroid JSON (inline or a file path)")
    sub.add_argument("--q", required=True, help="positive rational, e.g. 1/2")
    sub.add_argument("--w", required=True, help="comma-separated rationals")
    if with_c:
        sub.add_argument("--c", help="coefficient sequence c_0..c_n")
    if with_alpha:
        sub.add_argument("--alpha", help="differentiation multi-index over w_0..w_n")
    sub.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="potts-hodge",
        description="exact spectral checks for matroid rank-generating polynomials")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate strata or the weighted polynomial")
    _add_point_args(p_eval)
    p_eval.add_argument("--k", type=int, help="print a single stratum Z[k]")
    p_eval.set_defaults(fn=_cmd_eval)

    p_hess = subs.add_parser("hessian", help="Hessian of a derivative of Z_c")
    _add_point_args(p_hess, with_alpha=True)
    p_hess.set_defaults(fn=_cmd_hessian)

    p_spec = subs.add_parser("spectrum", help="signature of that Hessian")
    _add_point_args(p_spec, with_alpha=True)
    p_spec.set_defaults(fn=_cmd_spectrum)

    p_verify = subs.add_parser("verify", help="run verification campaigns")
    p_verify.add_argument("--corpus", help="corpus spec, e.g. 'default' or 'uniform,n<=4'")
    p_verify.add_argument("--theorem", action="append", choices=ALL_THEOREMS,
                          help="restrict to one theorem tag (repeatable)")
    # the campaign options default to None so that a single check can
    # refuse them
    p_verify.add_argument("--seed", type=int, help=f"campaign seed (default {CampaignConfig.seed})")
    p_verify.add_argument("--samples", "--trials", type=int,
                          help=f"sample count per randomized stream (default {CampaignConfig.samples})")
    p_verify.add_argument("--q-grid", dest="q_grid",
                          help="comma-separated q values replacing the default grid")
    p_verify.add_argument("--workers", type=int,
                          help=f"worker processes (default {CampaignConfig.workers})")
    p_verify.add_argument("--matroid", help="check one explicit input instead of a corpus")
    p_verify.add_argument("--c", help="coefficient sequence for single-input checks")
    p_verify.add_argument("--q", help="q for single-input checks")
    p_verify.add_argument("--alpha", help="multi-index for single-input checks")
    p_verify.add_argument("--w", help="point for single-input checks")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out", help="also write the report (with timing) to a file")
    p_verify.set_defaults(fn=_cmd_verify)

    p_corpus = subs.add_parser("corpus", help="list the matroids in a corpus")
    p_corpus.add_argument("--spec", default="default")
    p_corpus.add_argument("--json", action="store_true")
    p_corpus.set_defaults(fn=_cmd_corpus)

    p_mason = subs.add_parser("mason", help="count log-concavity report for one matroid")
    p_mason.add_argument("--matroid", required=True)
    p_mason.add_argument("--json", action="store_true")
    p_mason.set_defaults(fn=_cmd_mason)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PottsHodgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
