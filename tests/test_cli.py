"""End-to-end command line tests via main(argv)."""

import hashlib
import json

import pytest

from potts_hodge import CheckResult, VerificationReport
from potts_hodge.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)
from potts_hodge.matroids import MAX_N_ENV_VAR
from potts_hodge.verify import ALL_THEOREMS

U24 = '{"type": "uniform", "rank": 2, "n": 4}'
U12 = '{"type": "uniform", "rank": 1, "n": 2}'
K3 = '{"type": "graphic", "vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_strata_text(capsys):
    code, out, err = run(capsys, "eval", "--matroid", U24, "--q", "1/2",
                         "--w", "1,2,3,4")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "Z[0] = 1",
        "Z[1] = 20",
        "Z[2] = 140",
        "Z[3] = 200",
        "Z[4] = 96",
    ]


def test_eval_single_stratum_and_weighted(capsys):
    code, out, _ = run(capsys, "eval", "--matroid", U24, "--q", "1/2",
                       "--w", "1,2,3,4", "--k", "2")
    assert code == EXIT_OK and out.strip() == "140"
    code, out, _ = run(capsys, "eval", "--matroid", U24, "--q", "1/2",
                       "--w", "1,1,2,3,4", "--c", "5,4,3,2,1", "--json")
    assert code == EXIT_OK
    assert json.loads(out) == {"value": {"num": "1001", "den": "1"}}


def test_eval_matroid_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(U24, encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--matroid", str(path), "--q", "1",
                       "--w", "1,1,1,1", "--k", "0")
    assert code == EXIT_OK and out.strip() == "1"


# K3 at q = 1/2 and w = (1/2, 2/3, 3): Z[k] sums 2^rk(A) * w^A over the
# k-edge sets A, so Z = (1, 25/3, 46/3, 4), two strata with denominator 3
K3_EVAL = ("eval", "--matroid", K3, "--q", "1/2", "--w", "1/2,2/3,3")


def test_eval_rational_strata_text_and_json(capsys):
    code, out, _ = run(capsys, *K3_EVAL)
    assert code == EXIT_OK
    assert out == "Z[0] = 1\nZ[1] = 25/3\nZ[2] = 46/3\nZ[3] = 4\n"
    code, out, _ = run(capsys, *K3_EVAL, "--json")
    assert code == EXIT_OK
    assert json.loads(out) == {"strata": [{"num": "1", "den": "1"}, {"num": "25", "den": "3"},
                                          {"num": "46", "den": "3"}, {"num": "4", "den": "1"}]}
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_eval_rational_single_stratum_text_and_json(capsys):
    code, out, _ = run(capsys, *K3_EVAL, "--k", "2")
    assert code == EXIT_OK and out == "46/3\n"
    code, out, _ = run(capsys, *K3_EVAL, "--k", "2", "--json")
    assert code == EXIT_OK
    assert out == '{\n  "k": 2,\n  "value": {\n    "den": "3",\n    "num": "46"\n  }\n}\n'


@pytest.mark.parametrize("q,shown", [("0", "0"), ("-1/2", "-1/2"), ("-3", "-3")])
def test_nonpositive_q_is_printed_as_a_rational(capsys, q, shown):
    code, out, err = run(capsys, "spectrum", "--matroid", U12, f"--q={q}", "--w", "1,2,3")
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: q must be positive, got {shown}\n"


def test_eval_float_mode(capsys):
    code, out, _ = run(capsys, "eval", "--matroid", U24, "--q", "0.5",
                       "--w", "1,2,3,4", "--mode", "float", "--k", "2")
    assert code == EXIT_OK
    assert abs(float(out) - 140.0) < 1e-9


@pytest.mark.parametrize("q,w", [("nan", "1,2,3,4"), ("inf", "1,2,3,4"), ("-inf", "1,2,3,4"),
                                 ("1/2", "1,nan,3,4"), ("1/2", "1,2,-inf,4")])
def test_float_mode_rejects_non_finite(capsys, q, w):
    code, out, err = run(capsys, "eval", "--matroid", U24, f"--q={q}", f"--w={w}",
                         "--mode", "float")
    assert code == EXIT_USAGE
    assert out == "" and "finite" in err


def test_exact_mode_rejects_float_literal(capsys):
    code, _, err = run(capsys, "eval", "--matroid", U24, "--q", "0.5",
                       "--w", "1,2,3,4")
    assert code == EXIT_USAGE
    assert "error:" in err and "rational" in err


def test_malformed_matroid_json(capsys):
    code, _, err = run(capsys, "eval", "--matroid", '{"type": "uniform",',
                       "--q", "1", "--w", "1")
    assert code == EXIT_USAGE
    assert "line 1, column" in err


@pytest.mark.parametrize("argv, message", [
    (("eval", "--matroid", U24, "--q", "half", "--w", "1,2,3,4", "--mode", "float"),
     "cannot parse scalar 'half'"),
    (("eval", "--matroid", U24, "--q", "1", "--w", " "),
     "--w must be a nonempty comma-separated list"),
    (("hessian", "--matroid", U12, "--q", "1", "--w", "1,1,1", "--alpha", "0,1/2,0"),
     "multi-index entries must be integers: '0,1/2,0'"),
    # a directory: open() fails whatever the working directory holds
    (("eval", "--matroid", ".", "--q", "1", "--w", "1"), "cannot read matroid file '.'"),
    (("eval", "--matroid", U24, "--q", "1/2", "--w", "1,1,1,1,1", "--k", "2",
      "--c", "1,1,1,1,1"), "eval takes --k or --c, not both"),
    # a campaign of one and a single check alike, before the spec is parsed
    (("verify", "--corpus", "bogus-family", "--matroid", K3, "--theorem", "mason"),
     "verify takes --corpus or --matroid, not both"),
    (("verify", "--corpus", "bogus-family", "--matroid", K3, "--theorem", "ulc",
      "--q", "1", "--w", "1,1,1"), "verify takes --corpus or --matroid, not both"),
    # a single check draws no samples and starts no workers
    (("verify", "--matroid", K3, "--theorem", "ulc", "--q", "1", "--w", "1,1,1",
      "--seed", "5"), "--seed applies to campaigns, not to a single check"),
    (("verify", "--matroid", K3, "--theorem", "ulc", "--q", "1", "--w", "1,1,1",
      "--trials", "9"), "--samples applies to campaigns, not to a single check"),
    (("verify", "--matroid", K3, "--theorem", "ulc", "--q", "1", "--w", "1,1,1",
      "--workers", "4"), "--workers applies to campaigns, not to a single check"),
])
def test_malformed_point_arguments_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and message in err


def test_hessian_output(capsys):
    code, out, _ = run(capsys, "hessian", "--matroid", U12, "--q", "1",
                       "--w", "1,1,1")
    assert code == EXIT_OK
    assert out.splitlines() == ["2  1  1", "1  0  1", "1  1  0"]
    code, out, _ = run(capsys, "hessian", "--matroid", U12, "--q", "1",
                       "--w", "1,1,1", "--json")
    payload = json.loads(out)
    assert payload["dim"] == 3
    assert payload["entries"][0][0] == {"num": "2", "den": "1"}


def test_spectrum_output(capsys):
    code, out, _ = run(capsys, "spectrum", "--matroid", K3, "--q", "1/3",
                       "--w", "1,1,1,1", "--c", "1,2,2,1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["identically_zero"] is False
    assert payload["signature"] == [1, 3, 0]
    # diagnostic spectrum matches the exact inertia: ascending, one positive
    eigs = payload["eigenvalues_float"]
    assert len(eigs) == 4 and eigs == sorted(eigs)
    assert sum(1 for e in eigs if e > 0) == 1 and all(abs(e) > 1e-9 for e in eigs)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_spectrum_identically_zero(capsys, mode):
    code, out, _ = run(capsys, "spectrum", "--matroid", U12, "--q", "1",
                       "--w", "1,1,1", "--alpha", "0,2,0", "--mode", mode)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "the derivative is identically zero; its Hessian is the zero matrix"
    assert lines[1] == "signature: 0 positive, 0 negative, 3 zero"
    assert len(lines) == 2  # no diagnostic spectrum for the zero matrix


def test_spectrum_float_singular_prints_exact_signature(capsys):
    # the U(1,2) Hessian at ones is exactly singular; float mode prints the
    # exact signature of the exact Hessian, as exact mode does
    outs = []
    for mode in ("exact", "float"):
        code, out, _ = run(capsys, "spectrum", "--matroid", U12, "--q", "1",
                           "--w", "1,1,1", "--mode", mode)
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == "signature: 1 positive, 1 negative, 1 zero"


# sha256 of the float-mode stdout on K3 at q = 0.5, w = 1,2,3,4, c = 1,2,2,1;
# the spectrum's eigenvalues are the exact ones, each rounded once
FLOAT_K3_DIGESTS = [
    (("spectrum", "--json"), "d7b11588b8223a59917fc9c5284fe776ba65213c0af1b0e6678931b1eff14140"),
    (("spectrum",), "af7ed65d036459699a9af9634f5f60363e483b060d03f32f35457309c6191bc5"),
    (("hessian", "--json"), "71b2c870c9de99250f30a53fdb129b26631a379435ba7bd4b0e40cf9baf2d9ea"),
    (("hessian",), "c04f89c33fcb66a8f1f5b01bcb4d7ca21c73a2bc5055ef471bdea65638fdb77a"),
]


@pytest.mark.parametrize("argv,digest", FLOAT_K3_DIGESTS)
def test_float_mode_stdout_is_pinned(capsys, argv, digest):
    command, *flags = argv
    code, out, _ = run(capsys, command, "--matroid", K3, "--q", "0.5", "--w", "1,2,3,4",
                       "--c", "1,2,2,1", "--mode", "float", *flags)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--matroid", U12, "--theorem", "qHR",
                       "--q", "1", "--w", "1,1,1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["summary"]["pass"] == 1
    assert payload["checks"][0]["theorem"] == "qHR"
    assert payload["campaign"]["name"] == "single-check"


def test_verify_single_check_missing_args(capsys):
    code, _, err = run(capsys, "verify", "--matroid", U12, "--theorem", "qHR",
                       "--q", "1")
    assert code == EXIT_USAGE
    assert "needs --w" in err


def test_verify_single_check_needs_a_theorem(capsys):
    code, _, err = run(capsys, "verify", "--matroid", U12, "--q", "1", "--w", "1,1,1")
    assert code == EXIT_USAGE
    assert "exactly one --theorem" in err


@pytest.mark.parametrize("argv,flag", [
    (["--theorem", "mason", "--q", "7", "--alpha", "x"], "--q"),
    (["--theorem", "qHR", "--q", "1/2", "--w", "1,1,1,1", "--alpha", "x", "--c", "1"], "--c"),
])
def test_verify_single_check_rejects_arguments_the_check_does_not_take(capsys, argv, flag):
    code, out, err = run(capsys, "verify", "--matroid", K3, *argv, "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"takes no {flag}" in err


U23 = '{"type": "uniform", "rank": 2, "n": 3}'
U11 = '{"type": "uniform", "rank": 1, "n": 1}'


@pytest.mark.parametrize("argv", [
    [U23, "--theorem", "qHR", "--q", "2", "--w", "1"],
    [U23, "--theorem", "logconcavity", "--q", "3", "--c", "1,1,1,1", "--w", "1"],
    [U23, "--theorem", "ulc", "--q", "2", "--w=-1,1,1"],
    [U23, "--theorem", "cqHR", "--q", "2", "--c", "1,2,2,1", "--alpha", "0,0,0,0", "--w", "1"],
    [U23, "--theorem", "deg2", "--q", "2", "--c", "1,3,3,1", "--w", "0,0,0"],
    [U11, "--theorem", "qHR", "--q", "0", "--w", "1,1"],
    [U11, "--theorem", "ulc", "--q", "1", "--w", "1,1"],
])
def test_verify_single_check_validates_before_a_verdict(capsys, argv):
    # q > 1 or n < 2 would make each check not applicable or vacuous; the
    # malformed input must still be a usage error, not a pass
    code, out, _ = run(capsys, "verify", "--matroid", *argv)
    assert code == EXIT_USAGE
    assert out == ""


def _cli_text(value):
    """A recorded input in the syntax of --c/--q/--alpha/--w."""
    if isinstance(value, list):
        return ",".join(_cli_text(x) for x in value)
    if isinstance(value, dict):
        return f"{value['num']}/{value['den']}"
    return str(value)


@pytest.mark.parametrize("theorem", ALL_THEOREMS)
def test_verify_single_check_reproduces_campaign_check(capsys, theorem):
    code, out, _ = run(capsys, "verify", "--corpus", "graphic,K3", "--theorem", theorem,
                       "--samples", "1", "--json")
    assert code == EXIT_OK
    first = json.loads(out)["checks"][0]
    inputs = first["inputs"]
    argv = ["verify", "--matroid", json.dumps(inputs["matroid"]), "--theorem", theorem,
            "--json"]
    for key in ("c", "q", "alpha", "w"):
        if key in inputs:
            argv += [f"--{key}", _cli_text(inputs[key])]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["checks"] == [first]


def test_verify_rejects_bad_coefficients_before_checking(capsys):
    code, _, err = run(capsys, "verify", "--matroid", K3, "--theorem", "cqHR",
                       "--c", "1,1,1,1", "--q", "1/2", "--alpha", "0,0,0,0",
                       "--w", "1,1,1,1")
    assert code == EXIT_USAGE
    assert "log-concave" in err


def test_verify_explicit_matroid_campaign_with_q_grid(capsys):
    # an explicit matroid without point arguments runs a one-member
    # campaign; the custom grid pins q for every sampled check
    code, out, _ = run(capsys, "verify", "--matroid", U12, "--theorem", "qHR",
                       "--q-grid", "1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["campaign"]["q_grid"] == [{"num": "1", "den": "1"}]
    checks = payload["checks"]
    assert checks and all(c["inputs"]["q"] == {"num": "1", "den": "1"}
                          for c in checks)
    assert all(c["verdict"] == "pass" for c in checks)
    # at q=1 the all-ones point gives a singular one-positive Hessian
    assert any("singular-hessian" in c["witness"].get("annotations", ())
               for c in checks)


def test_verify_q_grid_restricts_campaign(capsys):
    code, out, _ = run(capsys, "verify", "--corpus", "uniform,n<=3",
                       "--theorem", "ulc", "--samples", "2",
                       "--q-grid", "1/3,1/7", "--json")
    assert code == EXIT_OK
    allowed = ({"num": "1", "den": "3"}, {"num": "1", "den": "7"},
               {"num": "1", "den": "1"})  # reference point stays at q=1
    payload = json.loads(out)
    assert all(c["inputs"]["q"] in allowed for c in payload["checks"])


def test_verify_q_grid_rejected_for_single_check(capsys):
    code, _, err = run(capsys, "verify", "--matroid", U12, "--theorem", "qHR",
                       "--q", "1", "--w", "1,1,1", "--q-grid", "1")
    assert code == EXIT_USAGE
    assert "--q-grid" in err
    code, _, err = run(capsys, "verify", "--corpus", "graphic,K3",
                       "--q-grid", "0")
    assert code == EXIT_USAGE
    assert "positive" in err


@pytest.mark.parametrize("argv", [
    ("corpus", "--spec", "linear,count=x"),
    ("verify", "--corpus", "linear,seed=abc"),
])
def test_malformed_corpus_number_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and "corpus spec" in err


def test_verify_rejects_an_empty_corpus(capsys):
    # uniform matroids start at n = 2, so this spec names no matroid; the
    # campaign must not pass vacuously
    code, out, err = run(capsys, "verify", "--corpus", "uniform,n<=1")
    assert code == EXIT_USAGE
    assert out == "" and "uniform,n<=1" in err


@pytest.mark.parametrize("argv", [
    ("corpus", "--spec", "linear,count=-1"),
    ("corpus", "--spec", "uniform,n<=-1"),
    ("corpus", "--spec", "graphic,edges<=-2"),
    ("verify", "--corpus", "linear,count=3,n<=-4"),
    ("verify", "--corpus", "uniform;graphic,edges<=-1", "--theorem", "mason"),
])
def test_negative_corpus_bound_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and argv[2] in err


@pytest.mark.parametrize("size", [("--samples", "-1"), ("--workers", "0"),
                                  ("--workers", "-5")])
def test_verify_rejects_bad_campaign_sizes(capsys, size):
    code, out, err = run(capsys, "verify", "--corpus", "uniform,n<=3", *size)
    assert code == EXIT_USAGE
    assert out == "" and size[0][2:] in err


def test_verify_trials_is_an_alias_for_samples(capsys):
    base = ("verify", "--corpus", "graphic,K3", "--theorem", "mason", "--json")
    _, out1, _ = run(capsys, *base, "--samples", "2")
    _, out2, _ = run(capsys, *base, "--trials", "2")
    assert out1 == out2


def test_verify_campaign_text_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "--corpus", "graphic,K3",
                       "--samples", "1", "--seed", "3")
    assert code == EXIT_OK
    assert "all passed" in out


def test_verify_campaign_json_byte_stability(capsys):
    argv = ("verify", "--corpus", "uniform,n<=3", "--samples", "1",
            "--seed", "2", "--json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    code3, out3, _ = run(capsys, *argv, "--workers", "2")
    assert code3 == EXIT_OK
    assert out3 == out1  # workers affect wall time only
    assert "timing_seconds" not in out1


@pytest.mark.parametrize("argv, digest", [
    (["--samples", "1", "--q-grid", "1/2"],
     "b9a4e215f8f533cc5f171c5202c745d9b2d940dfa6e2ee7279a0b27db86fca9c"),
    (["--theorem", "deg2", "--theorem", "ulc", "--theorem", "mason",
      "--theorem", "simplification", "--samples", "3", "--workers", "2"],
     "14ded8b2b39788c0de86485126e0f05f4ff1f0cfd4a4d28e22c63703094bd4fc"),
    # the only pin of qHR, cqHR and logconcavity on the default q grid, and
    # of all seven theorems through the share processes
    (["--workers", "2"],
     "234cdf89dc76ca936e7ab9abe0f8467a10545144a939c62613d5f33b30f8b808"),
])
def test_verify_default_corpus_stdout_is_pinned(capsys, argv, digest):
    # the sha256 of stdout for three default-corpus campaigns, the first
    # two recorded before the strata checks moved to integer numerators
    # and the campaign to per-matroid work units, the third before the
    # integer core stopped validating its inputs; every verdict and
    # witness of these reports must survive any change to the checks or
    # the dispatch
    code, out, _ = run(capsys, "verify", "--corpus", "default", *argv, "--json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_out_file_has_timing(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--corpus", "graphic,K3",
                       "--samples", "1", "--json", "--out", str(path))
    assert code == EXIT_OK
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert "timing_seconds" in on_disk
    stdout_payload = json.loads(out)
    assert "timing_seconds" not in stdout_payload
    on_disk.pop("timing_seconds")
    assert on_disk == stdout_payload


def test_verify_unwritable_out_is_caught_before_the_campaign(monkeypatch, tmp_path, capsys):
    import potts_hodge.cli as cli

    def no_campaign(corpus, config):
        raise AssertionError("the campaign ran before the --out path was checked")

    monkeypatch.setattr(cli, "run_campaign", no_campaign)
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--corpus", "uniform,n<=2", "--out", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and str(path) in err


def test_verify_usage_error_keeps_an_existing_out_file(tmp_path, capsys):
    # the early --out check must not truncate a report it does not replace
    path = tmp_path / "report.json"
    path.write_text("old report\n", encoding="utf-8")
    code, _, _ = run(capsys, "verify", "--corpus", "uniform,n<=2", "--q-grid", "0",
                     "--out", str(path))
    assert code == EXIT_USAGE
    assert path.read_text(encoding="utf-8") == "old report\n"


@pytest.mark.parametrize("failing", [["--corpus", "bogus"], ["--q-grid", "2/0"]])
def test_verify_usage_error_leaves_no_new_out_file(tmp_path, capsys, failing):
    # the early --out check removes a file it created, so a failed run leaves none
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", *failing, "--out", str(path))
    assert code == EXIT_USAGE
    assert not path.exists()


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    # no honest corpus input fails, so synthesize a failing report at the
    # seam the command reads from
    import potts_hodge.cli as cli

    failing = VerificationReport(
        campaign={"name": "verification-campaign"},
        checks=(CheckResult("qHR", {}, "fail", {"signature": [2, 0, 1]}),),
        summary={"total": 1, "pass": 0, "fail": 1, "vacuous": 0,
                 "not-applicable": 0, "by_theorem": {}},
    )
    monkeypatch.setattr(cli, "run_campaign", lambda corpus, config: failing)
    code, out, _ = run(capsys, "verify", "--corpus", "graphic,K3")
    assert code == EXIT_CHECK_FAILED
    assert "1 FAILED" in out


def test_failing_witnesses_print_as_sorted_json(monkeypatch, capsys):
    # the text report's FAIL line and mason's violation lines print their
    # dicts as sorted-key JSON, whatever order a check inserted the keys in
    import potts_hodge.verify as verify

    monkeypatch.setattr(verify, "strata_numerators", lambda matroid, q, w: ([1, 3, 3, 9], 1))
    code, out, _ = run(capsys, "verify", "--matroid", K3, "--theorem", "ulc", "--q", "1",
                       "--w", "1,1,1")
    assert code == EXIT_CHECK_FAILED
    assert ('FAIL ulc: witness={"annotations": ["equality-at-1"], "violations": [{"lhs": '
            '{"den": "1", "num": "18"}, "m": 2, "rhs": {"den": "1", "num": "162"}}]}') \
        in out.splitlines()
    # 1*2*6^2 = 72 = 2*3*1*12 at k = 1, but I_2 = 12 is not C(3, 2) = 3
    monkeypatch.setattr(verify, "independent_set_counts", lambda matroid: (1, 6, 12, 0))
    monkeypatch.setattr(verify, "independent_numerators", lambda matroid, w: ([1, 6, 12, 0], 1))
    code, out, _ = run(capsys, "mason", "--matroid", K3)
    assert code == EXIT_CHECK_FAILED
    assert '  violation: {"count": 12, "expected": 3, "k": 1, "reason": ' \
        '"equality-without-saturation"}' in out.splitlines()


def test_verify_unknown_theorem_tag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "nope"])
    assert exc.value.code == 2  # argparse rejects unknown choices


def test_corpus_listing(capsys):
    code, out, _ = run(capsys, "corpus", "--spec", "uniform,n<=3")
    assert code == EXIT_OK
    assert out.strip().endswith("7 matroids")
    code, out, _ = run(capsys, "corpus", "--spec", "default", "--json")
    payload = json.loads(out)
    assert payload["count"] == 109
    assert len(payload["matroids"]) == 109


def test_mason_command(capsys):
    code, out, _ = run(capsys, "mason", "--matroid", K3)
    assert code == EXIT_OK
    assert "independent-set counts: [1, 3, 3, 0]" in out
    assert "verdict: pass" in out
    code, out, _ = run(capsys, "mason", "--matroid", K3, "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["witness"]["counts"] == [1, 3, 3, 0]


@pytest.mark.parametrize("matroid", [
    '{"type": "uniform", "rank": 1.7, "n": 3}',
    '{"type": "uniform", "rank": "x", "n": 3}',
    '{"type": "graphic", "vertices": 3, "edges": [[1, 2, 3]]}',
    '{"type": "linear", "field": 2, "matrix": [["a"]]}',
])
def test_mason_malformed_matroid_field_is_a_usage_error(capsys, matroid):
    code, out, err = run(capsys, "mason", "--matroid", matroid)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: matroid JSON")


def test_resource_limit_exit(monkeypatch, capsys):
    monkeypatch.setenv(MAX_N_ENV_VAR, "3")
    code, _, err = run(capsys, "eval", "--matroid", U24, "--q", "1",
                       "--w", "1,1,1,1")
    assert code == EXIT_RESOURCE
    assert "resource limit" in err


def test_graph_enumeration_limit_exit(capsys):
    # edges<=8 would visit 34,948,280 edge sets: refused before any work
    code, out, err = run(capsys, "corpus", "--spec", "graphic,edges<=8")
    assert code == EXIT_RESOURCE
    assert out == ""
    assert "resource limit" in err and "34948280" in err


def test_not_a_matroid_exit(capsys):
    bad = '{"type": "rank_table", "n": 1, "ranks": [0, 2]}'
    code, _, err = run(capsys, "eval", "--matroid", bad, "--q", "1", "--w", "1")
    assert code == EXIT_USAGE
    assert "unit-increase" in err
