"""Command-line interface: flags, formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from cfx import cli


def run(argv):
    return cli.main(argv)


def run_capture(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_quantile_table(capsys):
    code, out = run_capture(
        ["quantile", "--model", "lnF", "--n1", "24", "--n2", "60",
         "--p", "0.95", "--base", "normal", "--order", "6"], capsys)
    assert code == 0
    assert ".2809 1224" in out
    assert "-.0196 0643" in out
    assert ".2653 4816" in out or ".2653 4817" in out
    assert "exact" in out


def test_quantile_order0(capsys):
    code, out = run_capture(
        ["quantile", "--model", "lnF", "--n1", "24", "--n2", "60",
         "--p", "0.95", "--order", "0", "--no-exact"], capsys)
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.strip() and ln.strip()[0].isdigit()]
    assert len(rows) == 1 and ".2809 1224" in rows[0]


def test_quantile_json_deterministic(capsys):
    argv = ["quantile", "--model", "lnF", "--n1", "24", "--n2", "60",
            "--p", "0.95", "--order", "3", "--format", "json"]
    code, out1 = run_capture(argv, capsys)
    assert code == 0
    code, out2 = run_capture(argv, capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["rows"][0]["total"] == doc["rows"][0]["term"]
    assert abs(doc["rows"][3]["total"] - 0.26529428) < 5e-8


def test_quantile_gamma_base(capsys):
    code, out = run_capture(
        ["quantile", "--model", "lnF", "--n1", "24", "--n2", "60",
         "--p", "0.95", "--base", "gamma",
         "--J", "1", "--K", "1", "--order", "4", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == "gamma"
    assert abs(doc["tau"] - 49 / 9) < 1e-12
    assert abs(doc["value"] - 0.26534844) < 1e-3
    assert doc["rows"][1]["term"] == 0.0  # e1 = 0 at J = K = 1


def test_cdf_and_density(capsys):
    code, out = run_capture(
        ["cdf", "--model", "studentized_mean", "--nu3", "2", "--nu4", "9",
         "--nu5", "44", "--n", "200", "--x", "1.0", "--order", "2",
         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert 0.85 < doc["value"] < 0.87
    code, out = run_capture(
        ["density", "--model", "lnF", "--n1", "24", "--n2", "60",
         "--x", "0.5", "--i", "0", "--order", "3", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] > 0


def test_coeffs_output(capsys):
    code, out = run_capture(
        ["coeffs", "--kind", "f", "--r", "2", "--basis", "normal"], capsys)
    assert code == 0
    assert "f(3^2)" in out
    code, out = run_capture(
        ["coeffs", "--kind", "g", "--r", "3", "--basis", "H",
         "--format", "json"], capsys)
    doc = json.loads(out)
    entries = {t["partition"]: t["coeff_H"] for t in doc["terms"]}
    assert entries["3 4"] == "H6 - H2*H4 - H3^2 + H1*H2*H3"
    code, out = run_capture(
        ["coeffs", "--kind", "h", "--r", "3", "--basis", "H"], capsys)
    # every cdf-correction coefficient is a single symbol
    for line in out.splitlines():
        if "=" in line:
            rhs = line.split("=", 1)[1].strip()
            assert rhs.startswith("H") or rhs == "1", line


def test_terms_matrix(capsys):
    code, out = run_capture(["terms", "--rmax", "6", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    g6 = [row for row in doc["rows"] if row["kind"] == "g" and row["r"] == 6][0]
    assert g6["cum_raw"] == [48, 29]
    assert g6["cum_matched"] == [11, 7]
    assert g6["saving"] == 77


def test_validate(capsys):
    code, out = run_capture(["validate"], capsys)
    assert code == 0
    assert "all checks passed" in out


def test_exit_codes(capsys):
    # config error: missing model
    assert run(["quantile", "--p", "0.95"]) == cli.EXIT_CONFIG
    # model-order error: sample variance beyond its declared order
    code = run(["quantile", "--model", "sample_variance",
                "--mu", "2=6/5", "3=6/5", "4=18/5", "5=6", "6=66/5",
                "7=126/5", "8=258/5", "10=1026/5",
                "--n", "50", "--p", "0.9", "--order", "4"])
    assert code == cli.EXIT_MODEL_ORDER
    # numeric/domain error: probability outside (0, 1) reaches evaluation
    code = run(["quantile", "--model", "lnF", "--n1", "4", "--n2", "4",
                "--p", "1.5", "--order", "1", "--no-exact"])
    assert code == cli.EXIT_NUMERIC
    # argparse-level config error
    assert run(["quantile", "--model", "lnF"]) == cli.EXIT_CONFIG
    # --seed belongs to cdf's simulation cross-check only
    lnf = ["--model", "lnF", "--n1", "24", "--n2", "60"]
    assert run(["quantile", *lnf, "--p", "0.9", "--seed", "3"]) == cli.EXIT_CONFIG
    assert run(["density", *lnf, "--x", "0.5", "--seed", "3"]) == cli.EXIT_CONFIG
    # --J and --K truncate the gamma base only
    for flag in ("--J", "--K"):
        assert run(["cdf", *lnf, "--x", "0.5", flag, "2"]) == cli.EXIT_CONFIG
        assert run(["cdf", *lnf, "--x", "0.5", flag, "1"]) == cli.EXIT_OK
        assert run(["cdf", *lnf, "--x", "0.5", flag, "2", "--base", "gamma"]) \
            == cli.EXIT_OK
    # float faults at huge n on the gamma base: one line, exit 4
    huge = ["--model", "studentized_mean", "--nu3", "2", "--nu4", "9",
            "--nu5", "44", "--base", "gamma", "--order", "2"]
    capsys.readouterr()
    for n in ("1e40", "1e100", "1e300"):
        for question in (["cdf", "--x", "0.5"], ["quantile", "--p", "0.7"]):
            assert run([question[0], *huge, *question[1:], "--n", n]) \
                == cli.EXIT_NUMERIC
    assert run(["density", *huge, "--x", "0.5", "--n", "1e300"]) \
        == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("numeric error: ") == err.count("\n") == 7, err


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cfx.cli", "quantile", "--model", "lnF",
         "--n1", "24", "--n2", "60", "--p", "0.95", "--order", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert ".2657 7432" in proc.stdout


def test_cdf_mc_cross_check(capsys):
    code, out = run_capture(
        ["cdf", "--model", "studentized_mean", "--nu3", "2", "--nu4", "9",
         "--nu5", "44", "--n", "200", "--x", "0.0", "--order", "2",
         "--mc", "50000", "--seed", "5", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mc"]["N"] == 50000 and doc["mc"]["seed"] == 5
    assert doc["mc"]["within_3se"]
    # deterministic under the same seed
    code, out2 = run_capture(
        ["cdf", "--model", "studentized_mean", "--nu3", "2", "--nu4", "9",
         "--nu5", "44", "--n", "200", "--x", "0.0", "--order", "2",
         "--mc", "50000", "--seed", "5", "--format", "json"], capsys)
    assert out == out2


def test_import_does_not_load_numpy():
    # the simulation's numpy and thread pool load only when it runs
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cfx.cli; print('numpy' in sys.modules, "
         "'concurrent.futures' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def assert_config_error(argv, capsys):
    assert run(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    return err


def test_order_above_guard(capsys):
    # one guard, with no environment override
    assert "0..12" in assert_config_error(
        ["quantile", "--model", "lnF", "--n1", "24", "--n2", "60",
         "--p", "0.95", "--order", "13"], capsys)


def test_negative_order(capsys):
    assert_config_error(["quantile", "--model", "lnF", "--n1", "24", "--n2", "60",
                         "--p", "0.95", "--order", "-1"], capsys)


def test_too_few_replications(capsys):
    assert_config_error(["cdf", "--model", "lnF", "--n1", "24", "--n2", "60",
                         "--x", "1.0", "--mc", "10"], capsys)


@pytest.mark.parametrize("n", ["50.5", "1e9", "1"])
def test_mc_sample_size_it_cannot_draw(n, capsys):
    # a simulated sample is a whole number of draws, at least two for a
    # variance, and one row of them stays at 8 MiB or less (n <= 2^20);
    # each is refused before any draw
    err = assert_config_error(
        ["cdf", "--model", "studentized_mean", "--nu3", "0", "--nu4", "3",
         "--n", n, "--x", "1", "--order", "2", "--mc", "20000",
         "--population", "normal"], capsys)
    assert "2^20" in err


def test_custom_model_without_table(capsys):
    assert_config_error(["quantile", "--model-json",
                         '{"model": "custom", "a21": 1}', "--n", "10",
                         "--p", "0.9"], capsys)


STUDENTIZED = ["--model", "studentized_mean", "--nu3", "2", "--nu4", "9",
               "--nu5", "44", "--x", "1.0", "--order", "2"]


@pytest.mark.parametrize("n", ["0", "-5", "abc", "1e400", "1e-400", "5e-324"])
def test_bad_sample_size(n, capsys):
    assert_config_error(["cdf", *STUDENTIZED, "--n", n], capsys)


def test_negative_derivative_order(capsys):
    assert_config_error(["density", "--model", "lnF", "--n1", "24", "--n2", "60",
                         "--x", "0.5", "--i", "-1"], capsys)


def test_coeffs_order_zero(capsys):
    assert_config_error(["coeffs", "--kind", "g", "--r", "0"], capsys)


def test_terms_past_the_ladder(capsys):
    # the message names the last tabulated order
    assert "6" in assert_config_error(["terms", "--rmax", "7"], capsys)


@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["cdf", "density"])
def test_non_finite_x(command, x, capsys):
    # the same exit and one-line report as --p nan
    assert run([command, "--model", "lnF", "--n1", "24", "--n2", "60",
                f"--x={x}", "--order", "2"]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and err.count("\n") == 1, err


LNF_JSON = '{"model": "lnF", "n1": 24, "n2": 60}'
MU_EXP = {"2": 1, "3": 2, "4": 9, "5": 44, "6": 265, "7": 1854, "8": 14833,
          "10": 1334961}  # the standardized exponential population
# (flags, the same model as JSON, the sample-size parameter, an order the
# model covers)
MODEL_FORMS = [
    (["--model", "lnF", "--n1", "24", "--n2", "60"], LNF_JSON, "240/7", "3"),
    (["--model", "studentized_mean", "--nu3", "2", "--nu4", "9", "--nu5", "44"],
     '{"model": "studentized_mean", "nu3": 2, "nu4": "9", "nu5": 44}', "200", "2"),
    (["--model", "sample_variance", "--mu", *(f"{r}={v}" for r, v in MU_EXP.items())],
     json.dumps({"model": "sample_variance", "mu": MU_EXP}), "200", "3"),
    (["--model", "gamma"], '{"model": "gamma"}', "7", "3"),
]


@pytest.mark.parametrize("question", [["quantile", "--p", "0.95"],
                                      ["cdf", "--x", "0.5"],
                                      ["density", "--x", "0.5"]])
@pytest.mark.parametrize("base", ["normal", "gamma"])
def test_model_json_answers_as_the_flags(question, base, capsys):
    # the flags are read as the JSON config is; lnF's sample size, exact
    # column and sampler come from the model, whichever form names it
    for flags, model_json, n, order in MODEL_FORMS:
        forms = [[*flags, "--n", n], ["--model-json", model_json, "--n", n]]
        if flags[1] == "lnF":
            forms += [flags, ["--model-json", model_json]]
        tail = [*question[1:], "--order", order, "--base", base, "--format", "json"]
        answers = [run_capture([question[0], *form, *tail], capsys)
                   for form in forms]
        assert answers[0][0] == 0, flags
        assert all(answer == answers[0] for answer in answers), flags


@pytest.mark.parametrize("model", [["--model", "lnF", "--n1", "24", "--n2", "60"],
                                   ["--model-json", LNF_JSON]])
def test_n_disagreeing_with_the_model(model, capsys):
    assert "sample-size" in assert_config_error(
        ["quantile", *model, "--n", "5", "--p", "0.95"], capsys)


def test_moment_without_value(capsys):
    assert_config_error(["quantile", "--model", "sample_variance", "--mu", "2",
                         "--n", "10", "--p", "0.9"], capsys)


@pytest.mark.parametrize("text", ["{bad", "5", '["lnF"]',
                                  '{"model": "lnF", "n1": "x", "n2": 3}',
                                  '{"model": "custom", "a21": 1, "table": [[1]]}',
                                  '{"model": "studentized_mean", "nu3": NaN}'])
def test_bad_model_json(text, capsys):
    assert_config_error(["quantile", "--model-json", text, "--n", "10",
                         "--p", "0.9"], capsys)


@pytest.mark.parametrize("text", ['{"model": "lnF", "n1": 24.9, "n2": 60}',
                                  '{"model": "lnF", "n1": true, "n2": 60}',
                                  '{"model": "custom", "a21": 1, "table": [[3.7, 2.2, 1]]}'])
def test_non_integer_model_field(text, capsys):
    # an index or degree of freedom is refused, not truncated to an integer
    assert "not an integer" in assert_config_error(
        ["quantile", "--model-json", text, "--p", "0.9"], capsys)


def _custom(*rows, head=""):
    # a custom model that answers at order 1, plus the rows given
    table = json.dumps([[1, 1, "-1/2"], [3, 2, "3/2"], *rows])
    return ["--model-json", f'{{"model": "custom", {head}"a21": 1, "table": {table}}}']


MALFORMED_MODEL_ARGS = [
    _custom([0, 2, 9]),
    _custom([3, -1, 7]),
    _custom([3, 2, 5]),
    ["--model", "sample_variance", "--mu", "2=2", "2=1", "3=2", "4=9", "5=44",
     "6=265", "7=1854", "8=14833", "10=1334961"],
    ["--model-json", '{"model": "sample_variance", "mu": {"2": 1, "3": 2, '
     '"4": 9, "5": 44, "6": 265, "7": 1854, "8": 14833, "10": 1334961, '
     '"02": 2}}'],
    _custom([1, 0, 2], head='"theta": 1, '),
    _custom([2, 1, 3]),
    ["--model-json", '{"model": "custom", "a21": true, "table": '
     '[[1, 1, "-1/2"], [3, 2, "3/2"]]}'],
    ["--model-json", '{"model": "studentized_mean", "nu3": true}'],
    ["--model-json", '{"model": "gamma", "extra": 5}'],
    ["--model", "lnF", "--n1", "50", "--n2", "50", "--nu3", "5"],  # n = 50
    ["--model", "studentized_mean", "--nu3", "2", "--nu5", "44"],
    ["--model", "sample_variance", "--mu", "1=7", "2=1", "3=2", "4=9", "5=44",
     "6=265", "7=1854", "8=14833", "9=3", "10=1334961", "11=4"],
    ["--model-json", '{"model": "sample_variance", "mu": {"2": 1, "3": 2, '
     '"4": 9, "5": 44, "6": 265, "7": 1854, "8": 14833, "10": 1334961, '
     '"11": 4}}'],
]


@pytest.mark.parametrize("model", MALFORMED_MODEL_ARGS)
def test_malformed_model_input(model, capsys):
    # each was once answered with exit 0
    assert_config_error(["quantile", *model, "--n", "50", "--p", "0.9",
                         "--order", "1"], capsys)


def test_match_skew_is_gone(capsys):
    # --base gamma is the one switch
    assert run(["quantile", "--model", "lnF", "--n1", "24", "--n2", "60",
                "--p", "0.95", "--match-skew"]) == cli.EXIT_CONFIG


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in the JSON output")


FUZZ_MODELS = [
    ["--model", "lnF", "--n1", "24", "--n2", "60"],
    ["--model", "lnF", "--n1", "60", "--n2", "24"],
    ["--model", "lnF", "--n1", "3", "--n2", "2"],
    ["--model-json", LNF_JSON],
    ["--model", "studentized_mean", "--nu3", "2", "--nu4", "9", "--nu5", "44",
     "--n", "200"],
    ["--model", "studentized_mean", "--nu3", "0", "--nu4", "3", "--n", "30"],
    ["--model", "sample_variance", "--mu", "2=1", "3=2", "4=9", "5=44",
     "6=265", "7=1854", "8=14833", "10=1334961", "--n", "50"],
    ["--model", "gamma", "--n", "7"],
    ["--model-json", '{"model": "custom", "a21": 1, "table": [[3, 2, -2]]}',
     "--n", "20"],
    ["--model", "studentized_mean", "--nu3", "2", "--nu4", "9", "--nu5", "44",
     "--n", "1e40"],
    ["--model", "studentized_mean", "--nu3", "2", "--nu4", "9", "--nu5", "44",
     "--n", "1e300"],
]
edge_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-300, 1 - 1e-16, 1e-17, 40.0,
                     -40.0, 1e300]))


@settings(max_examples=60, deadline=None)
@example(command="quantile", model=FUZZ_MODELS[0], base="normal", order=0,
         arg=2.225073858507e-311, i=0)  # exp(x^2/2) overflowed in Halley's step
@example(command="cdf", model=FUZZ_MODELS[9], base="gamma", order=2,
         arg=0.5, i=0)  # the continued fraction's first step divided by 0
@example(command="density", model=FUZZ_MODELS[10], base="gamma", order=2,
         arg=0.5, i=0)  # the gamma pdf overflowed at shape 2.5e299
@given(command=st.sampled_from(["quantile", "cdf", "density"]),
       model=st.sampled_from(FUZZ_MODELS),
       base=st.sampled_from(["normal", "gamma"]),
       order=st.integers(min_value=0, max_value=4),
       arg=edge_floats, i=st.integers(min_value=0, max_value=2))
def test_fuzz_exit_codes(command, model, base, order, arg, i):
    # every input gives an answer or a documented exit code: no traceback,
    # no NaN or infinity in the JSON
    flag = "--p" if command == "quantile" else "--x"
    argv = [command, *model, "--base", base, "--order", str(order),
            f"{flag}={arg!r}", "--format", "json"]
    if command == "density":
        argv += ["--i", str(i)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in err.getvalue()
    if code == 0:
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert math.isfinite(doc["value"])
    else:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
