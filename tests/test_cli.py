"""Command-line surface: parsing, outputs, determinism, schemas, exit codes."""

import contextlib
import io
import json
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta import measures
from negabeta.algebraic import FieldElement, parse_beta_spec
from negabeta.cli import MAX_DIGITS, UsageError, emit_report, main, parse_config
from negabeta.transform import EXPANSION_STEPS, MinusBetaSystem

PISOT = "poly:-1,-1,0,1;interval:1,2"
TWO = "poly:-2,1;interval:1,3"
GOLDEN = "poly:-1,-1,1;interval:1,2"
DEFECT = "poly:-1,-1,-2,1;interval:2,3"  # x^3-2x^2-x-1: d(1) = 21(2), so "20" is inadmissible
NON_MONIC = ("not Yrrap: beta is not an algebraic integer, "
             "so the orbit of 1 is not eventually periodic\n")


def invoke(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def schema_for(name: str) -> dict:
    path = resources.files("negabeta") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


# -- parsing -----------------------------------------------------------------------


def test_parse_yrrap_config():
    config = parse_config(["yrrap", "--beta", PISOT])
    assert config.command == "yrrap"
    assert config.beta == PISOT
    assert config.fmt == "json"


def test_parse_mc_config():
    config = parse_config([
        "mc", "--beta", "decimal:1.8;precision:200", "--obs", "digit1",
        "--window", "0.7:0.75", "--n", "30", "--N", "1000000", "--seed", "7",
    ])
    assert config.command == "mc"
    assert config.seed == 7
    assert config.samples == 1000000


def test_missing_seed_is_usage_error():
    with pytest.raises(UsageError):
        parse_config(["mc", "--beta", TWO, "--window", "0.7:0.75", "--n", "30", "--N", "100"])


def test_unknown_command_is_usage_error():
    with pytest.raises(UsageError):
        parse_config(["frobnicate"])


def test_bad_beta_spec_exit_code(capsys):
    code, _, err = invoke(["yrrap", "--beta", "nonsense"], capsys)
    assert code == 2


# -- core commands --------------------------------------------------------------------


def test_yrrap_pisot_json(capsys):
    code, out, _ = invoke(["yrrap", "--beta", PISOT], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["preperiod"] == "100"
    assert payload["period"] == "1"
    assert payload["case"] == "Case2"
    jsonschema.validate(payload, schema_for("yrrap"))


def test_yrrap_decimal_mode_is_budget_exit(capsys):
    code, _, err = invoke(["yrrap", "--beta", "decimal:1.8;precision:64"], capsys)
    assert code == 3
    assert err == NON_MONIC


@pytest.mark.parametrize("beta", ["poly:-3,0,2;interval:1,2", "poly:-9,5;interval:1,2", "decimal:1.8"])
def test_yrrap_refuses_non_monic_base(beta, capsys):
    assert invoke(["yrrap", "--beta", beta], capsys) == (3, "", NON_MONIC)


def test_yrrap_refuses_when_the_step_budget_runs_out(capsys):
    assert invoke(["yrrap", "--beta", PISOT, "--max-steps", "3"], capsys) == (
        3, "", "budget exhausted: no cycle within 3 steps\n")


_EXACT_COMMANDS = [
    ["yrrap"], ["graph"], ["components"], ["spec"], ["entropy"], ["gbeta", "--n", "8"],
    ["cyl", "--maxlen", "6"], ["rate", "--a", "0.4"], ["validate", "--maxlen", "6", "--seed", "3"],
    ["mc", "--window", "0.3:0.6", "--n", "10", "--N", "2000", "--seed", "1"],
]


@pytest.mark.parametrize("decimal, poly",
                         [("decimal:2", TWO), ("decimal:3", "poly:-3,1;interval:2,4")])
def test_integer_decimal_base_matches_its_poly_form(decimal, poly, capsys):
    """decimal:d is the exact rational d, so every command prints the poly form's bytes."""
    for name, *rest in _EXACT_COMMANDS:
        got = invoke([name, "--beta", decimal, *rest], capsys)
        assert got == invoke([name, "--beta", poly, *rest], capsys), name
        assert got[0] == 0, name


def test_graph_json_and_dot(capsys):
    code, out, _ = invoke(["graph", "--beta", PISOT], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 5
    jsonschema.validate(payload, schema_for("graph"))
    code, out, _ = invoke(["graph", "--beta", PISOT, "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph")


def test_components_dot_has_three_clusters(capsys):
    code, out, _ = invoke(["components", "--beta", PISOT, "--format", "dot"], capsys)
    assert code == 0
    assert out.count("subgraph cluster_") == 3
    assert sum(1 for line in out.splitlines() if "->" in line) == 8


def test_components_json_schema(capsys):
    code, out, _ = invoke(["components", "--beta", PISOT], capsys)
    payload = json.loads(out)
    assert payload["N"] == 2
    assert [c["vertices"] for c in payload["components"]] == [[0], [1], [2, 3, 4]]
    jsonschema.validate(payload, schema_for("components"))


def test_spec_command(capsys):
    code, out, _ = invoke(["spec", "--beta", PISOT, "--oracle-maxlen", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "w_one_way"
    jsonschema.validate(payload, schema_for("spec"))


@pytest.mark.parametrize("beta, maxlen", [("poly:-3,1;interval:2,4", "11"), (DEFECT, "12")],
                         ids=["three-11", "defect-12"])
def test_oracle_has_no_word_cap(beta, maxlen, capsys):
    # these lengths once overflowed a word count cap; the state-set pairs saturate long before
    code, out, err = invoke(["spec", "--beta", beta, "--oracle-maxlen", maxlen], capsys)
    assert code == 0 and err == ""
    jsonschema.validate(json.loads(out), schema_for("spec"))
    assert invoke(["spec", "--beta", beta, "--oracle-maxlen", "40"], capsys) == (code, out, err)


def test_cyl_json_and_csv(capsys, tmp_path):
    code, out, _ = invoke(["cyl", "--beta", TWO, "--maxlen", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2 + 4 + 8
    jsonschema.validate(payload, schema_for("cyl"))
    target = tmp_path / "cyl.csv"
    code, _, _ = invoke(
        ["cyl", "--beta", TWO, "--maxlen", "2", "--format", "csv", "--out", str(target)],
        capsys,
    )
    assert code == 0
    raw = target.read_bytes()
    header = raw.split(b"\r\n")[0].decode()
    assert header.split(",")[:3] == ["word", "lo", "hi"]
    assert b"\r\n" in raw  # RFC 4180 line endings


_FIELDS = [parse_beta_spec(spec) for spec in (TWO, GOLDEN, PISOT, "poly:-1,-1,0,0,1;interval:1,2")]


@st.composite
def _field_elements(draw):
    """Elements in canonical form (den > 0, gcd 1), with zero, negative and integer coefficients."""
    field = draw(st.sampled_from(_FIELDS))
    nums = draw(st.lists(st.integers(-10**6, 10**6), min_size=field.degree,
                         max_size=field.degree))
    den = draw(st.one_of(st.just(1), st.integers(1, 10**6)))
    return field._element(nums, den)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_field_elements())
def test_coeff_text_matches_fraction_formatting(element):
    expected = "[" + ",".join(str(c) for c in element.coeffs) + "]"
    assert measures._coeff_text(element.nums, element.den) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["cyl", "--beta", PISOT, "--maxlen", "0"],
        ["cyl", "--beta", PISOT, "--maxlen", "-2", "--format", "csv"],
        ["example31", "--maxlen", "0"],
        ["cyl", "--beta", PISOT, "--maxlen", "2", "--format", "dot"],
        ["validate", "--beta", PISOT, "--maxlen", "0", "--seed", "1"],
    ],
    ids=["cyl-maxlen-0", "cyl-maxlen-negative-csv", "example31-maxlen-0", "cyl-dot",
         "validate-maxlen-0"],
)
def test_cylinder_command_usage_errors(argv, capsys):
    code, out, err = invoke(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["yrrap", "--beta", "poly:-2,0,1;interval:-2,2"],
        ["yrrap", "--beta", "poly:-2,0,1;interval:3,4"],
        ["yrrap", "--beta", "poly:-1,2;interval:0,1"],
        ["gbeta", "--beta", PISOT, "--n", "0"],
        ["mc", "--beta", PISOT, "--window", "0.1:0.2", "--n", "0", "--N", "10", "--seed", "1"],
        ["mc", "--beta", PISOT, "--window", "0.1:0.2", "--n", "5", "--N", "0", "--seed", "1"],
        ["rate", "--beta", PISOT, "--a", "5"],
        ["compare-rates", "--beta", TWO],
        ["yrrap", "--beta", PISOT, "--max-steps", "0"],
        ["graph", "--beta", PISOT, "--horizon", "1"],
        ["example32", "--n", "0", "--seed", "1"],
        ["example32", "--N", "0", "--seed", "1"],
        ["yrrap", "--beta", PISOT, "--digits", "0"],
        ["cyl", "--beta", PISOT, "--maxlen", "2", "--digits", "-1"],
        ["rate", "--beta", PISOT, "--a", "nan"],
        ["mc", "--beta", PISOT, "--window", "0.3:nan", "--n", "5", "--N", "10", "--seed", "1"],
        ["example32", "--eps", "nan", "--seed", "1"],
        ["example32", "--eps", "-1", "--seed", "1"],
        ["example32", "--eps", "0", "--seed", "1"],
        ["example32", "--eps", "0.5", "--seed", "1"],
        ["example32", "--eps", "inf", "--seed", "1"],
        ["yrrap", "--beta", "poly:-1,-1,0,1;interval:1/0,2"],
        ["yrrap", "--beta", "poly:-1,-1,0,1;interval:0/0,2"],
        ["yrrap", "--beta", "decimal:1/0"],
        ["spec", "--beta", PISOT, "--oracle-maxlen", "-1"],
        ["yrrap", "--beta", PISOT, "--digits", "5000"],
        ["cyl", "--beta", PISOT, "--maxlen", "2", "--digits", str(MAX_DIGITS + 1)],
        ["rate", "--beta", PISOT, "--a-grid", "0.1:0.9:0"],
        ["rate", "--beta", PISOT, "--a", "0.5", "--a-grid", "0.1:0.9:-3"],
        ["mc", "--beta", TWO, "--window", "0.0:1.0", "--n", "97", "--N", "10", "--seed", "1"],
        ["mc", "--beta", PISOT, "--window", "0.0:1.0", "--n", "237", "--N", "10", "--seed", "1"],
        ["mc", "--beta", GOLDEN, "--window", "0.0:1.0", "--n", "139", "--N", "10", "--seed", "1"],
        ["mc", "--beta", TWO, "--window", "0.0:1.0", "--n", "1000000", "--N", "10", "--seed", "1"],
        ["rate", "--beta", PISOT, "--obs", "digit9", "--a", "0.5"],
        ["cyl", "--beta", PISOT],
        ["gbeta", "--beta", PISOT, "--n", "abc"],
        ["frobnicate"],
        ["spec", "--beta", PISOT, "--frobnicate"],
        ["yrrap", "--beta", "poly:-1,-1,0,1;interval:3,4;interval:1,2"],
        ["yrrap", "--beta", "poly:-1,-1,0,1;interval:1,2;foo:3"],
        ["yrrap", "--beta", "poly:-1,-1,0,1;interval:1,2;precison:64"],
        ["yrrap", "--beta", "poly:-1,-1,0,1;interval:1,2;decimal:2"],
        ["yrrap", "--beta", "decimal:2;precision:8;precision:9"],
        ["rate", "--beta", PISOT, "--obs", "digit5", "--a", "0.0"],
        ["mc", "--beta", PISOT, "--obs", "digit7", "--window", "0:0", "--n", "5", "--N", "100",
         "--seed", "1"],
        ["rate", "--beta", PISOT, "--obs", "digit0_1", "--a", "0.3"],
        ["rate", "--beta", PISOT, "--obs", "digit+1", "--a", "0.3"],
        ["rate", "--beta", PISOT, "--obs", "digit 1", "--a", "0.3"],
        ["rate", "--beta", PISOT, "--obs", "digit1\n", "--a", "0.3"],
        ["rate", "--beta", PISOT, "--obs", "digit\u0661", "--a", "0.3"],
    ],
    ids=["beta-not-isolating", "beta-no-root", "beta-below-one", "gbeta-n-0", "mc-n-0",
         "mc-N-0", "rate-unachievable", "compare-rates-wrong-base", "yrrap-max-steps-0",
         "graph-horizon-1", "example32-n-0", "example32-N-0", "yrrap-digits-0",
         "cyl-digits-negative", "rate-a-nan", "mc-window-nan", "example32-eps-nan",
         "example32-eps-negative", "example32-eps-0", "example32-eps-half", "example32-eps-inf",
         "beta-bound-zero-denominator", "beta-bound-zero-over-zero", "beta-decimal-zero-denominator",
         "spec-oracle-maxlen-negative", "yrrap-digits-5000", "cyl-digits-above-cap",
         "rate-a-grid-count-0", "rate-a-grid-count-negative", "mc-base2-above-bit-cap",
         "mc-cubic-above-bit-cap", "mc-golden-above-bit-cap", "mc-huge-n",
         "rate-constant-observable", "cyl-missing-maxlen", "gbeta-n-not-an-int",
         "unknown-subcommand", "spec-unknown-flag", "beta-repeated-key", "beta-unknown-key",
         "beta-misspelt-key", "beta-poly-and-decimal", "beta-repeated-precision",
         "rate-obs-digit-above-b", "mc-obs-digit-above-b", "rate-obs-digit-underscore",
         "rate-obs-digit-sign", "rate-obs-digit-space", "rate-obs-digit-newline",
         "rate-obs-digit-non-ascii"],
)
def test_bad_input_usage_errors(argv, capsys):
    code, out, err = invoke(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error:")
    assert "-0.0" not in err


@pytest.mark.parametrize("beta, n", [(TWO, 96), (PISOT, 236), (GOLDEN, 138)],
                         ids=["two", "cubic", "golden"])
def test_mc_runs_at_the_bit_cap(beta, n, capsys):
    # the largest n with n*log2(beta) <= 96, 32 bits below the 128 sample bits
    code, out, _ = invoke(["mc", "--beta", beta, "--window", "0.0:1.0", "--n", str(n),
                           "--N", "200", "--seed", "1"], capsys)
    assert code == 0
    assert json.loads(out)["hits"] == 200


@pytest.mark.parametrize("argv", [
    ["mc", "--beta", PISOT, "--obs", "digit1", "--window", "0:1"],
    ["example32", "--a-window", "0:1"],
], ids=["mc", "example32"])
def test_every_sample_hit_prints_zero_rate(argv, capsys):
    code, out, _ = invoke(argv + ["--n", "5", "--N", "100", "--seed", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["hits"] == 100 and payload["rate"] == payload["ci_lo"] == 0.0
    assert "-0.0" not in out


def test_validate_lists_no_word(monkeypatch, capsys):
    """validate counts words in classes of their image and decides the
    language on pairs (state set, image): the same bytes with the package's one
    word-by-word walk, the cylinder table, refused.  (cyl lists words by
    design; its bytes are pinned in test_cli_golden.)"""
    argv = ["validate", "--beta", PISOT, "--maxlen", "12", "--seed", "3"]
    expected = invoke(argv, capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("a word listing was reached")

    monkeypatch.setattr(measures, "cylinder_table", refuse)
    with pytest.raises(AssertionError, match="a word listing"):
        main(["cyl", "--beta", PISOT, "--maxlen", "2"])
    assert invoke(argv, capsys) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("argv, flag, value", [
    (["rate", "--beta", TWO], "--a-grid", "-0.1:0.5:3"),
    (["rate", "--beta", TWO], "--a", "-inf"),
    (["mc", "--beta", TWO, "--n", "5", "--N", "100", "--seed", "1"], "--window", "-0.1:0.2"),
    (["example32", "--n", "5", "--N", "100", "--seed", "1"], "--a-window", "-0.1:0.2"),
], ids=["rate-a-grid", "rate-a", "mc-window", "example32-a-window"])
def test_negative_flag_value_spaced_form_matches_equals_form(argv, flag, value, capsys):
    """A value that starts like a negative number reaches the command's own check."""
    spaced = invoke([*argv, flag, value], capsys)
    assert spaced == invoke([*argv, f"{flag}={value}"], capsys)
    assert "expected one argument" not in spaced[2]


def test_validate_names_the_word_below_the_corrected_lower_bound(capsys):
    """On x^4-x-1 a branching word's length/scale falls below (1 - b/beta)/beta."""
    code, out, _ = invoke(["validate", "--beta", "poly:-1,-1,0,0,1;interval:1,2",
                           "--maxlen", "7", "--seed", "3"], capsys)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    lower = checks["cylinder_lower_bounds_corrected"]
    assert lower["ok"] is False
    assert lower["detail"] == ("word 0001001 has length/scale 0.072615 "
                               "below (1 - b/beta)/beta = 0.148129")
    assert all(c["detail"] == "" for c in checks.values() if c["ok"])


def test_validate_decides_the_corrected_bound_per_image(monkeypatch, capsys):
    """length/scale is the width of the word's image, so the corrected lower bound
    costs sign tests per image, not per branching row (286 calls when it was per row)."""
    sign = FieldElement.sign
    calls = [0]

    def counted(self):
        calls[0] += 1
        return sign(self)

    monkeypatch.setattr(FieldElement, "sign", counted)
    argv = ["validate", "--beta", PISOT, "--maxlen", "12", "--seed", "3"]
    code, out, _ = invoke(argv, capsys)
    assert code == 0 and json.loads(out)["ok"] is True
    assert calls[0] <= 60


def test_a_grid_count_message_names_the_count(capsys):
    _, _, err = invoke(["rate", "--beta", PISOT, "--a-grid", "0.1:0.9:0"], capsys)
    assert "count must be >= 1" in err


def test_digits_cap_is_printable(capsys):
    code, out, _ = invoke(["yrrap", "--beta", PISOT, "--digits", str(MAX_DIGITS)], capsys)
    assert code == 0
    assert len(json.loads(out)["beta"].split(".")[1]) == MAX_DIGITS


@pytest.mark.parametrize("upper", ["1e3000", "1e6000", "1e10000"])
def test_huge_interval_bound_is_cut_to_the_root_bound(upper, capsys):
    # the interval is cut to Cauchy's bound [-2, 2] before any refinement
    expected = invoke(["yrrap", "--beta", PISOT], capsys)
    start = time.perf_counter()
    got = invoke(["yrrap", "--beta", f"poly:-1,-1,0,1;interval:1,{upper}"], capsys)
    assert time.perf_counter() - start < 1.0
    assert got == expected and got[0] == 0


def test_one_expansion_budget():
    library = MinusBetaSystem.expansion_of_one.__defaults__[0]
    assert library == parse_config(["yrrap", "--beta", PISOT]).max_steps
    assert library == EXPANSION_STEPS


# -- the exit-code contract on generated argv --------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_INTS = st.integers(-1, 4).map(str)
_FLOATS = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "0.1", "0.3", "0.5", "0.6", "0.75", "1", "2.5"]
)
_WINDOWS = st.builds("{}:{}".format, _FLOATS, _FLOATS)
_OBS = st.sampled_from(["digit", "digit0", "digit1", "digit9", "bogus"])
_REQUIRED = {"gbeta": ("--n",), "mc": ("--window", "--n", "--N"), "cyl": ("--maxlen",)}


@st.composite
def _argv(draw):
    """Cheap commands on four bases, with small or invalid ints and non-finite floats."""
    command = draw(st.sampled_from([
        "yrrap", "graph", "components", "spec", "entropy", "gbeta", "rate", "mc",
        "compare-rates", "cyl", "example31", "example32", "validate",
    ]))
    options = {
        "yrrap": {"--max-steps": _INTS},
        "spec": {"--oracle-maxlen": st.integers(-1, 40).map(str)},
        "gbeta": {"--n": _INTS},
        "rate": {"--obs": _OBS, "--a": _FLOATS,
                 "--a-grid": st.builds("{}:{}:{}".format, _FLOATS, _FLOATS, _INTS)},
        "mc": {"--obs": _OBS, "--window": _WINDOWS, "--n": _INTS, "--N": _INTS},
        "cyl": {"--maxlen": _INTS},
        "example31": {"--maxlen": _INTS},
        "example32": {"--a-window": _WINDOWS, "--n": _INTS, "--N": _INTS, "--eps": _FLOATS},
        "validate": {"--maxlen": _INTS},
    }.get(command, {})
    options["--digits"] = _INTS
    options["--seed"] = st.sampled_from(["-1", "0", "7"])
    argv = [command]
    if command not in ("example31", "example32"):
        argv += ["--beta", draw(st.sampled_from([PISOT, TWO, GOLDEN, DEFECT]))]
    for flag, values in options.items():
        if flag in _REQUIRED.get(command, ()) or draw(st.sampled_from([True, True, False])):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_argv())
def test_exit_code_contract(argv):
    """Any argv ends in a contracted exit code; an escaping exception is a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 1, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("usage error:") and len(err.getvalue().splitlines()) == 1
    if out.getvalue():
        payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
        jsonschema.validate(payload, schema_for(argv[0].replace("-", "_")))


def test_gbeta_command(capsys):
    code, out, _ = invoke(["gbeta", "--beta", PISOT, "--n", "8"], capsys)
    payload = json.loads(out)
    assert payload["max"] == 2
    jsonschema.validate(payload, schema_for("gbeta"))


def test_entropy_command(capsys):
    code, out, _ = invoke(["entropy", "--beta", PISOT], capsys)
    payload = json.loads(out)
    assert abs(payload["topological_entropy"] - payload["log_beta"]) < 1e-9
    jsonschema.validate(payload, schema_for("entropy"))


def test_rate_sweep_csv_header(capsys):
    code, out, _ = invoke(
        ["rate", "--beta", TWO, "--a-grid", "0.2:0.8:4", "--format", "csv"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "a,rate,H,t_star,component"


def test_rate_json_schema(capsys):
    code, out, _ = invoke(["rate", "--beta", TWO, "--a", "0.5"], capsys)
    payload = json.loads(out)
    assert abs(payload["rows"][0]["rate"]) < 1e-8
    jsonschema.validate(payload, schema_for("rate"))


def test_mc_command_schema(capsys):
    code, out, _ = invoke(
        ["mc", "--beta", TWO, "--obs", "digit1", "--window", "0.7:0.75",
         "--n", "20", "--N", "5000", "--seed", "7"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema_for("mc"))
    assert payload["seed"] == 7


def test_compare_rates_schema(capsys):
    code, out, _ = invoke(["compare-rates", "--beta", PISOT], capsys)
    payload = json.loads(out)
    jsonschema.validate(payload, schema_for("compare_rates"))
    assert payload["rows"][0]["q_max_entropy"] == "-inf"


def test_example31_schema(capsys):
    code, out, _ = invoke(["example31", "--maxlen", "5"], capsys)
    payload = json.loads(out)
    assert payload["bounds_ok"] is True
    assert payload["certificate"]["kind"] == "strong_one_way"
    jsonschema.validate(payload, schema_for("example31"))


def test_example32_schema(capsys):
    code, out, _ = invoke(
        ["example32", "--a-window", "0.2:1.0", "--n", "30", "--N", "5000",
         "--seed", "11", "--eps", "0.1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema_for("example32"))
    assert len(payload["nonwandering"]) == 2


def test_example32_zero_hit_report_keeps_schema(capsys):
    code, out, err = invoke(
        ["example32", "--a-window", "0.99:1.0", "--n", "30", "--N", "50", "--seed", "1"], capsys
    )
    assert code == 3 and "window never hit" in err
    payload = json.loads(out)
    assert payload["hits"] == 0 and payload["rate"] is None
    jsonschema.validate(payload, schema_for("example32"))


@pytest.mark.parametrize("argv", [
    ["mc", "--beta", PISOT, "--window", "0.99:1", "--n", "30", "--N", "10", "--seed", "1"],
    ["example32", "--a-window", "0.99:1.0", "--n", "30", "--N", "50", "--seed", "1"],
], ids=["mc", "example32"])
def test_zero_hit_report_goes_to_out(argv, capsys, tmp_path):
    code, report, err = invoke(argv, capsys)
    assert code == 3 and json.loads(report)["hits"] == 0
    target = tmp_path / "report.json"
    assert invoke([*argv, "--out", str(target)], capsys) == (3, "", err)
    assert target.read_text(encoding="utf-8") == report


@pytest.mark.parametrize("argv, message", [
    (["mc", "--beta", PISOT, "--window", "0.2:0.5", "--n", "30", "--N", "5000", "--seed", "1",
      "--format", "csv"], "csv format applies to row-shaped results (cyl, rate, compare-rates)"),
    (["mc", "--beta", PISOT, "--window", "0.99:1", "--n", "30", "--N", "10", "--seed", "1",
      "--format", "csv"], "csv format applies to row-shaped results (cyl, rate, compare-rates)"),
    (["example32", "--n", "30", "--N", "500", "--seed", "1", "--format", "dot"],
     "dot format applies to graph-shaped results (graph, components)"),
    (["validate", "--beta", PISOT, "--maxlen", "4", "--seed", "1", "--format", "csv"],
     "csv format applies to row-shaped results (cyl, rate, compare-rates)"),
    (["rate", "--beta", PISOT, "--a", "0.3", "--format", "dot"],
     "dot format applies to graph-shaped results (graph, components)"),
], ids=["mc-csv", "mc-never-hit-csv", "example32-dot", "validate-csv", "rate-dot"])
def test_format_checked_before_the_command_runs(argv, message, capsys, monkeypatch):
    from negabeta import cli, intervalmaps, ldp

    def refuse(*args, **kwargs):
        raise AssertionError("the command ran")

    for module, name in ((ldp, "mc_deviation"), (ldp, "level1_rate"),
                         (intervalmaps, "circle_mc_deviation")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setitem(cli._COMMANDS, "validate", refuse)
    assert invoke(argv, capsys) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    ([], "usage error: a subcommand is required"),
    (["mc", "--beta", PISOT, "--window", "0.5", "--n", "30", "--N", "10", "--seed", "1"],
     "usage error: window must be lo:hi, got '0.5'"),
    (["mc", "--beta", PISOT, "--window", "0.6:0.5", "--n", "30", "--N", "10", "--seed", "1"],
     "usage error: window lower end exceeds upper end"),
    (["rate", "--beta", PISOT, "--a-grid", "1:2"], "usage error: a-grid must be lo:hi:count"),
    (["rate", "--beta", PISOT], "usage error: give --a or --a-grid"),
    (["frobnicate"], "usage error: argument command: invalid choice: 'frobnicate' (choose from "
     "'yrrap', 'graph', 'components', 'spec', 'cyl', 'gbeta', 'entropy', 'rate', 'mc', "
     "'compare-rates', 'example31', 'example32', 'validate')"),
], ids=["no-subcommand", "window-one-end", "window-reversed", "a-grid-two-parts", "no-target",
        "unknown-command"])
def test_usage_errors_print_one_line(argv, message, capsys):
    assert invoke(argv, capsys) == (2, "", message + "\n")


def test_unwritable_out_is_exit_4(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = invoke(["cyl", "--beta", PISOT, "--maxlen", "2", "--format", "csv",
                             "--out", str(target)], capsys)
    assert (code, out) == (4, "") and not target.parent.exists()
    assert err.startswith("output error: ") and str(target) in err and err.count("\n") == 1


def test_validate_command_green(capsys):
    code, out, _ = invoke(["validate", "--beta", PISOT, "--maxlen", "7", "--seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    jsonschema.validate(payload, schema_for("validate"))


# -- determinism ------------------------------------------------------------------------


def test_reports_byte_identical(capsys):
    argv = ["mc", "--beta", TWO, "--obs", "digit1", "--window", "0.6:0.8",
            "--n", "15", "--N", "4000", "--seed", "99"]
    _, first, _ = invoke(argv, capsys)
    _, second, _ = invoke(argv, capsys)
    assert first == second


def test_json_round_trips(capsys):
    for argv in (["yrrap", "--beta", TWO], ["entropy", "--beta", TWO]):
        _, out, _ = invoke(argv, capsys)
        assert json.loads(json.dumps(json.loads(out))) == json.loads(out)


def test_emit_report_io_error(tmp_path):
    with pytest.raises(IOError):
        emit_report({"ok": True}, "json", str(tmp_path / "missing" / "file.json"))


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "negabeta.cli", "yrrap", "--beta", TWO],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["period"] == "10"
