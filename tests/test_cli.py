"""CLI and configuration: exit codes, payload shapes, precedence, reproducibility."""

import argparse
import ast
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from resurgentia import borel, cli
from resurgentia.cli import build_parser, main
from resurgentia.config import ENV_VAR, RunConfig, load_config_file, resolve_config


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# -- config ----------------------------------------------------------------


def test_config_defaults_validate():
    cfg = resolve_config({}, None)
    assert cfg == RunConfig()
    assert cfg.order == 32 and cfg.fmt == "json"


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\norder = 8\nquad_tol = 1e-9\nfmt = csv\n")
    data = load_config_file(str(path))
    assert data == {"order": 8, "quad_tol": 1e-9, "fmt": "csv"}


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("order 8\n")
    with pytest.raises(ValueError, match="expected key = value"):
        load_config_file(str(bad))
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("wibble = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config_file(str(unknown))
    for line in ("seed = 1\n", "delta_ray = 0.1\n"):
        unknown.write_text(line)
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(str(unknown))


def test_config_precedence(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("order = 8\ncap_sigma = 3\n")
    # file over defaults
    cfg = resolve_config({}, str(path))
    assert cfg.order == 8 and cfg.cap_sigma == 3 and cfg.cap_grade == 5
    # explicit overrides over file
    cfg = resolve_config({"order": 6}, str(path))
    assert cfg.order == 6 and cfg.cap_sigma == 3
    # environment supplies the file when no path is given
    monkeypatch.setenv(ENV_VAR, str(path))
    cfg = resolve_config({}, None)
    assert cfg.order == 8
    monkeypatch.delenv(ENV_VAR)
    assert resolve_config({}, None).order == 32


def test_config_validation():
    with pytest.raises(ValueError):
        resolve_config({"order": -1}, None)
    with pytest.raises(ValueError):
        resolve_config({"fmt": "xml"}, None)
    with pytest.raises(ValueError, match="unknown"):
        resolve_config({"wibble": 1}, None)


# -- exact subcommands ----------------------------------------------------------


def test_coeffs_ag(capsys):
    code, out = run(capsys, "coeffs", "--ag", "--max-g", "4")
    assert code == 0
    assert json.loads(out) == ["5/24", "5/16", "1105/1152"]


def test_coeffs_cn(capsys):
    code, out = run(capsys, "coeffs", "--cn", "--max-n", "2")
    assert code == 0
    assert json.loads(out) == ["1", "5/72", "385/10368"]


def test_coeffs_bn(capsys):
    code, out = run(capsys, "coeffs", "--bn", "--max-n", "4")
    assert code == 0
    assert json.loads(out) == ["5/72", "5/144", "1105/31104", "565/10368"]


def test_output_is_byte_identical(capsys):
    _, first = run(capsys, "coeffs", "--ag", "--max-g", "6")
    _, second = run(capsys, "coeffs", "--ag", "--max-g", "6")
    assert first == second


def test_large_radius_pols_payload(capsys):
    code, out = run(capsys, "large-radius", "pols", "--n", "1", "--gmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1
    assert payload["prefactor"] == "exp(2/u)"
    assert payload["pols"]["2"] == {"0": "1", "2": "5/12"}
    assert payload["pols"]["4"] == {
        "0": "-1/2", "1": "1/3", "2": "-5/12", "3": "5/4", "4": "-25/288"
    }


def test_ode_check_honors_order_flag(capsys):
    code, out = run(capsys, "ode-check", "--which", "psi", "--order", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6 and payload["psi_zero"] and payload["ok"]


@pytest.mark.parametrize("which", ["psi", "g", "all"])
@pytest.mark.parametrize("order", ["2", "3"])
def test_ode_check_rejects_orders_below_the_first_constrained_coefficient(capsys, which, order):
    code, out = run(capsys, "ode-check", "--which", which, "--order", order)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "ValueError" and payload["message"].startswith("need order >= 4")
    assert "z^-2" in payload["message"]


def test_ode_check_u_equation_at_order_1(capsys):
    code, out = run(capsys, "ode-check", "--which", "u", "--order", "1")
    assert code == 0
    assert json.loads(out) == {"ok": True, "order": 1, "u_zero": True}


def test_ode_check_u_equation_sees_the_top_row(capsys, monkeypatch):
    # a u^1 term in the top coefficient of H0 shows only in the top residual row
    from resurgentia import largeradius
    from resurgentia.largeradius import ULaurent, UCoeffSeries

    gen_H0 = largeradius.gen_H0
    top = UCoeffSeries("gs2", 6, (ULaurent(),) * 6 + (ULaurent.mono(1, 1),))
    monkeypatch.setattr(largeradius, "gen_H0", lambda N: gen_H0(N) + top)
    residual = largeradius.u_equation_residual(largeradius.gen_H0(6))
    assert all(residual.coeff(k).is_zero() for k in range(6)) and not residual.is_zero()
    code, out = run(capsys, "ode-check", "--which", "u", "--order", "6")
    assert code == 1
    assert json.loads(out) == {"ok": False, "order": 6, "u_zero": False}


# -- numeric subcommands ----------------------------------------------------------


def test_sum_frozen_value(capsys):
    code, out = run(capsys, "sum", "--family", "psi", "--z", "4", "--interval", "Iminus")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(1.0207697389992332, abs=1e-9)
    assert payload["value_im"] == pytest.approx(1.6513478393153586e-4, abs=1e-9)
    assert payload["theta"] == pytest.approx(0.45)


def test_connect_right(capsys):
    code, out = run(capsys, "connect", "right", "--z", "3", "--sigma2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["residual"] < 1e-9


def test_connect_with_a_tight_threshold_reports_its_residual(capsys):
    # the threshold bounds the residual; it is not the route gate of the two sums
    for threshold in ("1e-300", "1e-20"):
        code, out = run(capsys, "connect", "right", "--z", "3", "--sigma2", "1", "--threshold", threshold)
        payload = json.loads(out)
        assert code == 1 and not payload["ok"] and payload["residual"] < 1e-10
        assert payload["threshold"] == float(threshold)


def test_connect_honours_tol(capsys, monkeypatch):
    seen = []
    real = borel.G_pm

    def spy(*args, **kwargs):
        seen.append(kwargs["quad_tol"])
        return real(*args, **kwargs)

    monkeypatch.setattr(borel, "G_pm", spy)
    code, default = run(capsys, "connect", "right", "--z", "3", "--sigma2", "1")
    assert code == 0 and seen == [borel.DEFAULT_QUAD_TOL] * 2
    seen.clear()
    code, loose = run(capsys, "connect", "right", "--z", "3", "--sigma2", "1", "--tol", "1e-6")
    assert code == 0 and seen == [1e-6] * 2
    assert json.loads(loose)["lhs_re"] != json.loads(default)["lhs_re"]


def test_median_payload(capsys):
    code, out = run(capsys, "median", "--x", "3", "--a", "1", "--b", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(1.0303941046766625, abs=1e-9)
    assert payload["abs_im"] < 1e-12


@pytest.mark.parametrize("family", ["g", "psi"])
def test_singularity_ratio_lands_on_two(capsys, family):
    # n b_n / b_{n+1} over b_0, b_1, ...; reading the list from b_1 gave 2.0256
    code, out = run(capsys, "singularity", "--family", family, "--count", "80")
    assert code == 0
    assert abs(json.loads(out)["location_re"] - 2.0) < 1e-3


def test_singularity_pade(capsys):
    code, out = run(capsys, "singularity", "--method", "pade", "--count", "60")
    assert code == 0
    payload = json.loads(out)
    assert payload["location_re"] == pytest.approx(2.005414670646674, abs=1e-9)
    assert payload["location_im"] == 0.0


def test_lrsum_frozen_value(capsys):
    code, out = run(
        capsys, "large-radius", "lrsum", "--gs", "0.4", "--u", "1",
        "--sigma2", "1", "--sign", "+",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value_re"] == pytest.approx(-0.824448499982695, abs=1e-9)
    assert payload["value_im"] == pytest.approx(-0.046511319414095934, abs=1e-9)
    assert payload["z1_re"] == pytest.approx(1.1682132605916702, abs=1e-12)


def test_complex_arguments_accept_i_notation(capsys):
    code, out = run(capsys, "median", "--x", "3", "--a", "0", "--b", "0")
    assert code == 0
    code2, out2 = run(
        capsys, "large-radius", "lrsum", "--gs", "0.55i", "--sigma2", "0.002i",
    )
    assert code2 == 0
    payload = json.loads(out2)
    assert payload["gs_im"] == pytest.approx(0.55)


def _complex_options(parser: argparse.ArgumentParser) -> set:
    out = set()
    for action in parser._actions:
        if action.type is cli._complex:
            out.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _complex_options(sub)
    return out


# (the argv before the flag, the flag): each complex flag in each command that takes it
_COMPLEX_FLAG_CASES = [
    (("sum", "--family", "phi"), "--z"),
    (("connect", "right"), "--z"),
    (("connect", "right", "--z", "4"), "--sigma1"),
    (("connect", "right", "--z", "4"), "--sigma2"),
    (("large-radius", "lrsum"), "--gs"),
    (("large-radius", "lrsum", "--gs", "0.1"), "--u"),
    (("large-radius", "lrsum", "--gs", "0.1"), "--sigma1"),
    (("large-radius", "lrsum", "--gs", "0.1"), "--sigma2"),
]


@pytest.mark.parametrize("prefix,flag", _COMPLEX_FLAG_CASES,
                         ids=[f"{p[0]}-{f}" for p, f in _COMPLEX_FLAG_CASES])
@pytest.mark.parametrize("value", ["-1i", "-3+1i", "-0.5-2j", "-1", "0.25i"])
def test_complex_flag_values_starting_with_a_minus(prefix, flag, value):
    """"--flag value" parses as "--flag=value" for every complex flag, also
    where the value starts with "-" and is no plain negative number."""
    assert {f for _, f in _COMPLEX_FLAG_CASES} == _complex_options(build_parser()) == set(cli._COMPLEX_FLAGS)
    parser = build_parser()
    spaced = parser.parse_args(cli._attach_complex_values([*prefix, flag, value]))
    joined = parser.parse_args([*prefix, f"{flag}={value}"])
    assert vars(spaced) == vars(joined)
    assert getattr(spaced, flag[2:]) == cli._complex(value)


@pytest.mark.parametrize("spaced,joined", [
    ("connect right --z 4 --sigma1 1 --sigma2 -1i", "connect right --z 4 --sigma1 1 --sigma2=-1i"),
    ("sum --family phi --z -3+1i --interval Ipi", "sum --family phi --z=-3+1i --interval Ipi"),
    ("large-radius lrsum --gs 0.55i --u -1+0.1i --sigma1 -1i --sigma2 -0.002i",
     "large-radius lrsum --gs=0.55i --u=-1+0.1i --sigma1=-1i --sigma2=-0.002i"),
    # an abbreviation argparse resolves takes its value as the full flag does
    ("large-radius lrsum --g -0.55i --u 1", "large-radius lrsum --gs -0.55i --u 1"),
])
def test_complex_flag_space_form_runs_like_the_equals_form(capsys, spaced, joined):
    code, out = run(capsys, *spaced.split())
    assert (code, out) == run(capsys, *joined.split())
    assert "error" not in json.loads(out)


def test_ambiguous_complex_flag_prefix_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["connect", "right", "--z", "4", "--sig", "-1i"])
    assert exc.value.code == 2
    assert "ambiguous option" in capsys.readouterr().err
    # the bare "--" ends the options and never takes a value
    assert cli._attach_complex_values(["sum", "--", "-1i"]) == ["sum", "--", "-1i"]


def test_complex_flag_without_its_value_is_a_usage_error(capsys):
    for argv in (["connect", "right", "--sigma2", "--z", "4"], ["sum", "--family", "psi", "--z"],
                 ["large-radius", "lrsum", "--gs", "0.1", "--u", "--sigma1", "-1i"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


# -- failure modes ---------------------------------------------------------------


def test_domain_error_is_a_structured_record(capsys):
    code, out = run(capsys, "sum", "--family", "psi", "--z", "0")
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "DomainError"
    assert "domain empty" in record["message"]


def test_missing_lrsum_gs(capsys):
    # --gs is a required flag of lrsum: its usage names it outside brackets
    with pytest.raises(SystemExit) as exc:
        main(["large-radius", "lrsum"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--gs GS" in captured.err and "[--gs GS]" not in captured.err


def test_invalid_config_file_exits_one(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("order = -1\n")
    code, out = run(capsys, "coeffs", "--ag", "--config", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "ValueError"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sum", "--family", "psi"])  # missing --z
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sum", "--family", "psi", "--z", "not-a-number"])
    assert exc.value.code == 2
    capsys.readouterr()
    for flag in (["--seed", "1"], ["--delta-ray", "0.1"]):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--ag", *flag])
        assert exc.value.code == 2
        capsys.readouterr()


NON_FINITE_FLAGS = [
    (["sum", "--family", "psi"], "--z"),
    (["sum", "--family", "psi", "--z", "3"], "--theta"),
    (["connect", "right", "--z", "3"], "--sigma2"),
    (["connect", "right", "--z", "3"], "--threshold"),
    (["median"], "--x"),
    (["median", "--x", "2"], "--a"),
    (["median", "--x", "2"], "--b"),
    (["median", "--x", "2", "--ray", "argpi"], "--theta"),
    (["large-radius", "lrsum"], "--gs"),
    (["large-radius", "lrsum", "--gs", "0.1"], "--u"),
]


@pytest.mark.parametrize("value", ["inf", "nan", "1e999"])
@pytest.mark.parametrize("argv, flag", NON_FINITE_FLAGS, ids=[f"{a[0]}-{f}" for a, f in NON_FINITE_FLAGS])
def test_non_finite_values_are_usage_errors(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {flag}: cannot parse '{value}' as a finite" in captured.err


@pytest.mark.parametrize("value", ["-inf", "-nan", "-1e999", "-1+infj"])
@pytest.mark.parametrize("prefix,flag", _COMPLEX_FLAG_CASES, ids=[f"{p[0]}-{f}" for p, f in _COMPLEX_FLAG_CASES])
def test_non_finite_complex_values_starting_with_a_minus_are_usage_errors(capsys, prefix, flag, value):
    # "--z -inf" takes its value as "--z=-inf" does, not as a missing one
    with pytest.raises(SystemExit) as exc:
        main([*prefix, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {flag}: cannot parse '{value}' as a finite complex" in captured.err


def test_stdout_is_valid_json_when_a_value_is_not_finite(capsys, monkeypatch):
    def nan_sum(*args, **kwargs):
        return borel.SumValue(complex(math.nan, 0.0), math.inf, {"theta": 0.0})

    monkeypatch.setattr(borel, "sum_family", nan_sum)
    code, out = run(capsys, "sum", "--family", "psi", "--z", "3")

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    assert code == 1 and json.loads(out, parse_constant=reject)["error"] == "ValueError"


def test_sum_interval_is_one_of_the_window_tags(capsys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    interval = next(a for a in sub.choices["sum"]._actions if a.dest == "interval")
    assert sorted(interval.choices) == sorted(borel.INTERVALS)
    with pytest.raises(SystemExit) as exc:
        main(["sum", "--family", "psi", "--z", "4", "--interval", "minus"])
    assert exc.value.code == 2
    assert "invalid choice: 'minus'" in capsys.readouterr().err


# the flags each subcommand's handler reads; every other one is rejected. A
# case is a subcommand, or a large-radius action with its own flags; the
# large-radius case is its pols action
_BASE_ARGV = {
    "coeffs": ["--ag"],
    "ode-check": [],
    "alien": [],
    "sum": ["--family", "psi", "--z", "3"],
    "connect": ["right", "--z", "3"],
    "median": ["--x", "3"],
    "singularity": [],
    "large-radius": ["pols"],
    "verify-all": [],
    "large-radius-h0": ["h0"],
    "large-radius-uresidual": ["uresidual"],
    "large-radius-lrsum": ["lrsum", "--gs", "0.3"],  # --gs is required
}
_READS = {
    "ode-check": ("order",),
    "alien": ("cap-sigma", "cap-grade"),
    "sum": ("tol",),
    "connect": ("tol",),
    "large-radius": ("n", "gmax"),
    "large-radius-h0": ("order",),
    "large-radius-uresidual": ("order",),
    "large-radius-lrsum": ("gs", "u", "sigma1", "sigma2", "sign"),
}
_FLAG_VALUES = {"order": "8", "cap-sigma": "3", "cap-grade": "3", "tol": "1e-8"}
_ACTION_FLAG_VALUES = {"n": "2", "gmax": "3", "gs": "0.1", "u": "2", "sigma1": "0.5", "sigma2": "0.25", "sign": "+"}
# flag -> (argparse dest, parsed value), all away from the defaults
_PARSED = {
    "order": ("order", 8), "cap-sigma": ("cap_sigma", 3), "cap-grade": ("cap_grade", 3),
    "tol": ("quad_tol", 1e-8), "n": ("n", 2), "gmax": ("gmax", 3), "gs": ("gs", 0.1 + 0j),
    "u": ("u", 2 + 0j), "sigma1": ("sigma1", 0.5 + 0j), "sigma2": ("sigma2", 0.25 + 0j), "sign": ("sign", "+"),
}
_FLAG_CASES = [
    (c, f)
    for c in _BASE_ARGV
    for f in [*_FLAG_VALUES, *(_ACTION_FLAG_VALUES if c.startswith("large-radius") else ())]
]


@pytest.mark.parametrize("case,flag", _FLAG_CASES, ids=[f"{c}-{f}" for c, f in _FLAG_CASES])
def test_ignored_flags_are_rejected(capsys, case, flag):
    """A subcommand, and each large-radius action, rejects each flag its
    handler would ignore (exit 2) and accepts each one it reads."""
    command = "large-radius" if case.startswith("large-radius") else case
    value = {**_FLAG_VALUES, **_ACTION_FLAG_VALUES}[flag]
    argv = [command, *_BASE_ARGV[case], "--" + flag, value]
    if flag in _READS.get(case, ()):
        dest, parsed = _PARSED[flag]
        assert getattr(build_parser().parse_args(argv), dest) == parsed
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, usage",
    [
        (["coeffs", "--ag", "--max-n", "3"], "--max-n", "usage: resurgentia coeffs "),
        (["coeffs", "--bn", "--max-g", "5"], "--max-g", "usage: resurgentia coeffs "),
        (["median", "--x", "3", "--theta", "0.3"], "--theta", "usage: resurgentia median "),
        (["median", "--x", "4", "--ray", "argpi", "--b", "0.3"], "--b", "usage: resurgentia median "),
    ],
    ids=["coeffs-ag-max-n", "coeffs-bn-max-g", "median-arg0-theta", "median-argpi-b"],
)
def test_flags_of_another_mode_are_rejected(capsys, argv, flag, usage):
    """--max-g belongs to coeffs --ag, --max-n to --cn and --bn, --theta to
    median --ray argpi and --b to median --ray arg0; any other mode exits 2,
    names the flag and prints the subcommand's usage."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag + " is not read by" in err
    assert err.splitlines()[0].startswith(usage)


@pytest.mark.parametrize("x", [1.0, 2.0, 4.0])
def test_median_argpi_runs_real_or_rejects_theta(capsys, x):
    """--ray argpi is inside G_pm's domain exactly for |sin(theta/2)| < e^{-2x}/4, so
    near 0 for |theta| < 2 asin(e^{-2x}/4): every theta there either gives a real median
    (|Im| <= 1e-8) or exits 2 naming --theta and that bound; at x = 4 the bound is
    1.677e-4. The domain repeats every 2 pi, where the median is real up to Im -pi."""
    bound = 2 * math.asin(math.exp(-2 * x) / 4)
    codes = []
    for theta in (0.0, 0.5 * bound, -0.99 * bound, 1.01 * bound, 0.3):
        try:
            code, out = run(capsys, "median", "--x", str(x), "--ray", "argpi", "--theta", repr(theta))
        except SystemExit as exc:
            assert exc.code == 2 and abs(theta) >= bound
            err = capsys.readouterr().err
            assert f"--theta must lie within 2 asin(e^(-2x)/4) = {bound:.6g} of a multiple of 2 pi" in err
            codes.append(2)
            continue
        assert code == 0 and abs(theta) < bound and json.loads(out)["abs_im"] <= 1e-8
        codes.append(0)
    assert codes == [0, 0, 0, 2, 2]
    for theta in (2 * math.pi, -2 * math.pi + 0.5 * bound):
        code, out = run(capsys, "median", "--x", str(x), "--ray", "argpi", "--theta", repr(theta))
        assert code == 0 and json.loads(out)["abs_im"] == pytest.approx(math.pi, abs=1e-8)


def test_median_prints_the_default_b_on_both_rays(capsys):
    for ray in ("arg0", "argpi"):
        code, out = run(capsys, "median", "--x", "4", "--ray", ray)
        assert code == 0 and json.loads(out)["b"] == 0.0


@pytest.mark.parametrize(
    "argv, message, usage",
    [
        (["coeffs", "--ag", "--max-g", "1"], "--max-g must be at least 2", "usage: resurgentia coeffs "),
        (["coeffs", "--bn", "--max-n", "0"], "--max-n must be positive", "usage: resurgentia coeffs "),
        (["coeffs", "--cn", "--max-n", "-1"], "--max-n must be nonnegative", "usage: resurgentia coeffs "),
        (["singularity", "--count", "39"], "--count must be at least 40", "usage: resurgentia singularity "),
        (["large-radius", "pols", "--n", "0"], "component index must be positive",
         "usage: resurgentia large-radius pols "),
        (["large-radius", "pols", "--gmax", "-1"], "gmax must be nonnegative",
         "usage: resurgentia large-radius pols "),
        (["large-radius", "lrsum"], "the following arguments are required: --gs",
         "usage: resurgentia large-radius lrsum "),
        (["alien", "--cap-sigma", "0"], "alien caps must be positive", "usage: resurgentia alien "),
        (["alien", "--cap-grade", "-1"], "alien caps must be positive", "usage: resurgentia alien "),
        (["ode-check", "--order", "0"], "order must be positive", "usage: resurgentia ode-check "),
        (["sum", "--family", "psi", "--z", "3", "--tol", "0"], "quadrature tolerance must be positive",
         "usage: resurgentia sum "),
        (["sum", "--family", "psi", "--z", "3", "--tol", "inf"], "quadrature tolerance must be positive",
         "usage: resurgentia sum "),
        (["connect", "right", "--z", "3", "--sigma2", "1", "--threshold", "0"], "--threshold must be positive",
         "usage: resurgentia connect "),
        (["connect", "right", "--z", "3", "--sigma2", "1", "--threshold=-1"], "--threshold must be positive",
         "usage: resurgentia connect "),
    ],
    ids=["ag-max-g-1", "bn-max-n-0", "cn-max-n-minus-1", "singularity-count-39", "pols-n-0",
         "pols-gmax-minus-1", "lrsum-without-gs", "alien-cap-sigma-0", "alien-cap-grade-minus-1",
         "ode-check-order-0", "sum-tol-0", "sum-tol-inf", "connect-threshold-0", "connect-threshold-minus-1"],
)
def test_out_of_range_counts_are_usage_errors(capsys, argv, message, usage):
    """A count below its least value, or a missing required flag, is a malformed
    command line (exit 2), not a domain failure, and the usage printed is the
    subcommand's, as for a malformed value."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert captured.err.splitlines()[0].startswith(usage)


@pytest.mark.parametrize(
    "argv, line, message",
    [
        (["alien"], "cap_sigma = 0", "alien caps must be positive"),
        (["alien"], "cap_grade = -1", "alien caps must be positive"),
        (["ode-check"], "order = 0", "order must be positive"),
        (["sum", "--family", "psi", "--z", "3"], "quad_tol = 0", "quadrature tolerance must be positive"),
        (["sum", "--family", "psi", "--z", "3"], "quad_tol = inf", "quadrature tolerance must be positive"),
    ],
    ids=["cap-sigma-0", "cap-grade-minus-1", "order-0", "quad-tol-0", "quad-tol-inf"],
)
@pytest.mark.parametrize("source", ["flag", "env"])
def test_out_of_range_config_values_keep_their_record(capsys, monkeypatch, tmp_path, argv, line, message,
                                                      source):
    """The values that are usage errors as flags stay RunConfig.validate's
    ValueError record (exit 1) when they come from a config file."""
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    if source == "flag":
        code, out = run(capsys, *argv, "--config", str(path))
    else:
        monkeypatch.setenv(ENV_VAR, str(path))
        code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": message}


# -- emission ----------------------------------------------------------------


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out = run(capsys, "coeffs", "--ag", "--max-g", "4", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == ["5/24", "5/16", "1105/1152"]


def test_csv_format(capsys):
    code, out = run(capsys, "coeffs", "--ag", "--max-g", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,value"
    assert lines[1] == "0,5/24"
    assert len(lines) == 4


def test_csv_format_nested_dict(capsys):
    code, out = run(
        capsys, "median", "--x", "3", "--a", "1", "--b", "0.3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    keys = [line.split(",")[0] for line in lines[1:]]
    assert keys == sorted(keys)
    assert "value_re" in keys and "abs_im" in keys


def test_csv_format_flattens_a_nested_payload(capsys):
    # pols is a dict of dicts: each inner map is one row under the key pols.<2g>
    code, out = run(capsys, "large-radius", "pols", "--n", "1", "--gmax", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "key,value",
        "n,1",
        "pols.2,\"{'0': '1', '2': '5/12'}\"",
        "pols.4,\"{'0': '-1/2', '1': '1/3', '2': '-5/12', '3': '5/4', '4': '-25/288'}\"",
        "prefactor,exp(2/u)",
    ]


def test_verify_all_csv_prints_one_row_per_criterion(capsys):
    code, out = run(capsys, "verify-all", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:9]] == [f"ACCEPTANCE {n}" for n in range(1, 10)]
    assert lines[9:] == ["key,value"] + [f"criterion_{n},True" for n in range(1, 10)]


def test_verify_all_output_writes_the_records(capsys, tmp_path):
    target = tmp_path / "acceptance.json"
    code, out = run(capsys, "verify-all", "--output", str(target))
    assert code == 0
    assert len(out.splitlines()) == 9
    records = json.loads(target.read_text())
    assert [r["number"] for r in records] == list(range(1, 10))
    assert all(sorted(r) == ["detail", "number", "passed", "title"] and r["passed"] is True for r in records)


# -- imports -------------------------------------------------------------------


def _imported(*args: str) -> set:
    """Every module a fresh interpreter has loaded when it exits after args.

    Read from sys.modules rather than from -X importtime, which does not list
    a submodule loaded through `from . import name`.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    dump = "import atexit, sys; atexit.register(lambda: print(*sys.modules, sep='\\n', file=sys.stderr))"
    if args[0] == "-m":  # run the module as `python -m` would, with its argv
        code = dump + f"; import runpy; runpy.run_module({args[1]!r}, run_name='__main__', alter_sys=True)"
        argv = args[2:]
    else:
        code, argv = dump + "; " + args[1], ()
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def _loads(modules: set, package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


def test_exact_commands_do_not_import_scipy():
    for args in (("-c", "import resurgentia"), ("-m", "resurgentia", "coeffs", "--ag")):
        assert not _loads(_imported(*args), "scipy"), args
    # positive control: a numeric command loads the float engine, which needs
    # neither scipy nor numpy
    modules = _imported("-m", "resurgentia", "sum", "--family", "psi", "--z", "3")
    assert "resurgentia.borel" in modules and not _loads(modules, "numpy")
    assert not _loads(modules, "scipy")


@pytest.mark.parametrize(
    "args",
    [
        ("sum", "--family", "phi", "--z", "0.8-0.3i"),
        ("connect", "left", "--z", "-0.9", "--sigma2", "0.05i"),
        ("connect", "right", "--z", "3", "--sigma2", "1"),
        ("median", "--x", "3", "--a", "1"),
        ("large-radius", "lrsum", "--gs", "0.4"),
        ("verify-all",),
        ("coeffs", "--ag"),
        ("alien", "--what", "bridge"),
    ],
    ids=["sum", "connect-left", "connect-right", "median", "lrsum", "verify-all", "coeffs", "alien"],
)
def test_commands_import_neither_numpy_nor_inspect(args):
    # no dataclasses anywhere in the package, so nothing loads inspect either
    modules = _imported("-m", "resurgentia", *args)
    assert not _loads(modules, "numpy") and "inspect" not in modules, args


@pytest.mark.parametrize(
    "args",
    [
        ("-c", "import resurgentia"),
        ("-c", "import resurgentia; resurgentia.DomainError, resurgentia.SumValue"),
        ("-m", "resurgentia", "coeffs", "--ag"),
        ("-m", "resurgentia", "coeffs", "--cn"),
        ("-m", "resurgentia", "ode-check", "--which", "all", "--order", "8"),
        ("-m", "resurgentia", "alien", "--what", "all", "--cap-sigma", "3", "--cap-grade", "3"),
        ("-m", "resurgentia", "large-radius", "pols"),
        ("-m", "resurgentia", "large-radius", "h0", "--order", "6"),
        ("-m", "resurgentia", "large-radius", "uresidual", "--order", "6"),
    ],
    ids=["import", "import-errors", "coeffs-ag", "coeffs-cn", "ode-check", "alien", "lr-pols", "lr-h0",
         "lr-uresidual"],
)
def test_exact_commands_do_not_import_numpy(args):
    modules = _imported(*args)
    assert not _loads(modules, "numpy"), args
    assert "resurgentia.acceptance" not in modules and "resurgentia.borel" not in modules
    if args[0] == "-c":
        assert not any(m.startswith("resurgentia.") for m in modules if m != "resurgentia.errors")


@pytest.mark.parametrize(
    "args",
    [
        ("sum", "--family", "psi", "--z", "3"),
        ("connect", "left", "--z", "-0.9", "--sigma2", "0.05i"),
        ("connect", "right", "--z", "3", "--sigma2", "1"),
    ],
    ids=["sum", "connect-left", "connect-right"],
)
def test_numeric_commands_do_not_import_the_series_layer(args):
    modules = _imported("-m", "resurgentia", *args)
    assert "resurgentia.borel" in modules
    assert "resurgentia.families" not in modules and "resurgentia.series" not in modules, args


def test_alien_does_not_import_the_series_layer():
    modules = _imported("-c", "import resurgentia.alien")
    assert "resurgentia.alien" in modules
    assert "resurgentia.series" not in modules and "resurgentia.families" not in modules


# public names that moved into the tests, or were deleted, with their former module
_GONE = {
    "companion_F": "alien", "expand_to_series": "alien", "check_homomorphism": "borel",
    "check_reflection": "borel", "eval_Ahat": "borel", "maclaurin_borel_eval": "borel",
    "lambda_s_squared": "largeradius", "ZERO": "scalars", "ONE": "scalars", "I": "scalars",
    "apply_ddz": "alien", "apply_delta_plus": "alien",
}


def test_public_names_resolve_lazily_to_their_definitions():
    import resurgentia

    assert len(resurgentia.__all__) == 52 and resurgentia.__all__[-1] == "__version__"
    for name in resurgentia.__all__[:-1]:
        module = importlib.import_module("resurgentia." + resurgentia._HOME[name])
        assert getattr(resurgentia, name) is getattr(module, name), name
        assert name in vars(resurgentia) and name in dir(resurgentia)
    for name in ("DomainError", "BranchCutError", "QuadratureError", "SumValue"):
        assert getattr(borel, name) is getattr(resurgentia, name)
    assert resurgentia.stokes_action_check is importlib.import_module("resurgentia.alien").stokes_action_check
    with pytest.raises(AttributeError):
        resurgentia.no_such_name
    # laplace_ray takes only the package's private kernels; the tracer rebinds it in borel
    with pytest.raises(AttributeError):
        resurgentia.laplace_ray
    assert callable(borel.laplace_ray)
    for name, home in _GONE.items():
        for owner in (resurgentia, importlib.import_module("resurgentia." + home)):
            with pytest.raises(AttributeError):
                getattr(owner, name)
    for cls, name in (("ExactScalar", "from_str"), ("PowerSeries", "from_json"),
                      ("PowerSeries", "from_json_dict"), ("UCoeffSeries", "eval_partial")):
        with pytest.raises(AttributeError):
            getattr(getattr(resurgentia, cls), name)
    # a submodule is an attribute of the package after a bare import, as before
    modules = _imported("-c", "import resurgentia; resurgentia.largeradius.gen_H0(2)")
    assert "resurgentia.largeradius" in modules and not _loads(modules, "numpy")
    namespace: dict = {}
    exec("from resurgentia import *", namespace)
    assert set(resurgentia.__all__) <= set(namespace)
    assert namespace["stokes_action_check"] is resurgentia.stokes_action_check


def test_every_private_name_in_src_is_used_in_src():
    """A private module-level name of the package that nothing in the package
    reads is kept only for the tests; it belongs in them."""
    src = Path(__file__).resolve().parents[1] / "src" / "resurgentia"
    texts = [path.read_text() for path in sorted(src.glob("*.py"))]
    defined = []
    for text in texts:
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [n for n in names if n.startswith("_") and not n.startswith("__")]
    code = "\n".join(texts)
    assert len(defined) > 50
    unread = sorted({n for n in defined if len(re.findall(rf"\b{n}\b", code)) <= defined.count(n)})
    assert unread == []


SRC_LINE_CAP = 4038  # ROADMAP.md tracks the total next to speed


def test_src_stays_under_its_line_cap():
    """The lines of src/resurgentia/*.py together, as `cat src/resurgentia/*.py | wc -l` counts them."""
    src = Path(__file__).resolve().parents[1] / "src" / "resurgentia"
    total = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    assert 3000 < total <= SRC_LINE_CAP, f"src/ has {total} lines, cap {SRC_LINE_CAP}"


# sha256 of the stdout of exact commands, recorded before the series layer
# stored its coefficients as integer numerators over one denominator; any
# change to a printed Fraction, or to the layout, changes a digest
EXACT_STDOUT_SHA256 = {
    "large-radius h0 --order 12": "713be105149fde5505f0edc4e1954dcb4d50ee1f9044f24501a15852284bb21f",
    "large-radius uresidual --order 12": "e8a6fc039843997a07e71bb5c0e099082192630a33bdc49fdbee8ede497a8d7f",
    "large-radius pols --n 3 --gmax 5": "5532a28bb4e7242a965ae1a3a221de485318b4c44c5f8670eb4f17997ea5c39c",
    "coeffs --bn --max-n 40": "32f5dc7996fa4565f07d0709878fd41e87a103f2e5fb88179a170366f2948d65",
    "ode-check --which g --order 32": "dfe5369ad2bb01ff0476566fd354865493fad19660e661bfba75be7ce21f991e",
}


@pytest.mark.parametrize("command", sorted(EXACT_STDOUT_SHA256))
def test_exact_stdout_is_pinned(capsys, command):
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_STDOUT_SHA256[command]
