"""CLI and configuration: exit codes, payload shapes, precedence, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from resurgentia import borel
from resurgentia.cli import main
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


def test_singularity_pade(capsys):
    code, out = run(capsys, "singularity", "--method", "pade", "--count", "60")
    assert code == 0
    payload = json.loads(out)
    assert payload["location_re"] == pytest.approx(2.0054649436712038, abs=1e-9)
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


# -- failure modes ---------------------------------------------------------------


def test_domain_error_is_a_structured_record(capsys):
    code, out = run(capsys, "sum", "--family", "psi", "--z", "0")
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "DomainError"
    assert "domain empty" in record["message"]


def test_missing_lrsum_gs(capsys):
    code, out = run(capsys, "large-radius", "lrsum")
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "ValueError"
    assert "--gs" in record["message"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--ag", "--order", "8"],
        ["sum", "--family", "psi", "--z", "3", "--order", "8"],
        ["singularity", "--order", "8"],
        ["singularity", "--tol", "1e-8"],
        ["median", "--x", "3", "--tol", "1e-8"],
    ],
    ids=["coeffs-order", "sum-order", "singularity-order", "singularity-tol", "median-tol"],
)
def test_ignored_flags_are_rejected(capsys, argv):
    """A subcommand that would ignore --order or --tol rejects it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


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


# -- imports -------------------------------------------------------------------


def _imported(*args: str) -> set:
    """Every module a fresh interpreter imports while running args."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True, check=True
    )
    lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("import time:")]
    return {ln.rsplit("|", 1)[1].strip() for ln in lines}


def test_exact_commands_do_not_import_scipy():
    for args in (("-c", "import resurgentia"), ("-m", "resurgentia", "coeffs", "--ag")):
        modules = _imported(*args)
        assert "resurgentia.borel" in modules, args
        assert not any(m == "scipy" or m.startswith("scipy.") for m in modules), args
