"""End-to-end tests of the command line driver and its exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from choquard.cli import main
from choquard.field import read_field

ROOT = Path(__file__).resolve().parents[1]
FAST = ["--dim", "2", "--alpha", "1.0", "--M", "64", "--L", "10.0",
        "--restarts", "1"]


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_coxeter_info(capsys):
    rc, info = run_json(capsys, ["coxeter", "--group", "I2:4"])
    assert rc == 0
    assert info["tag"] == "I2:4"
    assert info["rank"] == 2
    assert info["order"] == 8
    assert info["grid_exact"] is True
    assert len(info["generators"]) == 2
    assert len(info["chamber_normals"]) == 2


def test_coxeter_writes_file(capsys, tmp_path):
    out = tmp_path / "group.json"
    rc = main(["coxeter", "--group", "A1", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert json.loads(out.read_text())["order"] == 2


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One shared ground solve with --out artifacts."""
    prefix = tmp_path_factory.mktemp("solve") / "ground"
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["solve", *FAST, "--out", str(prefix)])
    assert rc == 0
    return prefix, json.loads(buf.getvalue())


def test_solve_ground_report(solved):
    prefix, report = solved
    assert 1.85 < report["energy"] < 1.95
    assert report["group"] == "trivial"
    assert report["nodal_count"] == 1
    assert report["decay_rate"] is not None
    assert report["grad_residual"] <= 1e-4
    assert report["P_residual"] <= 1e-3


def test_solve_writes_artifacts(solved):
    prefix, report = solved
    u = read_field(f"{prefix}.field")
    assert u.grid.dim == 2 and u.grid.M == 64
    stored = json.loads(open(f"{prefix}.json").read())
    assert stored == report
    header = open(f"{prefix}.csv").readline().strip()
    assert header == "r,abs_u,sign"


def test_solve_deterministic(capsys, solved):
    _, first = solved
    rc, second = run_json(capsys, ["solve", *FAST])
    assert rc == 0
    first = dict(first)
    second = dict(second)
    first.pop("wall_clock")
    second.pop("wall_clock")
    assert first == second


def test_saddle_via_cli(capsys):
    rc, report = run_json(capsys, ["solve", *FAST, "--group", "A1"])
    assert rc == 0
    assert report["group"] == "A1"
    assert report["nodal_count"] == 2
    assert report["symmetry_residual"] <= 1e-10


@pytest.mark.parametrize("argv", [
    ["solve", "--dim", "2", "--alpha", "1.0", "--M", "16", "--L", "4.0",
     "--nl", "mystery:p=2"],
    ["solve", "--dim", "2", "--alpha", "1.0", "--M", "16", "--L", "4.0",
     "--group", "Z9"],
    ["solve", "--dim", "3", "--M", "15", "--L", "4.0"],
    ["solve", "--dim", "2", "--alpha", "3.5", "--M", "16", "--L", "4.0"],
])
def test_usage_errors_exit_64(capsys, argv):
    assert main(argv) == 64
    assert "choquard:" in capsys.readouterr().err


def test_missing_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    capsys.readouterr()
    assert exc.value.code == 64


@pytest.mark.parametrize("argv", [["solve", "--precondition", "0"],
                                  ["hierarchy", "--rescale-every", "2"]])
def test_removed_solver_flags_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert "unrecognized arguments" in capsys.readouterr().err
    assert exc.value.code == 64


@pytest.mark.parametrize("key", ["precondition", "rescale_every"])
def test_removed_config_keys_exit_64(capsys, tmp_path, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 1\n")
    assert main(["solve", "--config", str(cfg)]) == 64
    assert key in capsys.readouterr().err


def test_unknown_config_key_exits_64(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["solve", "--config", str(cfg)]) == 64
    assert "bogus" in capsys.readouterr().err


def test_malformed_config_value_exits_64(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("M = twelve\n")
    assert main(["solve", "--config", str(cfg)]) == 64
    capsys.readouterr()


def test_supercritical_exits_3(capsys):
    rc = main(["solve", "--dim", "3", "--alpha", "2.0", "--M", "16",
               "--L", "4.0", "--nl", "power:p=6"])
    assert rc == 3
    assert "hypothesis violation" in capsys.readouterr().err


def test_force_bypasses_hypothesis_gate(capsys):
    # with --force the supercritical run reaches the solver, whose one
    # iteration budget then fails with the solver exit code instead
    rc = main(["solve", "--dim", "3", "--alpha", "2.0", "--M", "16",
               "--L", "4.0", "--nl", "power:p=6", "--force",
               "--max-iters", "1", "--restarts", "1"])
    capsys.readouterr()
    assert rc == 2


def test_solver_failure_exits_2(capsys):
    rc = main(["solve", *FAST, "--max-iters", "1"])
    assert rc == 2
    assert "choquard:" in capsys.readouterr().err


def test_config_file_with_flag_override(capsys, tmp_path, solved):
    _, reference = solved
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# small planar run\n"
        "dim = 2\n"
        "alpha = 1.0\n"
        "M = 64\n"
        "L = 10.0\n"
        "restarts = 1\n"
    )
    rc, report = run_json(capsys, ["solve", "--config", str(cfg)])
    assert rc == 0
    assert report["energy"] == reference["energy"]
    # an explicit flag beats the config file
    assert main(["solve", "--config", str(cfg), "--max-iters", "1"]) == 2
    capsys.readouterr()


def test_convert_matches_solver_csv(capsys, tmp_path, solved):
    prefix, _ = solved
    out = tmp_path / "again.csv"
    rc = main(["convert", "--field", f"{prefix}.field", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert out.read_bytes() == open(f"{prefix}.csv", "rb").read()


def test_verify_accepts_converged_field(capsys, solved):
    prefix, report = solved
    rc, check = run_json(capsys, ["verify", "--field", f"{prefix}.field",
                                  "--alpha", "1.0", "--nl", "power:p=2"])
    assert rc == 0
    assert check["energy"] == pytest.approx(report["energy"], rel=1e-12)
    assert check["nodal_count"] == 1
    assert check["grad_residual"] <= 1e-4


def test_verify_rejects_at_tight_tolerance(capsys, solved):
    prefix, _ = solved
    rc, check = run_json(capsys, ["verify", "--field", f"{prefix}.field",
                                  "--alpha", "1.0", "--nl", "power:p=2",
                                  "--grad-tol", "1e-12"])
    assert rc == 2
    assert check["grad_residual"] > 1e-12


def test_hierarchy_command(capsys, tmp_path):
    out = tmp_path / "hier.json"
    rc = main(["hierarchy", *FAST, "--groups", "trivial,A1",
               "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "[ok]" in text
    stored = json.loads(out.read_text())
    assert stored["all_hold"] is True
    assert [r["group"] for r in stored["rows"]] == ["trivial", "A1"]


@pytest.fixture
def damaged(tmp_path, solved):
    """Copies of the solved field file, cut short, overlong or non-finite."""
    prefix, _ = solved
    blob = open(f"{prefix}.field", "rb").read()
    poisoned = bytearray(blob)
    poisoned[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    infinite = bytearray(blob)
    infinite[-16:-8] = np.array([-np.inf], dtype="<f8").tobytes()
    out = {}
    for name, data in (("header", blob[:10]), ("short", blob[:-8]),
                       ("long", blob + b"\0"), ("nan", poisoned),
                       ("inf", infinite)):
        out[name] = tmp_path / f"{name}.field"
        out[name].write_bytes(bytes(data))
    return out


@pytest.mark.parametrize("kind", ["header", "short", "long", "nan", "inf"])
def test_verify_rejects_damaged_field_with_64(capsys, damaged, kind):
    rc = main(["verify", "--field", str(damaged[kind]), "--alpha", "1.0",
               "--nl", "power:p=2"])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert "choquard:" in captured.err


@pytest.mark.parametrize("kind", ["header", "short", "long", "nan", "inf"])
def test_convert_rejects_damaged_field_with_64(capsys, tmp_path, damaged, kind):
    out = tmp_path / "profile.csv"
    rc = main(["convert", "--field", str(damaged[kind]), "--out", str(out)])
    assert rc == 64
    assert "choquard:" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_is_installed():
    """The declared `choquard` script runs: installed, or from src via -m."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert '[project.scripts]\nchoquard = "choquard.cli:main"\n' in pyproject
    exe = shutil.which("choquard")
    if exe is not None:
        cmd, env = [exe], None
    else:
        # nothing installed: run the same main through choquard/__main__.py
        path = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        cmd, env = [sys.executable, "-m", "choquard"], dict(os.environ,
                                                             PYTHONPATH=path)
    proc = subprocess.run([*cmd, "coxeter", "--group", "A1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 2
