"""End-to-end tests of the command line driver and its exit codes."""

import argparse
import dataclasses
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from choquard import cli, riesz, solver
from choquard.cli import main
from choquard.field import Field, GridSpec, read_field, write_field

ROOT = Path(__file__).resolve().parents[1]
FAST = ["--dim", "2", "--alpha", "1.0", "--M", "64", "--L", "10.0",
        "--restarts", "1"]


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_readme_commands_parse():
    """Every `choquard ...` line in README.md's sh blocks parses, so the
    documented flags cannot drift from the parser."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks for line in block.splitlines()
                if line.startswith("choquard ")]
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


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
     "--nl", "power:p=2,p=3"],
    ["solve", "--dim", "2", "--alpha", "1.0", "--M", "16", "--L", "4.0",
     "--group", "Z9"],
    ["solve", "--dim", "3", "--M", "15", "--L", "4.0"],
    ["solve", "--dim", "2", "--alpha", "3.5", "--M", "16", "--L", "4.0"],
    ["solve", "--dim", "2", "--M", "16", "--alpha", "1", "--L", "1e-300"],
    ["solve", "--dim", "2", "--M", "16", "--alpha", "1", "--L", "1e300"],
    ["solve", "--dim", "2", "--alpha", "1.0", "--M", "16", "--L", "4.0",
     "--seed", "-1"],
    ["solve", "--dim", "2", "--M", "16", "--alpha", "1", "--L", "1e150",
     "--restarts", "1"],
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
                                  ["hierarchy", "--rescale-every", "2"],
                                  ["solve", "--step", "1"]])
def test_removed_solver_flags_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert "unrecognized arguments" in capsys.readouterr().err
    assert exc.value.code == 64


@pytest.mark.parametrize("key", ["precondition", "rescale_every", "step"])
def test_removed_config_keys_exit_64(capsys, tmp_path, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 1\n")
    assert main(["solve", "--config", str(cfg)]) == 64
    assert key in capsys.readouterr().err


def test_solver_defaults_are_solver_config():
    """solve, hierarchy and verify read their solver defaults from SolverConfig."""
    cfg = dataclasses.asdict(solver.SolverConfig())
    assert {k: cli._SOLVE_DEFAULTS[k] for k in cfg} == cfg
    flags = [arg for k, v in cfg.items()
             for arg in (f"--{k.replace('_', '-')}", str(v))]
    for command in ("solve", "hierarchy"):
        parsed = vars(cli.build_parser().parse_args([command, *flags]))
        assert all(type(parsed[k]) is type(v) for k, v in cfg.items())
    args = cli.build_parser().parse_args(
        ["verify", "--field", "f", "--alpha", "1", "--nl", "power:p=2"])
    assert args.grad_tol == cfg["grad_tol"]
    assert args.pohozaev_tol == cfg["pohozaev_tol"]


def test_infinite_half_width_exits_64_naming_l(capsys):
    rc = main(["solve", *FAST, "--L", "inf"])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert "L must be positive and finite" in captured.err


@pytest.mark.parametrize("tiny_l", ["1e-150", "1e-110"])
def test_tiny_half_width_exits_64_naming_the_interaction_scale(capsys, tiny_l):
    """A box whose (2L)^(N+alpha) falls below the normal floats is refused
    up front, not met as an overflow or a missing Pohozaev root."""
    rc = main(["solve", "--dim", "2", "--M", "16", "--alpha", "1",
               "--L", tiny_l, "--restarts", "1"])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert f"L = {float(tiny_l)} puts the interaction scale" in captured.err


def test_negative_seed_in_config_exits_64(capsys, tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -1\n")
    assert main(["solve", "--config", str(cfg)]) == 64
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv,name", [
    (["verify", "--threshold", "-0.5"], "threshold"),
    (["verify", "--threshold", "nan"], "threshold"),
    (["verify", "--threshold", "1"], "threshold"),
    (["solve", "--restarts", "0"], "restarts"),
    (["solve", "--restarts", "-3"], "restarts"),
    (["solve", "--max-iters", "0"], "max_iters"),
    (["solve", "--grad-tol", "nan"], "grad_tol"),
    (["solve", "--grad-tol", "-1"], "grad_tol"),
    (["solve", "--pohozaev-tol", "nan"], "pohozaev_tol"),
    (["solve", "--pohozaev-tol", "0"], "pohozaev_tol"),
    (["solve", "--threshold", "-1"], "threshold"),
    (["solve", "--threshold", "nan"], "threshold"),
    (["solve", "--threshold", "2"], "threshold"),
    (["hierarchy", "--threshold", "1"], "threshold"),
    (["verify", "--grad-tol", "nan"], "grad_tol"),
    (["verify", "--grad-tol", "-1"], "grad_tol"),
    (["verify", "--pohozaev-tol", "nan"], "pohozaev_tol"),
    (["verify", "--group", "Z9"], "unknown group tag 'Z9'"),
    (["verify", "--group", "A1xI2:3"], "rank 3 exceeds grid dim 2"),
    (["verify", "--group", ""], "unknown group tag ''"),
    (["solve", "--group", "Z9"], "unknown group tag 'Z9'"),
    (["solve", "--group", "A1xA1xA1"], "rank 3 exceeds grid dim 2"),
    (["hierarchy", "--groups", "trivial,Z9"], "unknown group tag 'Z9'"),
])
def test_unrunnable_setting_exits_64_before_any_kernel(
        capsys, monkeypatch, solved, argv, name):
    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(riesz, "get_kernel", no_kernel)
    problem = (["--field", f"{solved[0]}.field", "--alpha", "1.0", "--nl",
                "power:p=2"] if argv[0] == "verify" else FAST)
    rc = main([argv[0], *problem, *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert name in captured.err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_grid_too_large_for_memory_exits_64(capsys, monkeypatch, solved, command):
    """A kernel that cannot be allocated ends in one line and exit 64, as
    numpy's MemoryError does on a grid like --dim 2 --M 100000; nothing is
    allocated for real here."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(riesz, "get_kernel", no_memory)
    problem = (["--field", f"{solved[0]}.field", "--alpha", "1.0", "--nl",
                "power:p=2"] if command == "verify" else FAST)
    rc = main([command, *problem])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert captured.err == "choquard: grid too large for memory: Unable to allocate 74.5 GiB\n"


@pytest.mark.parametrize("command", ["coxeter", "convert", "solve"])
def test_unwritable_out_path_exits_64(capsys, tmp_path, solved, command):
    out = tmp_path / "missing" / "x"
    argv = {"coxeter": ["coxeter", "--group", "A1"],
            "convert": ["convert", "--field", f"{solved[0]}.field"],
            "solve": ["solve", *FAST]}[command]
    rc = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 64
    assert f"cannot write {out}" in captured.err
    assert "Traceback" not in captured.err
    if command == "solve":  # the report is printed before the files are written
        assert json.loads(captured.out)["group"] == "trivial"


def test_verify_reports_no_decay_rate_with_one_shell_above_floor(capsys, tmp_path):
    grid = GridSpec(2, 64, 10.0)
    r = grid.radius()
    path = tmp_path / "cut.field"
    write_field(path, Field(grid, np.where(r < 4.1, np.exp(-r), 0.0)))
    _, check = run_json(capsys, ["verify", "--field", str(path),
                                 "--alpha", "1.0", "--nl", "power:p=2"])
    assert check["decay_rate"] is None


@pytest.mark.parametrize("big_l", [1e-300, 1e300])
def test_verify_rejects_extreme_half_width_with_64(capsys, tmp_path, big_l):
    path = tmp_path / "extreme.field"
    grid = GridSpec(2, 16, 4.0)
    write_field(path, Field(grid, np.exp(-grid.radius() ** 2)))
    blob = bytearray(path.read_bytes())
    blob[20:28] = struct.pack("<d", big_l)  # L follows magic, version, dim, 2 M
    path.write_bytes(bytes(blob))
    rc = main(["verify", "--field", str(path), "--alpha", "1",
               "--nl", "power:p=2"])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert f"L = {big_l}" in captured.err


def test_unknown_config_key_exits_64(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["solve", "--config", str(cfg)]) == 64
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,value", [("solve", "groups", "trivial,A1"),
                                               ("hierarchy", "group", "I2:3")])
def test_config_key_of_the_other_command_exits_64(capsys, tmp_path, command,
                                                  key, value):
    cfg = tmp_path / "other.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main([command, *FAST, "--config", str(cfg)]) == 64
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command,table", [("solve", cli._SOLVE_DEFAULTS),
                                           ("hierarchy", cli._HIERARCHY_DEFAULTS)])
def test_config_keys_are_the_option_flags(tmp_path, command, table):
    """A command's config keys are the dests of its option flags, less
    --config, --force and --out, each cast by its flag's type."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    casts = {a.dest: a.type for a in sub.choices[command]._actions
             if a.option_strings and a.dest not in ("help", "config", "force", "out")}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{dest} = 1\n" for dest in casts))
    merged = cli._merge_options(parser.parse_args([command, "--config", str(cfg)]),
                                table)
    assert merged == {dest: cast("1") for dest, cast in casts.items()}
    assert all(type(merged[dest]) is cast for dest, cast in casts.items())


def test_repeated_config_key_exits_64(capsys, monkeypatch, tmp_path):
    """A key set twice in a config file is refused, with its key and the
    line that repeats it, before any solve: it is not read last-wins."""
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(solver, "solve_saddle", no_solve)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("M = 32\n# the box\nL = 4.0\nM = 16\n")
    assert main(["solve", "--dim", "2", "--alpha", "1.0", "--restarts", "1",
                 "--config", str(cfg)]) == 64
    err = capsys.readouterr().err
    assert "twice.cfg:4" in err and "repeated config key 'M'" in err


@pytest.mark.parametrize("groups", ["trivial,A1,A1", "trivial,I2:2,I2:02"])
def test_hierarchy_repeated_group_exits_64_before_solving(capsys, monkeypatch,
                                                          groups):
    """The repeat is refused before the Riesz kernel is built, not only
    before a solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(solver, "_solve", no_solve)
    monkeypatch.setattr(riesz, "get_kernel", no_kernel)
    assert main(["hierarchy", *FAST, "--groups", groups]) == 64
    assert "repeated in the chain" in capsys.readouterr().err


def test_missing_config_file_exits_64(capsys, tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 64
    assert "absent.cfg" in capsys.readouterr().err


def test_binary_config_file_exits_64(capsys, tmp_path):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"M = 16\n\xff\xfe\x00\x81\n")
    assert main(["solve", "--config", str(cfg)]) == 64
    assert "binary.cfg" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["solve", "--group", "H3"],
    ["solve", "--group", "A1xI2:3"],
    ["hierarchy", "--groups", "trivial,A1,H3"],
])
def test_group_without_exact_action_exits_64_before_solving(
        capsys, monkeypatch, argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(solver, "_solve", no_solve)
    rc = main([*argv, "--dim", "3", "--M", "16", "--L", "4.0",
               "--restarts", "1"])
    assert rc == 64
    assert "no exact action" in capsys.readouterr().err


def test_solver_failure_exits_2(capsys):
    rc = main(["solve", *FAST, "--max-iters", "1"])
    assert rc == 2
    assert "choquard:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    # drains towards u = 0
    (["--M", "16", "--L", "4.0", "--alpha", "1.0", "--nl", "power:p=3"],
     "iterate drained"),
    # the planar root (2B / ((2 + alpha) Q))^(1/alpha) overflows
    (["--M", "64", "--L", "16", "--alpha", "0.5", "--nl", "power:p=2"],
     "line search stalled"),
    # Q is NaN at the first evaluation; doubling it would overflow
    (["--M", "16", "--L", "4", "--alpha", "1", "--restarts", "1",
      "--nl", "sum:c1=1e308,p1=2"], "Q = nan is not finite"),
    # converges on the grid; the kernel's quadrature error is P's share
    (["--M", "32", "--L", "8", "--alpha", "1"], "Pohozaev residual"),
    # the start's Pohozaev root lies far from 1, and every restart drains
    (["--M", "64", "--L", "10", "--alpha", "1", "--group", "I2:4"],
     "line search stalled"),
    # the box clips the six-fold class: every restart drifts out of it
    (["--M", "64", "--L", "10", "--alpha", "1", "--group", "I2:3"],
     "symmetry residual"),
    # an extreme power: the ladder's line search stalls (test_functionals
    # pins the refusal of a planar root below the t = 2^-511 bracket)
    (["--M", "16", "--L", "4", "--alpha", "1", "--restarts", "1",
      "--nl", "power:p=50", "--force"], "line search stalled"),
], ids=["drain", "root-overflow", "nan-q", "pohozaev", "i2-4-drain", "i2-3-drift",
        "root-underflow"])
def test_accepted_input_that_cannot_solve_exits_2(capsys, tmp_path, argv, message):
    rc = main(["solve", "--dim", "2", *argv, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("choquard:")
    assert message in err
    assert "Traceback" not in err


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


def test_hierarchy_config_file_with_flag_override(capsys, tmp_path, solved):
    _, reference = solved
    cfg = tmp_path / "hier.cfg"
    cfg.write_text("dim = 2\nalpha = 1.0\nM = 64\nL = 10.0\nrestarts = 1\n"
                   "groups = trivial\nmax_iters = 1\n")
    # the one-iteration budget is read from the file
    assert main(["hierarchy", "--config", str(cfg)]) == 2
    # explicit flags beat the file, for a solver setting and for the groups
    out = tmp_path / "hier.json"
    assert main(["hierarchy", "--config", str(cfg), "--max-iters", "4000",
                 "--out", str(out)]) == 0
    assert main(["hierarchy", "--config", str(cfg), "--groups", "Z9"]) == 64
    assert "unknown group tag 'Z9'" in capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"]
    assert [r["group"] for r in rows] == ["trivial"]
    assert rows[0]["energy"] == reference["energy"]


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
    # without --group the trivial group's chamber is the whole grid
    assert check["sign_on_chamber"] == 1
    assert check["symmetry_residual"] == 0.0


def test_verify_rejects_at_tight_tolerance(capsys, solved):
    prefix, _ = solved
    rc, check = run_json(capsys, ["verify", "--field", f"{prefix}.field",
                                  "--alpha", "1.0", "--nl", "power:p=2",
                                  "--grad-tol", "1e-12"])
    assert rc == 2
    assert check["grad_residual"] > 1e-12


@pytest.mark.parametrize("group", ["A1", "I2:3"])
def test_verify_rejects_field_outside_the_group_class(capsys, solved, group):
    """The ground state is even under every reflection, so it lies in no
    group's sign-equivariant class: its symmetry residual is 2, and verify
    exits 2 although its gradient and Pohozaev residuals pass."""
    prefix, _ = solved
    rc, check = run_json(capsys, ["verify", "--field", f"{prefix}.field",
                                  "--alpha", "1.0", "--nl", "power:p=2",
                                  "--group", group])
    assert rc == 2
    assert check["symmetry_residual"] > solver.SYMMETRY_DRIFT_LIMIT
    assert check["grad_residual"] <= 1e-4
    assert check["P_residual"] <= solver.SolverConfig().pohozaev_tol


def test_verify_accepts_saddle_in_its_group_class(capsys, tmp_path):
    prefix = tmp_path / "a1"
    assert main(["solve", *FAST, "--group", "A1", "--out", str(prefix)]) == 0
    capsys.readouterr()
    rc, check = run_json(capsys, ["verify", "--field", f"{prefix}.field",
                                  "--alpha", "1.0", "--nl", "power:p=2",
                                  "--group", "A1"])
    assert rc == 0
    assert check["symmetry_residual"] <= 1e-10
    assert check["nodal_count"] == 2


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
    """Copies of the solved field file, cut short, overlong or non-finite,
    and a path with no file behind it."""
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
    out["missing"] = tmp_path / "missing.field"
    return out


@pytest.mark.parametrize("kind", ["header", "short", "long", "nan", "inf",
                                  "missing"])
def test_verify_rejects_damaged_field_with_64(capsys, damaged, kind):
    rc = main(["verify", "--field", str(damaged[kind]), "--alpha", "1.0",
               "--nl", "power:p=2"])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert "choquard:" in captured.err


def test_verify_rejects_infinite_half_width_with_64(capsys, tmp_path):
    path = tmp_path / "wide.field"
    write_field(path, Field(GridSpec(2, 16, 4.0), np.zeros((16, 16))))
    blob = bytearray(path.read_bytes())
    blob[20:28] = struct.pack("<d", np.inf)  # L follows magic, version, dim, 2 M
    path.write_bytes(bytes(blob))
    rc = main(["verify", "--field", str(path), "--alpha", "1",
               "--nl", "power:p=2"])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert "L must be positive and finite" in captured.err


@pytest.mark.parametrize("nl", ["power:p=nan", "sum:c1=inf,p1=2"])
def test_verify_rejects_non_finite_nonlinearity_with_64(capsys, solved, nl):
    prefix, _ = solved
    rc = main(["verify", "--field", f"{prefix}.field", "--alpha", "1.0",
               "--nl", nl])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert "finite" in captured.err


def test_verify_rejects_zero_field_with_64(capsys, tmp_path):
    path = tmp_path / "zero.field"
    write_field(path, Field(GridSpec(2, 16, 4.0), np.zeros((16, 16))))
    rc = main(["verify", "--field", str(path), "--alpha", "1",
               "--nl", "power:p=2"])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "field is identically zero" in captured.err


def test_verify_rejects_field_whose_square_underflows_with_64(capsys, tmp_path):
    """Finite and nonzero, but u^2, and so A + B, underflows to 0."""
    grid = GridSpec(2, 32, 4.0)
    path = tmp_path / "tiny.field"
    write_field(path, Field(grid, 1e-170 * np.exp(-grid.radius_sq())))
    rc = main(["verify", "--field", str(path), "--alpha", "1",
               "--nl", "power:p=2"])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "underflows to 0" in captured.err


def test_non_even_tabulated_key_exits_64_before_any_kernel(
        capsys, monkeypatch, tmp_path):
    table = tmp_path / "profile.csv"
    table.write_text("0.0,0.0\n0.5,0.25\n1.0,1.0\n2.0,4.0\n")

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(riesz, "get_kernel", no_kernel)
    rc = main(["solve", *FAST, "--group", "A1",
               "--nl", f"tabulated:file={table},even=false"])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert "unexpected keys ['even']" in captured.err


@pytest.mark.parametrize("content,message", [
    (None, "cannot read table"),
    ("0.0,0.0\n0.5,quarter\n1.0,1.0\n", ":2: expected two numbers"),
    ("0.0,0.0\n0.5\n1.0,1.0\n", ":2: expected two numbers"),
    (b"0.0,0.0\n\xff\xfe,1.0\n", "is not text"),
], ids=["missing", "non_numeric", "one_column", "not_text"])
def test_unreadable_tabulated_file_exits_64(capsys, tmp_path, content, message):
    table = tmp_path / "profile.csv"
    if isinstance(content, bytes):
        table.write_bytes(content)
    elif content is not None:
        table.write_text(content)
    rc = main(["solve", "--dim", "2", "--alpha", "1", "--M", "16", "--L", "4",
               "--nl", f"tabulated:file={table}"])
    captured = capsys.readouterr()
    assert rc == 64
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("kind", ["header", "short", "long", "nan", "inf",
                                  "missing"])
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
