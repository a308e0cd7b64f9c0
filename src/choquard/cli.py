"""Command line driver.

Subcommands: coxeter (group info), solve (ground state or saddle),
hierarchy (chain of groups with energy comparisons), verify (recheck a
stored field), convert (field binary to radial CSV).  Options are declared
once, in a table of defaults that gives each flag and config key; a flat
key=value config file may set them, and explicit flags win.  Exit codes:
0 success, 2 solver failure or a stored field that verify finds off its
tolerances or outside its group's class, 3 hypothesis violation without
--force, 64 usage or malformed input, or an output path that cannot be
written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import analysis, field as field_mod, functionals, riesz, solver
from .coxeter import from_name
from .errors import (
    AlphaOutOfRange,
    ChoquardError,
    HypothesisViolation,
    IncompatibleGrid,
    ParseError,
)

USAGE_ERRORS = (ParseError, IncompatibleGrid, AlphaOutOfRange)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _read_config(path) -> dict:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"config {path} is not text") from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        out[key.strip()] = val.strip()
    return out


_SOLVE_DEFAULTS = {
    "dim": 3,
    "alpha": 2.0,
    "nl": "power:p=2",
    "group": "trivial",
    "M": 64,
    "L": 12.0,
    "threshold": analysis.NODAL_THRESHOLD,
    **dataclasses.asdict(solver.SolverConfig()),
}

_HIERARCHY_DEFAULTS = dict(_SOLVE_DEFAULTS, groups="trivial,A1")
del _HIERARCHY_DEFAULTS["group"]


def _add_options(parser, table, required=()):
    """--key, with '-' for '_', typed by the key's default; a flag left out
    is None unless the parser sets the table's values as its defaults."""
    for key, val in table.items():
        parser.add_argument(f"--{key.replace('_', '-')}", type=type(val),
                            required=key in required)


def _merge_options(args, table) -> dict:
    """table < config file < explicit flags."""
    merged = dict(table)
    if args.config:
        for key, val in _read_config(args.config).items():
            if key not in table:
                raise ParseError(f"unknown config key {key!r}")
            try:
                merged[key] = type(table[key])(val)
            except ValueError:
                raise ParseError(f"bad value for config key {key!r}: {val!r}")
    for key in merged:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    return merged


def _check_threshold(threshold):
    if not 0.0 <= threshold < 1.0:
        raise ParseError(f"threshold must lie in [0, 1), got {threshold}")


def _problem(opts, tags, force):
    """Nonlinearity, grid, groups, kernel and solver settings of solve and
    hierarchy; a tag with no group or no exact action fails before the kernel."""
    _check_threshold(opts["threshold"])
    nl = functionals.parse_nonlinearity(opts["nl"])
    violations = functionals.validate_hypotheses(nl, opts["dim"], opts["alpha"])
    if violations and not force:
        raise HypothesisViolation("; ".join(violations))
    grid = field_mod.GridSpec(opts["dim"], opts["M"], opts["L"])
    groups = [field_mod.GroupAction(from_name(tag), grid).group for tag in tags]
    names = [f.name for f in dataclasses.fields(solver.SolverConfig)]
    cfg = solver.SolverConfig(**{name: opts[name] for name in names})
    return nl, grid, groups, riesz.get_kernel(grid, opts["alpha"]), cfg


def _dump(obj, stream=None):
    (stream or sys.stdout).write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def cmd_coxeter(args) -> int:
    group = from_name(args.group)
    info = group.info_dict()
    _dump(info)
    if args.out:
        with open(args.out, "w") as fh:
            _dump(info, fh)
    return 0


def _write_solution(prefix, report):
    field_mod.write_field(f"{prefix}.field", report.field)
    field_mod.write_radial_csv(f"{prefix}.csv", report.field)
    with open(f"{prefix}.json", "w") as fh:
        _dump(report.to_json_dict(), fh)


def cmd_solve(args) -> int:
    opts = _merge_options(args, _SOLVE_DEFAULTS)
    nl, grid, (group,), kernel, cfg = _problem(opts, [opts["group"]], args.force)
    report = solver.solve_saddle(group, nl, kernel, grid, cfg)
    annotated = analysis.annotate_report(report, opts["threshold"])
    _dump(annotated.to_json_dict())
    if args.out:
        _write_solution(args.out, annotated)
    return 0


def cmd_hierarchy(args) -> int:
    opts = _merge_options(args, _HIERARCHY_DEFAULTS)
    tags = [t.strip() for t in opts["groups"].split(",") if t.strip()]
    if not tags:
        raise ParseError("hierarchy needs a non-empty group list")
    nl, grid, _, kernel, cfg = _problem(opts, tags, args.force)
    report = analysis.hierarchy_report(tags, nl, kernel, grid, cfg,
                                       opts["threshold"])
    sys.stdout.write(report.to_text() + "\n")
    if args.out:
        with open(args.out, "w") as fh:
            _dump(report.to_json_dict(), fh)
    return 0


def cmd_verify(args) -> int:
    _check_threshold(args.threshold)
    cfg = solver.SolverConfig(grad_tol=args.grad_tol, pohozaev_tol=args.pohozaev_tol)
    u = field_mod.read_field(args.field)
    action = field_mod.GroupAction(from_name(args.group), u.grid)
    if u.norm_max() == 0.0:
        raise ParseError(f"{args.field}: field is identically zero")
    if field_mod.l2_sq_integral(u) == 0.0:  # B, and with it A + B, is 0
        raise ParseError(f"{args.field}: field so small that int u^2 underflows to 0")
    nl = functionals.parse_nonlinearity(args.nl)
    kernel = riesz.get_kernel(u.grid, args.alpha)
    state, grad = functionals.evaluate_with_gradient(nl, kernel, u)
    grad_res, p_res = functionals.residuals(u.grid, state, grad.data)
    sym = field_mod.symmetry_residual(action, u)
    nodal = analysis.nodal_domains(u, args.threshold, action)
    out = {
        "energy": state.energy,
        "A": state.A,
        "B": state.B,
        "Q": state.Q,
        "P_residual": p_res,
        "grad_residual": grad_res,
        "symmetry_residual": sym,
        "nodal_count": nodal.count,
        "sign_on_chamber": nodal.sign_on_chamber,
        "boundary_amplitude": field_mod.boundary_amplitude(u),
    }
    try:
        out["decay_rate"] = analysis.decay_fit(u).rate
    except ValueError:
        out["decay_rate"] = None
    _dump(out)
    ok = (grad_res <= cfg.grad_tol and p_res <= cfg.pohozaev_tol
          and sym <= solver.SYMMETRY_DRIFT_LIMIT)
    return 0 if ok else 2


def cmd_convert(args) -> int:
    u = field_mod.read_field(args.field)
    field_mod.write_radial_csv(args.out, u)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="choquard")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cox = sub.add_parser("coxeter", help="print group info")
    p_cox.add_argument("--group", required=True)
    p_cox.add_argument("--out")
    p_cox.set_defaults(func=cmd_coxeter)

    for name, table, func, text in (
            ("solve", _SOLVE_DEFAULTS, cmd_solve, "solve one group"),
            ("hierarchy", _HIERARCHY_DEFAULTS, cmd_hierarchy,
             "solve a chain of groups")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config")
        _add_options(p, table)
        p.add_argument("--force", action="store_true")
        p.add_argument("--out")
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="recheck a stored field")
    p_verify.add_argument("--field", required=True)
    checks = {key: _SOLVE_DEFAULTS[key] for key in (
        "alpha", "nl", "group", "threshold", "grad_tol", "pohozaev_tol")}
    _add_options(p_verify, checks, required=("alpha", "nl"))
    p_verify.set_defaults(func=cmd_verify, **checks)

    p_conv = sub.add_parser("convert", help="field binary to radial CSV")
    p_conv.add_argument("--field", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        sys.stderr.write(f"choquard: {exc}\n")
        return 64
    except HypothesisViolation as exc:
        sys.stderr.write(f"choquard: hypothesis violation: {exc}\n")
        return 3
    except ChoquardError as exc:
        sys.stderr.write(f"choquard: {exc}\n")
        return 2
    except OSError as exc:  # reads are mapped to ParseError where they happen
        sys.stderr.write(f"choquard: cannot write {exc.filename}: {exc.strerror}\n")
        return 64
