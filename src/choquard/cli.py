"""Command line driver.

Subcommands: coxeter (group info), solve (ground state or saddle),
hierarchy (chain of groups with energy comparisons), verify (recheck a
stored field), convert (field binary to radial CSV).  Options may come
from a flat key=value config file; explicit flags win.  Exit codes:
0 success, 2 solver failure, 3 hypothesis violation without --force,
64 usage or malformed input.
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
    NoDescent,
    ParseError,
)

USAGE_ERRORS = (ParseError, IncompatibleGrid, AlphaOutOfRange)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _read_config(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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
    "seed": 0,
    "restarts": 3,
    "max_iters": 4000,
    "step": 1.0,
    "grad_tol": 1e-4,
    "pohozaev_tol": 1e-3,
    "threshold": 1e-3,
}

_CASTS = {
    "dim": int, "M": int, "seed": int, "restarts": int, "max_iters": int,
    "alpha": float, "L": float, "step": float, "grad_tol": float,
    "pohozaev_tol": float, "threshold": float,
    "nl": str, "group": str, "groups": str,
}


def _merge_options(args, defaults) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        for key, val in _read_config(args.config).items():
            if key not in _CASTS:
                raise ParseError(f"unknown config key {key!r}")
            try:
                merged[key] = _CASTS[key](val)
            except ValueError:
                raise ParseError(f"bad value for config key {key!r}: {val!r}")
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _solver_config(opts) -> solver.SolverConfig:
    names = [f.name for f in dataclasses.fields(solver.SolverConfig)]
    return solver.SolverConfig(**{name: opts[name] for name in names})


def _check_hypotheses(nl, dim, alpha, force):
    report = functionals.validate_hypotheses(nl, dim, alpha)
    if report.violations and not force:
        raise HypothesisViolation("; ".join(report.violations))
    return report


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
    nl = functionals.parse_nonlinearity(opts["nl"])
    _check_hypotheses(nl, opts["dim"], opts["alpha"], args.force)
    grid = field_mod.GridSpec(opts["dim"], opts["M"], opts["L"])
    kernel = riesz.get_kernel(grid, opts["alpha"])
    cfg = _solver_config(opts)
    group = from_name(opts["group"])
    if group.rank == 0:
        report = solver.solve_ground(nl, kernel, grid, cfg)
        annotated = analysis.annotate_report(report, opts["threshold"])
    else:
        report = solver.solve_saddle(group, nl, kernel, grid, cfg)
        annotated = analysis.annotate_report(report, opts["threshold"], group)
    _dump(annotated.to_json_dict())
    if args.out:
        _write_solution(args.out, annotated)
    return 0


def cmd_hierarchy(args) -> int:
    opts = _merge_options(args, dict(_SOLVE_DEFAULTS, groups="trivial,A1"))
    tags = [t.strip() for t in opts["groups"].split(",") if t.strip()]
    if not tags:
        raise ParseError("hierarchy needs a non-empty group list")
    nl = functionals.parse_nonlinearity(opts["nl"])
    _check_hypotheses(nl, opts["dim"], opts["alpha"], args.force)
    grid = field_mod.GridSpec(opts["dim"], opts["M"], opts["L"])
    kernel = riesz.get_kernel(grid, opts["alpha"])
    cfg = _solver_config(opts)
    report = analysis.hierarchy_report(tags, nl, kernel, grid, cfg,
                                       opts["threshold"])
    sys.stdout.write(report.to_text() + "\n")
    if args.out:
        with open(args.out, "w") as fh:
            _dump(report.to_json_dict(), fh)
    return 0


def cmd_verify(args) -> int:
    u = field_mod.read_field(args.field)
    nl = functionals.parse_nonlinearity(args.nl)
    kernel = riesz.get_kernel(u.grid, args.alpha)
    state, grad = functionals.evaluate_with_gradient(nl, kernel, u)
    grad_res, p_res = functionals.residuals(u.grid, state, grad.data, u.data)
    group = from_name(args.group) if args.group else None
    action = (
        field_mod.GroupAction(group, u.grid)
        if group is not None and group.rank else None
    )
    sym = field_mod.symmetry_residual(action, u) if action else 0.0
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
    except (ValueError, ChoquardError):
        out["decay_rate"] = None
    _dump(out)
    ok = grad_res <= args.grad_tol and p_res <= args.pohozaev_tol
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

    def add_common(p):
        p.add_argument("--config")
        p.add_argument("--dim", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--nl")
        p.add_argument("--M", type=int)
        p.add_argument("--L", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--restarts", type=int)
        p.add_argument("--max-iters", dest="max_iters", type=int)
        p.add_argument("--step", type=float)
        p.add_argument("--grad-tol", dest="grad_tol", type=float)
        p.add_argument("--pohozaev-tol", dest="pohozaev_tol", type=float)
        p.add_argument("--threshold", type=float)
        p.add_argument("--force", action="store_true")
        p.add_argument("--out")

    p_solve = sub.add_parser("solve", help="solve one group")
    add_common(p_solve)
    p_solve.add_argument("--group")
    p_solve.set_defaults(func=cmd_solve)

    p_hier = sub.add_parser("hierarchy", help="solve a chain of groups")
    add_common(p_hier)
    p_hier.add_argument("--groups")
    p_hier.set_defaults(func=cmd_hierarchy)

    p_verify = sub.add_parser("verify", help="recheck a stored field")
    p_verify.add_argument("--field", required=True)
    p_verify.add_argument("--alpha", type=float, required=True)
    p_verify.add_argument("--nl", required=True)
    p_verify.add_argument("--group")
    p_verify.add_argument("--threshold", type=float, default=1e-3)
    p_verify.add_argument("--grad-tol", dest="grad_tol", type=float,
                          default=1e-4)
    p_verify.add_argument("--pohozaev-tol", dest="pohozaev_tol", type=float,
                          default=1e-3)
    p_verify.set_defaults(func=cmd_verify)

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
