"""One pass of one workload, in the fresh interpreter this script starts in.

    python3 bench/worker.py --workload ref3d --seed 0 --mode pass

Modes:
  setup  time the set-up alone: Riesz kernel, groups, group actions;
  pass   set up, then solve the chain, annotate, write every solution,
         read it back and re-verify it;
  trace  the same pass with every layer call recorded as a span.

Running in a fresh interpreter is the point: the kernel cache and the
shear-tensor cache start cold, and the peak resident memory is this
pass's own.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import choquard  # noqa: E402
from choquard import analysis, coxeter, field, functionals, riesz, solver  # noqa: E402
from choquard.errors import ChoquardError  # noqa: E402
from workloads import (  # noqa: E402
    ENERGY_MATCH_REL,
    GRAD_TOL,
    PIN_REL,
    POHOZAEV_TOL,
    WORKLOADS,
)

NL = functionals.power(2.0)
NODAL_THRESHOLD = 1e-3
OUT_DIR = ROOT / ".bench_out"


def openblas_threads():
    """Thread count of the OpenBLAS numpy links, None if it is not found."""
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(seed):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "CHOQUARD_THREADS": os.environ.get("CHOQUARD_THREADS"),
        "thread_count": field.thread_count(),
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def set_up(wl):
    grid = field.GridSpec(wl.dim, wl.M, wl.L)
    start = time.perf_counter()
    kernel = riesz.get_kernel(grid, wl.alpha)
    groups = [coxeter.from_name(s.tag) for s in wl.chain]
    for g in groups:
        if g.rank:
            field.GroupAction(g, grid)
    return grid, kernel, groups, time.perf_counter() - start


def _solve_chain(wl, seed, grid, kernel, groups, tracer):
    """Solve and annotate in hierarchy order; None marks a failed solve."""
    out = []
    ground = None
    for i, (spec, group) in enumerate(zip(wl.chain, groups)):
        if tracer is not None:
            tracer.solve = i
        cfg = solver.SolverConfig(seed=seed, restarts=spec.restarts)
        try:
            if group.rank == 0:
                rep = solver.solve_ground(NL, kernel, grid, cfg)
            elif ground is None:
                out.append((None, "no ground field to seed the saddle from"))
                continue
            else:
                rep = solver.solve_saddle(group, NL, kernel, grid, cfg,
                                          base=ground.field)
            rep = analysis.annotate_report(rep, NODAL_THRESHOLD,
                                           group if group.rank else None)
        except ChoquardError as exc:
            out.append((None, f"{type(exc).__name__}: {exc}"))
            continue
        if group.rank == 0:
            ground = rep
        out.append((rep, None))
    return out


def _reverify(path, rep, spec, group, grid, kernel):
    """Write, read back and re-check one solution as `choquard verify` does."""
    field.write_field(path, rep.field)
    back = field.read_field(path)
    state, grad = functionals.evaluate_with_gradient(NL, kernel, back)
    norm = np.sqrt(field.l2_sq_integral(back))
    grad_res = float(np.sqrt(field.l2_sq_integral(grad)) / norm)
    p_res = abs(state.pohozaev) / (state.A + state.B)
    action = field.GroupAction(group, grid) if group.rank else None
    sym = field.symmetry_residual(action, back) if action else 0.0
    nodal = analysis.nodal_domains(back, NODAL_THRESHOLD, action)

    checks = {
        "grad residual": rep.grad_residual <= GRAD_TOL,
        "Pohozaev residual": rep.p_residual <= POHOZAEV_TOL,
        "energy pin": abs(rep.energy - spec.pin) <= PIN_REL * abs(spec.pin),
        "nodal count": rep.nodal_count == group.order,
        "round trip": back.grid == grid and np.array_equal(back.data, rep.field.data),
        "re-read grad residual": grad_res <= GRAD_TOL,
        "re-read Pohozaev residual": p_res <= POHOZAEV_TOL,
        "re-read energy": abs(state.energy - rep.energy) <= ENERGY_MATCH_REL * abs(rep.energy),
        "re-read symmetry": sym <= solver.SYMMETRY_DRIFT_LIMIT,
        "re-read nodal count": nodal.count == group.order,
    }
    if group.rank:
        checks["chamber sign"] = nodal.sign_on_chamber in (1, -1)
    return [name for name, ok in checks.items() if not ok]


def run_pass(wl, seed, grid, kernel, groups, tracer=None):
    solved = _solve_chain(wl, seed, grid, kernel, groups, tracer)
    records = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for i, ((rep, error), spec, group) in enumerate(zip(solved, wl.chain, groups)):
            rec = {"tag": spec.tag, "order": group.order}
            if rep is None:
                rec.update(ok=False, failures=[error])
                records.append(rec)
                continue
            if tracer is not None:
                tracer.solve = i
            failures = _reverify(os.path.join(tmp, f"{i}.field"), rep, spec,
                                 group, grid, kernel)
            rec.update(
                ok=not failures, failures=failures, energy=rep.energy,
                iters=rep.iters, restart_energies=rep.restart_energies,
                grad_residual=rep.grad_residual, p_residual=rep.p_residual,
                nodal_count=rep.nodal_count,
            )
            records.append(rec)
    return records


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    args = ap.parse_args()
    if not Path(choquard.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"choquard imported from {choquard.__file__}, not from {ROOT / 'src'}")
    wl = WORKLOADS[args.workload]
    result = {"workload": wl.name, "mode": args.mode, "env": environment(args.seed)}

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, summarize

        tracer = Tracer()
        tracer.install()
        setup_span = tracer.open("bench.setup")
    grid, kernel, groups, result["setup_s"] = set_up(wl)
    if args.mode == "setup":
        print(json.dumps(result))
        return
    if tracer is not None:
        tracer.close(setup_span)
        root = len(tracer.spans)
        pass_span = tracer.open("bench.pass")

    start = time.perf_counter()
    result["solves"] = run_pass(wl, args.seed, grid, kernel, groups, tracer)
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.close(pass_span)
        result["restored"] = tracer.restore()
        result["layers"] = summarize(tracer.spans, root)
        path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        with open(path, "w") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps(sp) + "\n")
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
