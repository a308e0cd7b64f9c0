"""The benchmark tracer still finds, counts and restores every layer name.

bench/tracer.py wraps module-level bindings of the package by name, so a
rename or a moved call in src/ silently drops its counts or breaks the
benchmark.  This runs a small ground and A1 solve under the tracer as the
benchmark does and checks the counts against the solve reports.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from choquard.coxeter import from_name
from choquard.field import GridSpec
from choquard.functionals import power
from choquard.riesz import get_kernel
from choquard.solver import SolverConfig, solve_ground, solve_saddle

BENCH = Path(__file__).resolve().parents[1] / "bench"
GRID = GridSpec(dim=2, M=64, L=10.0)
NL = power(2.0)
CFG = SolverConfig(seed=0, restarts=1)


@pytest.fixture(scope="module")
def tracer_module():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return tracer


def _chain(kernel):
    ground = solve_ground(NL, kernel, GRID, CFG)
    saddle = solve_saddle(from_name("A1"), NL, kernel, GRID, CFG,
                          base=ground.field)
    return ground, saddle


def _outcome(rep):
    return (rep.energy, rep.iters, rep.restart_energies, rep.grad_residual,
            rep.p_residual, rep.field.data.tobytes())


def test_tracer_counts_match_an_untraced_chain(tracer_module):
    kernel = get_kernel(GRID, 1.0)
    plain = _chain(kernel)
    tr = tracer_module.Tracer()
    tr.install()
    try:
        root_span = tr.open("test.pass")
        traced = _chain(kernel)
        tr.close(root_span)
    finally:
        restored = tr.restore()
    assert restored
    assert [_outcome(r) for r in traced] == [_outcome(r) for r in plain]
    m = tracer_module.summarize(tr.spans, 0)
    assert m["solver.iters"] == sum(r.iters for r in traced)
    assert m["solver.restarts.attempted"] == 2
    assert m["solver.restarts.failed"] == 0
    assert m["riesz.convolve.calls"] > 0
    assert m["solver.retraction.calls"] > 0
    assert np.isfinite(m["traced_wall_s"])
