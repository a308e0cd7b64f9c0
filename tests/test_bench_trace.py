"""The benchmark tracer still finds, counts and restores every layer name.

bench/tracer.py wraps module-level bindings of the package by name, so a
rename or a moved call in src/ silently drops its counts or breaks the
benchmark.  This runs a small ground and A1 solve under the tracer as the
benchmark does and checks the counts against the solve reports, and a
six-fold symmetrization, which is the only traffic through the shear-table
hook and its cache.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from choquard import field
from choquard.coxeter import from_name
from choquard.field import GridSpec, GroupAction, symmetrize_array
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
    # the tracer counts descents, not restarts (a FOUND note in CHANGES.md):
    # each solve here descends on the 32^2 grid, then confirms on 64^2
    assert m["solver.iters"] == sum(r.iters + r.coarse_iters for r in traced) == 36
    assert m["solver.restarts.attempted"] == 4
    assert m["solver.restarts.failed"] == 0
    assert m["riesz.convolve.calls"] > 0
    assert m["solver.retraction.calls"] > 0
    assert m["field.dilate.calls"] == m["solver.retraction.calls"]
    assert np.isfinite(m["traced_wall_s"])


def test_tracer_counts_shear_tables(tracer_module, monkeypatch):
    # a fresh cache, so the tables are built under the tracer
    monkeypatch.setattr(field, "_SHEAR_CACHE", {})
    action = GroupAction(from_name("I2:3"), GRID)
    a = np.random.default_rng(0).standard_normal(action.half.shape)
    plain = symmetrize_array(action, a)
    monkeypatch.setattr(field, "_SHEAR_CACHE", {})
    tr = tracer_module.Tracer()
    tr.install()
    try:
        root_span = tr.open("test.pass")
        traced = field.symmetrize_array(action, a)
        tr.close(root_span)
    finally:
        restored = tr.restore()
    assert restored
    assert np.array_equal(traced, plain)
    m = tracer_module.summarize(tr.spans, 0)
    assert m["field.shear_tensor.lookups"] > 0
    assert m["field.shear_tensor.builds"] >= 1
