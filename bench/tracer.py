"""Spans around calls into the choquard layers, recorded from outside.

The tracer replaces module-level names (and a few class attributes) of
the package with wrappers that open a span, call the original and close
the span.  Where one function is bound under several names, because a
module imported it with `from .field import ...`, every binding is
wrapped, so a call is seen whichever name it goes through.  `restore()`
puts every original back and reports whether each one is in place again.

A span is [name, start, end, parent, solve, note]: parent is the index
of the enclosing span (-1 at the root), solve the id the benchmark set
before the call, and note a per-span outcome some hooks fill in.  The
layer of a span is the first dotted part of its name.
"""

from __future__ import annotations

import os
import time
from collections import Counter

from choquard import analysis, coxeter, field, functionals, riesz, solver
from workloads import LAYERS


NAME, START, END, PARENT, SOLVE, NOTE = range(6)


def _fft_points(span, args, result, before):
    kernel = args[0]
    span[NOTE] = (2 * kernel.grid.M) ** kernel.grid.dim


def _descent_iters(span, args, result, before):
    span[NOTE] = result[4]


def _retraction_identity(span, args, result, before):
    span[NOTE] = result[2] is None


def _shear_keys(args):
    return set(field._SHEAR_CACHE)


def _shear_built(span, args, result, before):
    span[NOTE] = bool(set(field._SHEAR_CACHE) - before)


def _io_bytes(span, args, result, before):
    span[NOTE] = os.path.getsize(args[0])


# (owner, attribute, span name, hook run on the result); a hook also gets
# what `_PRE` returned for its span name just before the call
_TARGETS = (
    (riesz.RieszKernel, "__init__", "riesz.kernel_build", None),
    (riesz.RieszKernel, "convolve_array", "riesz.convolve", _fft_points),
    (field, "_dst", "field.dst", None),
    (field, "_idst", "field.dst", None),
    (functionals, "_dst", "field.dst", None),
    (functionals, "_idst", "field.dst", None),
    (solver, "_idst", "field.dst", None),
    (field, "helmholtz_inverse_array", "field.helmholtz", None),
    (solver, "helmholtz_inverse_array", "field.helmholtz", None),
    (field, "dilate", "field.dilate", None),
    (solver, "dilate", "field.dilate", None),
    (field, "translate", "field.translate", None),
    (solver, "translate", "field.translate", None),
    (field, "symmetrize_array", "field.symmetrize", None),
    (solver, "symmetrize_array", "field.symmetrize", None),
    (analysis, "symmetrize_array", "field.symmetrize", None),
    (field, "apply_matrix_array", "field.group_action", None),
    (field, "_shear_tensor", "field.shear_tensor", _shear_built),
    (field, "symmetry_residual", "field.symmetry_residual", None),
    (solver, "symmetry_residual", "field.symmetry_residual", None),
    (field, "boundary_amplitude", "field.boundary_amplitude", None),
    (solver, "boundary_amplitude", "field.boundary_amplitude", None),
    (field, "radial_shell_stats", "field.radial_stats", None),
    (analysis, "radial_shell_stats", "field.radial_stats", None),
    (field.GroupAction, "__init__", "field.action_init", None),
    (field, "write_field", "field.io", _io_bytes),
    (field, "read_field", "field.io", _io_bytes),
    (functionals, "pohozaev_root", "functionals.pohozaev_root", None),
    (solver, "pohozaev_root", "functionals.pohozaev_root", None),
    (functionals, "evaluate_with_gradient", "functionals.evaluate", None),
    (functionals.Nonlinearity, "F", "functionals.nonlinearity", None),
    (functionals.Nonlinearity, "f", "functionals.nonlinearity", None),
    (solver, "solve_ground", "solver.solve", None),
    (solver, "solve_saddle", "solver.solve", None),
    (solver, "build_initializer", "solver.initializer", None),
    (solver, "_smooth_noise", "solver.noise", None),
    (solver, "_ensure_positive_q", "solver.ensure_q", None),
    (solver._Descent, "run", "solver.descent", _descent_iters),
    (solver._Descent, "_retract", "solver.retraction", _retraction_identity),
    (solver._Descent, "_ray_energy", "solver.probe", None),
    (solver, "_state_parts", "solver.state_eval", None),
    (solver, "_gradient_from_parts", "solver.gradient", None),
    (analysis, "annotate_report", "analysis.annotate", None),
    (analysis, "nodal_domains", "analysis.nodal_domains", None),
    (analysis, "decay_fit", "analysis.decay_fit", None),
    (coxeter, "from_name", "coxeter.from_name", None),
    (analysis, "from_name", "coxeter.from_name", None),
    (coxeter.CoxeterGroup, "orbit", "coxeter.query", None),
    (coxeter.CoxeterGroup, "isotropy", "coxeter.query", None),
    (coxeter.CoxeterGroup, "sign", "coxeter.query", None),
    (coxeter.CoxeterGroup, "chamber_interior_point", "coxeter.query", None),
)

_PRE = {"field.shear_tensor": _shear_keys}


def _lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.solve = -1
        self._stack = []
        self._originals = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.solve, None])
        self._stack.append(idx)
        return self.spans[idx]

    def close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, hook):
        pre = _PRE.get(name)

        def traced(*args, **kwargs):
            before = pre(args) if pre is not None else None
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[NOTE] = "raised"
                raise
            finally:
                self.close(span)
            if hook is not None:
                hook(span, args, result, before)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self):
        for owner, attr, name, hook in _TARGETS:
            original = _lookup(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        ok = all(_lookup(o, a) is orig for o, a, orig in self._originals)
        self._originals = []
        return ok


def summarize(spans, root) -> dict:
    """Per-layer metrics of the spans under spans[root], the timed pass.

    A layer's self time is the time its spans cover minus the time their
    child spans cover.  Kernel builds are summed over every span, since
    they happen in set-up, before the pass.
    """
    n = len(spans)
    under = [False] * n
    child_s = [0.0] * n
    for i, sp in enumerate(spans):
        p = sp[PARENT]
        if p >= 0:
            child_s[p] += sp[END] - sp[START]
            under[i] = p == root or under[p]
    calls, incl, notes = Counter(), Counter(), {}
    self_s = Counter()
    for i in range(n):
        if not under[i]:
            continue
        sp = spans[i]
        name, dur = sp[NAME], sp[END] - sp[START]
        calls[name] += 1
        incl[name] += dur
        self_s[name.split(".")[0]] += dur - child_s[i]
        notes.setdefault(name, []).append((i, sp[NOTE]))
    wall = spans[root][END] - spans[root][START]

    def noted(name, value):
        return sum(1 for _, note in notes.get(name, ()) if note is value)

    m = {"traced_wall_s": wall}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.share"] = self_s[layer] / wall
    m["riesz.kernel_build.s"] = sum(
        sp[END] - sp[START] for sp in spans if sp[NAME] == "riesz.kernel_build")
    conv = calls["riesz.convolve"]
    m["riesz.convolve.calls"] = conv
    m["riesz.convolve.s"] = incl["riesz.convolve"]
    m["riesz.convolve.ms_per_call"] = 1e3 * incl["riesz.convolve"] / conv if conv else 0.0
    m["riesz.convolve.fft_points"] = max(
        (note for _, note in notes.get("riesz.convolve", ())), default=0)
    for key, name in (("dst", "field.dst"), ("dilate", "field.dilate"),
                      ("symmetrize", "field.symmetrize"),
                      ("group_action", "field.group_action")):
        m[f"field.{key}.calls"] = calls[name]
        m[f"field.{key}.s"] = incl[name]
    lookups = calls["field.shear_tensor"]
    builds = noted("field.shear_tensor", True)
    m["field.shear_tensor.builds"] = builds
    m["field.shear_tensor.lookups"] = lookups
    m["field.shear_tensor.hit_ratio"] = 1.0 - builds / lookups if lookups else 0.0
    m["field.io.s"] = incl["field.io"]
    m["field.io.bytes"] = sum(note for _, note in notes.get("field.io", ()))
    for key, name in (("pohozaev_root", "functionals.pohozaev_root"),
                      ("evaluate", "functionals.evaluate")):
        m[f"functionals.{key}.calls"] = calls[name]
        m[f"functionals.{key}.s"] = incl[name]

    # A run that raised counts its gradients but one as accepted steps:
    # the last gradient belongs to the iterate whose line search failed.
    descents = {i for i, _ in notes.get("solver.descent", ())}
    gradients = Counter(spans[i][PARENT] for i, _ in notes.get("solver.gradient", ()))
    iters = sum(note if isinstance(note, int) else max(gradients[i] - 1, 0)
                for i, note in notes.get("solver.descent", ()))
    direct = sum(1 for i, _ in notes.get("solver.state_eval", ())
                 if spans[i][PARENT] in descents)
    trials = direct - len(descents)
    m["solver.iters"] = iters
    m["solver.trials"] = trials
    m["solver.accept_ratio"] = iters / trials if trials else 0.0
    m["solver.state_evals"] = calls["solver.state_eval"]
    retractions = calls["solver.retraction"]
    m["solver.retraction.calls"] = retractions
    m["solver.retraction.s"] = incl["solver.retraction"]
    m["solver.retraction.probe_evals"] = calls["solver.probe"]
    m["solver.retraction.identity_frac"] = (
        noted("solver.retraction", True) / retractions if retractions else 0.0)
    attempted = calls["solver.ensure_q"]
    m["solver.restarts.attempted"] = attempted
    m["solver.restarts.failed"] = attempted - sum(
        1 for _, note in notes.get("solver.descent", ()) if isinstance(note, int))
    for key in ("annotate", "nodal_domains", "decay_fit"):
        m[f"analysis.{key}.s"] = incl[f"analysis.{key}"]
    return m
