"""Test-only helpers shared by the test modules: the node mesh of a grid,
a field made exactly even or odd along chosen axes, the class projector
on full-grid arrays, the dilation ray's b(t), the oracle the Pohozaev
root is checked against, and the full-grid oracles of the diagnostics
that read a field on its exact half: nodal domains labelled on the whole
grid, and the symmetry residual with every generator applied."""

from dataclasses import replace

import numpy as np
from scipy import ndimage

from choquard.analysis import NodalReport, open_chamber_mask
from choquard.field import apply_matrix_array, symmetrize_array


def node_mesh(grid):
    """Node coordinates of the grid, one array per axis, indexed ij."""
    return np.meshgrid(*(grid.axis_coords(ax) for ax in range(grid.dim)),
                       indexing="ij")


def mirror_class(grid, a, parity):
    """The full-grid array a made bit-exactly even (+1) or odd (-1) along
    each axis of that parity: the unfold of its fold onto that half."""
    half = replace(grid, parity=tuple(parity))
    return half.unfold(half.fold(a))


def project(action, a):
    """The class projector on a full-grid array: fold onto the action's
    half, project there, unfold."""
    half = action.half
    return half.unfold(symmetrize_array(action, half.fold(a)))


def dilation_pohozaev(t, state, dim, alpha):
    """b(t) = P(u(./t)) = t a'(t)."""
    return (
        0.5 * (dim - 2) * t ** (dim - 2) * state.A
        + 0.5 * dim * t ** dim * state.B
        - 0.5 * (dim + alpha) * t ** (dim + alpha) * state.Q
    )


def full_grid_nodal_domains(u, threshold, action=None):
    """Face-connected components of {u > theta} and {u < -theta}, theta =
    threshold * max |u|, labelled on u's whole grid, with the sign on the
    open chamber of the action when one is given."""
    theta = threshold * u.norm_max()
    pos = u.data > theta
    neg = u.data < -theta
    structure = ndimage.generate_binary_structure(u.grid.dim, 1)
    lab_pos, n_pos = ndimage.label(pos, structure=structure)
    lab_neg, n_neg = ndimage.label(neg, structure=structure)
    sizes = [int(s) for lab, n in ((lab_pos, n_pos), (lab_neg, n_neg))
             for s in np.bincount(lab.ravel(), minlength=n + 1)[1:]]
    sign = None
    if action is not None:
        sel = open_chamber_mask(action) & (pos | neg)
        if not np.any(sel):
            sign = 0
        else:
            has_pos = bool(np.any(pos & sel))
            has_neg = bool(np.any(neg & sel))
            sign = 0 if (has_pos and has_neg) else (1 if has_pos else -1)
    return NodalReport(n_pos + n_neg, n_pos, n_neg, tuple(sorted(sizes)),
                       threshold, sign)


def generator_residual(action, u):
    """max over generators of ||g.u - psi(g) u||_2 / ||u||_2, each applied."""
    denom = np.sqrt(np.sum(u.data ** 2))
    if denom == 0.0:
        return 0.0
    worst = 0.0
    for g in action.group.generators:
        moved = apply_matrix_array(action.grid, action.embed(g).T, u.data)
        s = action.group.sign(g)
        worst = max(worst, float(np.sqrt(np.sum((moved - s * u.data) ** 2)) / denom))
    return worst
