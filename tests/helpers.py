"""Test-only helpers shared by the test modules: the node mesh of a grid and
the dilation ray's b(t), the oracle the Pohozaev root is checked against."""

import numpy as np


def node_mesh(grid):
    """Node coordinates of the grid, one array per axis, indexed ij."""
    return np.meshgrid(*(grid.axis_coords(ax) for ax in range(grid.dim)),
                       indexing="ij")


def dilation_pohozaev(t, state, dim, alpha):
    """b(t) = P(u(./t)) = t a'(t)."""
    return (
        0.5 * (dim - 2) * t ** (dim - 2) * state.A
        + 0.5 * dim * t ** dim * state.B
        - 0.5 * (dim + alpha) * t ** (dim + alpha) * state.Q
    )
