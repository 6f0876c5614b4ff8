"""Structured linear output dynamics and the eta coordinate layout.

The transverse (output) coordinates are stacked as eta = (y1, y2, dy2):
k1 velocity outputs with relative degree one, followed by k2 pose outputs
and their rates with relative degree two.  Every other module relies on
this ordering, so it is fixed here and nowhere else.  The drift/input
pair (F, G) is the block matrix realization of the feedback-linearized
output dynamics

    d/dt eta = F eta + G mu,

where F carries a single identity block mapping dy2 into the y2 slot and
G injects mu into the y1 and dy2 rows.  Both are 0/1 selections with
disjoint row supports, so F eta + G v is a placement: the y1 rows take
v[:k1], the y2 rows take eta's dy2 block and the dy2 rows take v[k1:].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class OutputDims:
    """Output dimensions: k1 velocity outputs, k2 pose outputs."""

    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError(f"output counts must be nonnegative, got k1={self.k1}, k2={self.k2}")
        if self.k1 + self.k2 == 0:
            raise ValueError("k1 + k2 must be at least 1")

    @property
    def n_eta(self) -> int:
        """Dimension of the eta vector, k1 + 2*k2."""
        return self.k1 + 2 * self.k2

    @property
    def n_mu(self) -> int:
        """Dimension of the auxiliary input mu, k1 + k2."""
        return self.k1 + self.k2

    @property
    def blocks(self) -> tuple[slice, slice, slice]:
        """The slices of y1, y2 and dy2 in eta."""
        k1, k2 = self.k1, self.k2
        return slice(0, k1), slice(k1, k1 + k2), slice(k1 + k2, k1 + 2 * k2)


@dataclass(frozen=True)
class OutputDynamics:
    """The (F, G) pair of the linear output dynamics for given dims."""

    dims: OutputDims
    F: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)


def build_fg(dims: OutputDims) -> OutputDynamics:
    """Assemble the block matrices F (n x n) and G (n x (k1+k2)).

    F is nilpotent (F @ F = 0) and (F, G) is a controllable pair for every
    valid dims.
    """
    k1, n = dims.k1, dims.n_eta
    y1, y2, dy2 = dims.blocks
    F = np.zeros((n, n))
    F[y2, dy2] = np.eye(dims.k2)
    G = np.zeros((n, dims.n_mu))
    G[y1, :k1] = np.eye(k1)
    G[dy2, k1:] = np.eye(dims.k2)
    return OutputDynamics(dims=dims, F=F, G=G)
