"""Uniform grid over non-empty cells (§4.1 / §5 data structure).

Approx-DPC uses side length ``d_cut/sqrt(d)`` (so any two points in the
same cell are within ``d_cut``); S-Approx-DPC scales it by its
approximation parameter ε. Only non-empty cells materialise — the grid
is built "online" from the data exactly as in the paper, via a
vectorised ``np.unique`` over integer cell coordinates.
"""
from __future__ import annotations

import numpy as np

__all__ = ["UniformGrid", "cell_side"]


def cell_side(d_cut: float, d: int, eps: float = 1.0) -> float:
    """Side length of a grid cell: eps * d_cut / sqrt(d)."""
    return eps * d_cut / np.sqrt(d)


class UniformGrid:
    """Maps each point to its non-empty cell; cells are 0..m-1.

    Attributes
    ----------
    cell_of : (n,) int64 — cell index of each point.
    m : number of non-empty cells.
    members(c) : point ids in cell ``c`` (ascending); ``members_of`` for
        several cells at once, ``lowest_members`` for the first of each.
    centers : (m, d) cell center coordinates.
    """

    def __init__(self, points: np.ndarray, side: float):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if side <= 0:
            raise ValueError("side must be positive")
        self.side = float(side)
        self.n, self.d = points.shape
        icoords = np.floor(points / self.side).astype(np.int64)
        uniq, inverse = np.unique(icoords, axis=0, return_inverse=True)
        self.cell_of = inverse.astype(np.int64)
        self.m = len(uniq)
        self.icoords = uniq
        self.centers = (uniq + 0.5) * self.side
        order = np.argsort(self.cell_of, kind="stable")
        self._order = order
        counts = np.bincount(self.cell_of, minlength=self.m)
        self._offsets = np.concatenate([[0], np.cumsum(counts)])

    def members(self, c: int) -> np.ndarray:
        s, e = self._offsets[c], self._offsets[c + 1]
        return self._order[s:e]

    def lowest_members(self) -> np.ndarray:
        """The lowest point id of every cell, by cell."""
        return self._order[self._offsets[:-1]]

    def members_of(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Members of ``cells``, concatenated in the given order, and the run
        bounds ``b``: cell ``cells[k]``'s members are ``ids[b[k]:b[k + 1]]``."""
        counts = np.diff(self._offsets)[cells]
        b = np.concatenate([[0], np.cumsum(counts)])
        idx = np.arange(b[-1]) + np.repeat(self._offsets[cells] - b[:-1], counts)
        return self._order[idx], b

    def member_counts(self) -> np.ndarray:
        return np.diff(self._offsets)

    def memory_bytes(self) -> int:
        return (
            self.cell_of.nbytes
            + self.icoords.nbytes
            + self.centers.nbytes
            + self._order.nbytes
            + self._offsets.nbytes
        )
