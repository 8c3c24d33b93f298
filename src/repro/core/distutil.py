"""One shared squared-distance kernel.

Every algorithm (and the naive reference) computes pairwise squared
distances through :func:`sq_dists`, so floating-point behaviour at the
``dist < d_cut`` boundary is bit-identical across implementations —
exact-equality tests between algorithms then cannot be tripped by
summation-order differences (e.g. BLAS matmul vs. diff-einsum).
:func:`paired_sq_dists` is its row-paired form, for code that holds
point pairs rather than two point sets; it gives the same bits.
"""
from __future__ import annotations

import numpy as np

__all__ = ["paired_sq_dists", "sq_dists"]


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances, diff-based."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def paired_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a),) squared distances of row pairs: ``sq_dists(a, b)``'s diagonal."""
    diff = a - b
    return np.einsum("ik,ik->i", diff, diff)
