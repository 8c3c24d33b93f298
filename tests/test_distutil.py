"""Shared squared-distance kernel tests (float-consistency keystone)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.distutil import paired_sq_dists, sq_dists


class TestSqDists:
    def test_shape(self):
        a = np.zeros((3, 2))
        b = np.zeros((5, 2))
        assert sq_dists(a, b).shape == (3, 5)

    def test_values(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert sq_dists(a, b)[0].tolist() == [25.0, 0.0]

    def test_symmetric(self):
        pts = np.random.default_rng(0).uniform(0, 10, (20, 3))
        d2 = sq_dists(pts, pts)
        assert np.array_equal(d2, d2.T)

    def test_nonnegative(self):
        pts = np.random.default_rng(1).normal(0, 1e6, (50, 4))
        assert (sq_dists(pts, pts) >= 0).all()

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_matches_linalg(self, d):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 10, (10, d)), rng.uniform(0, 10, (15, d))
        want = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** 2
        assert np.allclose(sq_dists(a, b), want)

    def test_bitwise_stable_across_slicing(self):
        """Kernel consistency: a sliced call must equal the sliced full call,
        bit for bit — this is what makes cross-algorithm equality tests
        possible at the d_cut boundary."""
        pts = np.random.default_rng(3).uniform(0, 100, (64, 3))
        full = sq_dists(pts, pts)
        part = sq_dists(pts[10:20], pts)
        assert np.array_equal(full[10:20], part)


class TestPairedSqDists:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_bitwise_equal_to_sq_dists(self, d):
        """Row pairs give exactly the bits of the full matrix, so a δ
        recomputed from (i, dep[i]) equals the reference's δ."""
        rng = np.random.default_rng(d)
        a, b = rng.uniform(0, 1e5, (40, d)), rng.uniform(0, 1e5, (50, d))
        i, j = rng.integers(0, 40, 500), rng.integers(0, 50, 500)
        assert np.array_equal(paired_sq_dists(a[i], b[j]), sq_dists(a, b)[i, j])

    def test_values(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[3.0, 4.0], [1.0, 1.0]])
        assert paired_sq_dists(a, b).tolist() == [25.0, 0.0]
