"""Uniform grid substrate tests."""
from __future__ import annotations

import numpy as np
import pytest

from repro.index.grid import UniformGrid, cell_side


def _pts(n, d, seed=0, scale=100.0):
    return np.random.default_rng(seed).uniform(0, scale, (n, d))


class TestCellSide:
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_formula(self, d):
        assert cell_side(10.0, d) == pytest.approx(10.0 / np.sqrt(d))

    def test_eps_scales(self):
        assert cell_side(10.0, 4, eps=0.5) == pytest.approx(0.5 * 10.0 / 2.0)


class TestGrid:
    def test_membership_partition(self):
        pts = _pts(500, 3)
        g = UniformGrid(pts, 7.0)
        all_ids = np.concatenate([g.members(c) for c in range(g.m)])
        assert sorted(all_ids.tolist()) == list(range(500))

    def test_members_of_concatenates_members(self):
        pts = _pts(300, 2, 3)
        g = UniformGrid(pts, 9.0)
        cells = np.random.default_rng(3).permutation(g.m)[: g.m // 2]
        ids, b = g.members_of(cells)
        assert len(b) == len(cells) + 1 and b[0] == 0
        for k, c in enumerate(cells):
            assert np.array_equal(ids[b[k] : b[k + 1]], g.members(c))
        assert np.array_equal(g.lowest_members(), [g.members(c)[0] for c in range(g.m)])

    def test_cell_of_consistent_with_members(self):
        pts = _pts(300, 2, 1)
        g = UniformGrid(pts, 5.0)
        for c in range(g.m):
            assert np.all(g.cell_of[g.members(c)] == c)

    @pytest.mark.parametrize("side", [1.0, 5.0, 50.0])
    def test_same_cell_points_close(self, side):
        """Any two points of one cell are within side*sqrt(d)."""
        pts = _pts(400, 2, 2)
        g = UniformGrid(pts, side)
        bound = side * np.sqrt(2) + 1e-9
        for c in range(g.m):
            mem = pts[g.members(c)]
            if len(mem) > 1:
                span = mem.max(axis=0) - mem.min(axis=0)
                assert np.linalg.norm(span) <= bound

    def test_dcut_cell_guarantee(self):
        """With side d_cut/sqrt(d), same-cell pairs are within d_cut (§4.1)."""
        d_cut = 12.0
        pts = _pts(600, 3, 3)
        g = UniformGrid(pts, cell_side(d_cut, 3))
        for c in range(g.m):
            mem = pts[g.members(c)]
            if len(mem) > 1:
                diffs = mem[:, None, :] - mem[None, :, :]
                dmax = np.sqrt((diffs**2).sum(-1)).max()
                assert dmax <= d_cut + 1e-9

    def test_no_empty_cells(self):
        g = UniformGrid(_pts(100, 2), 10.0)
        assert all(len(g.members(c)) > 0 for c in range(g.m))

    def test_centers_shape(self):
        g = UniformGrid(_pts(100, 4), 10.0)
        assert g.centers.shape == (g.m, 4)

    def test_center_contains_members(self):
        # centers sit at cell midpoints: every member within side/2 per dim
        pts = _pts(300, 2, 5)
        g = UniformGrid(pts, 8.0)
        for c in range(g.m):
            assert np.all(np.abs(pts[g.members(c)] - g.centers[c]) <= g.side / 2 + 1e-9)

    def test_member_counts(self):
        g = UniformGrid(_pts(250, 2, 6), 9.0)
        assert g.member_counts().sum() == 250

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            UniformGrid(np.empty((0, 2)), 1.0)
        with pytest.raises(ValueError):
            UniformGrid(_pts(10, 2), 0.0)

    def test_memory_bytes(self):
        assert UniformGrid(_pts(100, 2), 5.0).memory_bytes() > 0

    def test_single_point(self):
        g = UniformGrid(np.array([[1.0, 2.0]]), 1.0)
        assert g.m == 1 and g.members(0).tolist() == [0]

    def test_negative_coords(self):
        pts = np.array([[-1.5, -0.5], [-1.4, -0.6], [2.0, 2.0]])
        g = UniformGrid(pts, 1.0)
        assert g.cell_of[0] == g.cell_of[1] != g.cell_of[2]
