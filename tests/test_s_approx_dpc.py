"""S-Approx-DPC (§5) tests."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.distutil import sq_dists
from repro.core.rand_index import rand_index
from repro.core.reference import brute_dpc
from repro.core.s_approx_dpc import _temporal_roots, s_approx_dpc
from repro.core.types import DPCParams, tiebreak
from repro.index.grid import UniformGrid, cell_side
from tests.conftest import make_blobs


class TestTemporalRoots:
    def test_forest(self):
        dep = np.array([-1, 0, 1, -1, 3])
        assert _temporal_roots(dep).tolist() == [0, 0, 0, 3, 3]

    def test_all_roots(self):
        dep = np.full(4, -1)
        assert _temporal_roots(dep).tolist() == [0, 1, 2, 3]

    def test_deep_chain(self):
        dep = np.array([-1] + list(range(0, 99)))
        assert np.all(_temporal_roots(dep) == 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_phase1_matches_brute_force(d):
    """§5's phase 1, recomputed per cell by brute force: the picked point
    (lowest id) has its exact ρ; it depends on the picked point of the
    cell of highest key in N(c) above its own (the lowest such cell on
    equal keys) at exactly (1+ε)·d_cut; otherwise the cell is a root, and
    phase 2 gives it the exact distance to the nearest higher-key picked
    point."""
    eps = 0.5
    pts = make_blobs(n_per=150, k=3, d=d, n_noise=30, seed=21 + d)
    params = DPCParams(d_cut=6.0)
    res = s_approx_dpc(pts, params, eps, leaf_size=8)
    grid = UniformGrid(pts, cell_side(params.d_cut, d, eps))
    ref = brute_dpc(pts, params)
    picked = np.array([grid.members(c)[0] for c in range(grid.m)])
    key = (ref.rho + tiebreak(len(pts), params.seed))[picked]
    d2 = sq_dists(pts[picked], pts)
    assert np.array_equal(res.rho[picked], ref.rho[picked])
    n_roots = 0
    for c, p in enumerate(picked):
        near = np.unique(grid.cell_of[d2[c] < params.d_cut**2])
        up = [c2 for c2 in near if c2 != c and key[c2] > key[c]]
        if up:
            best = max(up, key=lambda c2: (key[c2], -c2))
            assert res.dep[p] == picked[best]
            assert res.delta[p] == (1 + eps) * params.d_cut
            continue
        n_roots += 1
        higher = key > key[c]
        if higher.any():
            assert res.delta[p] == np.sqrt(d2[c, picked[higher]].min())
            c2 = grid.cell_of[res.dep[p]]
            assert res.dep[p] == picked[c2] and key[c2] > key[c]
        else:
            assert res.dep[p] == -1 and res.delta[p] == np.inf
    assert res.counters["n_roots"] == n_roots > 1


class TestSApprox:
    def test_eps_validation(self):
        with pytest.raises(ValueError):
            s_approx_dpc(np.zeros((5, 2)), DPCParams(d_cut=1.0), eps=0.0)

    @pytest.mark.parametrize("eps", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_quality_on_blobs(self, eps, seed):
        pts = make_blobs(n_per=150, k=4, n_noise=20, seed=seed)
        params = DPCParams(d_cut=8.0, rho_min=5, delta_min=40.0)
        ref = brute_dpc(pts, params)
        res = s_approx_dpc(pts, params, eps)
        assert rand_index(res.labels, ref.labels) >= 0.9

    def test_smaller_eps_more_cells(self):
        pts = make_blobs(n_per=100, k=3, seed=2)
        params = DPCParams(d_cut=8.0)
        a = s_approx_dpc(pts, params, eps=0.2)
        b = s_approx_dpc(pts, params, eps=1.0)
        assert a.counters["n_cells"] > b.counters["n_cells"]

    def test_cells_match_grid(self):
        pts = make_blobs(n_per=80, k=2, seed=3)
        params = DPCParams(d_cut=8.0)
        res = s_approx_dpc(pts, params, eps=0.7)
        g = UniformGrid(pts, cell_side(8.0, 2, 0.7))
        assert res.counters["n_cells"] == g.m

    def test_picked_density_exact(self):
        """Picked points get exact local densities (§5)."""
        pts = make_blobs(n_per=80, k=2, seed=4)
        params = DPCParams(d_cut=8.0)
        ref = brute_dpc(pts, params)
        res = s_approx_dpc(pts, params, eps=0.5)
        g = UniformGrid(pts, cell_side(8.0, 2, 0.5))
        picked = np.array([int(g.members(c)[0]) for c in range(g.m)])
        assert np.array_equal(res.rho[picked], ref.rho[picked])

    def test_phase1_delta_bound(self):
        """Phase-1 dependent distances are exactly (1+eps)·d_cut (§5)."""
        eps = 0.6
        pts = make_blobs(n_per=120, k=3, seed=5)
        params = DPCParams(d_cut=8.0)
        res = s_approx_dpc(pts, params, eps)
        finite = np.isfinite(res.delta) & (res.delta > 0)
        vals = np.unique(res.delta[finite])
        # every positive finite delta is either the phase-1 bound or an
        # exact phase-2 distance; the bound value must be present
        assert np.any(np.isclose(vals, (1 + eps) * params.d_cut))

    def test_nonpicked_never_centers(self):
        pts = make_blobs(n_per=100, k=3, seed=6)
        params = DPCParams(d_cut=8.0, rho_min=3, delta_min=30.0)
        res = s_approx_dpc(pts, params, eps=0.8)
        g = UniformGrid(pts, cell_side(8.0, 2, 0.8))
        picked = {int(g.members(c)[0]) for c in range(g.m)}
        assert all(int(c) in picked for c in res.centers)

    def test_fallback_path_equivalent(self, monkeypatch):
        pts = make_blobs(n_per=100, k=3, seed=7)
        params = DPCParams(d_cut=8.0, rho_min=3, delta_min=30.0)
        a = s_approx_dpc(pts, params, eps=0.5)
        monkeypatch.setattr("repro.core.s_approx_dpc._FALLBACK_FACTOR", 0.0)  # force fallback
        b = s_approx_dpc(pts, params, eps=0.5)
        # both paths find the exact nearest higher-density picked point
        assert np.array_equal(a.dep, b.dep)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.labels, b.labels)

    def test_result_fields(self):
        pts = make_blobs(n_per=40, k=2, seed=8)
        res = s_approx_dpc(pts, DPCParams(d_cut=8.0), eps=1.0)
        assert res.counters["n_roots"] >= 1
        assert res.memory_bytes > 0
        assert set(res.timings) >= {"rho", "delta", "total"}
