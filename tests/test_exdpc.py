"""Ex-DPC: exact equality with the reference (rho, delta, centers, labels)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.exdpc import ex_dpc, rho_kdtree
from repro.core.reference import brute_dpc, brute_rho
from repro.core.types import DPCParams
from repro.index.kdtree import KDTree
from tests.conftest import make_blobs


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_reference(d, seed):
    pts = make_blobs(n_per=70, k=3, d=d, seed=seed)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)
    ref = brute_dpc(pts, params)
    res = ex_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)
    assert np.array_equal(res.delta, ref.delta)
    assert np.array_equal(res.dep, ref.dep)
    assert np.array_equal(res.centers, ref.centers)
    assert np.array_equal(res.labels, ref.labels)


@pytest.mark.parametrize("leaf_size", [1, 4, 64])
def test_leaf_size_invariant(leaf_size):
    pts = make_blobs(n_per=60, k=2, seed=3)
    params = DPCParams(d_cut=8.0, rho_min=3, delta_min=30.0)
    ref = brute_dpc(pts, params)
    res = ex_dpc(pts, params, leaf_size=leaf_size)
    assert np.array_equal(res.rho, ref.rho)
    assert np.array_equal(res.delta, ref.delta)
    assert np.array_equal(res.dep, ref.dep)


def test_rho_kdtree_helper():
    pts = make_blobs(n_per=50, k=2, seed=4)
    tree = KDTree(pts)
    rho, nde = rho_kdtree(pts, tree, 8.0)
    assert np.array_equal(rho, brute_rho(pts, 8.0))
    assert nde > 0


def test_dep_always_higher_density():
    """The incremental construction guarantees dep has strictly higher key."""
    pts = make_blobs(n_per=80, k=3, seed=5)
    from repro.core.types import tiebreak

    res = ex_dpc(pts, DPCParams(d_cut=8.0))
    key = res.rho + tiebreak(len(pts))
    for i in range(len(pts)):
        if res.dep[i] >= 0:
            assert key[res.dep[i]] > key[i]


def test_single_root():
    pts = make_blobs(n_per=40, k=2, seed=6)
    res = ex_dpc(pts, DPCParams(d_cut=8.0))
    assert int((res.dep == -1).sum()) == 1


def test_duplicate_points():
    pts = np.repeat(np.random.default_rng(0).uniform(0, 10, (20, 2)), 3, axis=0)
    params = DPCParams(d_cut=2.0, rho_min=0, delta_min=5.0)
    ref = brute_dpc(pts, params)
    res = ex_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)
    assert np.array_equal(res.delta, ref.delta)
    assert np.array_equal(res.dep, ref.dep)  # copies tie: the lowest id wins


def _lattice(k, d):
    return np.stack(np.meshgrid(*[np.arange(k)] * d), -1).reshape(-1, d).astype(np.float64)


_TIED = {
    "lattice-1d": _lattice(300, 1),
    "lattice-2d": _lattice(17, 2),
    "lattice-3d": _lattice(7, 3),
    "collinear": np.arange(250)[:, None] * np.array([[1.0, 0.5]]),
    "4-copies": np.repeat(np.random.default_rng(0).uniform(0, 10, (50, 2)), 4, axis=0),
}


@pytest.mark.parametrize("name", sorted(_TIED))
def test_ties_match_reference(name):
    """Equal distances everywhere: dep is the lowest id among the nearest
    higher-key points (DESIGN.md §3), as in the reference."""
    pts = _TIED[name][np.random.default_rng(1).permutation(len(_TIED[name]))]
    params = DPCParams(d_cut=1.5, delta_min=2.0)
    ref = brute_dpc(pts, params)
    res = ex_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)
    assert np.array_equal(res.delta, ref.delta)
    assert np.array_equal(res.dep, ref.dep)
    assert np.array_equal(res.labels, ref.labels)


def test_timings_present():
    res = ex_dpc(make_blobs(n_per=20, k=2), DPCParams(d_cut=8.0))
    assert set(res.timings) >= {"build", "rho", "delta", "total"}
    assert res.counters["dist_evals"] > 0
    assert res.memory_bytes > 0


def test_subquadratic_work_on_clustered_data():
    """Table 1's point: Ex-DPC does far fewer distance evals than Scan's 2n²."""
    pts = make_blobs(n_per=700, k=4, d=2, n_noise=50, seed=7)
    n = len(pts)
    res = ex_dpc(pts, DPCParams(d_cut=6.0))
    assert res.counters["dist_evals"] < 0.5 * (2 * n * n)
