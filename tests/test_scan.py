"""Scan baseline: exact equality with the naive reference (serial mode)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.reference import brute_dpc
from repro.core.distutil import sq_dists
from repro.core.scan import chunk_items, nearest_higher, scan_dpc
from repro.core.types import DPCParams
from tests.conftest import make_blobs


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_matches_reference(d, seed):
    pts = make_blobs(n_per=80, k=3, d=d, seed=seed)
    params = DPCParams(d_cut=8.0, rho_min=5, delta_min=30.0)
    ref = brute_dpc(pts, params)
    res = scan_dpc(pts, params)
    assert np.array_equal(res.rho, ref.rho)
    assert np.allclose(res.delta, ref.delta)
    assert np.array_equal(res.dep, ref.dep)
    assert np.array_equal(res.centers, ref.centers)
    assert np.array_equal(res.labels, ref.labels)


@pytest.mark.parametrize("chunk", [1, 7, 100, 10_000])
def test_chunking_invariant(chunk):
    pts = make_blobs(n_per=50, k=2, seed=2)
    params = DPCParams(d_cut=8.0, rho_min=3, delta_min=30.0)
    base = scan_dpc(pts, params, chunk=512)
    res = scan_dpc(pts, params, chunk=chunk)
    assert np.array_equal(res.rho, base.rho)
    assert np.allclose(res.delta, base.delta)
    assert np.array_equal(res.labels, base.labels)


def test_nearest_higher_matches_brute_force():
    """The blocked scan across several blocks equals one masked argmin;
    the point of highest key has no higher point (inf, -1)."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 100, (5000, 2))
    key = rng.permutation(5000).astype(np.float64)
    qids = np.concatenate([rng.choice(5000, 40, replace=False), [int(np.argmax(key))]])
    best, besti = nearest_higher(pts[qids], key[qids], pts, key)
    d2 = np.where(key[None, :] > key[qids][:, None], sq_dists(pts[qids], pts), np.inf)
    want = np.argmin(d2, axis=1)
    assert np.array_equal(best[:-1], d2[np.arange(40), want[:-1]])
    assert np.array_equal(besti[:-1], want[:-1])
    assert best[-1] == np.inf and besti[-1] == -1


def test_chunk_items_covers_range():
    items = chunk_items(1003, 100)
    assert items["start"].iloc[0] == 0
    assert items["end"].iloc[-1] == 1003
    assert (items["end"] - items["start"]).sum() == 1003


def test_timings_and_counters():
    pts = make_blobs(n_per=30, k=2)
    res = scan_dpc(pts, DPCParams(d_cut=8.0))
    n = len(pts)
    assert res.counters["dist_evals"] == 2 * n * n
    assert set(res.timings) >= {"rho", "delta", "total"}
    assert res.memory_bytes == 0  # no index


def test_uniform_data():
    pts = np.random.default_rng(5).uniform(0, 100, (300, 2))
    params = DPCParams(d_cut=10.0, rho_min=2, delta_min=25.0)
    ref = brute_dpc(pts, params)
    res = scan_dpc(pts, params)
    assert np.array_equal(res.labels, ref.labels)
