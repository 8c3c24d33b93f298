"""kd-tree substrate tests: differential vs brute force + invariants."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distutil import sq_dists
from repro.index.kdtree import IncrementalKDTree, KDTree


def _pts(n, d, seed=0, scale=100.0):
    return np.random.default_rng(seed).uniform(0, scale, (n, d))


def _brute_count(pts, q, r):
    return int((sq_dists(q[None, :], pts)[0] < r * r).sum())


def _brute_nn(pts, q, exclude=-1):
    d2 = sq_dists(q[None, :], pts)[0]
    if exclude >= 0:
        d2[exclude] = np.inf
    i = int(np.argmin(d2))
    return i, float(np.sqrt(d2[i]))


class TestBuild:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 100, 1000])
    def test_perm_is_permutation(self, n):
        t = KDTree(_pts(n, 2))
        assert sorted(t.perm.tolist()) == list(range(n))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_dimensions(self, d):
        t = KDTree(_pts(200, d))
        assert t.d == d and t.n == 200

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KDTree(np.empty((0, 2)))

    def test_1d_shape_rejected(self):
        with pytest.raises(ValueError):
            KDTree(np.arange(5.0))

    def test_leaf_size_one(self):
        t = KDTree(_pts(64, 2), leaf_size=1)
        assert t.n_nodes >= 64

    def test_duplicate_points_ok(self):
        pts = np.ones((50, 3))
        t = KDTree(pts)
        assert t.range_count(pts[0], 0.5) == 50

    def test_memory_bytes_positive(self):
        assert KDTree(_pts(100, 2)).memory_bytes() > 0


class TestRangeCount:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_brute(self, seed, d):
        pts = _pts(500, d, seed)
        t = KDTree(pts, leaf_size=16)
        qs = _pts(30, d, seed + 100)
        for r in (1.0, 10.0, 40.0, 200.0):
            for q in qs:
                assert t.range_count(q, r) == _brute_count(pts, q, r)

    def test_strict_inequality(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        t = KDTree(pts)
        assert t.range_count(np.array([0.0, 0.0]), 5.0) == 1  # dist 5 excluded
        assert t.range_count(np.array([0.0, 0.0]), 5.0 + 1e-9) == 2

    def test_radius_covers_all(self):
        pts = _pts(300, 2, 1)
        t = KDTree(pts)
        assert t.range_count(pts.mean(axis=0), 1e6) == 300

    def test_counts_dist_evals(self):
        t = KDTree(_pts(100, 2))
        t.range_count(np.zeros(2), 10.0)
        assert t.dist_evals > 0


class TestRangeQuery:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute(self, seed):
        pts = _pts(400, 3, seed)
        t = KDTree(pts, leaf_size=8)
        q = pts[seed]
        for r in (5.0, 20.0, 80.0):
            got = sorted(t.range_query(q, r).tolist())
            d2 = sq_dists(q[None, :], pts)[0]
            want = sorted(np.flatnonzero(d2 < r * r).tolist())
            assert got == want

    def test_empty_result(self):
        pts = _pts(100, 2, 0)
        t = KDTree(pts)
        out = t.range_query(np.array([1e6, 1e6]), 1.0)
        assert len(out) == 0 and out.dtype == np.int64

    def test_query_count_consistency(self):
        pts = _pts(300, 4, 2)
        t = KDTree(pts)
        q = pts[7]
        assert len(t.range_query(q, 30.0)) == t.range_count(q, 30.0)


class TestNN:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_matches_brute(self, seed, d):
        pts = _pts(400, d, seed)
        t = KDTree(pts, leaf_size=4)
        for q in _pts(25, d, seed + 50):
            i, dist = t.nn(q)
            bi, bdist = _brute_nn(pts, q)
            assert dist == pytest.approx(bdist)
            assert i == bi or sq_dists(pts[i][None], q[None])[0, 0] == pytest.approx(bdist**2)

    def test_exclude(self):
        pts = _pts(100, 2, 0)
        t = KDTree(pts)
        i, dist = t.nn(pts[5], exclude=5)
        bi, bdist = _brute_nn(pts, pts[5], exclude=5)
        assert dist == pytest.approx(bdist) and i != 5

    def test_single_point_excluded(self):
        t = KDTree(np.zeros((1, 2)))
        i, dist = t.nn(np.zeros(2), exclude=0)
        assert i == -1 and dist == np.inf

    def test_nn_with_bound_prunes(self):
        pts = _pts(500, 2, 1)
        t = KDTree(pts)
        q = np.array([50.0, 50.0])
        bi, bdist = _brute_nn(pts, q)
        i, dist = t.nn_with_bound(q, bdist * 2)
        assert dist == pytest.approx(bdist)
        # bound below the true NN distance: nothing found
        i2, d2 = t.nn_with_bound(q, bdist * 0.5)
        assert i2 == -1 and d2 == pytest.approx(bdist * 0.5)


class TestRangeBlock:
    @staticmethod
    def _check(t, pts, Q, r):
        """Every row of the block query equals brute force, and the
        candidates are distinct and counted as len(Q) * len(ids)."""
        before = t.dist_evals
        ids, within = t.range_block(Q, r)
        assert t.dist_evals - before == len(Q) * len(ids)
        assert within.shape == (len(Q), len(ids))
        assert len(np.unique(ids)) == len(ids)
        d2 = sq_dists(Q, pts)
        for k in range(len(Q)):
            assert np.array_equal(np.sort(ids[within[k]]), np.flatnonzero(d2[k] < r * r))
        return ids

    @pytest.mark.parametrize("leaf_size", [1, 4, 32])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_leaf_blocks_match_brute(self, d, leaf_size):
        pts = _pts(300, d, seed=d)
        t = KDTree(pts, leaf_size=leaf_size)
        b = t.leaf_bounds()
        assert b[0] == 0 and b[-1] == 300 and np.all(np.diff(b) >= 1)
        assert np.all(np.diff(b) <= leaf_size)
        for r in (5.0, 30.0, 80.0):
            for k in range(len(b) - 1):
                self._check(t, pts, t.ppts[b[k] : b[k + 1]], r)
            self._check(t, pts, _pts(7, d, seed=d + 50), r)  # an arbitrary block

    def test_duplicate_points(self):
        pts = np.repeat(_pts(20, 2, 3), 5, axis=0)
        t = KDTree(pts, leaf_size=4)
        b = t.leaf_bounds()
        for r in (0.5, 10.0):
            for k in range(len(b) - 1):
                self._check(t, pts, t.ppts[b[k] : b[k + 1]], r)

    def test_distance_exactly_r_excluded(self):
        # every pair of neighbours is exactly 5 apart, the rest farther
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [-4.0, 3.0]])
        t = KDTree(pts, leaf_size=1)
        ids, within = t.range_block(pts, 5.0)
        assert np.array_equal(ids[np.argmax(within, axis=1)], np.arange(4))
        assert within.sum(axis=1).tolist() == [1, 1, 1, 1]  # only the point itself
        assert t.range_block(pts, 5.0 + 1e-9)[1].sum() == 10

    def test_single_leaf_tree(self):
        pts = _pts(10, 3, 4)
        t = KDTree(pts)
        assert t.leaf_bounds().tolist() == [0, 10]
        ids = self._check(t, pts, pts, 40.0)
        assert sorted(ids.tolist()) == list(range(10))

    def test_box_covering_whole_domain(self):
        pts = _pts(200, 2, 5)
        t = KDTree(pts, leaf_size=4)
        Q = np.array([[-1000.0, -1000.0], [1000.0, 1000.0]])
        ids = self._check(t, pts, Q, 10.0)
        assert sorted(ids.tolist()) == list(range(200))

    def test_single_query_dist_evals_pinned(self):
        """One-row queries visit the leaves the former per-query walks
        visited; the literals are the dist_evals those walks counted."""
        pts = _pts(500, 3, 11)
        q = _pts(1, 3, 12)[0]
        t = KDTree(pts, leaf_size=8)
        for call, want in (
            (lambda: t.range_count(q, 20.0), 31),
            (lambda: t.range_count(q, 45.0), 146),
            (lambda: t.range_query(pts[7], 45.0), 372),
            (lambda: t.nn(q), 15),
            (lambda: t.nn(pts[3], exclude=3), 31),
            (lambda: t.nn_with_bound(q, 5.0), 15),
        ):
            t.dist_evals = 0
            call()
            assert t.dist_evals == want


class TestBoxAndLeafGroups:
    @pytest.mark.parametrize("leaf_size", [1, 4, 32])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_box_returns_every_point_inside(self, d, leaf_size):
        """Every point with lo < p <= hi on each axis comes back, once,
        with its own coordinates; boxes include ones whose faces pass
        through data points."""
        pts = np.round(_pts(400, d, seed=d), 0)  # many shared coordinates
        t = KDTree(pts, leaf_size=leaf_size)
        rng = np.random.default_rng(d)
        for _ in range(20):
            a, b = pts[rng.integers(0, 400, 2)]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            ids, coords = t.box(lo, hi)
            assert len(np.unique(ids)) == len(ids)
            assert np.array_equal(coords, pts[ids])
            inside = np.all((pts > lo) & (pts <= hi), axis=1)
            assert set(np.flatnonzero(inside).tolist()) <= set(ids.tolist())

    def test_box_leaves_ascend(self):
        pts = _pts(300, 2, 6)
        t = KDTree(pts, leaf_size=4)
        ids, _ = t.box(np.array([20.0, 20.0]), np.array([60.0, 70.0]))
        pos = np.empty(300, dtype=np.int64)
        pos[t.perm] = np.arange(300)
        assert np.all(np.diff(pos[ids]) > 0)

    @pytest.mark.parametrize("leaf_size", [1, 8, 32])
    def test_leaf_groups(self, leaf_size):
        pts = _pts(500, 3, 7)
        t = KDTree(pts, leaf_size=leaf_size)
        ids = np.random.default_rng(7).choice(500, 120, replace=False)
        order, b = t.leaf_groups(ids)
        assert sorted(order.tolist()) == list(range(120))
        assert b[0] == 0 and b[-1] == 120 and np.all(np.diff(b) >= 1)
        lb = t.leaf_bounds()
        pos = np.empty(500, dtype=np.int64)
        pos[t.perm] = np.arange(500)
        leaf = np.searchsorted(lb, pos[ids], side="right") - 1
        for k in range(len(b) - 1):
            g = order[b[k] : b[k + 1]]
            assert np.all(np.diff(g) > 0)  # positions ascend within a group
            assert len(np.unique(leaf[g])) == 1
        assert np.all(np.diff(leaf[order[b[:-1]]]) > 0)  # groups in leaf order


class TestHypothesis:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(1, 4),
        st.floats(0.1, 100.0),
        st.integers(0, 10_000),
    )
    def test_range_count_property(self, n, d, r, seed):
        pts = _pts(n, d, seed)
        t = KDTree(pts, leaf_size=7)
        q = _pts(1, d, seed + 1)[0]
        assert t.range_count(q, r) == _brute_count(pts, q, r)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 150), st.integers(1, 3), st.integers(0, 10_000))
    def test_nn_property(self, n, d, seed):
        pts = _pts(n, d, seed)
        t = KDTree(pts, leaf_size=5)
        q = _pts(1, d, seed + 1)[0]
        _, dist = t.nn(q)
        _, bdist = _brute_nn(pts, q)
        assert dist == pytest.approx(bdist)


class TestIncremental:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_prefix_nn_matches_brute(self, seed, d):
        pts = _pts(200, d, seed)
        t = IncrementalKDTree(d)
        order = np.random.default_rng(seed).permutation(200)
        for rank, i in enumerate(order):
            q = pts[i]
            if rank > 0:
                j, dist = t.nn(q.tolist())
                prefix = pts[order[:rank]]
                d2 = sq_dists(q[None, :], prefix)[0]
                b = int(np.argmin(d2))
                assert dist == pytest.approx(float(np.sqrt(d2[b])))
                assert j == int(order[b]) or dist == pytest.approx(np.sqrt(d2[b]))
            t.insert(int(i), q.tolist())
        assert len(t) == 200

    def test_empty_nn(self):
        t = IncrementalKDTree(2)
        assert t.nn([0.0, 0.0]) == (-1, np.inf)

    def test_duplicate_inserts(self):
        t = IncrementalKDTree(2)
        for i in range(10):
            t.insert(i, [1.0, 1.0])
        j, dist = t.nn([1.0, 1.0])
        assert dist == 0.0 and 0 <= j < 10

    def test_counts_dist_evals(self):
        t = IncrementalKDTree(2)
        t.insert(0, [0.0, 0.0])
        t.nn([1.0, 1.0])
        assert t.dist_evals > 0

    def test_memory_bytes(self):
        t = IncrementalKDTree(3)
        t.insert(0, [0.0, 0.0, 0.0])
        assert t.memory_bytes() == 8 * (3 + 3)
