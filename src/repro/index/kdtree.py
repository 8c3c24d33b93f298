"""kd-trees for DPC (Bentley [8] style).

Two variants, matching how the paper uses them:

* :class:`KDTree` — static, bulk-built, used for range searches (local
  density, Ex-DPC / Approx-DPC / S-Approx-DPC) and nearest-neighbour
  searches (Approx-DPC's per-subset trees). Median split on the widest
  dimension, points permuted into contiguous leaf slices so leaf scans
  are numpy-vectorised; internal traversal is Python-level with
  split-plane pruning. Every search the algorithms run goes through one
  walk, :meth:`KDTree.box`: the points of every leaf whose region meets
  a box. They use it for whole blocks of queries at once —
  :meth:`KDTree.range_block` serves a block (typically the points of one
  leaf) with one walk over the block's bounding box and one ``sq_dists``
  call, and ``core.depexact`` walks each subset tree once per block of
  queries, over the block's box widened by its NN bounds. The one-query methods
  ``range_count`` / ``range_query`` (one-row blocks), ``nn`` and
  ``nn_with_bound`` (a bounded depth-first NN walk) stay only as the
  single-query API that the tests pin and the benchmark's tracer
  (``dpcbench/spans.py``) wraps by name; no algorithm calls them.

* :class:`IncrementalKDTree` — pointer-based, supports one-by-one
  insertion with the axis cycling by depth. This is the structure
  Ex-DPC's dependent-point phase requires: the tree is rebuilt
  incrementally in descending-density order so an NN query at insert
  time returns the dependent point exactly (§3 of the paper). Insertion
  order in Ex-DPC is density order, which is spatially ~random, so the
  expected depth is O(log n) without rebalancing.

Both count ``dist_evals`` — the number of point-point distance
evaluations — which experiments report as a machine-independent cost.
A block query computes, and counts, every (query, candidate) pair of
the block.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.distutil import sq_dists

__all__ = ["KDTree", "IncrementalKDTree"]

_INF = float("inf")


class KDTree:
    """Static kd-tree over an (n, d) float array.

    Parameters
    ----------
    points : np.ndarray
        (n, d) float64 coordinates. Row index is the point id.
    leaf_size : int
        Max points per leaf; leaves are scanned vectorised.
    """

    def __init__(self, points: np.ndarray, leaf_size: int = 32):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        self.n, self.d = points.shape
        self.leaf_size = int(leaf_size)
        self.points = points
        self.dist_evals = 0

        perm = np.arange(self.n, dtype=np.int64)
        # Node arrays; axis == -1 marks a leaf.
        axis: list[int] = []
        split: list[float] = []
        left: list[int] = []
        right: list[int] = []
        start: list[int] = []
        end: list[int] = []

        # Iterative build: stack of (start, end, slot). A slot of -1 means
        # "this is the root"; otherwise it is the index in `fixup` to patch
        # with the new node id ((parent, is_right) encoded by the caller).
        stack = [(0, self.n, -1, False)]
        while stack:
            s, e, parent, is_right = stack.pop()
            nid = len(axis)
            if parent >= 0:
                if is_right:
                    right[parent] = nid
                else:
                    left[parent] = nid
            if e - s <= self.leaf_size:
                axis.append(-1)
                split.append(0.0)
                left.append(-1)
                right.append(-1)
                start.append(s)
                end.append(e)
                continue
            sl = points[perm[s:e]]
            ax = int(np.argmax(sl.max(axis=0) - sl.min(axis=0)))
            mid = (s + e) // 2
            order = np.argpartition(sl[:, ax], mid - s)
            perm[s:e] = perm[s:e][order]
            sp = float(points[perm[mid], ax])
            axis.append(ax)
            split.append(sp)
            left.append(-1)
            right.append(-1)
            start.append(s)
            end.append(e)
            stack.append((s, mid, nid, False))
            stack.append((mid, e, nid, True))

        self._axis = axis
        self._split = split
        self._left = left
        self._right = right
        self._start = start
        self._end = end
        self.perm = perm
        self.ppts = points[perm]  # contiguous leaf slices

    # -- queries ---------------------------------------------------------

    def leaf_bounds(self) -> np.ndarray:
        """Leaf starts in ascending order, then ``n``.

        Leaf ``k`` holds ``ppts[b[k]:b[k + 1]]`` (ids ``perm[b[k]:b[k + 1]]``).
        """
        starts = sorted(s for ax, s in zip(self._axis, self._start) if ax < 0)
        return np.array(starts + [self.n], dtype=np.int64)

    def leaf_groups(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of ``ids`` grouped by the leaf that holds each point.

        Returns ``(order, b)``: group ``k`` is ``ids[order[b[k]:b[k + 1]]]``,
        groups in leaf order, positions ascending within a group.
        """
        pos = np.empty(self.n, dtype=np.int64)
        pos[self.perm] = np.arange(self.n)  # position in the leaf order
        leaf = np.searchsorted(self.leaf_bounds(), pos[ids], side="right") - 1
        order = np.argsort(leaf, kind="stable")
        return order, np.flatnonzero(np.diff(leaf[order], prepend=-1, append=-1))

    def box(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points of the leaves whose region meets the box [lo, hi]: ``(ids, coords)``.

        The walk behind every block search; the leaves come in ascending
        ``ppts`` order. Its pruning tests are those of a ball query, so the box
        ``q ± r`` visits the leaves that a search of radius ``r`` at ``q``
        would. Every point ``p`` with ``lo < p <= hi`` on each axis is
        returned.
        """
        lo, hi = lo.tolist(), hi.tolist()
        axis, split = self._axis, self._split
        left, right = self._left, self._right
        start, end = self._start, self._end
        out: list[tuple[int, int]] = []
        stack = [0]
        while stack:
            nid = stack.pop()
            ax = axis[nid]
            if ax >= 0:
                sp = split[nid]
                if hi[ax] >= sp:
                    stack.append(right[nid])
                if lo[ax] < sp:
                    stack.append(left[nid])  # popped first: leaves ascend
                continue
            s, e = start[nid], end[nid]
            if out and out[-1][1] == s:
                out[-1] = (out[-1][0], e)  # adjacent slices merged
            else:
                out.append((s, e))
        return (
            np.concatenate([self.perm[s:e] for s, e in out]),
            np.concatenate([self.ppts[s:e] for s, e in out]),
        )

    def range_block(self, Q: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Range search for a block of queries ``Q`` ((b, d)) in one tree walk.

        The walk visits every leaf whose region meets the bounding box of
        the b balls of radius ``r``. Returns ``(ids, within)``: the ids of
        those leaves' points, and the (b, len(ids)) mask
        ``sq_dists(Q, points[ids]) < r * r`` (strict). Adds
        ``b * len(ids)`` to ``dist_evals``.
        """
        ids, cand = self.box(Q.min(axis=0) - r, Q.max(axis=0) + r)
        self.dist_evals += len(Q) * len(ids)
        return ids, sq_dists(Q, cand) < r * r

    def range_count(self, q: np.ndarray, r: float) -> int:
        """Number of indexed points with dist(q, p) < r (strict)."""
        return int(np.count_nonzero(self.range_block(q[None, :], r)[1]))

    def range_query(self, q: np.ndarray, r: float) -> np.ndarray:
        """Ids of indexed points with dist(q, p) < r (strict), unsorted."""
        ids, within = self.range_block(q[None, :], r)
        return ids[within[0]]

    def nn(self, q: np.ndarray, exclude: int = -1) -> tuple[int, float]:
        """Nearest indexed point to q (optionally excluding id ``exclude``).

        Returns (point_id, distance); (-1, inf) on an effectively empty
        search (e.g. the tree only contains the excluded point).
        """
        return self.nn_with_bound(q, _INF, exclude)

    def nn_with_bound(
        self, q: np.ndarray, best: float, exclude: int = -1
    ) -> tuple[int, float]:
        """NN search seeded with an upper bound ``best`` (exclusive).

        A point farther than the bound can never win, so whole subtrees
        are pruned. Id ``exclude`` (if >= 0) is never returned. Returns
        (-1, best) if nothing beats the bound.
        """
        axis, split = self._axis, self._split
        left, right = self._left, self._right
        start, end, ppts, perm = self._start, self._end, self.ppts, self.perm
        best2 = best * best
        best_id = -1
        stack = [(0, 0.0)]
        nde = 0
        while stack:
            nid, bound = stack.pop()
            if bound >= best2:
                continue
            ax = axis[nid]
            while ax >= 0:
                sp = split[nid]
                diff = q[ax] - sp
                if diff < 0.0:
                    near, far = left[nid], right[nid]
                else:
                    near, far = right[nid], left[nid]
                b2 = diff * diff
                if b2 < best2:
                    stack.append((far, b2))
                nid = near
                ax = axis[nid]
            s, e = start[nid], end[nid]
            diff = ppts[s:e] - q
            dd = np.einsum("ij,ij->i", diff, diff)
            nde += e - s
            if exclude >= 0:
                dd = np.where(perm[s:e] == exclude, _INF, dd)
            i = int(np.argmin(dd))
            if dd[i] < best2:
                best2 = float(dd[i])
                best_id = int(perm[s + i])
        self.dist_evals += nde
        return best_id, math.sqrt(best2) if best_id >= 0 else best

    # -- accounting ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._axis)

    def memory_bytes(self) -> int:
        """Approximate resident size of the structure (excl. the input)."""
        per_node = 8 * 6  # axis/split/left/right/start/end as 64-bit slots
        return self.n_nodes * per_node + self.perm.nbytes + self.ppts.nbytes


class IncrementalKDTree:
    """Pointer kd-tree supporting insert-then-NN, for Ex-DPC's δ phase.

    Coordinates are kept as Python lists so the (inherently sequential)
    hot loop avoids numpy scalar-access overhead. Axis cycles with depth,
    as in the classic insertion kd-tree.
    """

    def __init__(self, d: int):
        self.d = int(d)
        self._coords: list[list[float]] = []
        self._ids: list[int] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self.dist_evals = 0

    def __len__(self) -> int:
        return len(self._ids)

    def insert(self, point_id: int, coords) -> None:
        """Insert one point; O(depth). ``coords`` is any length-d sequence."""
        c = [float(v) for v in coords]
        nid = len(self._ids)
        self._coords.append(c)
        self._ids.append(int(point_id))
        self._left.append(-1)
        self._right.append(-1)
        if nid == 0:
            return
        node = 0
        depth = 0
        d = self.d
        cs, left, right = self._coords, self._left, self._right
        while True:
            ax = depth % d
            if c[ax] < cs[node][ax]:
                nxt = left[node]
                if nxt < 0:
                    left[node] = nid
                    return
            else:
                nxt = right[node]
                if nxt < 0:
                    right[node] = nid
                    return
            node = nxt
            depth += 1

    def nn(self, q) -> tuple[int, float]:
        """Nearest inserted point to ``q`` (length-d sequence); on equal
        distances, the lowest id.

        Returns (point_id, distance); (-1, inf) if the tree is empty.
        """
        if not self._ids:
            return -1, _INF
        q = [float(v) for v in q]
        d = self.d
        cs, ids, left, right = self._coords, self._ids, self._left, self._right
        best2 = _INF
        best_id = -1
        stack = [(0, 0, 0.0)]
        visits = 0
        while stack:
            node, depth, bound = stack.pop()
            if bound > best2:
                continue
            while node >= 0:
                c = cs[node]
                s = 0.0
                for k in range(d):
                    t = q[k] - c[k]
                    s += t * t
                visits += 1
                if s < best2 or (s == best2 and ids[node] < best_id):
                    best2 = s
                    best_id = ids[node]
                ax = depth % d
                diff = q[ax] - c[ax]
                if diff < 0.0:
                    near, far = left[node], right[node]
                else:
                    near, far = right[node], left[node]
                if far >= 0:
                    b2 = diff * diff
                    if b2 <= best2:
                        stack.append((far, depth + 1, b2))
                node = near
                depth += 1
        self.dist_evals += visits
        return best_id, math.sqrt(best2)

    def memory_bytes(self) -> int:
        # id + left + right slots plus d coordinate floats per node.
        return len(self._ids) * 8 * (3 + self.d)
