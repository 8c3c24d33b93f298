"""DPCParams / tiebreak convention tests."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.cfsfdp_a import cfsfdp_a
from repro.baselines.lsh_ddp import lsh_ddp
from repro.baselines.rtree_scan import rtree_scan_dpc
from repro.core.approx_dpc import approx_dpc
from repro.core.exdpc import ex_dpc
from repro.core.s_approx_dpc import s_approx_dpc
from repro.core.scan import scan_dpc
from repro.core.types import DPCParams, DPCResult, tiebreak

ENTRY_POINTS = {
    "scan": scan_dpc,
    "exdpc": ex_dpc,
    "rtree_scan": rtree_scan_dpc,
    "cfsfdp_a": cfsfdp_a,
    "approx_dpc": approx_dpc,
    "lsh_ddp": lsh_ddp,
    "s_approx_dpc": lambda pts, params: s_approx_dpc(pts, params, 1.0),
}


class TestParams:
    def test_dcut_positive(self):
        with pytest.raises(ValueError):
            DPCParams(d_cut=0.0)
        with pytest.raises(ValueError):
            DPCParams(d_cut=-1.0)

    def test_frozen(self):
        p = DPCParams(d_cut=1.0)
        with pytest.raises(Exception):
            p.d_cut = 2.0

    def test_defaults(self):
        p = DPCParams(d_cut=1.0)
        assert p.rho_min == 0.0 and p.delta_min == np.inf and p.seed == 777


class TestTiebreak:
    def test_deterministic(self):
        assert np.array_equal(tiebreak(100), tiebreak(100))

    def test_seed_changes(self):
        assert not np.array_equal(tiebreak(100, 1), tiebreak(100, 2))

    def test_open_interval(self):
        u = tiebreak(10_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_breaks_integer_ties(self):
        """rho + jitter yields a strict total order on equal raw densities."""
        rho = np.full(1000, 7)
        key = rho + tiebreak(1000)
        assert len(np.unique(key)) == 1000

    def test_never_crosses_integer_boundary(self):
        rho = np.array([3, 4])
        key = rho + tiebreak(2)
        assert key[0] < 4 and key[1] < 5


class TestResult:
    def test_n_clusters(self):
        r = DPCResult(
            rho=np.zeros(3),
            delta=np.zeros(3),
            dep=np.zeros(3, dtype=np.int64),
            centers=np.array([0, 2]),
            noise=np.zeros(3, bool),
            labels=np.zeros(3, dtype=np.int64),
        )
        assert r.n_clusters == 2


@pytest.mark.parametrize("fn", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_point_input_contract(fn):
    """Every public algorithm rejects non-finite, non-2-D and empty input
    and accepts any finite 2-D array-like as float64."""
    params = DPCParams(d_cut=1.5)
    good = [[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]
    for bad in (
        [[0.0, 0.0], [np.nan, 1.0], [5.0, 5.0]],
        [[0.0, 0.0], [1.0, np.inf], [5.0, 5.0]],
        [0.0, 1.0, 5.0],
        np.empty((0, 2)),
    ):
        with pytest.raises(ValueError, match="points must be"):
            fn(np.asarray(bad), params)
    assert len(fn(np.asarray(good, dtype=np.int32), params).labels) == 3
