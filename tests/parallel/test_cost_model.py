"""Tests for the work/span cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.cost_model import CostModel, PhaseCost


class TestPhaseCost:
    def test_brent_bound_serial(self):
        p = PhaseCost("x", work=100, depth=10, seconds=1.0)
        assert p.simulated_seconds(1) == pytest.approx((100 + 10) / 100)

    def test_brent_bound_parallel(self):
        p = PhaseCost("x", work=100, depth=10, seconds=1.0)
        assert p.simulated_seconds(10) == pytest.approx((10 + 10) / 100)

    def test_depth_floor(self):
        """Infinite threads cannot beat the span."""
        p = PhaseCost("x", work=100, depth=10, seconds=1.0)
        assert p.simulated_seconds(10**6) >= 10 / 100

    def test_depth_exceeding_work_rejected(self):
        """depth > work breaks the Brent bound; it is a caller bug, not
        something to clamp silently."""
        with pytest.raises(ValueError, match="exceeds work"):
            PhaseCost("x", work=5, depth=50)

    def test_depth_equal_to_work_accepted(self):
        assert PhaseCost("x", work=5, depth=5).depth == 5

    def test_zero_work(self):
        assert PhaseCost("x", work=0, depth=0).simulated_seconds(4) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PhaseCost("x", work=-1, depth=0)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            PhaseCost("x", work=1, depth=1).simulated_seconds(0)


class TestCostModel:
    def make(self):
        cm = CostModel()
        cm.add("a", work=1000, depth=10, seconds=2.0)
        cm.add("b", work=100, depth=100, seconds=1.0)  # serial phase
        cm.add("a", work=1000, depth=10, seconds=2.0)
        return cm

    def test_phase_aggregation(self):
        cm = self.make()
        a = cm.phase("a")
        assert a.work == 2000 and a.seconds == 4.0

    def test_unknown_phase(self):
        with pytest.raises(KeyError):
            self.make().phase("zzz")

    def test_phase_names_order(self):
        assert self.make().phase_names() == ["a", "b"]

    def test_speedup_monotone(self):
        cm = self.make()
        curve = cm.speedup_curve([1, 2, 4, 8, 16])
        assert curve[0] == pytest.approx(1.0)
        assert (np.diff(curve) >= -1e-9).all()

    def test_serial_phase_caps_speedup(self):
        """Amdahl: the fully serial phase bounds total speedup."""
        cm = self.make()
        assert cm.speedup_curve([10**6])[0] < (cm.simulated_seconds(1) / 1.0) + 1e-9

    def test_perfectly_parallel_phase(self):
        cm = CostModel()
        cm.add("p", work=10_000, depth=1, seconds=1.0)
        assert cm.speedup_curve([16])[0] == pytest.approx(16, rel=0.01)

    def test_merge(self):
        a = self.make()
        b = CostModel()
        b.add("c", work=1, depth=1)
        a.merge(b)
        assert "c" in a.phase_names()

    def test_totals(self):
        cm = self.make()
        assert cm.total_work() == 2100
        assert cm.total_depth() == 120


class TestCostModelProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        work=st.floats(1.0, 10**9, allow_nan=False),
        depth_frac=st.floats(0.0, 1.0, allow_nan=False),
        seconds=st.one_of(st.just(0.0), st.floats(1e-9, 1000.0, allow_nan=False)),
        threads=st.integers(1, 1024),
    )
    def test_simulated_seconds_positive_and_monotone_in_threads(
        self, work, depth_frac, seconds, threads
    ):
        """More simulated threads never slows the modeled phase down."""
        phase = PhaseCost("p", work=work, depth=work * depth_frac, seconds=seconds)
        t = phase.simulated_seconds(threads)
        assert t > 0
        assert phase.simulated_seconds(2 * threads) <= t * (1 + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        work=st.floats(1.0, 10**6, allow_nan=False),
        threads=st.integers(1, 64),
    )
    def test_brents_bound_never_beats_span(self, work, threads):
        """T_p >= max(W/p, D) * c — the bound's defining inequality."""
        phase = PhaseCost("p", work=work, depth=min(work, 8.0), seconds=1.0)
        cost_per_op = 1.0 / work
        t = phase.simulated_seconds(threads)
        assert t >= max(work / threads, phase.depth) * cost_per_op * (1 - 1e-9)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            PhaseCost("p", work=-1.0, depth=0.0)
        with pytest.raises(ValueError):
            PhaseCost("p", work=1.0, depth=2.0)
