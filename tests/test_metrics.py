"""Service curves, busy intervals, and the pairwise fairness gauge."""
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpgps_sim as m
from mpgps_sim import metrics
from mpgps_sim.metrics import _window_extreme
from mpgps_sim.model import WEIGHT_RANGE
from oracles import busy_intervals, fairness_pairwise


class TestServiceCurves:
    def test_accumulates_per_frame(self):
        curves = m.service_curves([(0.0, 4.0), (4.0, 8.0)], np.array([(1, 0), (1, 1)]),
                                  packet_bits=8)
        t0, b0 = curves[0]
        np.testing.assert_allclose(t0, [0.0, 4.0, 4.0, 8.0])
        np.testing.assert_allclose(b0, [0.0, 8.0, 8.0, 16.0])
        t1, b1 = curves[1]
        np.testing.assert_allclose(b1, [0.0, 0.0, 0.0, 8.0])

    def test_idle_gap_stays_flat(self):
        (t, b), = m.service_curves([(0.0, 4.0), (10.0, 14.0)], np.array([(1,), (1,)]),
                                   packet_bits=8)
        assert np.interp(7.0, t, b) == pytest.approx(8.0)

    def test_no_frames_gives_zero_curves(self):
        curves = m.service_curves([], np.zeros((0, 2), dtype=np.int64), packet_bits=8)
        assert len(curves) == 2
        for t, b in curves:
            assert b[-1] == 0.0


class TestBusyIntervals:
    def test_merges_handovers_at_the_same_instant(self):
        iv = busy_intervals([(0.0, 1), (5.0, -1), (5.0, 1), (9.0, -1)], 20.0)
        assert iv == [(0.0, 9.0)]

    def test_separate_periods(self):
        iv = busy_intervals([(0.0, 1), (1.0, -1), (3.0, 1), (4.0, -1)], 20.0)
        assert iv == [(0.0, 1.0), (3.0, 4.0)]

    def test_open_interval_runs_to_end(self):
        iv = busy_intervals([(2.0, 1)], 7.5)
        assert iv == [(2.0, 7.5)]

    def test_empty(self):
        assert busy_intervals([], 5.0) == []

    def test_nested_counts(self):
        iv = busy_intervals([(0.0, 1), (1.0, 1), (2.0, -1), (6.0, -1)], 10.0)
        assert iv == [(0.0, 6.0)]


class TestFairnessGauge:
    def test_linear_vs_idle_flow(self):
        t = np.arange(0.0, 11.0, 2.0)
        curves = [(t, t.copy()), (t, np.zeros_like(t))]
        busy = [[(0.0, 10.0)], [(0.0, 10.0)]]
        assert m.fairness_metric(curves, (1.0, 1.0), 4.0, busy) == pytest.approx(4.0)
        assert m.fairness_metric(curves, (1.0, 1.0), 100.0, busy) == pytest.approx(10.0)

    def test_single_flow_is_zero(self):
        t = np.array([0.0, 10.0])
        assert m.fairness_metric([(t, t)], (1.0,), 5.0, [[(0.0, 10.0)]]) == 0.0

    def test_identical_flows_are_zero(self):
        t = np.arange(0.0, 11.0)
        curves = [(t, 2 * t), (t, 2 * t)]
        busy = [[(0.0, 10.0)]] * 2
        assert m.fairness_metric(curves, (1.0, 1.0), 5.0, busy) == 0.0

    def test_weights_normalise_service(self):
        t = np.arange(0.0, 11.0)
        curves = [(t, 2 * t), (t, 1.0 * t)]
        busy = [[(0.0, 10.0)]] * 2
        assert m.fairness_metric(curves, (2.0, 1.0), 5.0, busy) == 0.0

    def test_disjoint_busy_periods_are_ignored(self):
        t = np.arange(0.0, 11.0)
        curves = [(t, t.copy()), (t, np.zeros_like(t))]
        busy = [[(0.0, 4.0)], [(6.0, 10.0)]]
        assert m.fairness_metric(curves, (1.0, 1.0), 5.0, busy) == 0.0

    def test_gap_confined_to_the_joint_window(self):
        # the unfair stretch lies outside the jointly-busy interval
        t = np.arange(0.0, 11.0)
        lead = np.where(t <= 5.0, t, 5.0)
        curves = [(t, lead), (t, np.zeros_like(t))]
        busy = [[(6.0, 10.0)], [(6.0, 10.0)]]
        assert m.fairness_metric(curves, (1.0, 1.0), 5.0, busy) == pytest.approx(0.0)


def deque_window_extreme(times, values, window):
    """Reference: monotone max/min deques swept over the points in order."""
    best = 0.0
    maxq, minq = deque(), deque()
    for b in range(len(times)):
        while maxq and values[maxq[-1]] <= values[b]:
            maxq.pop()
        maxq.append(b)
        while minq and values[minq[-1]] >= values[b]:
            minq.pop()
        minq.append(b)
        while times[maxq[0]] < times[b] - window:
            maxq.popleft()
        while times[minq[0]] < times[b] - window:
            minq.popleft()
        best = max(best, values[maxq[0]] - values[b], values[b] - values[minq[0]])
    return best


@st.composite
def gauge_inputs(draw):
    n = draw(st.integers(0, 80))
    # small integer steps make repeated times common; scale keeps them exact
    steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-4]))
    times = np.cumsum(steps) * scale
    values = np.array(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n)))
    span = float(times[-1] - times[0]) if n else 0.0
    window = draw(st.sampled_from([0.0, scale, 2.5 * scale, span, 2.0 * span + 1.0]))
    return times, values, window


class TestWindowExtreme:
    @settings(max_examples=400, deadline=None)
    @given(gauge_inputs())
    def test_matches_deque_sweep(self, case):
        times, values, window = case
        assert _window_extreme(times, values, window) == deque_window_extreme(
            times, values, window)

    def test_window_zero_pairs_only_equal_times(self):
        times = np.array([0.0, 1.0, 1.0, 2.0])
        values = np.array([0.0, 5.0, 2.0, 100.0])
        assert _window_extreme(times, values, 0.0) == 3.0

    def test_window_beyond_the_grid_spans_everything(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([4.0, -1.0, 2.0])
        assert _window_extreme(times, values, 1e9) == 5.0


def interval_list(draw, edges):
    """Sorted disjoint (start, end) intervals with ends drawn from ``edges``."""
    cut = sorted(set(draw(st.lists(st.sampled_from(edges), min_size=2, max_size=8))))
    return [(a, b) for a, b in zip(cut[0::2], cut[1::2])]


@st.composite
def fairness_inputs(draw):
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 60))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-4]))
    # repeated times are common, as where one frame ends and the next starts
    times = np.cumsum(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))) * scale
    curves = [(times, np.cumsum(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
               * draw(st.sampled_from([8.0, 1.5, 0.3])))
              for _ in range(k)]
    weights = draw(st.lists(st.floats(*WEIGHT_RANGE), min_size=k, max_size=k))
    span = float(times[-1] - times[0])
    # edges on breakpoints, between them and past the last one
    edges = sorted(set(times.tolist()) | {float(times[-1]) + 2.5 * scale,
                                          float(times[0]) + 0.5 * scale})
    shape = draw(st.sampled_from(["identical", "disjoint", "overlapping"]))
    if shape == "identical":                     # the saturated shape: one shared busy set
        busy = [interval_list(draw, edges)] * k
    elif shape == "disjoint":                    # each flow busy in its own stretch
        share = max(1, len(edges) // k)
        busy = [interval_list(draw, edges[f * share:(f + 1) * share]) if f * share < len(edges)
                else [] for f in range(k)]
    else:                                        # own busy sets on shared edges
        busy = [interval_list(draw, edges) for _ in range(k)]
    window = draw(st.sampled_from([0.0, scale, 2.5 * scale, span, 2.0 * span + 1.0]))
    return curves, weights, window, busy


class TestFairnessMatchesPairwise:
    """The grouped, stacked gauge equals the pair-at-a-time loop exactly."""

    @pytest.mark.parametrize("block", [None, 1])
    @settings(max_examples=300, deadline=None)
    @given(case=fairness_inputs())
    def test_equals_pairwise_loop(self, block, case):
        curves, weights, window, busy = case
        with mock.patch.object(metrics, "GAUGE_BLOCK", block or metrics.GAUGE_BLOCK):
            got = m.fairness_metric(curves, weights, window, busy)
        assert got == fairness_pairwise(curves, weights, window, busy)

    def test_saturated_pairs_share_one_table(self, monkeypatch):
        # every pair of a saturated run shares one interval: one table for all
        cfg = m.SystemConfig(K=6, N=16, L=64, r=2, M=2, U=4, seed=2)
        calls = []
        real = metrics._window_extreme
        monkeypatch.setattr(metrics, "_window_extreme",
                            lambda t, v, w: calls.append(v.shape) or real(t, v, w))
        res = m.run(cfg, m.TrafficModel(infinite_backlog=True), "ompgps", 1.0,
                    max_frames=60, collect_fairness=True, fairness_window_s=0.01)
        # 15 pairs over the run's back-to-back frame edges
        assert calls == [(15, res.metrics.frames + 1)]
        assert res.metrics.fairness > 0


def test_metrics_as_dict_totals_violations():
    met = m.Metrics()
    met.bound_violations = {"delay_gap": 2, "service_gap": 1}
    assert met.as_dict()["bound_violations"] == 3
