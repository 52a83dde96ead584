"""Fluid-reference behaviour: stamps, departures, segments, busy periods.

The key oracle here is a brute-force Euler integration of the fluid system
with a tiny time step, which must agree with the event-driven reference on
random arrival traces. The batch ``GpsReference.stamp`` must also equal,
bit for bit, the reference stepped one arrival at a time
(``oracles.GpsPerArrival``).
"""
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mpgps_sim import GpsReference
from mpgps_sim.model import WEIGHT_RANGE
from oracles import GpsPerArrival, gps_simulate


class TestHandTrace:
    """Two flows, 8-bit packets, rate 2 bits/symbol, worked by hand."""

    def make(self):
        return gps_simulate([(0.0, 0), (2.0, 1), (2.0, 0)], (1.0, 1.0), 2.0, 8)

    def test_stamps(self):
        stamps, _ = self.make()
        # each stamp is its start plus 8 bits at weight 1: the first starts at 0,
        # the second at V = 4 (the clock ran alone at rate 2 for 2 symbols), and
        # the third queues behind its own flow's previous finish, not the clock
        assert stamps == [8.0, 12.0, 16.0]

    def test_departure_times(self):
        _, trace = self.make()
        assert trace.departures.tolist() == [6.0, 10.0, 12.0]
        assert trace.flows.tolist() == [0, 1, 0]

    def test_service_curves(self):
        _, trace = self.make()
        np.testing.assert_allclose(
            trace.service_at(0, np.array([0.0, 2.0, 6.0, 12.0])),
            [0.0, 4.0, 8.0, 16.0])
        np.testing.assert_allclose(
            trace.service_at(1, np.array([2.0, 6.0, 10.0])), [0.0, 4.0, 8.0])

    def test_curve_stays_flat_after_drain(self):
        _, trace = self.make()
        assert trace.service_at(0, np.array([50.0]))[0] == pytest.approx(16.0)


def test_busy_period_reset_restarts_stamps():
    stamps, trace = gps_simulate([(0.0, 0), (10.0, 0)], (1.0, 1.0), 2.0, 8)
    assert trace.departures.tolist() == [4.0, 14.0]
    # the second busy period stamps from scratch
    assert stamps == [8.0, 8.0]


def test_arrivals_out_of_time_order_are_refused():
    with pytest.raises(ValueError, match="time order"):
        gps_simulate([(5.0, 0), (4.0, 1)], (1.0, 1.0), 2.0, 8)


def test_weighted_share():
    # weight-2 flow finishes its packet twice as fast when both are busy
    _, trace = gps_simulate([(0.0, 0), (0.0, 1)], (2.0, 1.0), 3.0, 8)
    # flow0 served at 2 b/sym, flow1 at 1 b/sym while both busy; flow0 done
    # at t=4, then flow1 alone at 3 b/sym finishes its last 4 bits at t=16/3
    assert trace.departures[0] == pytest.approx(4.0)
    assert trace.departures[1] == pytest.approx(16.0 / 3.0)


def _euler_departures(arrivals, weights, rate, bits, dt):
    """Tiny-step fluid integration; departures by arrival index, to within ~dt."""
    order = sorted(range(len(arrivals)), key=lambda i: (*arrivals[i], i))
    queues = [deque() for _ in weights]
    out = {}
    t = 0.0
    i = 0
    n = len(order)
    while i < n or any(queues):
        if not any(queues):
            t = arrivals[order[i]][0]
        while i < n and arrivals[order[i]][0] <= t + 1e-12:
            queues[arrivals[order[i]][1]].append([order[i], float(bits)])
            i += 1
        next_arr = arrivals[order[i]][0] if i < n else math.inf
        step = min(dt, max(next_arr - t, 1e-12))
        w = sum(weights[k] for k, q in enumerate(queues) if q)
        for k, q in enumerate(queues):
            if not q:
                continue
            budget = rate * weights[k] / w * step
            while q and budget > 1e-15:
                take = min(budget, q[0][1])
                q[0][1] -= take
                budget -= take
                if q[0][1] <= 1e-12:
                    out[q.popleft()[0]] = t + step
        t += step
    return out


@pytest.mark.parametrize("seed", range(6))
def test_matches_euler_integration(seed):
    rng = np.random.default_rng(seed)
    n_flows = int(rng.integers(2, 4))
    weights = tuple(float(w) for w in rng.uniform(0.5, 2.0, n_flows))
    rate = 1.5
    bits = int(rng.integers(1, 17))
    arrivals = []
    t = 0.0
    for _ in range(int(rng.integers(10, 21))):
        t += float(rng.exponential(5.0))
        arrivals.append((t, int(rng.integers(n_flows))))
    oracle = _euler_departures(arrivals, weights, rate, bits, dt=0.001)
    _, trace = gps_simulate(arrivals, weights, rate, bits)
    assert set(oracle) == set(range(len(arrivals)))
    for i, d in enumerate(trace.departures):
        assert abs(d - oracle[i]) < 0.2, i


@pytest.mark.parametrize("seed", [11, 12])
def test_fluid_serves_every_arrived_bit(seed):
    rng = np.random.default_rng(seed)
    arrivals = []
    t = 0.0
    for _ in range(25):
        t += float(rng.exponential(3.0))
        arrivals.append((t, int(rng.integers(3))))
    totals = [0.0, 0.0, 0.0]
    for _, flow in arrivals:
        totals[flow] += 8
    _, trace = gps_simulate(arrivals, (1.0, 1.0, 1.0), 2.0, 8)
    for k in range(3):
        served = trace.service_at(k, trace.seg_t[-1:])
        assert served[0] == pytest.approx(totals[k], abs=1e-9)


@st.composite
def fluid_traces(draw):
    """Weights over the whole allowed range, and arrival times with ties (zero
    gaps) and gaps of up to a few packets' full-rate airtime, long enough to
    drain the system and restart its busy period. Gaps of whole and half
    airtimes make arrivals meet departures, as when one arrives just as the
    system empties."""
    k = draw(st.integers(1, 5))
    lo, hi = WEIGHT_RANGE
    weights = draw(st.lists(st.sampled_from([lo, 1.0, hi]) | st.floats(lo, hi),
                            min_size=k, max_size=k))
    rate = draw(st.sampled_from([1.0, 2.0, 6.0]))
    bits = draw(st.integers(1, 1024))
    gaps = draw(st.lists(st.just(0.0) | st.integers(1, 8).map(lambda n: n / 2)
                         | st.floats(0.0, 4.0), max_size=40))
    t, arrivals = 0.0, []
    for gap in gaps:
        t += gap * bits / rate
        arrivals.append((t, draw(st.integers(0, k - 1))))
    cuts = sorted(draw(st.lists(st.integers(0, len(arrivals)), max_size=3)))
    return weights, rate, bits, arrivals, [0, *cuts, len(arrivals)]


@settings(max_examples=300, deadline=None)
@given(fluid_traces(), st.booleans())
# stamps 4e-15 apart finish at t = 5 in two departure steps: the second
# collapses the zero-length segment the first opened
@example(((1.0, 0.5, 2.0), 6.0, 8, [(1.0, 1), (1.0, 2), (3.0, 0), (12.0, 1)], [0, 2, 4]), True)
def test_batch_stamping_equals_stepping_one_arrival_at_a_time(trace, record):
    weights, rate, bits, arrivals, bounds = trace
    want = GpsPerArrival(weights, rate, bits, record=record)
    got = GpsReference(weights, rate, bits, record=record)
    for lo, hi in zip(bounds, bounds[1:]):
        part = arrivals[lo:hi]
        stamps = [want.on_arrival(t, flow) for t, flow in part]
        if len(part) == 1:
            assert [got.on_arrival(*part[0])] == stamps
        else:
            assert got.stamp([t for t, _ in part], [flow for _, flow in part]) == stamps
        # the state carries over to the next call
        assert vars(got) == vars(want)
    want.drain()
    got.drain()
    assert vars(got) == vars(want)
    assert got.departures == want.departures and got.flows == want.flows
    assert got._seg_t == want._seg_t
    assert got._seg_mask == want._seg_mask
    assert got._seg_phi == want._seg_phi
