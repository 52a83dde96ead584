"""Fluid-reference behaviour: stamps, departures, segments, busy periods.

The key oracle here is a brute-force Euler integration of the fluid system
with a tiny time step, which must agree with the event-driven reference on
random arrival traces.
"""
import math
from collections import deque

import numpy as np
import pytest

import mpgps_sim as m
from oracles import gps_simulate


def pkt(flow, seq, arrival, bits):
    return m.Packet(flow=flow, seq=seq, arrival=float(arrival), bits=bits)


class TestHandTrace:
    """Two flows, 8-bit packets, rate 2 bits/symbol, worked by hand."""

    def make(self):
        pkts = [pkt(0, 0, 0.0, 8), pkt(1, 0, 2.0, 8), pkt(0, 1, 2.0, 8)]
        trace = gps_simulate(pkts, (1.0, 1.0), 2.0)
        return pkts, trace

    def test_stamps(self):
        pkts, _ = self.make()
        assert (pkts[0].vstart, pkts[0].vfinish) == (0.0, 8.0)
        # clock advanced alone at rate 2 for 2 symbols -> V = 4
        assert (pkts[1].vstart, pkts[1].vfinish) == (4.0, 12.0)
        # same flow queues behind its own previous finish, not the clock
        assert (pkts[2].vstart, pkts[2].vfinish) == (8.0, 16.0)

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
    pkts = [pkt(0, 0, 0.0, 8), pkt(0, 1, 10.0, 8)]
    trace = gps_simulate(pkts, (1.0, 1.0), 2.0)
    assert trace.departures.tolist() == [4.0, 14.0]
    # the second busy period stamps from scratch
    assert (pkts[1].vstart, pkts[1].vfinish) == (0.0, 8.0)


def test_arrivals_out_of_time_order_are_refused():
    pkts = [pkt(0, 0, 5.0, 8), pkt(1, 0, 4.0, 8)]
    with pytest.raises(ValueError, match="time order"):
        gps_simulate(pkts, (1.0, 1.0), 2.0)


def test_weighted_share():
    # weight-2 flow finishes its packet twice as fast when both are busy
    pkts = [pkt(0, 0, 0.0, 8), pkt(1, 0, 0.0, 8)]
    trace = gps_simulate(pkts, (2.0, 1.0), 3.0)
    # flow0 served at 2 b/sym, flow1 at 1 b/sym while both busy; flow0 done
    # at t=4, then flow1 alone at 3 b/sym finishes its last 4 bits at t=16/3
    assert trace.departures[0] == pytest.approx(4.0)
    assert trace.departures[1] == pytest.approx(16.0 / 3.0)


def _euler_departures(pkts, weights, rate, dt):
    """Tiny-step fluid integration; departures resolved to within ~dt."""
    order = sorted(pkts, key=lambda p: (p.arrival, p.flow, p.seq))
    queues = [deque() for _ in weights]
    out = {}
    t = 0.0
    i = 0
    n = len(order)
    while i < n or any(queues):
        if not any(queues):
            t = order[i].arrival
        while i < n and order[i].arrival <= t + 1e-12:
            p = order[i]
            queues[p.flow].append([(p.flow, p.seq), float(p.bits)])
            i += 1
        next_arr = order[i].arrival if i < n else math.inf
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
    pkts = []
    seq = [0] * n_flows
    t = 0.0
    for _ in range(int(rng.integers(10, 21))):
        t += float(rng.exponential(5.0))
        flow = int(rng.integers(n_flows))
        pkts.append(pkt(flow, seq[flow], t, int(rng.integers(1, 17))))
        seq[flow] += 1
    oracle = _euler_departures(pkts, weights, rate, dt=0.001)
    trace = gps_simulate(pkts, weights, rate)
    departures = dict(zip(((p.flow, p.seq) for p in pkts), trace.departures))
    assert set(departures) == set(oracle)
    for key, d in departures.items():
        assert abs(d - oracle[key]) < 0.2, key


@pytest.mark.parametrize("seed", [11, 12])
def test_fluid_serves_every_arrived_bit(seed):
    rng = np.random.default_rng(seed)
    pkts = []
    t = 0.0
    for s in range(25):
        t += float(rng.exponential(3.0))
        pkts.append(pkt(int(rng.integers(3)), s, t, 8))
    totals = [0.0, 0.0, 0.0]
    for p in pkts:
        totals[p.flow] += p.bits
    trace = gps_simulate(pkts, (1.0, 1.0, 1.0), 2.0)
    for k in range(3):
        served = trace.service_at(k, trace.seg_t[-1:])
        assert served[0] == pytest.approx(totals[k], abs=1e-9)
