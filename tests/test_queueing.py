"""Whole-run queueing checks: every discipline serves one trace with the
busy periods of a single server.

Error-free and without deadlines, every packet takes one packet's airtime
of server time whatever frame carries it (a batch of m fills m times one
packet's symbols), and a frame starts whenever a packet waits. So the busy
periods, the maximal runs of back-to-back frames, depend on the arrival
trace alone: ``pgps``, ``mpgps`` at M, ``ampgps`` at M_max and ``ompgps``
at (M, U) must all give the periods of one server that drains one packet's
airtime per arrival.
"""
import math

from hypothesis import example, given, settings, strategies as st

import mpgps_sim as m

MODES = ("pgps", "mpgps", "ampgps", "ompgps")
HORIZON = 3000.0


def frame_periods(frames):
    """The (start, end) of each maximal run of back-to-back frames."""
    periods = []
    for f in frames:
        if periods and f.start == periods[-1][1]:
            periods[-1][1] = f.depart
        else:
            periods.append([f.start, f.depart])
    return [tuple(p) for p in periods]


def workload_periods(times, airtime, horizon):
    """The busy periods ending before ``horizon`` of one server that takes
    ``airtime`` per arrival; an arrival at a period's end extends it, as a
    frame end outranks arrivals at its own instant."""
    periods = []
    for t in times:
        if periods and t <= periods[-1][1]:
            periods[-1][1] += airtime
        else:
            periods.append([t, t + airtime])
    return [tuple(p) for p in periods if p[1] < horizon]


@st.composite
def systems(draw):
    """A system of at most four flows of 64-bit packets over 8 subcarriers
    (4 symbols a packet) at one offered load, Poisson or token-bucket shaped."""
    k = draw(st.integers(1, 4))
    mm = draw(st.integers(1, 3))
    cfg = m.SystemConfig(K=k, N=8, L=64, r=2, M=mm, M_max=draw(st.integers(1, 4)),
                         U=mm + draw(st.integers(0, 2)), deadline=math.inf,
                         weights=draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                               min_size=k, max_size=k)),
                         seed=draw(st.integers(0, 2**16)))
    # offered load as a share of the 16 bits a symbol, split evenly
    rate = draw(st.sampled_from([0.3, 0.6, 0.9])) * cfg.bits_per_symbol / cfg.T_sym / k
    bucket = None
    if draw(st.booleans()):
        bucket = (cfg.L * draw(st.integers(1, 4)), rate * draw(st.sampled_from([1.0, 1.5, 3.0])))
    return cfg, m.TrafficModel(rate_bps=rate, bucket=bucket)


@example((m.SystemConfig(K=4, N=8, L=64, r=2, M=3, M_max=4, U=5, deadline=math.inf, seed=5),
          m.TrafficModel(rate_bps=0.9 * 16 / 200e-6 / 4)))
@settings(max_examples=30, deadline=None)
@given(systems())
def test_every_mode_has_the_busy_periods_of_its_trace(system):
    cfg, traffic = system
    periods = {}
    for mode in MODES:
        eng = m.Engine(cfg, traffic, mode, HORIZON, error_free=True)
        periods[mode] = frame_periods(eng.run().frames)
    # every mode ran on this one trace; the last period a run records may
    # be cut by the horizon
    ended = workload_periods(eng.arrivals.times.tolist(), m.frame_length((1,), cfg), HORIZON)
    assert ended and periods["pgps"][:len(ended)] == ended
    for mode in MODES:
        assert periods[mode][:len(ended)] == periods["pgps"][:len(ended)], mode
        assert len(periods[mode]) - len(ended) in (0, 1), mode
