"""End-to-end engine behaviour: event order, conservation laws, knobs."""
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

import mpgps_sim as m
import oracles


def compact(**kw):
    """Small systems keep frames at 4*m symbols so runs stay quick."""
    base = dict(K=3, N=8, L=64, r=2, M=1, seed=11)
    base.update(kw)
    return m.SystemConfig(**base)


def by_kind(events, kind):
    return [e for e in events if e.kind == kind]


def feed(monkeypatch, times, flows):
    """Give the runs that follow this arrival trace, stamped by the oracle fluid
    reference, in place of their drawn one; the shared cache is left alone."""
    def trace(seed, rates, bucket, bits, horizon, weights, bits_per_symbol, record):
        stamps, gps = oracles.gps_simulate(zip(times.tolist(), flows.tolist()), weights,
                                           bits_per_symbol, bits)
        return m.engine.ArrivalTrace(times, flows, np.array(stamps), gps if record else None)
    monkeypatch.setattr(m.engine, "arrival_trace", trace)


class TestSinglePacketTiming:
    def test_unqueued_packet_departs_one_frame_later(self):
        # 1024 bits over 128 bits/symbol: exactly 8 symbols on air
        cfg = m.SystemConfig(K=2, N=64, L=1024, r=2, M=1, seed=3)
        res = m.run(cfg, m.TrafficModel(rate_bps=(2000.0, 0.0)), "mpgps",
                    20_000.0, error_free=True, collect_events=True)
        arrives = by_kind(res.events, "arrive")
        delivers = {(e.flow, e.seq): e.time for e in by_kind(res.events, "deliver")}
        first = arrives[0]
        assert delivers[(first.flow, first.seq)] == first.time + 8.0
        assert res.frames[0].depart - res.frames[0].start == 8.0

    def test_silent_flow_never_arrives(self):
        cfg = m.SystemConfig(K=2, N=64, L=1024, r=2, seed=3)
        res = m.run(cfg, m.TrafficModel(rate_bps=(2000.0, 0.0)), "mpgps",
                    20_000.0, error_free=True, collect_events=True)
        assert all(e.flow == 0 for e in by_kind(res.events, "arrive"))


def test_zero_arrivals_runs_clean():
    res = m.run(compact(), m.TrafficModel(rate_bps=0.0), "mpgps", 10_000.0)
    assert res.metrics.arrivals == 0
    assert res.metrics.frames == 0
    assert math.isnan(res.metrics.avg_delay)
    assert math.isnan(res.metrics.loss_rate)


class TestDeterminism:
    def run_once(self, mode):
        cfg = compact(M=2, U=3, M_max=3, seed=29)
        return m.run(cfg, m.TrafficModel(rate_bps=6000.0), mode, 20_000.0,
                     collect_events=True)

    @pytest.mark.parametrize("mode", ["mpgps", "ampgps", "ompgps"])
    def test_repeat_run_is_identical(self, mode):
        a = self.run_once(mode)
        b = self.run_once(mode)
        assert a.events == b.events
        assert a.frames == b.frames
        da, db = a.metrics.as_dict(), b.metrics.as_dict()
        assert set(da) == set(db)
        for key, va in da.items():
            vb = db[key]
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb), key
            else:
                assert va == vb, key

    def test_different_seed_changes_the_run(self):
        a = self.run_once("mpgps")
        cfg = compact(M=2, U=3, M_max=3, seed=30)
        b = m.run(cfg, m.TrafficModel(rate_bps=6000.0), "mpgps", 20_000.0,
                  collect_events=True)
        assert a.metrics.arrivals != b.metrics.arrivals or a.events != b.events


class TestConservation:
    def make(self):
        cfg = compact(M=2, seed=5, deadline=math.inf)
        return m.run(cfg, m.TrafficModel(rate_bps=7000.0), "mpgps", 30_000.0,
                     error_free=True, collect_events=True,
                     warmup_frac=0.0)

    def test_flow_conservation_per_flow(self):
        res = self.make()
        met = res.metrics
        assert met.arrivals == met.delivered + met.dropped + met.residual
        for k in range(res.cfg.K):
            arr = sum(1 for e in by_kind(res.events, "arrive") if e.flow == k)
            dlv = sum(1 for e in by_kind(res.events, "deliver") if e.flow == k)
            pending = arr - dlv
            assert pending >= 0
        assert met.dropped == 0

    def test_work_conservation_on_the_event_log(self):
        res = self.make()
        arrivals = sorted(e.time for e in by_kind(res.events, "arrive"))
        served = {}
        for e in by_kind(res.events, "deliver"):
            served[e.frame] = served.get(e.frame, 0) + 1
        starts = {f.index: f.start for f in res.frames}
        # when a frame ends with packets already waiting, the next frame
        # must start at that same instant
        for f in res.frames:
            arrived = np.searchsorted(arrivals, f.depart, side="right")
            sent = sum(n for idx, n in served.items() if idx <= f.index)
            if arrived - sent > 0 and (f.index + 1) in starts:
                assert starts[f.index + 1] == f.depart

    def test_frames_never_overlap(self):
        res = self.make()
        for prev, nxt in zip(res.frames, res.frames[1:]):
            assert nxt.start >= prev.depart


def test_event_log_is_time_ordered_with_departures_first(monkeypatch):
    eng = m.Engine(m.SystemConfig(K=1, N=8, L=64, r=2, seed=1),
                   m.TrafficModel(rate_bps=1000.0), "mpgps", 50.0,
                   error_free=True, collect_events=True)
    # force an arrival exactly on a frame boundary: frame [0, 4) ends as the
    # second packet lands
    feed(monkeypatch, np.array([0.0, 4.0]), np.array([0, 0], dtype=np.int64))
    res = eng.run()
    times = [e.time for e in res.events]
    assert times == sorted(times)
    at_four = [e.kind for e in res.events if e.time == 4.0]
    assert at_four == ["deliver", "frame_end", "arrive", "frame_start"]


@pytest.mark.parametrize("mode, servers", [("pgps", 1), ("mpgps", 2)])
@pytest.mark.parametrize("lead", [0.0, 0.5])
def test_an_arrival_at_a_frame_end_misses_that_instants_decision(monkeypatch, mode,
                                                                 servers, lead):
    # flow 0 queues servers + 1 packets at 0, so one outlives frame [0, 4 * servers);
    # flow 1's packet lands as that frame ends (lead 0) or half a symbol before,
    # and its weight gives it the smaller stamp: 64 * servers + 16 - 8 * lead
    # against flow 0's 64 * servers + 64
    end = 4.0 * servers
    eng = m.Engine(compact(K=2, M=servers, weights=(1.0, 4.0)), m.TrafficModel(rate_bps=1000.0),
                   mode, 100.0, error_free=True)
    feed(monkeypatch, np.array([0.0] * (servers + 1) + [end - lead]),
         np.array([0] * (servers + 1) + [1], dtype=np.int64))
    res = eng.run()
    first, second = res.frames[:2]
    assert first.g == (servers, 0) and second.start == end
    if lead:
        # queued before the frame ended, it heads the stamp order of that instant
        assert second.g == (min(servers - 1, 1), 1)
    else:
        # the frame end outranks it: the decision at that instant holds flow 0 only
        assert second.g == (1, 0)
        assert res.frames[2].g == (0, 1) and res.frames[2].start == second.depart


def test_arrivals_are_read_once_in_order_across_chunks(monkeypatch):
    chunk = m.engine.ARRIVAL_CHUNK
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.exponential(3.0, 2 * chunk + 100))
    # one instant straddles the first chunk edge, after the servers fall idle
    times[chunk - 1:] += 1000.0
    times[chunk] = times[chunk - 1]
    flows = rng.integers(0, 3, times.size)
    assert times.size > 2 * chunk and times[chunk - 1] == times[chunk]
    assert np.all(np.diff(times) >= 0)
    eng = m.Engine(compact(K=3, M=2, seed=1), m.TrafficModel(rate_bps=1000.0), "mpgps",
                   float(times[-1]) + 1.0, error_free=True, collect_events=True)
    feed(monkeypatch, times, flows)
    res = eng.run()
    arrived = [(e.time, e.flow) for e in res.events if e.kind == "arrive"]
    assert arrived == list(zip(times.tolist(), flows.tolist()))
    # both packets of the straddling instant are queued before its frame starts
    at_edge = [e.kind for e in res.events if e.time == times[chunk]]
    assert at_edge == ["arrive", "arrive", "frame_start"]


def chunked_arrivals(eng):
    """An engine's arrival times and flows from the chunk oracle, shaped and
    merged as the engine does, up to the horizon."""
    seed, rates, bucket, bits, horizon = eng.trace_args[:5]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        per_flow = [m.engine._shape(oracles.poisson_times_chunked(seed, k, rate, horizon),
                                    bucket, bits)
                    for k, rate in enumerate(np.asarray(rates))]
    times = np.concatenate(per_flow)
    flows = np.repeat(np.arange(eng.cfg.K), [len(p) for p in per_flow])
    order = np.lexsort((flows, times))
    admitted = times[order] <= horizon
    return times[order][admitted], flows[order][admitted]


class TestArrivalTrace:
    """The sized first draw gives the trace of whole GAP_CHUNK chunks bit for bit."""

    HORIZON = 5000.0
    # expected arrivals per flow, from ~0 to past the first draw's cap and
    # past one chunk
    EXPECTED = (0.0, 1e-3, 0.4, 3.0, 20.0, 150.0, 1000.0, 1700.0, 2100.0, 9000.0)

    def engine(self, expected, bucket=None):
        cfg = compact(K=len(expected), M=2, seed=17)
        rates = [n * cfg.L / (cfg.T_sym * self.HORIZON) for n in expected]
        return m.Engine(cfg, m.TrafficModel(rate_bps=tuple(rates), bucket=bucket),
                        "mpgps", self.HORIZON)

    def chunked(self, eng):
        """Every flow's trace from the chunk oracle, shaped and merged as the engine does."""
        times, flows = chunked_arrivals(eng)
        return times.tolist(), flows.tolist()

    @staticmethod
    def drawn(eng):
        """The engine's arrival trace, drawn afresh."""
        m.engine.arrival_trace.cache_clear()
        trace = m.engine.arrival_trace(*eng.trace_args)
        return trace.times, trace.flows

    @pytest.mark.parametrize("margin", [None, 0], ids=["sized", "no-margin"])
    def test_trace_equals_whole_chunks(self, monkeypatch, margin):
        if margin is not None:
            # the first draw holds about the expected count, so about half
            # the flows fall back to drawing whole chunks
            monkeypatch.setattr(m.engine, "ARRIVAL_MARGIN", margin)
        eng = self.engine(self.EXPECTED)
        want = self.chunked(eng)
        reseeds = []
        real_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: reseeds.append(seed[2]) or real_rng(seed))
        times, flows = self.drawn(eng)
        assert (times.tolist(), flows.tolist()) == want
        fell_back = {k for k in reseeds if reseeds.count(k) == 2}
        beyond_cap = {k for k, n in enumerate(self.EXPECTED) if n > m.engine.FIRST_GAP_CAP}
        if margin is None:
            assert fell_back == beyond_cap
        else:
            assert fell_back - beyond_cap
        counts = np.bincount(flows, minlength=len(self.EXPECTED))
        assert counts[0] == 0 and counts[-1] > m.engine.GAP_CHUNK

    def test_token_bucket_shapes_the_same_trace(self):
        eng = self.engine((3.0, 150.0, 2100.0), bucket=(2048.0, 40000.0))
        times, flows = self.drawn(eng)
        assert (times.tolist(), flows.tolist()) == self.chunked(eng)

    def test_rate_near_the_float_range(self):
        # the mean gap overflows to inf, past any horizon
        eng = self.engine((1e-305, 20.0))
        rate = float(eng.rates_bps[0])
        assert rate > 0 and eng.cfg.L / (rate * eng.cfg.T_sym) > np.finfo(float).max
        times, flows = self.drawn(eng)
        assert (times.tolist(), flows.tolist()) == self.chunked(eng)
        assert set(flows.tolist()) == {1}


class TestSharedTrace:
    """A Poisson run's stamped arrival trace depends on its arrival inputs
    alone, and the runs that share those share one trace object."""

    HORIZON = 5_000.0
    MODES = ("pgps", "mpgps", "ampgps", "ompgps")
    CASES = {
        "bucket": (compact(M=2, U=3, M_max=3, seed=21),
                   m.TrafficModel(rate_bps=6000.0, bucket=(256.0, 7000.0)), HORIZON),
        "zero-rate flow": (compact(M=2, U=3, M_max=3, seed=22),
                           m.TrafficModel(rate_bps=(6000.0, 0.0, 3000.0)), HORIZON),
        "no arrival": (compact(M=2, U=3, M_max=3, seed=23), m.TrafficModel(rate_bps=6000.0), 1.0),
        "unequal weights": (compact(M=2, U=3, M_max=3, weights=(0.5, 1.0, 2.0), seed=24),
                            m.TrafficModel(rate_bps=6000.0), HORIZON),
    }

    @pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
    @pytest.mark.parametrize("case", CASES)
    def test_trace_equals_the_chunked_draw_and_the_fluid_oracle(self, case, verify):
        cfg, traffic, horizon = self.CASES[case]
        eng = m.Engine(cfg, traffic, "mpgps", horizon, verify=verify)
        eng.run()
        got = eng.arrivals
        times, flows = chunked_arrivals(eng)
        stamps, gps = oracles.gps_simulate(zip(times.tolist(), flows.tolist()), cfg.weights,
                                           cfg.bits_per_symbol, cfg.L)
        assert got.times.tolist() == times.tolist()
        assert got.flows.tolist() == flows.tolist()
        assert got.stamps.tolist() == stamps
        # the run admits the whole trace; the bucket releases one packet past the horizon
        assert got.times.size == eng.n_arrivals
        if verify:
            assert (got.gps.weights, got.gps.rate) == (gps.weights, gps.rate)
            for name in ("departures", "flows", "seg_t", "seg_mask", "seg_phi"):
                assert getattr(got.gps, name).tolist() == getattr(gps, name).tolist(), name
        else:
            assert got.gps is None
        if case == "no arrival":
            assert times.size == 0
        elif case == "zero-rate flow":
            assert times.size > 0 and 1 not in flows.tolist()

    @pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
    @pytest.mark.parametrize("case", CASES)
    def test_modes_run_alike_on_a_cached_and_a_fresh_trace(self, case, verify):
        cfg, traffic, horizon = self.CASES[case]

        def run(mode):
            return repr(m.Engine(cfg, traffic, mode, horizon, verify=verify).run())

        m.engine.arrival_trace.cache_clear()
        back_to_back = [run(mode) for mode in self.MODES]
        info = m.engine.arrival_trace.cache_info()
        assert (info.hits, info.misses) == (len(self.MODES) - 1, 1)
        fresh = []
        for mode in self.MODES:
            m.engine.arrival_trace.cache_clear()
            fresh.append(run(mode))
        assert back_to_back == fresh

    def engine(self, mode="mpgps", horizon=HORIZON, verify=False, traffic=None, **system):
        cfg = replace(compact(M=2, U=3, M_max=3, seed=31), **system)
        return m.Engine(cfg, traffic or m.TrafficModel(rate_bps=6000.0), mode, horizon,
                        verify=verify)

    def test_runs_that_differ_off_the_arrivals_share_one_trace(self):
        base = self.engine()
        base.run()
        for mode, change in [("pgps", {}), ("ampgps", {}), ("ompgps", {}), ("mpgps", {"M": 3}),
                             ("ompgps", {"U": 4}), ("ampgps", {"M_max": 2}),
                             ("mpgps", {"power_budget": 1e-9}), ("mpgps", {"deadline": 0.01}),
                             ("mpgps", {"target_ber": 1e-3})]:
            eng = self.engine(mode, **change)
            eng.run()
            assert eng.arrivals is base.arrivals, (mode, change)

    @pytest.mark.parametrize("change", [
        {"seed": 32}, {"traffic": m.TrafficModel(rate_bps=(6000.0, 6000.5, 6000.0))},
        {"traffic": m.TrafficModel(rate_bps=6000.0, bucket=(256.0, 7000.0))},
        {"horizon": 5001.0}, {"L": 128}, {"T_sym": 100e-6}, {"N": 16}, {"r": 1},
        {"weights": (1.0, 2.0, 1.0)}, {"verify": True},
    ], ids=["seed", "one rate", "bucket", "horizon", "L", "T_sym", "N", "r", "weights",
            "verify"])
    def test_a_change_to_the_arrivals_builds_a_new_trace(self, change):
        base = self.engine()
        base.run()
        eng = self.engine(**change)
        eng.run()
        assert eng.arrivals is not base.arrivals

    def test_shared_arrays_are_read_only(self):
        eng = self.engine(verify=True)
        eng.run()
        trace = eng.arrivals
        arrays = [trace.times, trace.flows, trace.stamps] + [
            getattr(trace.gps, name) for name in ("departures", "flows", "seg_t", "seg_mask",
                                                  "seg_phi")]
        for a in arrays:
            assert a.size
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
        with pytest.raises(AttributeError):
            trace.gps.seg_t = None


class TestDeadlines:
    def test_expired_heads_are_shed(self):
        cfg = compact(K=3, M=1, deadline=0.0008, seed=9)   # 4 symbols
        res = m.run(cfg, m.TrafficModel(rate_bps=24000.0), "mpgps", 30_000.0,
                    error_free=True, collect_events=True)
        drops = by_kind(res.events, "drop")
        assert drops, "overloaded run should shed packets"
        arrival_of = {(e.flow, e.seq): e.time for e in by_kind(res.events, "arrive")}
        for e in drops:
            assert e.time - arrival_of[(e.flow, e.seq)] >= 4.0 - 1e-9
        assert res.metrics.loss_rate > 0.0

    def test_loss_rate_matches_event_counts(self):
        cfg = compact(K=3, M=1, deadline=0.0008, seed=9)
        res = m.run(cfg, m.TrafficModel(rate_bps=24000.0), "mpgps", 30_000.0,
                    error_free=True, collect_events=True,
                    warmup_frac=0.0)
        n_drop = len(by_kind(res.events, "drop"))
        n_dlv = len(by_kind(res.events, "deliver"))
        assert res.metrics.loss_rate == pytest.approx(n_drop / (n_drop + n_dlv))


class TestRetransmission:
    def run_lossy(self):
        # a loose BER target makes packet failures routine
        cfg = compact(K=2, M=1, target_ber=1e-3, deadline=math.inf, seed=13)
        return m.run(cfg, m.TrafficModel(rate_bps=4000.0), "mpgps", 40_000.0,
                     collect_events=True)

    def test_failed_packets_retry_and_deliver(self):
        res = self.run_lossy()
        fails = by_kind(res.events, "fail")
        assert fails, "expected failures at a 1e-3 bit error target"
        delivered = {(e.flow, e.seq): e.time for e in by_kind(res.events, "deliver")}
        retried = [e for e in fails if (e.flow, e.seq) in delivered]
        assert retried
        for e in retried:
            assert delivered[(e.flow, e.seq)] > e.time

    def test_single_server_delivers_in_flow_order(self):
        # head-of-line requeue means no later arrival of a flow ever
        # overtakes an earlier one through a single server
        res = self.run_lossy()
        last = {}
        for e in by_kind(res.events, "deliver"):
            if e.flow in last:
                assert e.seq > last[e.flow]
            last[e.flow] = e.seq


class TestSaturatedMode:
    def test_runs_exactly_max_frames(self):
        cfg = compact(K=2, M=2, U=2, M_max=2)
        res = m.run(cfg, m.TrafficModel(infinite_backlog=True), "mpgps", 1e9,
                    max_frames=30, error_free=True)
        assert len(res.frames) == 30
        assert all(f.m_sel == 2 for f in res.frames)
        for prev, nxt in zip(res.frames, res.frames[1:]):
            assert nxt.start == prev.depart      # never idles

    def test_throughput_ignores_the_horizon(self):
        # a saturated run stops at its frame cap, whatever horizon it is given
        cfg = compact(K=3, N=8, L=64, M=2)
        tput = [m.run(cfg, m.TrafficModel(infinite_backlog=True), "mpgps", h,
                      max_frames=40).metrics.throughput for h in (1.0, 50.0, 1e9)]
        assert tput[0] > 0.0
        assert tput == [tput[0]] * 3

    def test_requires_max_frames(self):
        with pytest.raises(ValueError):
            m.run(compact(), m.TrafficModel(infinite_backlog=True), "mpgps",
                  1e9)


class TestPowerBudget:
    def test_cap_scales_frames_down(self):
        cfg = compact(K=3, M=2, seed=8)
        free = m.run(cfg, m.TrafficModel(rate_bps=6000.0), "mpgps", 15_000.0,
                     error_free=True)
        powers = [f.mean_power for f in free.frames if f.mean_power]
        cap = float(np.median(powers)) / 2
        capped = m.run(replace(cfg, power_budget=cap),
                       m.TrafficModel(rate_bps=6000.0), "mpgps", 15_000.0,
                       error_free=True)
        assert any(f.scale < 1.0 for f in capped.frames)
        for f in capped.frames:
            assert f.scale <= 1.0
            if f.mean_power is not None:
                assert f.mean_power * f.scale <= cap * (1 + 1e-9)

    def test_scaled_energy_bookkeeping(self):
        cfg = compact(K=3, M=2, seed=8, power_budget=1e-12)
        res = m.run(cfg, m.TrafficModel(rate_bps=6000.0), "mpgps", 10_000.0,
                    error_free=True)
        for f in res.frames:
            expect = f.per_bit_power * f.scale * cfg.L * f.m_sel * cfg.T_sym
            assert f.energy == pytest.approx(expect)


class TestErrorDraws:
    """A frame draws one uniform per member against one error rate per power
    scale; both must reproduce the per-packet draws exactly."""

    def run_capped(self):
        # a loose BER target makes failures routine; the budget scales
        # roughly half of the frames below their requested power
        cfg = compact(K=3, M=2, seed=8, target_ber=1e-3)
        free = m.run(cfg, m.TrafficModel(rate_bps=6000.0), "mpgps", 15_000.0,
                     error_free=True)
        cap = float(np.median([f.mean_power for f in free.frames]))
        return m.run(replace(cfg, power_budget=cap), m.TrafficModel(rate_bps=6000.0),
                     "mpgps", 15_000.0, collect_events=True)

    def test_outcomes_equal_a_per_packet_reference(self):
        res = self.run_capped()
        cfg = res.cfg
        gamma = m.link_budget(cfg).gamma
        outcomes = {}
        for e in res.events:
            if e.kind in ("deliver", "fail"):
                outcomes.setdefault(e.frame, []).append(e)
        assert any(f.scale < 1.0 for f in res.frames)
        kinds = []
        for f in res.frames:
            assert len(outcomes[f.index]) == f.m_sel
            rng = np.random.default_rng([cfg.seed, 53, f.index])
            for e in outcomes[f.index]:              # frame members in order
                snr = gamma * f.scale
                ok = bool(rng.random() >= m.packet_error_rate(snr, cfg.L, cfg.r))
                kinds.append(e.kind)
                assert e.kind == ("deliver" if ok else "fail")
        assert set(kinds) == {"deliver", "fail"}


class TestVerificationMode:
    def test_report_names_and_pass(self):
        res = m.verify_bounds(compact(M=2, seed=6),
                              m.TrafficModel(rate_bps=6000.0), "mpgps", 20_000.0)
        names = [e.name for e in res.bounds.entries]
        assert names == ["delay_gap", "delay_gap_in_order", "service_gap",
                         "backlog_gap"]
        assert res.bounds.passed
        assert res.bounds.entry("delay_gap").bound == pytest.approx(
            3 * 64 / 16)

    def test_opportunistic_adds_the_lag_audit(self):
        res = m.verify_bounds(compact(M=1, U=3, seed=6),
                              m.TrafficModel(rate_bps=7000.0), "ompgps", 20_000.0)
        names = {e.name for e in res.bounds.entries}
        assert {"aggregate_lag", "shadow_trace_equal"} <= names
        assert res.bounds.passed
        assert res.bounds.entry("aggregate_lag").bound == 2

    def test_verify_disables_deadline(self):
        res = m.verify_bounds(compact(deadline=0.0004, seed=6),
                              m.TrafficModel(rate_bps=7000.0), "mpgps", 20_000.0)
        assert res.metrics.dropped == 0
        assert math.isinf(res.cfg.deadline)

    def test_bound_summary_mentions_every_entry(self):
        res = m.verify_bounds(compact(M=2, seed=6),
                              m.TrafficModel(rate_bps=6000.0), "mpgps", 20_000.0)
        text = res.bounds.summary()
        for e in res.bounds.entries:
            assert e.name in text


class TestWarmup:
    def test_warmup_trims_the_measured_window(self):
        cfg = compact(seed=15)
        traffic = m.TrafficModel(rate_bps=6000.0)
        full = m.run(cfg, traffic, "mpgps", 20_000.0, warmup_frac=0.0)
        trimmed = m.run(cfg, traffic, "mpgps", 20_000.0, warmup_frac=0.4)
        assert trimmed.metrics.arrivals < full.metrics.arrivals
        assert trimmed.metrics.sim_time == pytest.approx(
            0.6 * 20_000.0 * cfg.T_sym)


class TestTokenBucket:
    def test_shaped_gaps_respect_the_token_rate(self):
        cfg = m.SystemConfig(K=1, N=8, L=64, r=2, seed=2)
        res = m.run(cfg, m.TrafficModel(rate_bps=8000.0, bucket=(64.0, 4000.0)),
                    "mpgps", 40_000.0, error_free=True, collect_events=True)
        times = [e.time for e in by_kind(res.events, "arrive")]
        assert len(times) > 3
        # one packet per 64 tokens at 0.8 bits/symbol: 80-symbol spacing
        for a, b in zip(times, times[1:]):
            assert b - a >= 80.0 - 1e-9

    def test_undersized_bucket_rate_warns(self, caplog):
        cfg = m.SystemConfig(K=1, N=8, L=64, r=2, seed=2)
        with caplog.at_level(logging.WARNING, logger="mpgps_sim.engine"):
            m.run(cfg, m.TrafficModel(rate_bps=8000.0, bucket=(64.0, 4000.0)),
                  "mpgps", 5_000.0, error_free=True)
        assert "unstable" in caplog.text

    def test_bucket_must_hold_one_packet(self):
        cfg = m.SystemConfig(K=1, N=8, L=64, r=2, seed=2)
        with pytest.raises(ValueError):
            m.run(cfg, m.TrafficModel(rate_bps=8000.0, bucket=(32.0, 9000.0)),
                  "mpgps", 5_000.0)


class TestInputValidation:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -5000.0, (2000.0, math.nan)])
    def test_rate_must_be_finite_and_nonnegative(self, rate):
        with pytest.raises(ValueError):
            m.TrafficModel(rate_bps=rate)

    def test_non_integral_frame_fails_at_construction(self):
        # one 100-bit packet is 100/128 of a symbol
        cfg = m.SystemConfig(K=3, N=64, L=100, r=2, M=2)
        with pytest.raises(m.NonIntegralFrame):
            m.Engine(cfg, m.TrafficModel(), "mpgps", 1000.0)

    @pytest.mark.parametrize("mode, traffic, ok", [
        ("mpgps", {"infinite_backlog": True}, True),    # always a batch of 2
        ("ompgps", {"infinite_backlog": True}, True),
        ("ampgps", {"infinite_backlog": True}, False),  # can stop at 1
        ("mpgps", {}, False),                           # a lone packet goes alone
    ])
    def test_only_formable_batch_sizes_are_checked(self, mode, traffic, ok):
        # 64-bit packets: a batch of 2 fills one 128-bit symbol, one alone does not
        cfg = m.SystemConfig(K=3, N=64, L=64, r=2, M=2, M_max=2)
        args = (cfg, m.TrafficModel(**traffic), mode, 1000.0)
        if ok:
            assert m.Engine(*args, max_frames=5).run().metrics.frames == 5
        else:
            with pytest.raises(m.NonIntegralFrame):
                m.Engine(*args, max_frames=5)


class TestFailsAtConstruction:
    """Inputs the run would trip over are refused before ``run()``."""

    @pytest.mark.parametrize("traffic, kw", [
        ({"infinite_backlog": True}, {}),                       # no frame cap
        ({"rate_bps": 6000.0}, {"max_frames": 10}),             # cap ignored by Poisson
        ({"rate_bps": 6000.0, "bucket": (32.0, 9000.0)}, {}),   # burst below L=64
        ({"rate_bps": 6000.0, "bucket": (128.0, 0.0)}, {}),     # no token rate
        ({"rate_bps": 6000.0, "bucket": (128.0, -1.0)}, {}),
        ({"rate_bps": 100.0, "bucket": (1e9, 0.0)}, {}),        # tokens never run short
        ({"infinite_backlog": True, "bucket": (32.0, 9000.0)}, {"max_frames": 10}),
        ({"rate_bps": 6000.0}, {"horizon_symbols": 0.0}),       # nothing to draw
        ({"rate_bps": 6000.0}, {"horizon_symbols": -5.0}),
        ({"rate_bps": 6000.0}, {"horizon_symbols": math.nan}),
        ({"rate_bps": 6000.0}, {"horizon_symbols": math.inf}),  # would draw forever
        ({"rate_bps": 6000.0}, {"warmup_frac": 1.0}),           # nothing measured
        ({"rate_bps": 6000.0}, {"warmup_frac": -0.5}),
        ({"rate_bps": 6000.0}, {"warmup_frac": math.nan}),
        ({"infinite_backlog": True}, {"max_frames": 10, "warmup_frac": 1.0}),
        ({"infinite_backlog": True}, {"max_frames": 0}),        # empty run
        ({"infinite_backlog": True}, {"max_frames": -3}),
        ({"infinite_backlog": True}, {"max_frames": 2.5}),
        ({"rate_bps": 6000.0}, {"fairness_window_s": 0.0}),  # fails after the run
        ({"rate_bps": 6000.0}, {"fairness_window_s": -0.1}),
        ({"rate_bps": 6000.0}, {"fairness_window_s": math.nan}),
        ({"rate_bps": (6000.0, 6000.0)}, {}),                   # K=3 flows
        ({"rate_bps": 1e12}, {"horizon_symbols": 1e6}),         # ~9e12 arrivals
    ])
    def test_rejected_by_the_constructor(self, traffic, kw):
        with pytest.raises(ValueError):
            m.Engine(compact(), m.TrafficModel(**traffic), "mpgps",
                     **{"horizon_symbols": 1000.0, **kw})

    def test_expected_arrivals_are_capped(self):
        cfg = compact()
        per_flow_bps = m.engine.MAX_EXPECTED_ARRIVALS / 1e6 * cfg.L / cfg.T_sym / cfg.K
        m.Engine(cfg, m.TrafficModel(rate_bps=0.99 * per_flow_bps), "mpgps", 1e6)
        with pytest.raises(ValueError, match="arrivals"):
            m.Engine(cfg, m.TrafficModel(rate_bps=1.01 * per_flow_bps), "mpgps", 1e6)
        # saturated runs draw no arrival trace
        m.Engine(cfg, m.TrafficModel(rate_bps=1e12, infinite_backlog=True), "mpgps",
                 1e6, max_frames=5)

    def test_link_budget_needs_the_fading_margin(self):
        # the weakest user's gamma * noise_power / path gain, over the margin,
        # must be finite; a verification mpgps run draws no channel at all
        cfg = compact()
        weakest = m.ChannelProcess(cfg).path_gains.min()
        gamma = m.snr_target(cfg.target_ber, cfg.r)

        def noise_density(worst):
            return worst * m.engine.FADE_MARGIN * weakest / (gamma * cfg.B)

        traffic = m.TrafficModel(rate_bps=6000.0)
        m.Engine(replace(cfg, N0=noise_density(1e306)), traffic, "mpgps", 1000.0)
        too_noisy = replace(cfg, N0=noise_density(1e306) * 1e3)
        with pytest.raises(ValueError, match="fading margin"):
            m.Engine(too_noisy, traffic, "mpgps", 1000.0)
        m.Engine(too_noisy, traffic, "mpgps", 1000.0, verify=True)
        with pytest.raises(ValueError, match="fading margin"):
            m.Engine(too_noisy, traffic, "ompgps", 1000.0, verify=True)


class TestPerPacketRecords:
    def engine(self, verify):
        return m.Engine(compact(M=2, seed=6), m.TrafficModel(rate_bps=6000.0),
                        "mpgps", 5_000.0, verify=verify)

    def test_ordinary_runs_keep_no_per_packet_departures(self):
        eng = self.engine(verify=False)
        eng.run()
        assert eng.n_arrivals > 0
        assert eng.gps is None and eng.arrivals.gps is None

    def test_verify_runs_keep_one_entry_per_arrival(self):
        eng = self.engine(verify=True)
        rep = eng.run().bounds
        n = eng.n_arrivals
        assert n > 0
        fluid = eng.arrivals.gps
        assert eng.fluid_trace() is fluid
        assert len(fluid.departures) == len(fluid.flows) == n
        # the audit derives one departure per delivered packet from the frames
        assert rep.entry("delay_gap").note == f"{eng.n_delivered} packets"


def test_metric_ranges_on_a_routine_run():
    res = m.run(compact(K=3, M=2, seed=42), m.TrafficModel(rate_bps=6000.0),
                "mpgps", 30_000.0)
    met = res.metrics
    assert 0.0 <= met.loss_rate <= 1.0
    assert met.avg_delay > 0.0
    assert met.throughput > 0.0
    assert met.avg_power > 0.0
    assert met.per_bit_power > 0.0
    assert math.isfinite(met.eb_n0_db)
    assert met.fairness != met.fairness or met.fairness >= 0.0


def test_per_bit_power_absent_without_collection():
    # verification runs allocate no transmit power
    res = m.verify_bounds(compact(seed=42), m.TrafficModel(rate_bps=6000.0),
                          "mpgps", 10_000.0)
    assert math.isnan(res.metrics.per_bit_power)
    assert math.isnan(res.metrics.avg_power)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        m.run(compact(), m.TrafficModel(), "round-robin", 1000.0)
