"""Engine invariants on small random systems, all four disciplines.

Each example builds a system of at most four flows with 64-bit packets over
8 subcarriers (4 symbols a packet), runs a short horizon under Poisson or
saturated traffic, at a bit error rate that fails almost no packet or about
half of them, and checks the invariants the event loop must keep:
packet conservation, per-flow FIFO service, monotone stamps within a fluid
busy period, the analytic bounds in verification mode (and the bound report
against a per-packet loop over the event log), the busy intervals the fairness
gauge reads, that ``pgps`` is ``mpgps`` at one server, and that every
stamp-ordered decision from the kept head heap equals a k-way merge of the
queues made afresh (``scheduling._smallest_stamps``).
"""
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mpgps_sim as m
import oracles

MODES = ("pgps", "mpgps", "ampgps", "ompgps")


@st.composite
def systems(draw):
    k = draw(st.integers(1, 4))
    mm = draw(st.integers(1, 3))
    cfg = m.SystemConfig(K=k, N=8, L=64, r=2, M=mm,
                         M_max=draw(st.integers(1, 3)),
                         U=mm + draw(st.integers(0, 2)),
                         weights=draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                               min_size=k, max_size=k)),
                         deadline=draw(st.sampled_from([0.01, 0.04])),
                         # 1e-2 fails about half the packets, which rejoin their queue heads
                         target_ber=draw(st.sampled_from([1e-6, 1e-2])),
                         seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        traffic = m.TrafficModel(infinite_backlog=True)
        run_kw = {"max_frames": draw(st.integers(1, 25))}
    else:
        traffic = m.TrafficModel(rate_bps=draw(st.sampled_from([2000.0, 5000.0, 9000.0])))
        run_kw = {}
    return cfg, traffic, draw(st.sampled_from(MODES)), run_kw


class Recording(m.Engine):
    """Keeps every admitted packet, in arrival order, with its fluid busy period.

    The run stamps its arrivals afresh, so every packet's stamp comes from one
    ``GpsReference.on_arrival`` call, in arrival order: a Poisson run makes them
    all before its first admission, a saturated run as it refills. The class
    hooks count the restarts and note the busy period of each call.
    """

    def run(self):
        self.admitted, self.periods, restarts = [], [], [0]
        restart, on_arrival = m.GpsReference._restart, m.GpsReference.on_arrival

        def counted_restart(gps, t):
            restarts[0] += 1
            restart(gps, t)

        def noted_on_arrival(gps, t, flow):
            stamp = on_arrival(gps, t, flow)
            self.periods.append(restarts[0])
            return stamp

        m.engine.arrival_trace.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(m.GpsReference, "_restart", counted_restart)
            mp.setattr(m.GpsReference, "on_arrival", noted_on_arrival)
            return super().run()

    def _admit(self, t, flow, stamp):
        pkt = super()._admit(t, flow, stamp)
        self.admitted.append((self.periods[len(self.admitted)], pkt))
        return pkt


def run_recorded(cfg, traffic, mode, run_kw, **kw):
    eng = Recording(cfg, traffic, mode, 1500.0, collect_events=True, **run_kw, **kw)
    return eng, eng.run()


def frame_members(events):
    """Packets sent per frame, by flow, from the deliver/fail rows."""
    members = {}
    for e in events:
        if e.kind in ("deliver", "fail"):
            members.setdefault(e.frame, {}).setdefault(e.flow, []).append(e.seq)
    return members


@settings(max_examples=60, deadline=None)
@given(systems(), st.booleans())
def test_packets_are_conserved(system, error_free):
    cfg, traffic, mode, run_kw = system
    eng, res = run_recorded(cfg, traffic, mode, run_kw, error_free=error_free)
    in_flight = len(eng.inflight.members) if eng.inflight else 0
    queued = sum(len(q) for q in eng.queues)
    assert eng.n_arrivals == eng.n_delivered + eng.n_dropped + queued + in_flight
    assert eng.n_arrivals == len(eng.admitted)
    met = res.metrics
    assert met.arrivals == met.delivered + met.dropped + met.residual


@settings(max_examples=60, deadline=None)
@given(systems(), st.booleans())
def test_each_flow_is_served_head_first(system, error_free):
    cfg, traffic, mode, run_kw = system
    _, res = run_recorded(cfg, traffic, mode, run_kw, error_free=error_free)
    members = frame_members(res.events)
    waiting = [[] for _ in range(cfg.K)]        # seqs queued or in flight, sorted
    delivered = [[] for _ in range(cfg.K)]
    for e in res.events:
        if e.kind == "arrive":
            waiting[e.flow].append(e.seq)
        elif e.kind == "frame_start":
            # a frame takes the head of every flow it serves
            for flow, seqs in members.get(e.frame, {}).items():
                assert sorted(seqs) == waiting[flow][:len(seqs)]
        elif e.kind in ("deliver", "drop"):
            waiting[e.flow].remove(e.seq)
            if e.kind == "deliver":
                delivered[e.flow].append(e.seq)
        if e.kind == "drop":
            assert e.seq == min(waiting[e.flow] + [e.seq])
    if error_free:
        for seqs in delivered:
            assert seqs == sorted(seqs)


@settings(max_examples=60, deadline=None)
@given(systems())
def test_stamps_increase_within_a_flow(system):
    cfg, traffic, mode, run_kw = system
    eng, _ = run_recorded(cfg, traffic, mode, run_kw)
    last = {}
    for period, pkt in eng.admitted:
        length = cfg.L / cfg.weights[pkt.flow]
        # a stamp is its start, at least 0, plus one packet at the flow's weight
        assert pkt.vfinish >= length
        # stamps restart with every fluid busy period
        prev = last.get((period, pkt.flow))
        if prev is not None:
            assert pkt.vfinish >= prev.vfinish + length
        last[(period, pkt.flow)] = pkt


@settings(max_examples=60, deadline=None)
@given(systems())
def test_verification_passes_every_applicable_bound(system):
    cfg, traffic, mode, run_kw = system
    res = m.Engine(cfg, traffic, mode, 1500.0, verify=True, **run_kw).run()
    assert res.bounds.passed, res.bounds.summary()


@settings(max_examples=60, deadline=None)
@given(systems())
# the worst service gap falls on a fluid breakpoint inside a frame
@example((m.SystemConfig(K=2, N=8, L=64, r=2, M=3, U=3, seed=39),
          m.TrafficModel(rate_bps=5000.0), "mpgps", {}))
def test_bound_report_matches_a_per_packet_loop(system):
    cfg, traffic, mode, run_kw = system
    eng = m.Engine(cfg, traffic, mode, 1500.0, verify=True, collect_events=True, **run_kw)
    res = eng.run()
    rep = res.bounds
    eps = m.engine.BOUND_EPS
    # each packet's real departure and frame, by arrival index, from the event
    # log and the frame in flight at the horizon
    arrivals = [(e.flow, e.seq) for e in res.events if e.kind == "arrive"]
    index = {key: i for i, key in enumerate(arrivals)}
    real, sent_in = [math.nan] * len(arrivals), [-1] * len(arrivals)
    for e in res.events:
        if e.kind == "deliver":
            real[index[e.flow, e.seq]] = e.time
            sent_in[index[e.flow, e.seq]] = e.frame
    if eng.inflight:
        for pkt in eng.inflight.members:
            sent_in[index[pkt.flow, pkt.seq]] = eng.inflight.record.index
    trace = eng.fluid_trace()
    fluid, fluid_flows = trace.departures.tolist(), trace.flows.tolist()
    gaps = [r - d for r, d in zip(real, fluid) if not math.isnan(r)]
    assert rep.entry("delay_gap").observed == max(gaps, default=0.0)
    assert rep.entry("delay_gap").note == f"{len(gaps)} packets"

    by_frame = {}
    for i, frame in enumerate(sent_in):
        if frame >= 0:
            by_frame.setdefault(frame, []).append(fluid[i])
    assert sorted(by_frame) == list(range(eng.frames_started))
    in_order, latest = True, -math.inf
    for frame in range(eng.frames_started):
        in_order &= min(by_frame[frame]) >= latest - eps
        latest = max(latest, max(by_frame[frame]))
    assert rep.entry("delay_gap_in_order").note.startswith("selection followed") == in_order

    worst = 0
    for k in range(cfg.K):
        gps_d = sorted(d for d, f in zip(fluid, fluid_flows) if f == k and d <= eng.horizon)
        sent = [r for r, f in zip(real, fluid_flows) if f == k and not math.isnan(r)]
        for i, d in enumerate(gps_d, start=1):
            worst = max(worst, i - sum(r <= d + eps for r in sent))
    assert rep.entry("backlog_gap").observed == worst

    service = rep.entry("service_gap")
    worst, violations = oracles.service_gap(res.events, trace, cfg.L, eng.horizon,
                                            service.bound, eps)
    # the oracle sums in another order: equal up to roundoff on ~1e4-bit totals
    assert service.observed == pytest.approx(worst, rel=0, abs=1e-9)
    assert service.violations == violations


@settings(max_examples=60, deadline=None)
@given(systems(), st.booleans())
# one saturated flow empties at every frame end and refills at the same instant
@example((m.SystemConfig(K=1, N=8, L=64, r=2, M=2, M_max=1, U=2, seed=3),
          m.TrafficModel(infinite_backlog=True), "mpgps", {"max_frames": 6}), True)
def test_busy_intervals_match_a_sweep_of_the_event_log(system, error_free):
    cfg, traffic, mode, run_kw = system
    eng = m.Engine(cfg, traffic, mode, 1500.0, error_free=error_free,
                   collect_events=True, collect_fairness=True, **run_kw)
    res = eng.run()
    steps = [[] for _ in range(cfg.K)]
    for e in res.events:
        if e.kind in ("arrive", "drop", "deliver"):
            steps[e.flow].append((e.time, 1 if e.kind == "arrive" else -1))
    for k, edges in enumerate(eng.busy_edges):
        ends = edges[1::2] + [eng.horizon] * (len(edges) % 2)
        assert list(zip(edges[0::2], ends)) == oracles.busy_intervals(steps[k], eng.horizon)


@settings(max_examples=40, deadline=None)
@given(systems(), st.booleans())
def test_pgps_is_single_server_mpgps(system, error_free):
    cfg, traffic, _, run_kw = system
    cfg = m.SystemConfig(**{**vars(cfg), "M": 1, "M_max": 1, "U": 1})
    a = m.Engine(cfg, traffic, "pgps", 1500.0, error_free=error_free,
                 collect_events=True, **run_kw).run()
    b = m.Engine(cfg, traffic, "mpgps", 1500.0, error_free=error_free,
                 collect_events=True, **run_kw).run()
    assert a.frames == b.frames
    assert a.events == b.events


class ExpiryChecked(m.Engine):
    """Checks at every instant that no queued packet expires before ``next_expiry``;
    failures rejoining their heads must not break it either."""

    def _instant(self, t):
        heads = [q[0].arrival + self.deadline_symbols for q in self.queues if q]
        assert self.next_expiry <= min(heads, default=math.inf)
        super()._instant(t)


@settings(max_examples=80, deadline=None)
@given(systems(), st.sampled_from([None, 30000.0, 60000.0]), st.booleans())
# the packets queued at 0 expire at 16 symbols, exactly at the fifth instant
@example((m.SystemConfig(K=4, N=8, L=64, r=2, M=1, U=4, deadline=0.0032, seed=1),
          m.TrafficModel(infinite_backlog=True), "mpgps", {"max_frames": 12}), None, True)
# failures expire until the lone queue holds less than a batch: it is refilled
@example((m.SystemConfig(K=1, N=8, L=64, r=2, M=3, U=3, weights=(0.5,), target_ber=1e-2,
                         deadline=0.01, seed=192),
          m.TrafficModel(infinite_backlog=True), "mpgps", {"max_frames": 8}), None, False)
def test_expiry_skip_matches_a_scan_at_every_instant(system, rate, error_free):
    cfg, traffic, mode, run_kw = system
    if rate is not None and not traffic.infinite_backlog:
        # past the link's 80 kb/s once a few flows send: heads expire
        traffic = m.TrafficModel(rate_bps=rate)
    kw = dict(error_free=error_free, collect_events=True, collect_fairness=True, **run_kw)
    got = ExpiryChecked(cfg, traffic, mode, 1500.0, **kw).run()
    want = oracles.ScanEveryInstant(cfg, traffic, mode, 1500.0, **kw).run()
    assert got.events == want.events
    assert got.frames == want.frames
    assert repr(got.metrics) == repr(want.metrics)


class MergeChecked(m.Engine):
    """Checks every decision of a stamp-ordered run against the k-way merge
    ``scheduling._smallest_stamps`` on the queues as they stand, and that the
    kept head heap holds exactly the queue heads. ``unsorted`` counts the decisions at
    which some queue holds a packet stamped below one ahead of it, as when a
    queue spans two fluid busy periods."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decisions = self.unsorted = 0

    def _decide(self, t):
        want = m.scheduling._smallest_stamps(self.queues, self.m_eff)
        assert sorted(self.queues.heads) == sorted(q[0] for q in self.queues if q)
        self.unsorted += any(a.vfinish > b.vfinish for q in self.queues
                             for a, b in zip(q, list(q)[1:]))
        decision = super()._decide(t)
        assert len(decision.chosen) == len(want)
        assert all(got is pkt for got, pkt in zip(decision.chosen, want))
        self.decisions += 1
        return decision


@settings(max_examples=60, deadline=None)
@given(systems(), st.sampled_from([None, 20000.0]),
       st.sampled_from([None, (64.0, 10000.0), (256.0, 30000.0)]), st.booleans())
# failures expire until the lone queue holds less than a batch: it is refilled
@example((m.SystemConfig(K=1, N=8, L=64, r=2, M=3, U=3, weights=(0.5,), target_ber=1e-2,
                         deadline=0.01, seed=192),
          m.TrafficModel(infinite_backlog=True), "mpgps", {"max_frames": 8}), None, None, False)
def test_stamp_ordered_decisions_match_a_fresh_merge(system, rate, bucket, verify):
    cfg, traffic, mode, run_kw = system
    assume(mode in ("pgps", "mpgps"))
    if not traffic.infinite_backlog:
        # 20 kb/s a flow loads the 80 kb/s link up to full, so deadlines drop
        traffic = m.TrafficModel(rate_bps=rate or traffic.rate_bps, bucket=bucket)
        run_kw = {"verify": verify}
    eng = MergeChecked(cfg, traffic, mode, 3000.0, collect_events=True, **run_kw)
    res = eng.run()
    assert eng.decisions == res.metrics.frames + (eng.inflight is not None)
    assert isinstance(eng.queues, m.scheduling.HeadQueues)


@pytest.mark.parametrize("servers", [1, 2, 3])
def test_merge_check_meets_queues_spanning_busy_periods(servers):
    # the requeue golden's system: packets fail, deadlines drop, and queues
    # outlive the fluid busy period their head was stamped in
    cfg = m.SystemConfig(K=3, N=8, L=64, r=2, M=servers, seed=6, weights=(1.0, 2.0, 0.5),
                         deadline=0.008, target_ber=1e-3)
    eng = MergeChecked(cfg, m.TrafficModel(rate_bps=(12000.0, 20000.0, 6000.0)), "mpgps",
                       20000.0, collect_events=True)
    res = eng.run()
    kinds = {e.kind for e in res.events}
    assert {"fail", "drop"} <= kinds
    assert eng.unsorted > 0
