"""Discrete-event downlink simulator tying disciplines, channel, and audits together.

Only two event kinds exist: packet arrivals, pre-drawn for the whole run and
read ARRIVAL_CHUNK at a time, and frame completions. A Poisson run's packets
are stamped against the shared virtual clock before the run starts: one
``GpsReference.stamp`` call over the drawn trace stamps them all
(``arrival_trace``). The stamps depend on the arrivals alone, never on the
schedule, so the runs of one sweep replication read one cached trace.
Arriving packets become eligible for service at frame boundaries; when the
servers fall idle and backlog exists, the configured discipline picks the
next batch. While a frame is on air the loop admits, in one pass, every
arrival before the frame ends, each at its own time; frame ends outrank
arrivals at equal times, so an arrival at a frame's end misses the decision
taken there. Deadline-expired packets are shed before every selection (the
scan waits for the earliest deadline at a queue head), and failed packets
rejoin their queue head with stamps intact. A pgps or mpgps run keeps its
queue heads in one heap for the whole run (``scheduling.HeadQueues``): a
packet joining an empty queue is pushed, each selection (``HeadQueues.take``)
pops the m smallest heads off their queues and puts each one's successor in
its place, and a drop scan or a requeued failure rebuilds the heap. Only
ampgps and ompgps decisions (``Engine._decide``) read the channel; they
merge the queue heads afresh. Saturated traffic runs through the same loop
with no arrivals: each selection tops every queue up, stamping the top-up in
one ``GpsReference.stamp`` call, and again if the drop scan leaves less than
a batch queued; the run stops at its frame cap.

Verification mode runs error free with deadlines disabled and audits the run
against the fluid reference (and, for the opportunistic discipline, against
a lockstep stamp-ordered shadow), producing a report of analytic bound
versus worst observation.
"""
from __future__ import annotations

import functools
import itertools
import logging
import math
import numbers
from collections import deque
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import allocation, metrics as metrics_mod, scheduling
from .channel import (ChannelProcess, FrameStreams, LinkBudget, link_budget,
                      packet_error_rate)
from .model import Packet, SystemConfig, frame_length
from .scheduling import (AMPGPS, MPGPS, OMPGPS, PGPS, BoundViolation,
                         LagLedger, ScheduleDecision, select_mpgps)
from .virtual_time import GpsReference, GpsTrace

log = logging.getLogger(__name__)

# slack for float comparisons against analytic bounds, in symbols or bits
BOUND_EPS = 1e-6

# Frames whose channel and power matrix a run that reads the channel while
# it runs (ampgps, ompgps, or a power budget) builds in one pass, ahead of
# its decisions: the look-ahead block (ChannelProcess.block, then
# allocation.frame_powers). Drawing stays per frame (channel.STREAM_CHUNK
# sets how many frames' keys are hashed at once); the FFT, the |H|^2
# scaling and the inversion run once per block. A block holds no frame that
# cannot start: none past a capped run's cap, and none that a Poisson run's
# horizon leaves no room for at one-packet airtime. Blocks of 8 and 16 ran
# equally fast on the power benchmark, and 32 cost more memory for no gain.
# A channel-blind run draws no block: it transforms its scheduled rows when
# it plans (PLAN_STACK).
CHANNEL_BLOCK = 16

# Frames a channel-blind run (pgps or mpgps, unbudgeted, not verify) plans
# in one solve_frames call: no decision reads its channel, so it draws and
# plans its started frames only when this many wait, and the rest when its
# event loop ends. It draws the stack's taps in one pass and transforms and
# inverts only its scheduled rows into the plan workspace
# (allocation.workspace_powers, allocation.row_powers). On the power
# benchmark's config (~122 frames a drop, drops 1-80, best of 3 passes,
# 2-core host), plan stacks of 256 ran ~6 % faster than stacks of 64, and
# one draw of the whole stack held ~2.8 MB more at its peak (ru_maxrss 42.9
# against 40.0 MB) for a speed within the host's noise. 256 is also the
# solver's own stack cap and the workspace's stack size.
PLAN_STACK = allocation.RANK_BLOCK

# Arrivals the run converts to Python floats and ints at a time: it holds one
# chunk of its pre-drawn trace as Python objects and indexes no numpy scalar.
ARRIVAL_CHUNK = 4096

# Exponential gaps a flow's arrival trace is drawn in: the trace is the
# cumulative sum of GAP_CHUNK-gap chunks, each continuing from the last time
# of the one before. A run's first draw is sized from its expected count lam:
# lam + ARRIVAL_MARGIN * (sqrt(lam) + 4) gaps, 8 standard deviations and 32
# gaps past the mean, at most GAP_CHUNK, so it is a prefix of the first chunk.
GAP_CHUNK = 4096
ARRIVAL_MARGIN = 8

# Largest expected arrival count of a Poisson run. The run pre-draws and
# stamps every arrival: 24 B per arrival (time, flow and stamp) before the
# sort's and the stamping's temporaries, so the cap holds that trace near
# 2.4 GB. A CLI run at the README working point with the default horizon
# draws ~1.2e5 arrivals.
MAX_EXPECTED_ARRIVALS = 10 ** 8

# A run that draws a channel is refused unless gamma * noise_power / path gain
# stays finite divided by this margin, for every user: 12 decades for the gain
# floor (allocation.GAIN_FLOOR_REL), 4 for fades below a frame's median gain,
# and 8 for the sums over a frame's slots that plans and rankings take.
FADE_MARGIN = 1e-24


@dataclass
class TrafficModel:
    """Per-flow Poisson sources, optionally shaped by a token bucket."""

    rate_bps: float | tuple[float, ...] = 63000.0
    bucket: tuple[float, float] | None = None    # (burst bits, rate bits/s)
    infinite_backlog: bool = False

    def __post_init__(self):
        r = np.asarray(self.rate_bps, dtype=float)
        if not (np.all(np.isfinite(r)) and np.all(r >= 0)):
            raise ValueError("rate_bps must be finite and nonnegative")

    def rates(self, k: int) -> np.ndarray:
        r = np.asarray(self.rate_bps, dtype=float)
        if r.ndim == 0:
            r = np.full(k, float(r))
        if r.shape != (k,):
            raise ValueError("need one rate per flow")
        return r


@dataclass
class FrameRecord:
    """One frame as scheduled and planned.

    In an ampgps or ompgps run the plan fields (per_bit_power, mean_power,
    energy) come from the ranked power per bit of the frame's composition,
    the optimum of its plan, at frame start. A pgps or mpgps frame's are
    filled when its plan is solved (``Engine._plan``): at frame start in a
    budgeted run; in a channel-blind run (no budget) with the rest of its
    ``PLAN_STACK`` frames, as the last of them starts, or before
    ``Engine.run`` returns for frames still waiting when the event loop ends.
    A verify run plans no frame, so mean_power stays None and energy 0;
    per_bit_power stays None in a pgps or mpgps run, and in an ampgps or
    ompgps run holds the ranked value.
    """

    index: int
    start: float
    depart: float
    g: tuple[int, ...]
    m_sel: int
    per_bit_power: float | None
    mean_power: float | None
    scale: float
    energy: float                # J actually spent on air


@dataclass
class SimEvent:
    """One event-log row; times in symbols until serialised."""

    time: float
    kind: str                    # arrive | deliver | fail | drop | frame_start | frame_end
    flow: int
    seq: int
    frame: int


@dataclass
class BoundCheck:
    name: str
    bound: float
    observed: float
    violations: int
    applicable: bool
    note: str = ""

    @property
    def ok(self) -> bool:
        return (not self.applicable) or self.violations == 0


@dataclass
class BoundReport:
    entries: list[BoundCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def entry(self, name: str) -> BoundCheck:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            state = "ok" if e.ok else "VIOLATED"
            scope = "" if e.applicable else " (not applicable)"
            lines.append(f"{e.name}: observed {e.observed:.6g} vs bound {e.bound:.6g} "
                         f"[{state}]{scope} {e.note}".rstrip())
        return "\n".join(lines)


@dataclass
class RunResult:
    cfg: SystemConfig
    mode: str
    metrics: metrics_mod.Metrics
    frames: list[FrameRecord]
    bounds: BoundReport | None = None
    events: list[SimEvent] | None = None


class _InFlight(NamedTuple):
    record: FrameRecord
    members: list[Packet]


class ArrivalTrace(NamedTuple):
    """A Poisson run's arrivals in time order, as read-only arrays: times in
    symbols, flows, and each packet's virtual finishing stamp, plus the
    drained fluid reference when it was recorded."""

    times: np.ndarray
    flows: np.ndarray
    stamps: np.ndarray
    gps: GpsTrace | None


def _poisson_times(streams: FrameStreams, flow: int, rate_sym: float,
                   horizon: float) -> np.ndarray:
    """Flow's Poisson arrival times before the horizon, in symbols, drawn
    from its stream of ``streams`` (the run's arrival streams, tag 23).

    The first draw is sized from the expected count (see ARRIVAL_MARGIN).
    When it crosses the horizon, its times are the first chunk's prefix
    bit for bit: the generator draws the same leading gaps, the cumulative
    sum runs in order, and the chunk adds them to 0.0. Otherwise the
    stream is reseeded and drawn in GAP_CHUNK chunks from its start.
    """
    if rate_sym <= 0:
        return np.empty(0)
    rng = streams.at(flow)
    lam = rate_sym * horizon
    size = min(lam + ARRIVAL_MARGIN * (math.sqrt(lam) + 4), GAP_CHUNK)
    cum = np.cumsum(rng.exponential(1.0 / rate_sym, math.ceil(size)))
    if cum[-1] >= horizon:
        return cum[cum < horizon]
    rng = streams.at(flow)
    out = []
    t = 0.0
    while t < horizon:
        cum = t + np.cumsum(rng.exponential(1.0 / rate_sym, GAP_CHUNK))
        out.append(cum)
        t = cum[-1]
    times = np.concatenate(out)
    return times[times < horizon]


def _shape(times: np.ndarray, bucket: tuple[float, float] | None, bits: int) -> np.ndarray:
    """Release times of ``bits``-bit packets through a (burst bits, bits per
    symbol) token bucket, full at the first arrival."""
    if bucket is None or times.size == 0:
        return times
    sigma, rho = bucket
    tokens = sigma
    t_prev = 0.0
    out = np.empty_like(times)
    for i, a in enumerate(times):
        release = a if i == 0 else max(a, out[i - 1])
        tokens = min(sigma, tokens + rho * (release - t_prev))
        if tokens < bits:
            release += (bits - tokens) / rho
            tokens = float(bits)
        tokens -= bits
        t_prev = release
        out[i] = release
    return out


@functools.lru_cache(maxsize=1)
def arrival_trace(seed: int, rates: tuple[float, ...], bucket: tuple[float, float] | None,
                  bits: int, horizon: float, weights: tuple[float, ...], bits_per_symbol: int,
                  record: bool) -> ArrivalTrace:
    """The stamped arrival trace of a Poisson run, from its inputs alone.

    ``rates`` are packets per symbol per flow and ``bucket`` is (burst bits,
    bits per symbol). Neither the discipline nor the channel enters, so the
    runs of one sweep replication (same seed and traffic) share the trace:
    the last one built stays cached until another is asked for, or until
    ``arrival_trace.cache_clear()``. One ``GpsReference.stamp`` call stamps
    the whole trace; with ``record`` on, the reference is then drained and
    its ``GpsTrace`` kept for the bound audit.
    """
    streams = FrameStreams(seed, 23)      # this call's own: no Generator is shared
    # rates near the float range overflow gaps and release times to inf,
    # past any horizon as the true values are; later releases stay inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        per_flow = [_shape(_poisson_times(streams, k, rate_sym, horizon), bucket, bits)
                    for k, rate_sym in enumerate(np.asarray(rates, dtype=float))]
    times = np.concatenate(per_flow)
    flows = np.repeat(np.arange(len(rates), dtype=np.int64), [len(p) for p in per_flow])
    order = np.lexsort((flows, times))
    times, flows = times[order], flows[order]
    # a token bucket can release packets past the horizon; the run admits none of them
    end = np.searchsorted(times, horizon, side="right")
    times, flows = times[:end], flows[:end]
    ref = GpsReference(weights, bits_per_symbol, bits, record=record)
    stamps = np.array(ref.stamp(times.tolist(), flows.tolist()), dtype=float)
    for a in (times, flows, stamps):
        a.flags.writeable = False
    if not record:
        return ArrivalTrace(times, flows, stamps, None)
    ref.drain()
    return ArrivalTrace(times, flows, stamps, ref.trace())


class Engine:
    """One simulation run; build, call run(), read the result."""

    def __init__(self, cfg: SystemConfig, traffic: TrafficModel | None = None,
                 mode: str = MPGPS, horizon_symbols: float = 100_000.0, *,
                 warmup_frac: float = 0.05, error_free: bool = False,
                 verify: bool = False, max_frames: int | None = None,
                 collect_events: bool = False, collect_fairness: bool = False,
                 fairness_window_s: float = 0.100):
        if mode not in scheduling.MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.traffic = traffic or TrafficModel()
        self.mode = mode
        self.verify = verify
        self.error_free = error_free or verify
        cfg = replace(cfg, deadline=math.inf) if verify else cfg
        self.cfg = cfg
        saturated = self.traffic.infinite_backlog
        if not (saturated or 0 < horizon_symbols < math.inf):
            raise ValueError("horizon_symbols must be positive and finite")
        if not 0 <= warmup_frac < 1:
            raise ValueError("warmup_frac must lie in [0, 1)")
        if not fairness_window_s > 0:
            raise ValueError("fairness_window_s must be positive")
        self.rates_bps = self.traffic.rates(cfg.K)
        expected = 0 if saturated else self.rates_bps.sum() * cfg.T_sym / cfg.L * horizon_symbols
        if expected > MAX_EXPECTED_ARRIVALS:
            raise ValueError(f"the run expects {expected:.3g} arrivals, over the cap of "
                             f"{MAX_EXPECTED_ARRIVALS:.0e}; lower the rate or the horizon")
        self.expected_arrivals = expected
        if max_frames is not None and not (
                isinstance(max_frames, numbers.Integral) and max_frames > 0):
            raise ValueError("max_frames must be a positive integer")
        # a saturated run stops at its frame cap; the horizon becomes its
        # last departure when the run ends
        self.horizon = math.inf if saturated else float(horizon_symbols)
        self.frame_cap = math.inf if max_frames is None else max_frames
        self.warmup_t = 0.0 if saturated else warmup_frac * self.horizon
        self.warmup_frames = int(warmup_frac * max_frames) if max_frames else 0
        self.collect_events = collect_events
        self.collect_fairness = collect_fairness
        self.fairness_window_s = fairness_window_s

        self.m_eff = 1 if mode == PGPS else cfg.M
        # every batch size the discipline can form must fill whole symbols
        if saturated and mode != AMPGPS:
            sizes = [self.m_eff]
        else:
            sizes = range(1, (cfg.M_max if mode == AMPGPS else self.m_eff) + 1)
        # airtime in symbols of each batch size. Only a pgps or mpgps plan takes
        # a layout (allocation.frame_layouts); with L a multiple of r, every
        # composition of a size whose airtime is integral has one.
        self.airtime = {size: frame_length((size,), cfg) for size in sizes}
        # a Poisson run's one-packet frame, its shortest
        self.shortest_frame = None if saturated else self.airtime[1]
        if saturated != (max_frames is not None):
            raise ValueError("max_frames is required by infinite_backlog traffic "
                             "and applies to nothing else")
        if self.traffic.bucket is not None:
            sigma, rho_bps = self.traffic.bucket
            if sigma < cfg.L:
                raise ValueError("bucket burst must hold at least one packet")
            if not rho_bps > 0:
                raise ValueError("bucket rate must be positive")
        self.need_channel = mode in (AMPGPS, OMPGPS) or not verify
        # no decision of an unbudgeted pgps or mpgps run reads the channel, so
        # it draws its frames only when it plans them
        self.channel_blind = (mode in (PGPS, MPGPS) and cfg.power_budget is None
                              and not verify)
        self.deadline_symbols = cfg.deadline_symbols
        # a pgps or mpgps run keeps its queue heads in one heap for the whole
        # run (scheduling.HeadQueues); ampgps and ompgps merge heads per decision
        self.head_heap = mode in (PGPS, MPGPS)
        self.queues: list[deque[Packet]] = (
            scheduling.HeadQueues(cfg.K) if self.head_heap else [deque() for _ in range(cfg.K)])
        # no queued packet expires before this time, the smallest arrival +
        # deadline_symbols over the queue heads as of the last expiry scan,
        # lowered by each arrival since. A frame's members left their queues
        # after the scan before it, so failures rejoining their heads never
        # undercut it.
        self.next_expiry = math.inf
        # a Poisson run's packets come stamped in its arrival trace, which
        # run() fetches from arrival_trace(*trace_args); a saturated run
        # stamps its refills online, at decision times
        if saturated:
            self.gps = GpsReference(cfg.weights, cfg.bits_per_symbol, cfg.L, record=verify)
            self.trace_args = None
        else:
            self.gps = None
            bucket = self.traffic.bucket
            if bucket is not None:
                bucket = (bucket[0], bucket[1] * cfg.T_sym)       # bits per symbol
            self.trace_args = (cfg.seed, tuple((self.rates_bps * cfg.T_sym / cfg.L).tolist()),
                               bucket, cfg.L, self.horizon, cfg.weights, cfg.bits_per_symbol,
                               verify)
        self.arrivals: ArrivalTrace | None = None
        self.budget: LinkBudget = link_budget(cfg)
        self.channel = ChannelProcess(cfg) if self.need_channel else None
        if self.channel is not None:
            inverse = float(self.budget.gamma * self.budget.noise_power)
            for k, gain in enumerate(self.channel.path_gains.tolist()):
                if not (0.0 < gain < math.inf and math.isfinite(inverse / gain / FADE_MARGIN)):
                    raise ValueError(
                        f"user {k}'s path gain {gain:.3g} is out of range: gamma * "
                        f"noise_power / gain must be finite with a {FADE_MARGIN:.0e} fading "
                        "margin; check pathloss_exp, shadow_std_db, N0 and B (1/T_sym "
                        "by default)")
        self.error_streams = None if self.error_free else FrameStreams(cfg.seed, 53)
        # power matrices of frames block_lo, block_lo + 1, ...
        self.block_lo = 0
        self.block_powers = np.empty((0, cfg.K, cfg.N))
        # packet error rate at power scale per_scale
        self.per_scale = math.nan
        self.per = math.nan
        # the started pgps or mpgps frames whose plans are not solved yet
        self.unplanned: list[FrameRecord] = []

        self.inflight: _InFlight | None = None
        self.frames_started = 0
        self.frames: list[FrameRecord] = []
        self.events: list[SimEvent] = []
        self.seq_next = [0] * cfg.K
        # fairness runs: packets in system per flow, and each flow's busy
        # intervals as alternating open and close times
        self.in_system = [0] * cfg.K
        self.busy_edges: list[list[float]] = [[] for _ in range(cfg.K)]

        # shadow machinery for the opportunistic audit
        self.shadow_queues = ([deque() for _ in range(cfg.K)]
                              if (verify and mode == OMPGPS) else None)
        self.ledger = (LagLedger(bound=cfg.U - cfg.M)
                       if (verify and mode == OMPGPS) else None)
        self.shadow_trace_equal = True

        # counters
        self.n_arrivals = 0
        self.n_arrivals_m = 0
        self.n_delivered = 0
        self.n_delivered_m = 0
        self.n_delivered_events_m = 0
        self.n_dropped = 0
        self.n_dropped_m = 0
        self.delay_sum_m = 0.0

    # -- event handlers -------------------------------------------------------

    def _admit(self, t: float, flow: int, stamp: float) -> Packet:
        pkt = Packet(stamp, flow, self.seq_next[flow], t)
        self.seq_next[flow] += 1
        if self.head_heap:
            self.queues.admit(pkt)
        else:
            self.queues[flow].append(pkt)
        expiry = t + self.deadline_symbols
        if expiry < self.next_expiry:
            self.next_expiry = expiry
        if self.shadow_queues is not None:
            self.shadow_queues[flow].append(pkt)
        self.n_arrivals += 1
        if t >= self.warmup_t:
            self.n_arrivals_m += 1
        if self.collect_fairness:
            self._count(t, flow, 1)
        if self.collect_events:
            self.events.append(SimEvent(t, "arrive", flow, pkt.seq, -1))
        return pkt

    def _count(self, t: float, flow: int, delta: int) -> None:
        """Move flow's in-system count by delta (+1 or -1), tracking its busy edges."""
        self.in_system[flow] += delta
        if self.in_system[flow] == (delta > 0):         # 0 -> 1 opens, 1 -> 0 closes
            edges = self.busy_edges[flow]
            if edges and edges[-1] == t:
                edges.pop()     # undone at the same instant: no gap, no empty interval
            else:
                edges.append(t)

    def _refill(self, t: float) -> None:
        """Top every queue up at t, stamping the top-up, in flow order, in one call."""
        target = max(self.cfg.U, self.cfg.M, self.cfg.M_max)
        flows = [flow for flow, q in enumerate(self.queues) if len(q) < target
                 for _ in range(target - len(q))]
        for flow, stamp in zip(flows, self.gps.stamp([t] * len(flows), flows)):
            self._admit(t, flow, stamp)

    def _drop_expired(self, t: float) -> None:
        """Shed every queued packet whose deadline has passed by t, and reset
        ``next_expiry`` to the earliest deadline left at the queue heads."""
        deadline = self.deadline_symbols
        next_expiry = math.inf
        for q in self.queues:
            while q and q[0].arrival + deadline <= t:
                pkt = q.popleft()
                self.n_dropped += 1
                if pkt.arrival >= self.warmup_t:
                    self.n_dropped_m += 1
                if self.collect_fairness:
                    self._count(t, pkt.flow, -1)
                if self.collect_events:
                    self.events.append(SimEvent(t, "drop", pkt.flow, pkt.seq, -1))
            if q:
                next_expiry = min(next_expiry, q[0].arrival + deadline)
        self.next_expiry = next_expiry

    def _decide(self, t: float) -> ScheduleDecision:
        """An ampgps or ompgps decision, which reads the frame's channel."""
        cfg = self.cfg
        powers = self._frame_powers(t)
        if self.mode == AMPGPS:
            return scheduling.ampgps_schedule(self.queues, cfg.M_max, powers, cfg)
        return scheduling.ompgps_schedule(self.queues, cfg.M, cfg.U, powers, cfg)

    def _plan(self) -> None:
        """Solve the plans of the waiting pgps or mpgps frames, which are
        consecutive, in one ``solve_frames`` call on their (B, K)
        composition matrix, which also gives the scheduled rows and, in
        ``allocation.frame_layouts``, every layout. A channel-blind run draws
        their taps here in one pass and transforms and inverts only the rows
        of their scheduled users, into the zero-filled plan workspace
        (``allocation.row_powers``); a frame whose scheduled gains come
        within the gain floor of its bound is transformed and inverted whole
        (``allocation.frame_powers``). A budgeted run plans its one waiting
        frame from its channel block."""
        recs = self.unplanned
        if not recs:
            return
        cfg = self.cfg
        lo = recs[0].index
        g = np.fromiter(itertools.chain.from_iterable(rec.g for rec in recs), dtype=np.int64,
                        count=len(recs) * cfg.K).reshape(len(recs), cfg.K)
        if self.channel_blind:
            channel = self.channel
            powers = allocation.workspace_powers(len(recs), cfg.K, cfg.N)
            taps = channel.taps(lo, len(recs))
            frames, users = (g > 0).nonzero()
            whole = allocation.row_powers(powers, frames, users,
                                          channel.rows(taps, frames, users),
                                          channel.gain_bound(taps), self.budget)
            if whole.size:
                powers[whole] = allocation.frame_powers(
                    channel.rows(taps, whole[:, None], np.arange(cfg.K)), self.budget)
        else:
            powers = self.block_powers[lo - self.block_lo:][:len(recs)]
        _, per_bit, energy, mean_power = allocation.solve_frames(g, powers, cfg)
        for rec, p, e, w in zip(recs, per_bit.tolist(), energy.tolist(), mean_power.tolist()):
            rec.per_bit_power = p
            rec.energy = e
            rec.mean_power = w
        recs.clear()

    def _frame_powers(self, t: float) -> np.ndarray:
        """The (K, N) power matrix of the frame about to start at t."""
        f = self.frames_started
        if f - self.block_lo >= len(self.block_powers):
            size = min(CHANNEL_BLOCK, self.frame_cap - f)
            if self.horizon < math.inf:
                # frames start no later than the horizon, one shortest airtime apart at least
                size = min(size, int((self.horizon - t) // self.shortest_frame) + 1)
            gains = self.channel.block(f, size)
            self.block_powers = allocation.frame_powers(gains, self.budget)
            self.block_lo = f
        return self.block_powers[f - self.block_lo]

    def _shadow_step(self, t: float, decision: ScheduleDecision) -> None:
        shadow = select_mpgps(self.shadow_queues, self.m_eff)
        if shadow.m_sel != decision.m_sel:
            raise BoundViolation("shadow and opportunistic batch sizes diverged")
        chosen, shadow_chosen = set(decision.chosen), set(shadow.chosen)
        if chosen != shadow_chosen:
            self.shadow_trace_equal = False
        self.ledger.update(set(decision.window), chosen, shadow_chosen)
        for pkt in shadow.chosen:          # each flow's chosen packets head its queue
            self.shadow_queues[pkt.flow].popleft()

    def _instant(self, t: float) -> None:
        """Start a frame at t; the run enters only with a packet queued or refillable."""
        saturated = self.traffic.infinite_backlog
        if saturated:
            self._refill(t)
        if t >= self.next_expiry:     # never true without deadlines
            self._drop_expired(t)
            # drops can leave a saturated run less than its smallest batch
            if saturated and sum(map(len, self.queues)) < min(self.airtime):
                self._refill(t)
            if self.head_heap:
                self.queues.rebuild()
            if not any(self.queues):
                return
        if self.head_heap:
            if self.need_channel and not self.channel_blind:
                # a budgeted frame's plan, solved below, reads its channel block
                self._frame_powers(t)
            # the batch is the m smallest heads, taken off their queues
            chosen, g = self.queues.take(self.m_eff)
            per_bit_power = None
        else:
            decision = self._decide(t)
            if self.shadow_queues is not None:
                self._shadow_step(t, decision)
            chosen, g, per_bit_power = decision.chosen, decision.g, decision.per_bit_power
            for pkt in chosen:             # each flow's chosen packets head its queue
                self.queues[pkt.flow].popleft()
        m_sel = len(chosen)
        # positional, as keywords cost ~0.5 us more a frame: index, start, depart,
        # g, m_sel, per_bit_power, mean_power, scale, energy
        rec = FrameRecord(self.frames_started, t, t + self.airtime[m_sel], g,
                          m_sel, per_bit_power, None, 1.0, 0.0)
        if not self.verify:
            cfg = self.cfg
            budget = cfg.power_budget
            if per_bit_power is not None:
                # the ranking solved this plan's instance scaled by m_sel / grp,
                # which keeps its power per bit; its mean power,
                # sum(p * counts) / grp, is that times N * r
                rec.mean_power = per_bit_power * cfg.bits_per_symbol
                rec.energy = per_bit_power * cfg.L * m_sel * cfg.T_sym
            else:
                self.unplanned.append(rec)
                # a budgeted frame is planned now, as its mean power sets the
                # power scale its packets are sent at; a channel-blind run's
                # frames wait for a full stack
                if budget is not None or len(self.unplanned) == PLAN_STACK:
                    self._plan()
            if budget is not None and rec.mean_power > budget:
                rec.scale = budget / rec.mean_power
                rec.energy *= rec.scale
        self.inflight = _InFlight(rec, chosen)
        self.frames_started += 1
        if self.collect_events:
            self.events.append(SimEvent(t, "frame_start", -1, -1, rec.index))

    def _finish_frame(self, t: float) -> None:
        frame = self.inflight
        self.inflight = None
        rec = frame.record
        self.frames.append(rec)
        draws = None
        if self.error_streams is not None:
            # one uniform per member, in frame order, against the packet error
            # rate, which is recomputed only when the power scale changes
            draws = iter(self.error_streams.uniforms(rec.index, len(frame.members)))
            if rec.scale != self.per_scale:
                self.per_scale = rec.scale
                self.per = float(packet_error_rate(
                    self.budget.gamma * rec.scale, self.cfg.L, self.cfg.r))
        failures: list[Packet] = []
        for pkt in frame.members:
            if draws is None or next(draws) >= self.per:
                self.n_delivered += 1
                if pkt.arrival >= self.warmup_t:
                    self.n_delivered_m += 1
                    self.delay_sum_m += t - pkt.arrival
                if t > self.warmup_t:
                    self.n_delivered_events_m += 1
                if self.collect_fairness:
                    self._count(t, pkt.flow, -1)
                if self.collect_events:
                    self.events.append(SimEvent(t, "deliver", pkt.flow, pkt.seq, rec.index))
            else:
                failures.append(pkt)
                if self.collect_events:
                    self.events.append(SimEvent(t, "fail", pkt.flow, pkt.seq, rec.index))
        # each flow's members are a prefix of its queue, in seq order
        for pkt in reversed(failures):
            self.queues[pkt.flow].appendleft(pkt)
        if failures and self.head_heap:
            self.queues.rebuild()          # a requeued failure displaces a kept head
        if self.collect_events:
            self.events.append(SimEvent(t, "frame_end", -1, -1, rec.index))

    # -- main loop ------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to the horizon (or frame cap), reading the arrival trace in chunks."""
        saturated = self.traffic.infinite_backlog
        if saturated:
            arrivals = iter(())                 # _refill supplies them
        else:
            if self.expected_arrivals < 1:
                log.warning("the run expects %.3g arrivals within its horizon",
                            self.expected_arrivals)
            if self.traffic.bucket is not None and np.any(self.traffic.bucket[1] < self.rates_bps):
                log.warning("bucket rate below mean offered rate; shaping is unstable")
            trace = self.arrivals = arrival_trace(*self.trace_args)
            arrivals = itertools.chain.from_iterable(
                zip(trace.times[lo:lo + ARRIVAL_CHUNK].tolist(),
                    trace.flows[lo:lo + ARRIVAL_CHUNK].tolist(),
                    trace.stamps[lo:lo + ARRIVAL_CHUNK].tolist())
                for lo in range(0, len(trace.times), ARRIVAL_CHUNK))
        exhausted = (math.inf, -1, 0.0)
        next_arr, next_flow, next_stamp = next(arrivals, exhausted)
        t = 0.0
        while True:
            # with no frame in flight, every packet neither delivered nor
            # dropped sits in a queue
            if (self.inflight is None and self.frames_started < self.frame_cap
                    and (saturated or self.n_arrivals > self.n_delivered + self.n_dropped)):
                self._instant(t)
            inflight = self.inflight
            if inflight is None:
                # servers idle: admit the arrivals at the next arrival instant
                t = next_arr
                if t == math.inf or t > self.horizon:
                    break
                while next_arr == t:
                    self._admit(t, next_flow, next_stamp)
                    next_arr, next_flow, next_stamp = next(arrivals, exhausted)
            else:
                # admit every arrival before the frame in flight ends, each at
                # its own time (the trace holds none past the horizon); the
                # frame end outranks arrivals at its own instant
                t = inflight.record.depart
                while next_arr < t:
                    self._admit(next_arr, next_flow, next_stamp)
                    next_arr, next_flow, next_stamp = next(arrivals, exhausted)
                if t > self.horizon:
                    break
                self._finish_frame(t)
        self._plan()
        if saturated:
            self.horizon = self.frames[-1].depart if self.frames else 0.0
        return self._finalise()

    # -- reporting ------------------------------------------------------------

    def fluid_trace(self) -> GpsTrace:
        """The fluid reference's record of a finished verify run: a Poisson
        run's shared arrival trace holds it, a saturated run drains its own."""
        if self.gps is None:
            return self.arrivals.gps
        self.gps.drain()
        return self.gps.trace()

    def _bound_report(self, curves, g: np.ndarray) -> BoundReport:
        """Audit a verify run; ``g`` holds each started frame's packets per
        flow, the frame in flight at the horizon last.

        An ompgps run is audited for its lag ledger (``aggregate_lag``, at
        most U - M) and, at U = M, for shadow equality only. Its delay,
        service and backlog rows stay not applicable: the window reorders
        past any ceiling from M or U. Verify runs at K=4, N=64, 96 kb/s and
        (M, U) = (2, 4), (3, 6), (4, 8) measured delay gaps of 11.5-12.0
        packet airtimes, past both 2M - 1 and 2U - 1.
        """
        trace = self.fluid_trace()
        cfg = self.cfg
        t_stop = self.horizon             # a saturated run ends it at its last departure
        per_packet = cfg.L / cfg.bits_per_symbol          # symbols per packet
        m = self.m_eff
        rep = BoundReport()
        ordered_modes = self.mode in (PGPS, MPGPS)

        # A verify run neither fails nor drops a packet and serves each flow
        # in arrival order: flow k's j-th packet went in the frame where the
        # running sum of g_k passes j. Packets of the frame in flight at the
        # horizon are sent but not delivered.
        sent_in = np.full(trace.flows.size, -1)
        for k in range(cfg.K):
            frames_k = np.repeat(np.arange(len(g)), g[:, k])
            # raises IndexError if the flow's frames hold more packets than arrived
            sent_in[np.flatnonzero(trace.flows == k)[np.arange(frames_k.size)]] = frames_k
        sent = sent_in >= 0
        # the in-flight frame's index and -1 (unsent) both read the trailing nan
        edges = curves[0][0]              # each frame's start and departure
        depart = np.append(edges[1::2], math.nan)[sent_in]
        delivered = ~np.isnan(depart)

        # delay gap vs the fluid reference, over the delivered packets
        gaps = depart[delivered] - trace.departures[delivered]
        dbound = (2 * m - 1) * per_packet
        obs = float(gaps.max()) if gaps.size else 0.0
        rep.entries.append(BoundCheck(
            "delay_gap", dbound, obs,
            int((gaps > dbound + BOUND_EPS).sum()), applicable=ordered_modes,
            note=f"{gaps.size} packets"))

        # tighter delay gap when no frame (the one in flight at the horizon
        # included) holds a fluid departure before the latest of an earlier frame
        first = np.full(self.frames_started, math.inf)
        last = np.full(self.frames_started, -math.inf)
        np.minimum.at(first, sent_in[sent], trace.departures[sent])
        np.maximum.at(last, sent_in[sent], trace.departures[sent])
        prev_max = np.maximum.accumulate(np.concatenate(([-math.inf], last)))[:-1]
        in_order = not np.any(first < prev_max - BOUND_EPS)
        obound = (m - 1) * per_packet
        rep.entries.append(BoundCheck(
            "delay_gap_in_order", obound, obs if in_order else float("nan"),
            int((gaps > obound + BOUND_EPS).sum()) if in_order else 0,
            applicable=ordered_modes and in_order,
            note="selection followed fluid departure order" if in_order else
                 "selection order differed from fluid departures"))

        # per flow: service gap in bits, fluid minus transmitted at every
        # breakpoint; backlog gap in packets, fluid minus transmitted departures
        sbound, qbound = (2 * m - 1) * cfg.L, 2 * m - 1
        worst_s, viol_s, worst_q, viol_q = 0.0, 0, 0, 0
        fluid_done = trace.departures <= t_stop
        # every flow's curve breaks at the same frame edges, so one grid serves all
        grid = np.unique(np.concatenate((
            trace.seg_t[trace.seg_t <= t_stop], edges[edges <= t_stop], [t_stop])))
        for k in range(cfg.K):
            tk, bk = curves[k]
            gap = trace.service_at(k, grid) - np.interp(grid, tk, bk)
            worst_s = max(worst_s, float(gap.max()))
            viol_s += int((gap > sbound + BOUND_EPS).sum())
            own = trace.flows == k
            gps_d = np.sort(trace.departures[own & fluid_done])
            if gps_d.size:
                mp_d = np.sort(depart[own & delivered])
                counts_mp = np.searchsorted(mp_d, gps_d + BOUND_EPS, side="right")
                diff = np.arange(1, gps_d.size + 1) - counts_mp
                worst_q = max(worst_q, int(diff.max()))
                viol_q += int((diff > qbound).sum())
        rep.entries.append(BoundCheck(
            "service_gap", sbound, worst_s, viol_s, applicable=ordered_modes))
        rep.entries.append(BoundCheck(
            "backlog_gap", qbound, worst_q, viol_q, applicable=ordered_modes))

        if self.ledger is not None:
            rep.entries.append(BoundCheck(
                "aggregate_lag", self.ledger.bound, self.ledger.max_lag,
                self.ledger.violations, applicable=True,
                note=f"{self.ledger.steps} instants"))
            rep.entries.append(BoundCheck(
                "shadow_trace_equal", 1.0, 1.0 if self.shadow_trace_equal else 0.0,
                0 if (self.cfg.U > self.cfg.M or self.shadow_trace_equal) else 1,
                applicable=self.cfg.U == self.cfg.M,
                note="window equal to batch size must reproduce the stamp-ordered schedule"))
        return rep

    def _finalise(self) -> RunResult:
        cfg = self.cfg
        m = metrics_mod.Metrics()
        m.arrivals = self.n_arrivals_m
        m.delivered = self.n_delivered_m
        m.dropped = self.n_dropped_m
        m.residual = self.n_arrivals_m - self.n_delivered_m - self.n_dropped_m
        m.frames = len(self.frames)
        span = max(self.horizon - self.warmup_t, 0.0)
        m.sim_time = span * cfg.T_sym
        if self.n_delivered_m:
            m.avg_delay = self.delay_sum_m / self.n_delivered_m * cfg.T_sym
        decided = self.n_delivered_m + self.n_dropped_m
        if decided:
            m.loss_rate = self.n_dropped_m / decided
        if span > 0:
            m.throughput = self.n_delivered_events_m / span

        # the frames with a power per bit counted after warmup: all but a pgps
        # or mpgps verify run's
        saturated = self.traffic.infinite_backlog
        powered = [f for f in self.frames if f.per_bit_power is not None and (
            f.index >= self.warmup_frames if saturated else f.start >= self.warmup_t)]
        if powered:
            bits = sum(f.m_sel for f in powered) * cfg.L
            m.per_bit_power = sum(f.per_bit_power * f.scale * f.m_sel * cfg.L
                                  for f in powered) / bits
            energy = sum(f.energy for f in powered)
            if span > 0 and energy > 0:
                m.avg_power = energy / (span * cfg.T_sym)
            delivered_bits = self.n_delivered_events_m * cfg.L
            if delivered_bits and energy > 0 and not self.traffic.infinite_backlog:
                ratio = energy / (delivered_bits * cfg.N0)      # 0 or inf when N0 is extreme
                m.eb_n0_db = 10.0 * (math.log10(ratio) if 0 < ratio < math.inf else (
                    math.log10(energy) - math.log10(delivered_bits) - math.log10(cfg.N0)))

        if self.verify or self.collect_fairness:
            # packets per flow of every started frame, the one in flight last
            recs = self.frames + ([self.inflight.record] if self.inflight else [])
            g = np.fromiter(itertools.chain.from_iterable(map(attrgetter("g"), recs)),
                            np.int64, len(recs) * cfg.K).reshape(len(recs), cfg.K)
            curves = metrics_mod.service_curves(
                map(attrgetter("start", "depart"), self.frames), g[:len(self.frames)], cfg.L)
        bounds = None
        if self.verify:
            bounds = self._bound_report(curves, g)
            m.bound_violations = {e.name: e.violations for e in bounds.entries
                                  if e.applicable}

        if self.collect_fairness:
            lo, hi = self.warmup_t, self.horizon
            busy = []
            for edges in self.busy_edges:
                ends = edges[1::2] + [hi] * (len(edges) % 2)      # close any open interval
                busy.append([(max(a, lo), min(b, hi)) for a, b in zip(edges[0::2], ends)
                             if min(b, hi) > max(a, lo)])
            m.fairness = metrics_mod.fairness_metric(
                curves, cfg.weights, self.fairness_window_s / cfg.T_sym, busy)

        return RunResult(cfg=cfg, mode=self.mode, metrics=m, frames=self.frames,
                         bounds=bounds,
                         events=self.events if self.collect_events else None)


def run(cfg: SystemConfig, traffic: TrafficModel | None = None, mode: str = MPGPS,
        horizon_symbols: float = 100_000.0, **kw) -> RunResult:
    """Convenience wrapper: build an Engine and run it."""
    return Engine(cfg, traffic, mode, horizon_symbols, **kw).run()


def verify_bounds(cfg: SystemConfig, traffic: TrafficModel | None = None,
                  mode: str = MPGPS, horizon_symbols: float = 100_000.0,
                  **kw) -> RunResult:
    """Run in verification mode and return the result with its bound report."""
    return Engine(cfg, traffic, mode, horizon_symbols, verify=True, **kw).run()
