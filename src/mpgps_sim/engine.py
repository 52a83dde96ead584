"""Discrete-event downlink simulator tying disciplines, channel, and audits together.

Only two event kinds exist: packet arrivals and frame completions. Arriving
packets are stamped against the shared virtual clock immediately but become
eligible for service at frame boundaries; when the servers fall idle and
backlog exists, the configured discipline picks the next batch. Frame ends
outrank arrivals at equal times. Deadline-expired packets are shed before
every selection, and failed packets rejoin their queue head with stamps
intact. Saturated traffic runs through the same loop with no arrivals: each
selection tops every queue up, and the run stops at its frame cap.

Verification mode runs error free with deadlines disabled and audits the run
against the fluid reference (and, for the opportunistic discipline, against
a lockstep stamp-ordered shadow), producing a report of analytic bound
versus worst observation.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import allocation, metrics as metrics_mod, scheduling
from .channel import (ChannelProcess, FrameStreams, LinkBudget, link_budget,
                      packet_error_rate)
from .model import FlowQueue, Packet, SystemConfig, frame_length
from .scheduling import (AMPGPS, MPGPS, OMPGPS, PGPS, BoundViolation,
                         LagLedger, ScheduleDecision, select_mpgps)
from .virtual_time import GpsReference

log = logging.getLogger(__name__)

# slack for float comparisons against analytic bounds, in symbols or bits
BOUND_EPS = 1e-6

# Frames whose channel and power matrix are built in one pass. Drawing stays
# per frame (channel.STREAM_CHUNK sets how many frames' seeds are hashed at
# once); the FFT, the |H|^2 scaling and the inversion run once per block. A
# Poisson run draws at most the block's unused tail in vain; a capped run
# draws no frame past its cap. Blocks of 8 and 16 ran equally fast on the
# power benchmark, and 32 cost more memory for no gain.
CHANNEL_BLOCK = 16

# Largest expected arrival count of a Poisson run. The run pre-draws every
# arrival time: 16 B per arrival (time and flow) before the sort's
# temporaries, so the cap holds that trace near 1.6 GB. A CLI run at the
# README working point with the default horizon draws ~1.2e5 arrivals.
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

    The plan fields (per_bit_power, mean_power, energy) are filled when the
    frame's plan is solved: at frame start in a budgeted run, otherwise
    together with the rest of its channel block, at the latest before
    ``Engine.run`` returns.
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


class _InFlight:
    __slots__ = ("record", "members")

    def __init__(self, record: FrameRecord, members: list[Packet]):
        self.record = record
        self.members = members


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
        for size in sizes:
            frame_length((size,), cfg)
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
        self.queues = [FlowQueue(k) for k in range(cfg.K)]
        self.gps = GpsReference(cfg.weights, cfg.bits_per_symbol, record=verify)
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
        # frame arithmetic per composition, and the started frames of the
        # current channel block whose plans are not solved yet
        self.layouts: dict[tuple[int, ...], allocation.FrameLayout] = {}
        self.unplanned: list[FrameRecord] = []

        self.inflight: _InFlight | None = None
        self.frames_started = 0
        self.frames: list[FrameRecord] = []
        self.events: list[SimEvent] = []
        self.fair_events: list[list[tuple[float, int]]] = [[] for _ in range(cfg.K)]
        self.seq_next = [0] * cfg.K

        # shadow machinery for the opportunistic audit
        self.shadow_queues = ([FlowQueue(k) for k in range(cfg.K)]
                              if (verify and mode == OMPGPS) else None)
        self.ledger = (LagLedger(bound=cfg.U - cfg.M)
                       if (verify and mode == OMPGPS) else None)
        self.shadow_trace_equal = True

        # per packet, by arrival index, in verification mode only: the real
        # departure time (nan until delivered) and the frame that sent it
        self.delivered_at: list[float] = []
        self.sent_in: list[int] = []

        # counters
        self.n_arrivals = 0
        self.n_arrivals_m = 0
        self.n_delivered = 0
        self.n_delivered_m = 0
        self.n_delivered_events_m = 0
        self.n_dropped = 0
        self.n_dropped_m = 0
        self.delay_sum_m = 0.0

    # -- traffic -------------------------------------------------------------

    def _poisson_times(self, flow: int, rate_sym: float) -> np.ndarray:
        rng = np.random.default_rng([self.cfg.seed, 23, flow])
        if rate_sym <= 0:
            return np.empty(0)
        # draw in chunks until the horizon is crossed
        out = []
        t = 0.0
        while t < self.horizon:
            gaps = rng.exponential(1.0 / rate_sym, 4096)
            cum = t + np.cumsum(gaps)
            out.append(cum)
            t = cum[-1]
        times = np.concatenate(out)
        return times[times < self.horizon]

    def _shape(self, times: np.ndarray) -> np.ndarray:
        if self.traffic.bucket is None or times.size == 0:
            return times
        sigma, rho_bps = self.traffic.bucket
        rho = rho_bps * self.cfg.T_sym          # bits per symbol
        tokens = sigma
        t_prev = 0.0
        out = np.empty_like(times)
        for i, a in enumerate(times):
            release = a if i == 0 else max(a, out[i - 1])
            tokens = min(sigma, tokens + rho * (release - t_prev))
            if tokens < self.cfg.L:
                release += (self.cfg.L - tokens) / rho
                tokens = float(self.cfg.L)
            tokens -= self.cfg.L
            t_prev = release
            out[i] = release
        return out

    def _generate_arrivals(self) -> tuple[np.ndarray, np.ndarray]:
        if self.traffic.infinite_backlog:
            return np.empty(0), np.empty(0, dtype=np.int64)      # _refill supplies them
        rates = self.rates_bps * self.cfg.T_sym / self.cfg.L
        if self.traffic.bucket is not None:
            rho_bps = self.traffic.bucket[1]
            if np.any(rho_bps < self.rates_bps):
                log.warning("bucket rate below mean offered rate; shaping is unstable")
        per_flow = [self._shape(self._poisson_times(k, rates[k])) for k in range(self.cfg.K)]
        times = np.concatenate(per_flow)
        flows = np.repeat(np.arange(self.cfg.K, dtype=np.int64), [len(p) for p in per_flow])
        order = np.lexsort((flows, times))
        return times[order], flows[order]

    # -- event handlers -------------------------------------------------------

    def _admit(self, t: float, flow: int) -> Packet:
        pkt = Packet(flow=flow, seq=self.seq_next[flow], arrival=t, bits=self.cfg.L,
                     deadline_at=t + self.cfg.deadline_symbols, index=self.n_arrivals)
        self.seq_next[flow] += 1
        if self.verify:
            self.delivered_at.append(math.nan)
            self.sent_in.append(-1)
        self.gps.on_arrival(pkt)
        self.queues[flow].push(pkt)
        if self.shadow_queues is not None:
            self.shadow_queues[flow].push(pkt)
        self.n_arrivals += 1
        if t >= self.warmup_t:
            self.n_arrivals_m += 1
        if self.collect_fairness:
            self.fair_events[flow].append((t, +1))
        if self.collect_events:
            self.events.append(SimEvent(t, "arrive", flow, pkt.seq, -1))
        return pkt

    def _refill(self, t: float) -> None:
        target = max(self.cfg.U, self.cfg.M, self.cfg.M_max)
        for q in self.queues:
            while len(q) < target:
                self._admit(t, q.flow)

    def _drop_expired(self, t: float) -> None:
        for q in self.queues:
            while q.fifo and q.fifo[0].deadline_at <= t:
                pkt = q.pop_front()
                self.n_dropped += 1
                if pkt.arrival >= self.warmup_t:
                    self.n_dropped_m += 1
                if self.collect_fairness:
                    self.fair_events[pkt.flow].append((t, -1))
                if self.collect_events:
                    self.events.append(SimEvent(t, "drop", pkt.flow, pkt.seq, -1))

    def _decide(self, t: float) -> ScheduleDecision:
        cfg = self.cfg
        powers = None
        if self.need_channel:
            powers = self._frame_powers()
        if self.mode in (PGPS, MPGPS):
            return select_mpgps(self.queues, self.m_eff)
        if self.mode == AMPGPS:
            return scheduling.ampgps_schedule(self.queues, cfg.M_max, powers, cfg)
        return scheduling.ompgps_schedule(self.queues, cfg.M, cfg.U, powers, cfg)

    def _layout(self, g: tuple[int, ...]) -> allocation.FrameLayout:
        lay = self.layouts.get(g)
        if lay is None:
            lay = self.layouts[g] = allocation.frame_layout(g, self.cfg)
        return lay

    def _solve_unplanned(self) -> None:
        """Solve the plans of the waiting frames, which are consecutive frames of one block."""
        if not self.unplanned:
            return
        lo = self.unplanned[0].index - self.block_lo
        _, per_bit, energy, mean_power = allocation.solve_frames(
            [self.layouts[rec.g] for rec in self.unplanned],
            self.block_powers[lo:lo + len(self.unplanned)], self.cfg)
        for rec, p, e, w in zip(self.unplanned, per_bit.tolist(), energy.tolist(),
                                mean_power.tolist()):
            rec.per_bit_power = p
            rec.energy = e
            rec.mean_power = w
        self.unplanned.clear()

    def _frame_powers(self) -> np.ndarray:
        """The (K, N) power matrix of the frame about to start."""
        f = self.frames_started
        if f - self.block_lo >= len(self.block_powers):
            self._solve_unplanned()
            gains = self.channel.block(f, min(CHANNEL_BLOCK, self.frame_cap - f))
            self.block_powers = allocation.frame_powers(gains, self.budget)
            self.block_lo = f
        return self.block_powers[f - self.block_lo]

    def _shadow_step(self, t: float, decision: ScheduleDecision) -> None:
        shadow = select_mpgps(self.shadow_queues, self.m_eff)
        if shadow.m_sel != decision.m_sel:
            raise BoundViolation("shadow and opportunistic batch sizes diverged")
        window_ids = {p.index for p in decision.window}
        decision_ids = {p.index for p in decision.chosen}
        shadow_ids = {p.index for p in shadow.chosen}
        if decision_ids != shadow_ids:
            self.shadow_trace_equal = False
        self.ledger.update(window_ids, decision_ids, shadow_ids)
        for flow, cnt in enumerate(shadow.g):
            for _ in range(cnt):
                self.shadow_queues[flow].pop_front()

    def _instant(self, t: float) -> None:
        """Start a frame at t; the run enters only with a packet queued or refillable."""
        if self.traffic.infinite_backlog:
            self._refill(t)
        if math.isfinite(self.cfg.deadline_symbols):
            self._drop_expired(t)
            if not any(self.queues):
                return
        decision = self._decide(t)
        if self.shadow_queues is not None:
            self._shadow_step(t, decision)
        rec = FrameRecord(index=self.frames_started, start=t,
                          depart=t + self._layout(decision.g).airtime,
                          g=decision.g, m_sel=decision.m_sel,
                          per_bit_power=decision.per_bit_power, mean_power=None,
                          scale=1.0, energy=0.0)
        if not self.verify:
            self.unplanned.append(rec)
            budget = self.cfg.power_budget
            if budget is not None:
                # a budgeted frame is planned now: its mean power sets the
                # power scale its packets are sent at
                self._solve_unplanned()
                if rec.mean_power > budget:
                    rec.scale = budget / rec.mean_power
                    rec.energy *= rec.scale
        members = decision.chosen
        for flow, cnt in enumerate(decision.g):
            for _ in range(cnt):
                self.queues[flow].pop_front()
        if self.verify:
            for pkt in members:
                self.sent_in[pkt.index] = rec.index
        self.inflight = _InFlight(rec, members)
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
            rng = self.error_streams.at(rec.index)
            draws = iter(rng.random(len(frame.members)).tolist())
            if rec.scale != self.per_scale:
                self.per_scale = rec.scale
                self.per = float(packet_error_rate(
                    self.budget.gamma * rec.scale, self.cfg.L, self.cfg.r))
        failures: dict[int, list[Packet]] = {}
        for pkt in frame.members:
            if draws is None or next(draws) >= self.per:
                self.n_delivered += 1
                if self.verify:
                    self.delivered_at[pkt.index] = t
                if pkt.arrival >= self.warmup_t:
                    self.n_delivered_m += 1
                    self.delay_sum_m += t - pkt.arrival
                if t > self.warmup_t:
                    self.n_delivered_events_m += 1
                if self.collect_fairness:
                    self.fair_events[pkt.flow].append((t, -1))
                if self.collect_events:
                    self.events.append(SimEvent(t, "deliver", pkt.flow, pkt.seq, rec.index))
            else:
                failures.setdefault(pkt.flow, []).append(pkt)
                if self.collect_events:
                    self.events.append(SimEvent(t, "fail", pkt.flow, pkt.seq, rec.index))
        for flow, pkts in failures.items():
            for pkt in sorted(pkts, key=lambda p: p.seq, reverse=True):
                self.queues[flow].requeue_front(pkt)
        if self.collect_events:
            self.events.append(SimEvent(t, "frame_end", -1, -1, rec.index))

    # -- main loop ------------------------------------------------------------

    def run(self) -> RunResult:
        times, flows = self._generate_arrivals()
        i, n = 0, len(times)
        t = 0.0
        saturated = self.traffic.infinite_backlog
        while True:
            # with no frame in flight, every packet neither delivered nor
            # dropped sits in a queue
            if (self.inflight is None and self.frames_started < self.frame_cap
                    and (saturated or self.n_arrivals > self.n_delivered + self.n_dropped)):
                self._instant(t)
            next_arr = float(times[i]) if i < n else math.inf
            next_dep = self.inflight.record.depart if self.inflight else math.inf
            t = min(next_arr, next_dep)
            if t == math.inf or t > self.horizon:
                break
            if next_dep <= next_arr:
                self._finish_frame(t)
            else:
                while i < n and float(times[i]) == t:
                    self._admit(t, int(flows[i]))
                    i += 1
        self._solve_unplanned()
        if saturated:
            self.horizon = self.frames[-1].depart if self.frames else 0.0
        return self._finalise()

    # -- reporting ------------------------------------------------------------

    def _bound_report(self, curves) -> BoundReport:
        self.gps.drain()
        trace = self.gps.trace()
        cfg = self.cfg
        t_stop = self.horizon             # a saturated run ends it at its last departure
        per_packet = cfg.L / cfg.bits_per_symbol          # symbols per packet
        m = self.m_eff
        rep = BoundReport()
        ordered_modes = self.mode in (PGPS, MPGPS)

        # delay gap vs the fluid reference, over the delivered packets
        depart = np.asarray(self.delivered_at, dtype=float)
        delivered = ~np.isnan(depart)
        gaps = depart[delivered] - trace.departures[delivered]
        dbound = (2 * m - 1) * per_packet
        obs = float(gaps.max()) if gaps.size else 0.0
        rep.entries.append(BoundCheck(
            "delay_gap", dbound, obs,
            int((gaps > dbound + BOUND_EPS).sum()), applicable=ordered_modes,
            note=f"{gaps.size} packets"))

        # tighter delay gap when no frame (the one in flight at the horizon
        # included) holds a fluid departure before the latest of an earlier frame
        sent_in = np.asarray(self.sent_in, dtype=np.int64)
        sent = sent_in >= 0
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
        for k in range(cfg.K):
            tk, bk = curves[k]
            grid = np.unique(np.concatenate((
                trace.seg_t[trace.seg_t <= t_stop], tk[tk <= t_stop], [t_stop])))
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

        if self.traffic.infinite_backlog:
            frames_m = [f for f in self.frames if f.index >= self.warmup_frames]
        else:
            frames_m = [f for f in self.frames if f.start >= self.warmup_t]
        powered = [f for f in frames_m if f.per_bit_power is not None]
        if powered:
            bits = sum(f.m_sel for f in powered) * cfg.L
            m.per_bit_power = sum(f.per_bit_power * f.scale * f.m_sel * cfg.L
                                  for f in powered) / bits
            energy = sum(f.energy for f in powered)
            if span > 0 and energy > 0:
                m.avg_power = energy / (span * cfg.T_sym)
            delivered_bits = self.n_delivered_events_m * cfg.L
            if delivered_bits and energy > 0 and not self.traffic.infinite_backlog:
                m.eb_n0_db = 10.0 * math.log10(energy / (delivered_bits * cfg.N0))

        if self.verify or self.collect_fairness:
            curves = metrics_mod.service_curves(
                ((f.start, f.depart, f.g) for f in self.frames), cfg.K, cfg.L)
        bounds = None
        if self.verify:
            bounds = self._bound_report(curves)
            m.bound_violations = {e.name: e.violations for e in bounds.entries
                                  if e.applicable}

        if self.collect_fairness:
            lo, hi = self.warmup_t, self.horizon
            busy = []
            for k in range(cfg.K):
                iv = metrics_mod.busy_intervals(self.fair_events[k], hi)
                busy.append([(max(a, lo), min(b, hi)) for a, b in iv if min(b, hi) > max(a, lo)])
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
