"""Discrete-event downlink simulator tying disciplines, channel, and audits together.

Only two event kinds exist: packet arrivals and frame completions. Arriving
packets are stamped against the shared virtual clock immediately but become
eligible for service at frame boundaries; when the servers fall idle and
backlog exists, the configured discipline picks the next batch. Frame ends
outrank arrivals at equal times. Deadline-expired packets are shed before
every selection, and failed packets rejoin their queue head with stamps
intact.

Verification mode runs error free with deadlines disabled and audits the run
against the fluid reference (and, for the opportunistic discipline, against
a lockstep stamp-ordered shadow), producing a report of analytic bound
versus worst observation.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import allocation, metrics as metrics_mod, scheduling
from .channel import ChannelProcess, LinkBudget, link_budget, packet_error_rate
from .model import FlowQueue, Packet, SystemConfig, frame_length
from .scheduling import (AMPGPS, MPGPS, OMPGPS, PGPS, BoundViolation,
                         LagLedger, ScheduleDecision, select_mpgps,
                         total_backlog)
from .virtual_time import GpsReference

log = logging.getLogger(__name__)

# slack for float comparisons against analytic bounds, in symbols or bits
BOUND_EPS = 1e-6


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
    index: int
    start: float
    depart: float
    g: tuple[int, ...]
    m_sel: int
    group: int
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
                 fairness_window_s: float = 0.100,
                 collect_power: bool | None = None):
        if mode not in scheduling.MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.traffic = traffic or TrafficModel()
        self.mode = mode
        self.verify = verify
        self.error_free = error_free or verify
        cfg = replace(cfg, deadline=math.inf) if verify else cfg
        self.cfg = cfg
        self.horizon = float(horizon_symbols)
        self.max_frames = max_frames
        self.warmup_t = warmup_frac * self.horizon if not self.traffic.infinite_backlog else 0.0
        self.warmup_frames = int(warmup_frac * max_frames) if max_frames else 0
        self.collect_events = collect_events
        self.collect_fairness = collect_fairness
        self.fairness_window_s = fairness_window_s

        self.m_eff = 1 if mode == PGPS else cfg.M
        # every batch size the discipline can form must fill whole symbols
        if self.traffic.infinite_backlog and mode != AMPGPS:
            sizes = [self.m_eff]
        else:
            sizes = range(1, (cfg.M_max if mode == AMPGPS else self.m_eff) + 1)
        for size in sizes:
            frame_length((size,), cfg)
        self.collect_power = (not verify) if collect_power is None else collect_power
        self.need_channel = mode in (AMPGPS, OMPGPS) or self.collect_power
        if self.collect_power and verify:
            raise ValueError("verification mode never allocates transmit power")
        self.queues = [FlowQueue(k, cfg.weights[k]) for k in range(cfg.K)]
        self.gps = GpsReference(cfg.weights, cfg.bits_per_symbol, record_segments=verify)
        self.budget: LinkBudget = link_budget(cfg)
        self.channel = ChannelProcess(cfg) if self.need_channel else None

        self.inflight: _InFlight | None = None
        self.frames_started = 0
        self.frames: list[FrameRecord] = []
        self.events: list[SimEvent] = []
        self.fair_events: list[list[tuple[float, int]]] = [[] for _ in range(cfg.K)]
        self.seq_next = [0] * cfg.K

        # shadow machinery for the opportunistic audit
        self.shadow_queues = ([FlowQueue(k, cfg.weights[k]) for k in range(cfg.K)]
                              if (verify and mode == OMPGPS) else None)
        self.ledger = (LagLedger(bound=cfg.U - cfg.M)
                       if (verify and mode == OMPGPS) else None)
        self.shadow_trace_equal = True

        # bound bookkeeping
        self.dhat: dict[tuple[int, int], float] = {}
        self.batch_keys: list[list[tuple[int, int]]] = []

        # counters
        self.n_arrivals = 0
        self.n_arrivals_m = 0
        self.n_delivered = 0
        self.n_delivered_m = 0
        self.n_delivered_events_m = 0
        self.n_dropped = 0
        self.n_dropped_m = 0
        self.delay_sum_m = 0.0
        self.t_end = 0.0

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
        if sigma < self.cfg.L:
            raise ValueError("bucket burst must hold at least one packet")
        rho = rho_bps * self.cfg.T_sym          # bits per symbol
        tokens = sigma
        t_prev = 0.0
        out = np.empty_like(times)
        for i, a in enumerate(times):
            release = a if i == 0 else max(a, out[i - 1])
            tokens = min(sigma, tokens + rho * (release - t_prev))
            if tokens < self.cfg.L:
                if rho <= 0:
                    raise ValueError("bucket rate must be positive")
                release += (self.cfg.L - tokens) / rho
                tokens = float(self.cfg.L)
            tokens -= self.cfg.L
            t_prev = release
            out[i] = release
        return out

    def _generate_arrivals(self) -> tuple[np.ndarray, np.ndarray]:
        rates = self.traffic.rates(self.cfg.K) * self.cfg.T_sym / self.cfg.L
        if self.traffic.bucket is not None:
            rho_bps = self.traffic.bucket[1]
            if np.any(rho_bps < self.traffic.rates(self.cfg.K)):
                log.warning("bucket rate below mean offered rate; shaping is unstable")
        per_flow = [self._shape(self._poisson_times(k, rates[k])) for k in range(self.cfg.K)]
        times = np.concatenate(per_flow) if per_flow else np.empty(0)
        flows = np.concatenate([np.full(len(p), k, dtype=np.int64)
                                for k, p in enumerate(per_flow)]) if per_flow else np.empty(0, np.int64)
        order = np.lexsort((flows, times))
        return times[order], flows[order]

    # -- event handlers -------------------------------------------------------

    def _admit(self, t: float, flow: int) -> Packet:
        pkt = Packet(flow=flow, seq=self.seq_next[flow], arrival=t, bits=self.cfg.L,
                     deadline_at=t + self.cfg.deadline_symbols)
        self.seq_next[flow] += 1
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

    def _decide(self, t: float) -> tuple[ScheduleDecision, allocation.AllocationResult | None, float]:
        cfg = self.cfg
        powers = None
        if self.need_channel:
            gains = self.channel.state(self.frames_started).gains
            powers = allocation.frame_powers(gains, self.budget)
        if self.mode in (PGPS, MPGPS):
            decision = select_mpgps(self.queues, self.m_eff)
        elif self.mode == AMPGPS:
            decision = scheduling.ampgps_schedule(self.queues, cfg.M_max, powers, cfg)
        else:
            decision = scheduling.ompgps_schedule(self.queues, cfg.M, cfg.U, powers, cfg)
        alloc = None
        scale = 1.0
        if self.collect_power and powers is not None:
            alloc = allocation.allocate_frame(decision.g, powers, cfg)
            if cfg.power_budget is not None and alloc.mean_power > cfg.power_budget:
                scale = cfg.power_budget / alloc.mean_power
        return decision, alloc, scale

    def _shadow_step(self, t: float, decision: ScheduleDecision) -> None:
        shadow = select_mpgps(self.shadow_queues, self.m_eff)
        if shadow.m_sel != decision.m_sel:
            raise BoundViolation("shadow and opportunistic batch sizes diverged")
        window = scheduling._smallest_stamps(self.queues, self.cfg.U)
        window_ids = {p.key for p in window}
        decision_ids = {p.key for p in decision.chosen}
        shadow_ids = {p.key for p in shadow.chosen}
        if decision_ids != shadow_ids:
            self.shadow_trace_equal = False
        self.ledger.update(window_ids, decision_ids, shadow_ids)
        for flow, cnt in enumerate(shadow.g):
            for _ in range(cnt):
                self.shadow_queues[flow].pop_front()

    def _instant(self, t: float) -> None:
        if self.traffic.infinite_backlog:
            self._refill(t)
        if math.isfinite(self.cfg.deadline_symbols):
            self._drop_expired(t)
        if total_backlog(self.queues) == 0:
            return
        decision, alloc, scale = self._decide(t)
        if self.shadow_queues is not None:
            self._shadow_step(t, decision)
        airtime = frame_length(decision.g, self.cfg)
        per_bit = alloc.per_bit_power if alloc else decision.per_bit_power
        mean_power = alloc.mean_power if alloc else None
        energy = alloc.energy * scale if alloc else 0.0
        rec = FrameRecord(index=self.frames_started, start=t, depart=t + airtime,
                          g=decision.g, m_sel=decision.m_sel,
                          group=alloc.group if alloc else 0,
                          per_bit_power=per_bit, mean_power=mean_power,
                          scale=scale, energy=energy)
        members = decision.chosen
        for flow, cnt in enumerate(decision.g):
            for _ in range(cnt):
                self.queues[flow].pop_front()
        if self.verify:
            self.batch_keys.append([p.key for p in members])
        self.inflight = _InFlight(rec, members)
        self.frames_started += 1
        if self.collect_events:
            self.events.append(SimEvent(t, "frame_start", -1, -1, rec.index))

    def _finish_frame(self, t: float) -> None:
        frame = self.inflight
        self.inflight = None
        rec = frame.record
        self.frames.append(rec)
        rng = None
        if not self.error_free:
            rng = np.random.default_rng([self.cfg.seed, 53, rec.index])
        failures: dict[int, list[Packet]] = {}
        for pkt in frame.members:
            ok = True
            if rng is not None:
                snr = float(self.budget.gamma[pkt.flow]) * rec.scale
                ok = bool(rng.random() >= packet_error_rate(snr, pkt.bits, self.cfg.r))
            if ok:
                self.n_delivered += 1
                self.dhat[pkt.key] = t
                if pkt.arrival >= self.warmup_t:
                    self.n_delivered_m += 1
                    self.delay_sum_m += t - pkt.arrival
                if self.warmup_t < t <= self.horizon:
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
        self.t_end = max(self.t_end, t)

    # -- main loop ------------------------------------------------------------

    def run(self) -> RunResult:
        if self.traffic.infinite_backlog:
            self._run_saturated()
        else:
            self._run_trace()
        return self._finalise()

    def _run_saturated(self) -> None:
        if self.max_frames is None:
            raise ValueError("saturated mode needs max_frames")
        self._instant(0.0)
        while self.inflight is not None:
            t = self.inflight.record.depart
            self._finish_frame(t)
            if self.frames_started < self.max_frames:
                self._instant(t)
        self.horizon = self.t_end

    def _run_trace(self) -> None:
        times, flows = self._generate_arrivals()
        i, n = 0, len(times)
        while True:
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
            if self.inflight is None:
                self._instant(t)

    # -- reporting ------------------------------------------------------------

    def _t_stop(self) -> float:
        if self.traffic.infinite_backlog:
            return self.t_end
        return self.horizon

    def _bound_report(self) -> BoundReport:
        self.gps.drain()
        trace = self.gps.trace()
        cfg = self.cfg
        t_stop = self._t_stop()
        per_packet = cfg.L / cfg.bits_per_symbol          # symbols per packet
        m = self.m_eff
        rep = BoundReport()
        ordered_modes = self.mode in (PGPS, MPGPS)

        # delay gap vs the fluid reference
        gaps = np.array([t - trace.departures[key]
                         for key, t in self.dhat.items()], dtype=float)
        dbound = (2 * m - 1) * per_packet
        obs = float(gaps.max()) if gaps.size else 0.0
        rep.entries.append(BoundCheck(
            "delay_gap", dbound, obs,
            int((gaps > dbound + BOUND_EPS).sum()), applicable=ordered_modes,
            note=f"{gaps.size} packets"))

        # tighter delay gap when the whole run selected in fluid-departure order
        in_order = True
        prev_max = -math.inf
        for keys in self.batch_keys:
            ds = [trace.departures[k] for k in keys]
            if min(ds) < prev_max - BOUND_EPS:
                in_order = False
                break
            prev_max = max(prev_max, max(ds))
        obound = (m - 1) * per_packet
        rep.entries.append(BoundCheck(
            "delay_gap_in_order", obound, obs if in_order else float("nan"),
            int((gaps > obound + BOUND_EPS).sum()) if in_order else 0,
            applicable=ordered_modes and in_order,
            note="selection followed fluid departure order" if in_order else
                 "selection order differed from fluid departures"))

        # service gap, fluid minus transmitted, at every breakpoint
        curves = metrics_mod.service_curves(
            ((f.start, f.depart, f.g) for f in self.frames), cfg.K, cfg.L)
        sbound = (2 * m - 1) * cfg.L
        worst_s = 0.0
        viol_s = 0
        for k in range(cfg.K):
            tk, bk = curves[k]
            grid = np.unique(np.concatenate((
                trace.seg_t[trace.seg_t <= t_stop], tk[tk <= t_stop], [t_stop])))
            gap = trace.service_at(k, grid) - np.interp(grid, tk, bk)
            worst_s = max(worst_s, float(gap.max()))
            viol_s += int((gap > sbound + BOUND_EPS).sum())
        rep.entries.append(BoundCheck(
            "service_gap", sbound, worst_s, viol_s, applicable=ordered_modes))

        # backlog gap in packets: fluid departures minus transmitted departures
        qbound = 2 * m - 1
        worst_q = 0
        viol_q = 0
        for k in range(cfg.K):
            gps_d = np.sort(np.array([d for (fl, _), d in trace.departures.items()
                                      if fl == k and d <= t_stop]))
            mp_d = np.sort(np.array([t for (fl, _), t in self.dhat.items() if fl == k]))
            if gps_d.size == 0:
                continue
            counts_mp = np.searchsorted(mp_d, gps_d + BOUND_EPS, side="right")
            diff = np.arange(1, gps_d.size + 1) - counts_mp
            worst_q = max(worst_q, int(diff.max()))
            viol_q += int((diff > qbound).sum())
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
        span = max(self._t_stop() - self.warmup_t, 0.0)
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

        bounds = None
        if self.verify:
            bounds = self._bound_report()
            m.bound_violations = {e.name: e.violations for e in bounds.entries
                                  if e.applicable}

        if self.collect_fairness:
            curves = metrics_mod.service_curves(
                ((f.start, f.depart, f.g) for f in self.frames), cfg.K, cfg.L)
            lo, hi = self.warmup_t, self._t_stop()
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
