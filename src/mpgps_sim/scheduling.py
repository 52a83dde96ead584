"""Batch selection disciplines and the opportunistic lag ledger.

Three ways to pick the next batch:

* mpgps: take the min(M, backlog) queued packets with the smallest virtual
  finishing stamps; with M = 1 this is classic packetised fair queueing.
* ampgps: grow the batch one server at a time, keeping the cheapest
  power-per-bit batch seen so far, and stop as soon as adding a server no
  longer strictly helps.
* ompgps: look at a window of the U earliest stamps and pick the batch
  composition inside the window with the cheapest power per bit.

Reordering freedom is audited by a ledger comparing the opportunistic run
against a lockstep stamp-ordered shadow; the number of packets the shadow
has sent but the real system has not can never exceed U - M.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import allocation
from .model import FlowQueue, Packet, SystemConfig

PGPS = "pgps"
MPGPS = "mpgps"
AMPGPS = "ampgps"
OMPGPS = "ompgps"
MODES = (PGPS, MPGPS, AMPGPS, OMPGPS)


class BoundViolation(RuntimeError):
    """An audited invariant failed during a run; always a bug somewhere."""


@dataclass
class ScheduleDecision:
    """Outcome of one scheduling instant."""

    mode: str
    g: tuple[int, ...]           # packets per flow
    chosen: list[Packet]
    window: tuple[int, ...] | None = None    # window occupancy per flow, opportunistic only
    per_bit_power: float | None = None       # bookkeeping value used to pick the batch

    @property
    def m_sel(self) -> int:
        return len(self.chosen)


def _smallest_stamps(queues: list[FlowQueue], count: int) -> list[Packet]:
    """The ``count`` queued packets with smallest stamps, per-flow FIFO respected.

    Stamps strictly increase along each flow's queue, so a k-way merge over
    queue heads is enough. Ties break by (stamp, flow index, queue position).
    """
    heap: list[tuple[float, int, int]] = []
    for q in queues:
        if q.fifo:
            heap.append((q.fifo[0].vfinish, q.flow, 0))
    heapq.heapify(heap)
    out: list[Packet] = []
    while heap and len(out) < count:
        _, flow, pos = heapq.heappop(heap)
        fifo = queues[flow].fifo
        out.append(fifo[pos])
        if pos + 1 < len(fifo):
            heapq.heappush(heap, (fifo[pos + 1].vfinish, flow, pos + 1))
    return out


def total_backlog(queues: list[FlowQueue]) -> int:
    return sum(len(q) for q in queues)


def select_mpgps(queues: list[FlowQueue], m: int) -> ScheduleDecision:
    """Stamp-ordered batch of up to ``m`` packets."""
    if m < 1:
        raise ValueError("m must be positive")
    chosen = _smallest_stamps(queues, m)
    if not chosen:
        raise ValueError("nothing queued")
    g = [0] * len(queues)
    for pkt in chosen:
        g[pkt.flow] += 1
    return ScheduleDecision(mode=MPGPS, g=tuple(g), chosen=chosen)


def select_window(queues: list[FlowQueue], u: int) -> tuple[int, ...]:
    """Window occupancy: how many of the U earliest stamps each flow holds."""
    if u < 1:
        raise ValueError("u must be positive")
    occ = [0] * len(queues)
    for pkt in _smallest_stamps(queues, u):
        occ[pkt.flow] += 1
    return tuple(occ)


def compositions(total: int, bounds):
    """All integer vectors 0 <= g <= bounds with sum(g) == total, lexicographic."""
    bounds = tuple(bounds)
    n = len(bounds)
    tail = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail[i] = tail[i + 1] + bounds[i]
    g = [0] * n

    def rec(i: int, left: int):
        if i == n:
            yield tuple(g)
            return
        lo = max(0, left - tail[i + 1])
        hi = min(bounds[i], left)
        for v in range(lo, hi + 1):
            g[i] = v
            yield from rec(i + 1, left - v)
        g[i] = 0

    if 0 <= total <= tail[0]:
        yield from rec(0, total)


def _take_prefixes(queues: list[FlowQueue], g) -> list[Packet]:
    out: list[Packet] = []
    for q, cnt in zip(queues, g):
        for pos in range(cnt):
            out.append(q.fifo[pos])
    return out


def ompgps_schedule(queues: list[FlowQueue], m: int, u: int,
                    powers: np.ndarray, cfg: SystemConfig) -> ScheduleDecision:
    """Cheapest batch composition within the window of U earliest stamps.

    ``powers`` is the (K, N) matrix of per-slot transmit powers meeting each
    user's SNR target this frame. Every feasible composition is evaluated
    with the exact assignment solver; ties keep the first (lexicographically
    smallest) composition.
    """
    if u < m:
        raise ValueError("window must be at least the batch size")
    occupancy = select_window(queues, u)
    m_sel = min(m, total_backlog(queues))
    if m_sel < 1:
        raise ValueError("nothing queued")
    best_g: tuple[int, ...] | None = None
    best_val = float("inf")
    for g in compositions(m_sel, occupancy):
        val = allocation.composition_value(powers, g, cfg.N, cfg.r)
        if val < best_val:
            best_val = val
            best_g = g
    assert best_g is not None
    return ScheduleDecision(mode=OMPGPS, g=best_g, chosen=_take_prefixes(queues, best_g),
                            window=occupancy, per_bit_power=best_val)


def ampgps_schedule(queues: list[FlowQueue], m_max: int,
                    powers: np.ndarray, cfg: SystemConfig) -> ScheduleDecision:
    """Grow the batch while power per bit strictly improves.

    Starts from the single best-stamped packet, then adds one server at a
    time, re-ranking by stamps; the first non-improving step (ties included)
    stops the search and the cheapest batch seen wins.
    """
    best = select_mpgps(queues, 1)
    best_val = allocation.composition_value(powers, best.g, cfg.N, cfg.r)
    init_val = best_val
    m = 1
    while m < m_max:
        m += 1
        cand = select_mpgps(queues, m)
        if cand.m_sel == best.m_sel:
            break                      # backlog exhausted, nothing new to add
        val = allocation.composition_value(powers, cand.g, cfg.N, cfg.r)
        if val < best_val:
            best_val = val
            best = cand
        else:
            break
    if best_val > init_val:
        raise BoundViolation("adaptive batch became costlier than its own seed")
    return ScheduleDecision(mode=AMPGPS, g=best.g, chosen=best.chosen,
                            per_bit_power=best_val)


@dataclass
class LagStep:
    """Classification of one opportunistic scheduling instant."""

    g_lag: int
    g_sync: int
    g_lead: int
    m_lag: int
    m_sync: int
    m_lead: int
    drift: int                   # change of the aggregate lag at this instant


@dataclass
class LagLedger:
    """Tracks how far the opportunistic schedule trails its stamp-ordered shadow.

    ``lag`` holds packets the shadow has already sent while the real system
    still queues them; ``lead`` is the mirror set. The two stay the same
    size, every drift step obeys the window classification identity, and the
    lag size must never exceed U - M.
    """

    bound: int
    lag: set = field(default_factory=set)
    lead: set = field(default_factory=set)
    max_lag: int = 0
    violations: int = 0
    steps: int = 0

    def update(self, window_ids: set, decision_ids: set, shadow_ids: set) -> LagStep:
        g_lag = len(window_ids & self.lag)
        g_sync = len(window_ids & shadow_ids)
        g_lead = len(window_ids) - g_lag - g_sync
        m_lag = len(decision_ids & self.lag)
        m_sync = len(decision_ids & shadow_ids)
        m_lead = len(decision_ids) - m_lag - m_sync
        before = len(self.lag)
        new_lag = (self.lag - decision_ids) | (shadow_ids - decision_ids - self.lead)
        new_lead = (self.lead - shadow_ids) | (decision_ids - shadow_ids - self.lag)
        self.lag, self.lead = new_lag, new_lead
        drift = len(self.lag) - before
        if drift != g_sync - m_sync - m_lag:
            raise BoundViolation("lag accounting identity failed")
        if len(self.lag) != len(self.lead):
            raise BoundViolation("lag and lead sets diverged in size")
        self.steps += 1
        self.max_lag = max(self.max_lag, len(self.lag))
        if len(self.lag) > self.bound:
            self.violations += 1
        return LagStep(g_lag, g_sync, g_lead, m_lag, m_sync, m_lead, drift)
