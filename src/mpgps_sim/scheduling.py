"""Batch selection disciplines and the opportunistic lag ledger.

Three ways to pick the next batch:

* mpgps: take the min(M, backlog) queued packets with the smallest virtual
  finishing stamps; with M = 1 this is classic packetised fair queueing.
  A run keeps its queues in ``HeadQueues``, whose heap of head packets
  lives across decisions, as packet-by-packet fair queueing keeps one
  priority queue of flow heads; ``HeadQueues.take`` pops the batch off it.
  ``select_mpgps`` k-way merges plain queues from scratch, for the
  opportunistic audit's stamp-ordered shadow.
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

import functools
import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import allocation
from .model import Packet, SystemConfig

# Ranking tables (allocation.RankTable) kept per (batch size, occupancy of
# the flows holding window slots, N), shared by ompgps windows and ampgps
# prefixes. An entry holds its compositions as a read-only int64 table over
# the held flows and, per block of RANK_BLOCK compositions, each one's first
# and last active position and first-row packets, and the active positions
# of those with three or more active rows; the split counts it scatters are
# shared per (batch size, N). Windows of up to U slots, over any number of
# flows, have 2**U - 1 occupancy shapes: the cache holds every shape up to
# U = 10. At U = 10 and N = 64 all 1,023 entries take ~4.5 MB at M = 5, the
# batch size with the most compositions (37,839), and ~1.9 MB at M = 2.
COMPOSITION_CACHE = 1024

PGPS = "pgps"
MPGPS = "mpgps"
AMPGPS = "ampgps"
OMPGPS = "ompgps"
MODES = (PGPS, MPGPS, AMPGPS, OMPGPS)


class BoundViolation(RuntimeError):
    """An audited invariant failed during a run; always a bug somewhere."""


@dataclass
class ScheduleDecision:
    """Outcome of one scheduling instant.

    ``chosen`` holds the queued packets themselves, each flow's ``g[k]`` of
    them taken from the head of its queue; the caller pops them.
    """

    g: tuple[int, ...]           # packets per flow
    chosen: list[Packet]
    window: list[Packet] | None = None       # the U earliest stamps, opportunistic only
    per_bit_power: float | None = None       # bookkeeping value used to pick the batch

    @property
    def m_sel(self) -> int:
        return len(self.chosen)


def _smallest_stamps(queues: list[deque[Packet]], count: int) -> list[Packet]:
    """The ``count`` queued packets with smallest stamps, per-flow FIFO respected.

    A hand-written k-way merge of the flow-indexed queues (``heapq.merge`` ran
    slower): a packet enters the heap once the one ahead of it is taken.
    Ties break by (stamp, flow index, queue position).
    """
    heap = [(q[0].vfinish, flow, 0) for flow, q in enumerate(queues) if q]
    heapq.heapify(heap)
    out: list[Packet] = []
    while heap and len(out) < count:
        _, flow, pos = heapq.heappop(heap)
        q = queues[flow]
        out.append(q[pos])
        if pos + 1 < len(q):
            heapq.heappush(heap, (q[pos + 1].vfinish, flow, pos + 1))
    return out


class HeadQueues(list):
    """Per-flow FIFO deques plus ``heads``, a heap holding exactly the head
    packet of each non-empty queue; a ``Packet`` orders as (stamp, flow, seq).

    The heap is kept whole through the container: ``admit`` queues a packet
    (pushing it if its queue was empty), ``take`` pops the heads a decision
    chooses off their queues and puts each one's successor in its place, and
    ``rebuild`` follows any other change at a queue head (a drop, a failed
    packet requeued in front). Heads are never re-seeded lazily: a flow's
    stamps restart with each fluid busy period, so a packet behind the head
    can carry a smaller stamp.
    """

    __slots__ = ("heads",)

    def __init__(self, k: int):
        super().__init__(deque() for _ in range(k))
        self.heads: list[Packet] = []

    def admit(self, pkt: Packet) -> None:
        q = self[pkt.flow]
        if not q:
            heapq.heappush(self.heads, pkt)
        q.append(pkt)

    def rebuild(self) -> None:
        self.heads[:] = [q[0] for q in self if q]
        heapq.heapify(self.heads)

    def take(self, count: int) -> tuple[list[Packet], tuple[int, ...]]:
        """Pop the stamp-ordered batch of up to ``count`` packets, the packets
        ``_smallest_stamps`` gives, off the head heap and their queues; return
        it and the packets per flow."""
        heads = self.heads
        out: list[Packet] = []
        g = [0] * len(self)
        while heads and len(out) < count:
            pkt = heads[0]
            q = self[pkt.flow]
            q.popleft()
            g[pkt.flow] += 1
            if q:
                heapq.heapreplace(heads, q[0])
            else:
                heapq.heappop(heads)
            out.append(pkt)
        return out, tuple(g)


def _per_flow(packets: list[Packet], k: int) -> tuple[int, ...]:
    counts = [0] * k
    for pkt in packets:
        counts[pkt.flow] += 1
    return tuple(counts)


def select_mpgps(queues: list[deque[Packet]], m: int) -> ScheduleDecision:
    """Stamp-ordered batch of up to ``m`` packets, merged afresh from the queues."""
    if m < 1:
        raise ValueError("m must be positive")
    chosen = _smallest_stamps(queues, m)
    if not chosen:
        raise ValueError("nothing queued")
    return ScheduleDecision(_per_flow(chosen, len(queues)), chosen)


def compositions(total: int, bounds) -> list[tuple[int, ...]]:
    """All integer vectors 0 <= g <= bounds with sum(g) == total, lexicographic.

    Built one coordinate at a time; a prefix is kept only if the bounds after
    it can still absorb what is left of the total.
    """
    level = [((), total)]
    tail = sum(bounds)
    for b in bounds:
        tail -= b
        level = [(g + (v,), left - v) for g, left in level
                 for v in range(max(0, left - tail), min(b, left) + 1)]
    return [g for g, left in level if left == 0]


@functools.lru_cache(maxsize=COMPOSITION_CACHE)
def _composition_table(total: int, bounds: tuple[int, ...],
                       n_subcarriers: int) -> allocation.RankTable:
    """``compositions(total, bounds)`` with the facts that rank them on N subcarriers."""
    table = np.array(compositions(total, bounds), dtype=np.int64).reshape(-1, len(bounds))
    return allocation.rank_table(table, total, n_subcarriers)


def _take_prefixes(queues: list[deque[Packet]], g) -> list[Packet]:
    return [q[pos] for q, cnt in zip(queues, g) for pos in range(cnt)]


def ompgps_schedule(queues: list[deque[Packet]], m: int, u: int,
                    powers: np.ndarray, cfg: SystemConfig) -> ScheduleDecision:
    """Cheapest batch composition within the window of U earliest stamps.

    ``powers`` is the (K, N) matrix of per-slot transmit powers meeting each
    user's SNR target this frame. Compositions range over the flows holding
    window slots only, in lexicographic order. They and the integer facts
    that rank them come from a bounded cache of ranking tables, keyed by the
    batch size, the window occupancy of the held flows and N, and all are
    ranked in one call of the exact ``composition_value``; ties keep the
    first (lexicographically smallest) composition.
    """
    if u < m:
        raise ValueError("window must be at least the batch size")
    window = _smallest_stamps(queues, u)
    occupancy = _per_flow(window, len(queues))
    m_sel = min(m, len(window))          # the window holds min(u, backlog), u >= m
    if m_sel < 1:
        raise ValueError("nothing queued")
    held = [k for k, occ in enumerate(occupancy) if occ]
    ranked = _composition_table(m_sel, tuple(occupancy[k] for k in held), cfg.N)
    values = allocation.composition_value(powers, held, ranked, cfg.r)
    best = values.argmin()
    g = [0] * len(queues)
    for k, cnt in zip(held, ranked.table[best].tolist()):
        g[k] = cnt
    best_g = tuple(g)
    return ScheduleDecision(g=best_g, chosen=_take_prefixes(queues, best_g),
                            window=window, per_bit_power=float(values[best]))


def ampgps_schedule(queues: list[deque[Packet]], m_max: int,
                    powers: np.ndarray, cfg: SystemConfig) -> ScheduleDecision:
    """Grow the batch while power per bit strictly improves.

    Starts from the single best-stamped packet, then adds the next packet in
    stamp order one server at a time (the first m packets of the ``m_max``
    smallest stamps are the m-packet stamp-ordered batch); the first
    non-improving step (ties included) stops the search and the cheapest
    batch seen wins. A prefix g is the one composition of sum(g) within the
    bounds g, so each step ranks the one-row table of the ompgps cache.
    """
    window = _smallest_stamps(queues, m_max)
    if not window:
        raise ValueError("nothing queued")
    counts = [0] * len(queues)
    best_g, best_val = None, None
    for size, pkt in enumerate(window, 1):
        counts[pkt.flow] += 1
        # the prefix is the one composition of its size within its own counts
        held = [k for k, cnt in enumerate(counts) if cnt]
        ranked = _composition_table(size, tuple(counts[k] for k in held), cfg.N)
        val = float(allocation.composition_value(powers, held, ranked, cfg.r)[0])
        if best_g is not None and not val < best_val:
            break
        best_g, best_val = tuple(counts), val
    return ScheduleDecision(g=best_g, chosen=window[:sum(best_g)], per_bit_power=best_val)


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

    def update(self, window_ids: set, decision_ids: set, shadow_ids: set) -> None:
        g_sync = len(window_ids & shadow_ids)
        m_lag = len(decision_ids & self.lag)
        m_sync = len(decision_ids & shadow_ids)
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
