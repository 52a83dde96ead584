"""Virtual-time clock and event-driven fluid reference for weighted fair sharing.

The clock measures progress of an ideal fluid system that serves all
backlogged flows simultaneously, each at a rate proportional to its weight.
Packets are stamped on arrival with virtual start and finishing times; a
packet finishes in the fluid system exactly when the clock reaches its
finishing stamp. Batch disciplines rank packets by these stamps, and the
recorded fluid departure times double as the reference for every delay,
service, and backlog gap check.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .model import Packet


@dataclass
class VirtualClock:
    """Piecewise-linear clock over the backlogged-weight sum.

    Between events the clock grows at rate/weight_sum per symbol, so one unit
    of virtual time corresponds to one bit of service per unit weight. While
    no flow is backlogged the clock holds still.
    """

    rate: float                  # aggregate service rate, bits per symbol
    V: float = 0.0
    t_last: float = 0.0
    weight_sum: float = 0.0

    def advance(self, now: float) -> None:
        """Move the clock forward to real time ``now`` (no event in between)."""
        if now < self.t_last:
            raise ValueError("clock cannot run backwards")
        if self.weight_sum > 0.0:
            self.V += self.rate * (now - self.t_last) / self.weight_sum
        self.t_last = now

    def next_event_time(self, f_min: float) -> float:
        """Real time at which the clock reaches virtual time ``f_min``."""
        if self.weight_sum <= 0.0:
            raise ValueError("idle clock never reaches a finishing stamp")
        return self.t_last + (f_min - self.V) * self.weight_sum / self.rate

    def reset(self, t: float) -> None:
        """Start a fresh busy period at real time ``t``."""
        self.V = 0.0
        self.t_last = t
        self.weight_sum = 0.0


def stamp(packet: Packet, clock: VirtualClock, prev_finish: float, weight: float) -> None:
    """Assign virtual start/finish stamps to a newly arrived packet."""
    packet.vstart = max(prev_finish, clock.V)
    packet.vfinish = packet.vstart + packet.bits / weight


@dataclass
class GpsTrace:
    """Recorded behaviour of the fluid reference over one run.

    ``departures`` maps (flow, seq) to the fluid departure time in symbols.
    Segment arrays describe the piecewise-constant service rates: segment i
    spans [seg_t[i], seg_t[i+1]) and serves the flows set in the seg_mask[i]
    bitmask, splitting the full rate over backlogged weight seg_phi[i].
    """

    weights: tuple[float, ...]
    rate: float
    departures: dict[tuple[int, int], float] = field(default_factory=dict)
    seg_t: np.ndarray | None = None
    seg_mask: np.ndarray | None = None
    seg_phi: np.ndarray | None = None

    def service_curve(self, flow: int) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative bits served to ``flow``: breakpoint times and values."""
        active = (self.seg_mask >> flow) & 1
        span = np.diff(self.seg_t)
        phi = np.where(self.seg_phi > 0, self.seg_phi, 1.0)
        rates = np.where(active == 1, self.rate * self.weights[flow] / phi, 0.0)
        bits = np.concatenate(([0.0], np.cumsum(rates * span)))
        return self.seg_t, bits

    def service_at(self, flow: int, times: np.ndarray) -> np.ndarray:
        t, bits = self.service_curve(flow)
        return np.interp(times, t, bits)

    def busy_time(self) -> float:
        """Total time with positive backlog, in symbols."""
        span = np.diff(self.seg_t)
        return float(span[self.seg_phi > 0].sum())


class GpsReference:
    """Online fluid reference driven by the arrival stream.

    Feeding arrivals in time order stamps each packet against the shared
    clock and tracks the fluid system exactly: flows join the backlogged set
    on arrival and leave when the clock passes their last finishing stamp.
    Fluid departure times are recorded for every packet on the way. The
    whole reference restarts (stamps included) whenever its backlog drains,
    so stamps are only ever compared within one busy period.
    """

    def __init__(self, weights, rate: float, record_segments: bool = False):
        self.weights = tuple(float(w) for w in weights)
        self.rate = float(rate)
        self.clock = VirtualClock(rate=self.rate)
        self.prev_finish = [0.0] * len(self.weights)
        self.pending = [0] * len(self.weights)      # unfinished fluid packets per flow
        self._heap: list[tuple[float, int, int]] = []   # (vfinish, flow, seq)
        self.departures: dict[tuple[int, int], float] = {}
        self.idle_since: float | None = 0.0
        self._record = record_segments
        self._seg_t: list[float] = []
        self._seg_mask: list[int] = []
        self._seg_phi: list[float] = []
        self._mask = 0

    # -- internal bookkeeping ------------------------------------------------

    def _snapshot(self, t: float) -> None:
        if not self._record:
            return
        if self._seg_t and self._seg_t[-1] == t:
            # collapse zero-length segments in place
            self._seg_mask[-1] = self._mask
            self._seg_phi[-1] = self.clock.weight_sum
            return
        self._seg_t.append(t)
        self._seg_mask.append(self._mask)
        self._seg_phi.append(self.clock.weight_sum)

    def _pop_departures_until(self, t: float) -> None:
        """Process every fluid departure not later than real time ``t``."""
        while self._heap:
            f_min = self._heap[0][0]
            t_dep = max(self.clock.next_event_time(f_min), self.clock.t_last)
            if t_dep > t:
                break
            self.clock.advance(t_dep)
            # the clock provably reaches f_min here; clamp out roundoff
            self.clock.V = max(self.clock.V, f_min)
            while self._heap and self._heap[0][0] <= self.clock.V:
                _, flow, seq = heapq.heappop(self._heap)
                self.departures[(flow, seq)] = t_dep
                self.pending[flow] -= 1
                if self.pending[flow] == 0:
                    self.clock.weight_sum -= self.weights[flow]
                    self._mask &= ~(1 << flow)
            if self._mask == 0:
                self.clock.weight_sum = 0.0
                self.idle_since = t_dep
            self._snapshot(t_dep)

    # -- public interface ----------------------------------------------------

    def on_arrival(self, packet: Packet) -> None:
        """Stamp an arriving packet and add it to the fluid system."""
        t = packet.arrival
        self._pop_departures_until(t)
        if self._mask == 0 and self.idle_since is not None and t > self.idle_since:
            # a fresh busy period: stamps restart from zero
            self.clock.reset(t)
            self.prev_finish = [0.0] * len(self.weights)
        else:
            self.clock.advance(t)
        flow = packet.flow
        stamp(packet, self.clock, self.prev_finish[flow], self.weights[flow])
        self.prev_finish[flow] = packet.vfinish
        if self.pending[flow] == 0:
            self.clock.weight_sum += self.weights[flow]
            self._mask |= 1 << flow
        self.pending[flow] += 1
        self.idle_since = None
        heapq.heappush(self._heap, (packet.vfinish, flow, packet.seq))
        self._snapshot(t)

    def drain(self) -> None:
        """Run the fluid system to completion (no more arrivals)."""
        self._pop_departures_until(math.inf)

    def trace(self) -> GpsTrace:
        tr = GpsTrace(weights=self.weights, rate=self.rate, departures=self.departures)
        if self._record:
            end = self._seg_t[-1] if self._seg_t else 0.0
            tr.seg_t = np.asarray(self._seg_t + [end], dtype=float)
            tr.seg_mask = np.asarray(self._seg_mask, dtype=np.int64)
            tr.seg_phi = np.asarray(self._seg_phi, dtype=float)
        return tr


def gps_simulate(arrivals, weights, rate: float, record_segments: bool = True) -> GpsTrace:
    """Run the fluid reference over a full arrival trace.

    ``arrivals`` is an iterable of packets (anything with flow, seq, arrival,
    bits) already sorted by arrival time. Stamps are written onto the packets
    as a side effect, exactly as the online reference would.
    """
    ref = GpsReference(weights, rate, record_segments=record_segments)
    for pkt in arrivals:
        ref.on_arrival(pkt)
    ref.drain()
    return ref.trace()
