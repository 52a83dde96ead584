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
from dataclasses import dataclass

import numpy as np

from .model import Packet


@dataclass
class GpsTrace:
    """Recorded behaviour of the fluid reference over one run.

    ``departures`` holds each packet's fluid departure time in symbols and
    ``flows`` its flow, both in arrival order. Segment arrays describe the
    piecewise-constant service rates: segment i spans [seg_t[i], seg_t[i+1])
    and serves the flows set in the seg_mask[i] bitmask, splitting the full
    rate over backlogged weight seg_phi[i].
    """

    weights: tuple[float, ...]
    rate: float
    departures: np.ndarray
    flows: np.ndarray
    seg_t: np.ndarray | None = None
    seg_mask: np.ndarray | None = None
    seg_phi: np.ndarray | None = None

    def service_at(self, flow: int, times: np.ndarray) -> np.ndarray:
        """Cumulative bits served to ``flow`` by each of ``times``."""
        active = (self.seg_mask >> flow) & 1
        phi = np.where(self.seg_phi > 0, self.seg_phi, 1.0)
        rates = np.where(active == 1, self.rate * self.weights[flow] / phi, 0.0)
        bits = np.concatenate(([0.0], np.cumsum(rates * np.diff(self.seg_t))))
        return np.interp(times, self.seg_t, bits)


class GpsReference:
    """Online fluid reference driven by the arrival stream.

    Feeding arrivals in time order stamps each packet against the shared
    clock and tracks the fluid system exactly: flows join the backlogged set
    on arrival and leave when the clock passes their last finishing stamp.
    With ``record`` on, it keeps every packet's fluid departure time, indexed
    by arrival order, and the piecewise service rates. The whole reference
    restarts (stamps included) whenever its backlog drains, so stamps are
    only ever compared within one busy period.

    The clock ``V`` is piecewise linear: between events it grows at
    rate/weight_sum per symbol, so one unit of virtual time is one bit of
    service per unit weight, and it holds still while nothing is backlogged.
    """

    def __init__(self, weights, rate: float, record: bool = False):
        self.weights = tuple(float(w) for w in weights)
        self.rate = float(rate)
        self.V = 0.0
        self.t_last = 0.0
        self.weight_sum = 0.0                       # weight of the backlogged flows
        self.prev_finish = [0.0] * len(self.weights)
        self.pending = [0] * len(self.weights)      # unfinished fluid packets per flow
        self._heap: list[tuple[float, int, int]] = []   # (vfinish, flow, index)
        self.arrived = 0
        self.departures: list[float] = []           # by arrival index, when recording
        self.flows: list[int] = []
        self.idle_since: float | None = 0.0
        self._record = record
        self._seg_t: list[float] = []
        self._seg_mask: list[int] = []
        self._seg_phi: list[float] = []
        self._mask = 0

    # -- internal bookkeeping ------------------------------------------------

    def _advance(self, now: float) -> None:
        """Move the clock forward to real time ``now`` (no event in between)."""
        if now < self.t_last:
            raise ValueError("arrivals must come in time order")
        if self.weight_sum > 0.0:
            self.V += self.rate * (now - self.t_last) / self.weight_sum
        self.t_last = now

    def _restart(self, t: float) -> None:
        """Start a busy period at ``t``, stamps from zero; weight_sum is already 0."""
        self.V = 0.0
        self.t_last = t
        self.prev_finish = [0.0] * len(self.weights)

    def _snapshot(self, t: float) -> None:
        if not self._record:
            return
        if self._seg_t and self._seg_t[-1] == t:
            # collapse zero-length segments in place
            self._seg_mask[-1] = self._mask
            self._seg_phi[-1] = self.weight_sum
            return
        self._seg_t.append(t)
        self._seg_mask.append(self._mask)
        self._seg_phi.append(self.weight_sum)

    def _pop_departures_until(self, t: float) -> None:
        """Process every fluid departure not later than real time ``t``."""
        while self._heap:
            f_min = self._heap[0][0]
            # a queued packet keeps its flow's weight in weight_sum, so the
            # clock is running here and reaches f_min at t_dep
            t_dep = max(self.t_last + (f_min - self.V) * self.weight_sum / self.rate,
                        self.t_last)
            if t_dep > t:
                break
            self._advance(t_dep)
            # the clock provably reaches f_min here; clamp out roundoff
            self.V = max(self.V, f_min)
            while self._heap and self._heap[0][0] <= self.V:
                _, flow, index = heapq.heappop(self._heap)
                if self._record:
                    self.departures[index] = t_dep
                self.pending[flow] -= 1
                if self.pending[flow] == 0:
                    self.weight_sum -= self.weights[flow]
                    self._mask &= ~(1 << flow)
            if self._mask == 0:
                self.weight_sum = 0.0
                self.idle_since = t_dep
            self._snapshot(t_dep)

    # -- public interface ----------------------------------------------------

    def on_arrival(self, packet: Packet) -> None:
        """Stamp an arriving packet and add it to the fluid system."""
        t = packet.arrival
        self._pop_departures_until(t)
        if self._mask == 0 and self.idle_since is not None and t > self.idle_since:
            self._restart(t)
        else:
            self._advance(t)
        flow = packet.flow
        packet.vstart = max(self.prev_finish[flow], self.V)
        packet.vfinish = packet.vstart + packet.bits / self.weights[flow]
        self.prev_finish[flow] = packet.vfinish
        if self.pending[flow] == 0:
            self.weight_sum += self.weights[flow]
            self._mask |= 1 << flow
        self.pending[flow] += 1
        self.idle_since = None
        if self._record:
            self.departures.append(math.nan)
            self.flows.append(flow)
        heapq.heappush(self._heap, (packet.vfinish, flow, self.arrived))
        self.arrived += 1
        self._snapshot(t)

    def drain(self) -> None:
        """Run the fluid system to completion (no more arrivals)."""
        self._pop_departures_until(math.inf)

    def trace(self) -> GpsTrace:
        tr = GpsTrace(weights=self.weights, rate=self.rate,
                      departures=np.asarray(self.departures, dtype=float),
                      flows=np.asarray(self.flows, dtype=np.int64))
        if self._record:
            end = self._seg_t[-1] if self._seg_t else 0.0
            tr.seg_t = np.asarray(self._seg_t + [end], dtype=float)
            tr.seg_mask = np.asarray(self._seg_mask, dtype=np.int64)
            tr.seg_phi = np.asarray(self._seg_phi, dtype=float)
        return tr

