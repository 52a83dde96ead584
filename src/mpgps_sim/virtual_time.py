"""Virtual-time clock and event-driven fluid reference for weighted fair sharing.

The clock measures progress of an ideal fluid system that serves all
backlogged flows simultaneously, each at a rate proportional to its weight.
Each arriving packet gets one virtual finishing stamp, and it finishes in
the fluid system exactly when the clock reaches that stamp. Batch
disciplines rank packets by these stamps, and the recorded fluid departure
times double as the reference for every delay, service, and backlog gap
check.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GpsTrace:
    """Recorded behaviour of the fluid reference over one run, in read-only arrays.

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
    An arrival first settles the fluid departures due by its time, then
    moves the clock to it. Every packet is ``bits`` long. With ``record`` on,
    it keeps each packet's fluid departure time, by arrival order, and the
    piecewise service rates. The whole reference restarts (stamps included)
    whenever its backlog drains, so stamps are only compared within one busy
    period.

    The clock ``V`` is piecewise linear: between events it grows at
    rate/weight_sum per symbol, so one unit of virtual time is one bit of
    service per unit weight, and it holds still while nothing is backlogged.

    One ``stamp`` call stamps a whole arrival trace or a saturated run's
    top-up. It, its one-arrival case ``on_arrival`` and ``drain``, which runs
    the departure step to the end, share the one copy of this arithmetic
    (``_advance``); ``_restart`` is the one place a busy period restarts.
    """

    def __init__(self, weights, rate: float, bits: int, record: bool = False):
        self.weights = tuple(float(w) for w in weights)
        self.rate = float(rate)
        self.lengths = [bits / w for w in self.weights]  # one packet in virtual time
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

    def _restart(self, t: float) -> None:
        """Start a busy period at ``t``, stamps from zero; weight_sum is already 0."""
        self.V = 0.0
        self.t_last = t
        self.prev_finish = [0.0] * len(self.weights)

    def _advance(self, events) -> list[float]:
        """Run the fluid system through ``events``, (time, flow) pairs in time
        order, and return the stamps of the packets they add. Each event first
        settles the fluid departures due by its time; a flow of None adds no
        packet. The state lives in locals and is written back once."""
        heap, rate, weights, lengths = self._heap, self.rate, self.weights, self.lengths
        pending, record = self.pending, self._record
        departures, flow_log = self.departures, self.flows
        seg_t, seg_mask, seg_phi = self._seg_t, self._seg_mask, self._seg_phi
        seg_last = seg_t[-1] if seg_t else math.nan      # the last segment's start
        V, t_last, weight_sum, mask = self.V, self.t_last, self.weight_sum, self._mask
        prev_finish, idle_since, arrived = self.prev_finish, self.idle_since, self.arrived
        heappop, heappush = heapq.heappop, heapq.heappush
        # each max(a, b) below is written as a comparison, which picks the
        # value max() picks and costs less than the call
        stamps: list[float] = []
        try:
            for t, flow in events:
                while heap:
                    f_min = heap[0][0]
                    # a queued packet keeps its flow's weight in weight_sum, so the
                    # clock is running here and reaches f_min at t_dep >= t_last
                    t_dep = t_last + (f_min - V) * weight_sum / rate
                    if t_last > t_dep:
                        t_dep = t_last
                    if t_dep > t:
                        break
                    # advance the clock to t_dep, where it provably reaches f_min: clamp out roundoff
                    if weight_sum > 0.0:
                        V += rate * (t_dep - t_last) / weight_sum
                    t_last = t_dep
                    if f_min > V:
                        V = f_min
                    while heap and heap[0][0] <= V:
                        _, done, index = heappop(heap)
                        if record:
                            departures[index] = t_dep
                        pending[done] -= 1
                        if pending[done] == 0:
                            weight_sum -= weights[done]
                            mask &= ~(1 << done)
                    if mask == 0:
                        weight_sum = 0.0
                        idle_since = t_dep
                    if record:
                        if seg_last == t_dep:
                            # collapse zero-length segments in place
                            seg_mask[-1] = mask
                            seg_phi[-1] = weight_sum
                        else:
                            seg_t.append(t_dep)
                            seg_mask.append(mask)
                            seg_phi.append(weight_sum)
                            seg_last = t_dep
                if flow is None:
                    break
                if mask == 0 and idle_since is not None and t > idle_since:
                    self._restart(t)
                    V, t_last, prev_finish = self.V, self.t_last, self.prev_finish
                else:
                    # advance the clock to t, with no event in between
                    if t < t_last:
                        raise ValueError("arrivals must come in time order")
                    if weight_sum > 0.0:
                        V += rate * (t - t_last) / weight_sum
                    t_last = t
                vfinish = prev_finish[flow]
                if V > vfinish:
                    vfinish = V
                vfinish += lengths[flow]
                prev_finish[flow] = vfinish
                if pending[flow] == 0:
                    weight_sum += weights[flow]
                    mask |= 1 << flow
                pending[flow] += 1
                idle_since = None
                heappush(heap, (vfinish, flow, arrived))
                arrived += 1
                if record:
                    departures.append(math.nan)
                    flow_log.append(flow)
                    if seg_last == t:
                        seg_mask[-1] = mask
                        seg_phi[-1] = weight_sum
                    else:
                        seg_t.append(t)
                        seg_mask.append(mask)
                        seg_phi.append(weight_sum)
                        seg_last = t
                stamps.append(vfinish)
        finally:
            self.V, self.t_last, self.weight_sum, self._mask = V, t_last, weight_sum, mask
            self.prev_finish, self.idle_since, self.arrived = prev_finish, idle_since, arrived
        return stamps

    # -- public interface ----------------------------------------------------

    def stamp(self, times, flows) -> list[float]:
        """Add packets of ``flows`` arriving at ``times``, in time order; return
        their finishing stamps. Calls carry on from one another, so a trace
        may come in one call or in several."""
        return self._advance(zip(times, flows))

    def on_arrival(self, t: float, flow: int) -> float:
        """Add a packet of ``flow`` arriving at ``t``; return its finishing stamp."""
        return self._advance(((t, flow),))[0]

    def drain(self) -> None:
        """Run the fluid system to completion (no more arrivals)."""
        self._advance(((math.inf, None),))

    def trace(self) -> GpsTrace:
        arrays = {"departures": np.asarray(self.departures, dtype=float),
                  "flows": np.asarray(self.flows, dtype=np.int64)}
        if self._record:
            end = self._seg_t[-1] if self._seg_t else 0.0
            arrays.update(seg_t=np.asarray(self._seg_t + [end], dtype=float),
                          seg_mask=np.asarray(self._seg_mask, dtype=np.int64),
                          seg_phi=np.asarray(self._seg_phi, dtype=float))
        for a in arrays.values():
            a.flags.writeable = False
        return GpsTrace(self.weights, self.rate, **arrays)

