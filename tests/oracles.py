"""Independent oracles the tests check the simulator against.

``brute_force_ilp`` enumerates tiny transportation instances exhaustively,
the reference for the exact solver's optimality (acceptance criterion 5).
``gps_simulate`` runs the online fluid reference over a whole arrival trace,
and ``GpsPerArrival`` is that reference stepped one arrival at a time, the
frozen reference for the batch ``GpsReference.stamp``.
``busy_intervals`` sweeps a flow's (+1/-1) in-system events after the run,
the reference for the engine's busy-interval tracker. ``group_size_search``
tries every divisor of the airtime, and ``layout_search`` gives one
composition's batch size, airtime (``model.frame_length``), searched group
size and quotas g_k * group * N // m_sel, the reference for
``allocation.frame_layouts``.
``fairness_pairwise`` takes the fairness gauge one flow pair and one
jointly-backlogged interval at a time, the reference for the grouped and
stacked ``metrics.fairness_metric``. ``poisson_times_chunked`` draws an
arrival trace in whole ``GAP_CHUNK`` chunks, the reference for the engine's
sized first draw; ``price_start_padded`` reads the price bracket from padded
thresholds, the reference for ``allocation._price_start``;
``composition_values_stacked`` solves a (C, K) stack of compositions with
``allocation._solve_stack`` on every call, the reference for the ranking
from cached split shapes in ``allocation.composition_value``; and
``ScanEveryInstant`` is the engine with the expiry scan run at every
instant, the reference for the skip on ``Engine.next_expiry``.
``one_composition_value`` is no oracle: it ranks one composition through the
package, as ampgps ranks a prefix.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

from mpgps_sim import Engine, TransportInstance, allocation, frame_length, scheduling
from mpgps_sim.allocation import PRICE_ROUNDS, RANK_BLOCK, _solve_stack
from mpgps_sim.engine import GAP_CHUNK, SimEvent
from mpgps_sim.metrics import _intersect, _window_extreme
from mpgps_sim.virtual_time import GpsReference, GpsTrace


class InstanceTooLarge(ValueError):
    """Instance beyond the exhaustive enumeration bound."""


def brute_force_ilp(instance: TransportInstance) -> tuple[np.ndarray, float]:
    """Exhaustive slot-by-slot enumeration, the oracle for solver exactness.

    Slots of one column are interchangeable, so the enumeration only visits
    non-decreasing user sequences within a column; with branch-and-bound
    pruning that keeps the largest admitted instances well under a second.
    """
    k, n = instance.alpha.shape
    if k * n * instance.group > 36:
        raise InstanceTooLarge("enumeration bound is K*G*N <= 36")
    slots = [col for col in range(n) for _ in range(instance.group)]
    best_val = math.inf
    best: np.ndarray | None = None
    counts = np.zeros((k, n), dtype=np.int64)
    remaining = instance.quotas.copy()

    def descend(i: int, acc: float, low: int) -> None:
        nonlocal best_val, best
        if acc >= best_val:
            return
        if i == len(slots):
            best_val = acc
            best = counts.copy()
            return
        col = slots[i]
        start = low if i and slots[i - 1] == col else 0
        for user in range(start, k):
            if remaining[user] == 0:
                continue
            remaining[user] -= 1
            counts[user, col] += 1
            descend(i + 1, acc + instance.alpha[user, col], user)
            counts[user, col] -= 1
            remaining[user] += 1

    descend(0, 0.0, 0)
    assert best is not None
    return best, float(best_val)


def gps_simulate(arrivals, weights, rate: float, bits: int) -> tuple[list[float], GpsTrace]:
    """Run the fluid reference over a full arrival trace of ``bits``-bit packets.

    ``arrivals`` is an iterable of (time, flow) pairs sorted by time. Returns
    each packet's finishing stamp, exactly as the online reference gives it,
    and the trace, both in the order of ``arrivals``.
    """
    arrivals = list(arrivals)
    ref = GpsReference(weights, rate, bits, record=True)
    stamps = ref.stamp([t for t, _ in arrivals], [flow for _, flow in arrivals])
    ref.drain()
    return stamps, ref.trace()


class GpsPerArrival:
    """The fluid reference stepped one arrival at a time, by method calls:
    each arrival settles the departures due by its time
    (``_pop_departures_until``), moves the clock or restarts the busy period,
    and records its segment (``_snapshot``). Same state and float operations,
    in the same order, as ``GpsReference.stamp``; its recorded lists keep
    ``GpsReference``'s names.
    """

    def __init__(self, weights, rate: float, bits: int, record: bool = False):
        self.weights = tuple(float(w) for w in weights)
        self.rate = float(rate)
        self.lengths = [bits / w for w in self.weights]
        self.V = 0.0
        self.t_last = 0.0
        self.weight_sum = 0.0
        self.prev_finish = [0.0] * len(self.weights)
        self.pending = [0] * len(self.weights)
        self._heap: list[tuple[float, int, int]] = []
        self.arrived = 0
        self.departures: list[float] = []
        self.flows: list[int] = []
        self.idle_since: float | None = 0.0
        self._record = record
        self._seg_t: list[float] = []
        self._seg_mask: list[int] = []
        self._seg_phi: list[float] = []
        self._mask = 0

    def _restart(self, t: float) -> None:
        self.V = 0.0
        self.t_last = t
        self.prev_finish = [0.0] * len(self.weights)

    def _snapshot(self, t: float, mask: int, weight_sum: float) -> None:
        if self._seg_t and self._seg_t[-1] == t:
            self._seg_mask[-1] = mask
            self._seg_phi[-1] = weight_sum
            return
        self._seg_t.append(t)
        self._seg_mask.append(mask)
        self._seg_phi.append(weight_sum)

    def _pop_departures_until(self, t: float) -> None:
        heap, rate = self._heap, self.rate
        V, t_last, weight_sum, mask = self.V, self.t_last, self.weight_sum, self._mask
        while heap:
            f_min = heap[0][0]
            t_dep = max(t_last + (f_min - V) * weight_sum / rate, t_last)
            if t_dep > t:
                break
            if weight_sum > 0.0:
                V += rate * (t_dep - t_last) / weight_sum
            t_last = t_dep
            V = max(V, f_min)
            while heap and heap[0][0] <= V:
                _, flow, index = heapq.heappop(heap)
                if self._record:
                    self.departures[index] = t_dep
                self.pending[flow] -= 1
                if self.pending[flow] == 0:
                    weight_sum -= self.weights[flow]
                    mask &= ~(1 << flow)
            if mask == 0:
                weight_sum = 0.0
                self.idle_since = t_dep
            if self._record:
                self._snapshot(t_dep, mask, weight_sum)
        self.V, self.t_last, self.weight_sum, self._mask = V, t_last, weight_sum, mask

    def on_arrival(self, t: float, flow: int) -> float:
        if self._heap:
            self._pop_departures_until(t)
        if self._mask == 0 and self.idle_since is not None and t > self.idle_since:
            self._restart(t)
        else:
            if t < self.t_last:
                raise ValueError("arrivals must come in time order")
            if self.weight_sum > 0.0:
                self.V += self.rate * (t - self.t_last) / self.weight_sum
            self.t_last = t
        vfinish = max(self.prev_finish[flow], self.V) + self.lengths[flow]
        self.prev_finish[flow] = vfinish
        if self.pending[flow] == 0:
            self.weight_sum += self.weights[flow]
            self._mask |= 1 << flow
        self.pending[flow] += 1
        self.idle_since = None
        heapq.heappush(self._heap, (vfinish, flow, self.arrived))
        self.arrived += 1
        if self._record:
            self.departures.append(math.nan)
            self.flows.append(flow)
            self._snapshot(t, self._mask, self.weight_sum)
        return vfinish

    def drain(self) -> None:
        self._pop_departures_until(math.inf)


def busy_intervals(events, end_time: float):
    """Maximal intervals with positive in-system count from (+1/-1) events.

    ``events`` is a list of (time, delta); simultaneous events merge, so a
    packet handed over at one instant never opens a fake gap.
    """
    if not events:
        return []
    order = sorted(events, key=lambda e: e[0])
    out = []
    count = 0
    open_t = None
    i = 0
    while i < len(order):
        t = order[i][0]
        while i < len(order) and order[i][0] == t:
            count += order[i][1]
            i += 1
        if count > 0 and open_t is None:
            open_t = t
        elif count <= 0 and open_t is not None:
            out.append((open_t, t))
            open_t = None
    if open_t is not None:
        out.append((open_t, end_time))
    return [(a, b) for a, b in out if b > a]


def group_size_search(airtime: int, g, n_subcarriers: int) -> int:
    """Smallest divisor of ``airtime`` giving every flow an integral quota, by search."""
    m_sel = sum(g)
    for cand in range(1, airtime + 1):
        if airtime % cand:
            continue
        if all((g_k * cand * n_subcarriers) % m_sel == 0 for g_k in g):
            return cand
    raise ValueError(f"no divisor of {airtime} yields integral quotas for {tuple(g)}")


def layout_search(g, cfg) -> tuple[int, int, int, list[int]]:
    """Batch size, airtime, group size and quotas of one composition, the
    group found by ``group_size_search``."""
    m_sel = sum(g)
    airtime = frame_length(g, cfg)
    group = group_size_search(airtime, g, cfg.N)
    return m_sel, airtime, group, [g_k * group * cfg.N // m_sel for g_k in g]


def fairness_pairwise(curves, weights, window: float, flow_busy) -> float:
    """Worst weight-normalised service gap, one flow pair and one interval at a time.

    Each pair builds its own grid over each jointly-backlogged interval from
    both flows' breakpoints and runs its own single-row sparse table, so the
    curves need not share a ``times`` array.
    """
    n = len(curves)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            t_i, b_i = curves[i]
            t_j, b_j = curves[j]
            for lo, hi in _intersect(flow_busy[i], flow_busy[j]):
                grid = np.unique(np.concatenate((
                    t_i[(t_i > lo) & (t_i < hi)],
                    t_j[(t_j > lo) & (t_j < hi)],
                    [lo, hi])))
                f = (np.interp(grid, t_i, b_i) / weights[i]
                     - np.interp(grid, t_j, b_j) / weights[j])
                worst = max(worst, _window_extreme(grid, f, window))
    return worst


def service_gap(events, trace: GpsTrace, packet_bits: int, t_stop: float,
                bound: float, eps: float) -> tuple[float, int]:
    """Worst fluid-minus-transmitted service of any flow, in bits, and its violations.

    The transmitted service is rebuilt from the event log: each frame's span
    from its ``frame_start`` and ``frame_end`` rows and its packets per flow
    from its ``deliver`` and ``fail`` rows. A frame accrues its bits uniformly
    over its span; the frame in flight at the horizon has no ``frame_end`` row
    and counts no bits, as in the bound report. The fluid service sums the
    trace's segments one at a time. Each flow's gap is taken on its own grid
    up to ``t_stop``: the breakpoints of its transmitted curve (every frame
    edge), those of its fluid curve (every segment start) and ``t_stop``. A
    violation is a grid point whose gap passes ``bound + eps``.
    """
    spans, sent = {}, {}
    for e in events:
        if e.kind == "frame_start":
            spans[e.frame] = (e.time, math.nan)
        elif e.kind == "frame_end":
            spans[e.frame] = (spans[e.frame][0], e.time)
        elif e.kind in ("deliver", "fail"):
            sent.setdefault(e.frame, []).append(e.flow)
    done = [(start, end, sent[f]) for f, (start, end) in spans.items() if not math.isnan(end)]
    seg_t = trace.seg_t.tolist()
    worst, violations = 0.0, 0
    for k, weight in enumerate(trace.weights):
        rates = [trace.rate * weight / phi if (mask >> k) & 1 else 0.0
                 for mask, phi in zip(trace.seg_mask.tolist(), trace.seg_phi.tolist())]
        grid = {t for start, end, _ in done for t in (start, end)}
        grid.update(seg_t)
        for t in sorted(x for x in grid | {t_stop} if x <= t_stop):
            fluid = sum(rate * (min(t, seg_t[i + 1]) - seg_t[i])
                        for i, rate in enumerate(rates) if seg_t[i] < t)
            sent_bits = sum(packet_bits * flows.count(k) * min(1.0, (t - start) / (end - start))
                            for start, end, flows in done if start < t)
            gap = fluid - sent_bits
            worst = max(worst, gap)
            violations += gap > bound + eps
    return worst, violations


def price_start_padded(costs: np.ndarray, quotas: np.ndarray, demand: int) -> np.ndarray:
    """``allocation._price_start`` with its sorted thresholds padded by their
    spread on both ends and the bracketing pair read at the target count."""
    k = costs.shape[0]
    target = quotas // demand
    reduced = costs.copy()
    for _ in range(PRICE_ROUNDS):
        for i in range(k):
            reduced[i] = np.inf
            cuts = np.sort(costs[i] - reduced.min(axis=0))
            spread = cuts[-1] - cuts[0]
            edges = np.concatenate(([cuts[0] - spread], cuts, [cuts[-1] + spread]))
            q = int(target[i])
            reduced[i] = costs[i] - 0.5 * (edges[q] + edges[q + 1])
    return np.argmin(reduced, axis=0)


def composition_values_stacked(powers: np.ndarray, gs, n_subcarriers: int,
                               r: int) -> np.ndarray:
    """Power per bit of the best assignment for each composition of a (C, K)
    stack ``gs``, ``RANK_BLOCK`` compositions a ``_solve_stack`` call, with
    every composition's active rows, quotas and split found anew."""
    gs = np.asarray(gs, dtype=np.int64)
    m_sel = gs.sum(axis=1)
    if m_sel.min() < 1:
        raise ValueError("empty composition")
    slot_power = np.empty(len(gs))
    for lo in range(0, len(gs), RANK_BLOCK):
        block = gs[lo:lo + RANK_BLOCK]
        counts = _solve_stack(np.broadcast_to(powers, (len(block), *powers.shape)),
                              block * n_subcarriers, m_sel[lo:lo + RANK_BLOCK])
        slot_power[lo:lo + RANK_BLOCK] = (powers * counts).sum(axis=(1, 2))
    return slot_power / (n_subcarriers * r * m_sel)


def one_composition_value(powers: np.ndarray, g, r: int) -> float:
    """``allocation.composition_value`` of composition ``g`` alone: the one
    composition of sum(g) within the bounds g, over the flows it holds."""
    held = [k for k, cnt in enumerate(g) if cnt]
    ranked = scheduling._composition_table(
        int(sum(g)), tuple(int(g[k]) for k in held), powers.shape[1])
    return float(allocation.composition_value(powers, held, ranked, r)[0])


def poisson_times_chunked(seed: int, flow: int, rate_sym: float, horizon: float) -> np.ndarray:
    """A flow's arrival times before ``horizon``: exponential gaps drawn
    ``GAP_CHUNK`` at a time from ``default_rng([seed, 23, flow])``, each chunk's
    cumulative sum continuing from the last time of the one before."""
    rng = np.random.default_rng([seed, 23, flow])
    if rate_sym <= 0:
        return np.empty(0)
    out = []
    t = 0.0
    while t < horizon:
        gaps = rng.exponential(1.0 / rate_sym, GAP_CHUNK)
        cum = t + np.cumsum(gaps)
        out.append(cum)
        t = cum[-1]
    times = np.concatenate(out)
    return times[times < horizon]


class ScanEveryInstant(Engine):
    """The engine with every instant of a run scanning all queues for
    expired heads, whatever ``next_expiry`` says; with deadlines disabled the
    scan finds nothing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.next_expiry = -math.inf         # arrivals only lower it

    def _drop_expired(self, t: float) -> None:
        deadline = self.deadline_symbols
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
