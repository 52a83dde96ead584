"""Run statistics: delay, loss, throughput, power, and the fairness gauge.

The fairness gauge follows the classic fair-queueing yardstick: over any
window in which two flows are both continuously backlogged, their
weight-normalised service amounts should stay close. We report the worst
absolute normalised-service difference over all flow pairs and all windows
up to a configurable length, evaluated on the breakpoints of the piecewise
linear service curves. Every flow's curve has the same breakpoints, so the
flow pairs that share a jointly-backlogged interval share its grid: each
flow is interpolated once per interval, and the pairs' differences go
through sparse tables with a pair axis. In a saturated run every pair
shares one interval, so the gauge builds one grid and a few tables, not one
grid and one table per pair.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# Difference values per sparse table of the fairness gauge. The pairs sharing
# one jointly-backlogged interval are stacked max(1, GAUGE_BLOCK // grid
# points) at a time, so a table of a few levels stays near the ~160 kB of a
# channel block's arrays: the 45 pairs of a 150-frame saturated run at K=10
# take 4 tables, and past GAUGE_BLOCK grid points a table holds one pair.
# One table for all 45 (1 << 14) was not measurably faster, and it raised
# the benchmark's peak RSS by ~0.3 MB.
GAUGE_BLOCK = 1 << 12


@dataclass
class Metrics:
    """Aggregate outcome of one run; times in seconds, powers in watts."""

    arrivals: int = 0
    delivered: int = 0
    dropped: int = 0
    residual: int = 0
    frames: int = 0
    sim_time: float = 0.0
    avg_delay: float = float("nan")
    loss_rate: float = float("nan")
    throughput: float = float("nan")     # delivered packets per OFDM symbol
    avg_power: float = float("nan")
    per_bit_power: float = float("nan")  # transmit power per transmitted bit
    eb_n0_db: float = float("nan")
    fairness: float = float("nan")       # bits, worst normalised service gap
    bound_violations: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "bound_violations"}
        out["bound_violations"] = sum(self.bound_violations.values())
        return out


def service_curves(spans, g: np.ndarray, packet_bits: int):
    """Piecewise-linear transmitted-service curves from the frame records.

    ``spans`` yields each frame's (start, depart), non-overlapping and in
    order, and ``g`` is the (frames, K) matrix of each frame's packets per
    flow. Within a frame each flow accrues g_k * packet_bits uniformly.
    Returns a list of (times, bits) breakpoint arrays, one per flow; every
    flow shares one ``times`` array.
    """
    # start, depart, start, ...
    times = np.fromiter(itertools.chain.from_iterable(spans), float, 2 * len(g))
    if not times.size:
        zero = np.zeros(1)
        return [(zero, zero.copy()) for _ in range(g.shape[1])]
    cum = (np.cumsum(g, axis=0) * packet_bits).T      # (K, F), exact in float
    bits = np.zeros((g.shape[1], len(times)))
    bits[:, 1::2] = cum
    bits[:, 2::2] = cum[:, :-1]                       # flat across idle gaps
    return [(times, b) for b in bits]


def _intersect(iv_a, iv_b):
    out = []
    i = j = 0
    while i < len(iv_a) and j < len(iv_b):
        lo = max(iv_a[i][0], iv_b[j][0])
        hi = min(iv_a[i][1], iv_b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if iv_a[i][1] <= iv_b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _window_extreme(times: np.ndarray, values: np.ndarray, window: float) -> float:
    """Max |values[p, b] - values[p, a]| over rows p and times[b]-times[a] <= window.

    ``values`` is one row of len(times) values or a (P, len(times)) stack of
    rows over the same ``times``. ``times`` is nondecreasing, so point b's
    window is the index range from the first a with times[a] >= times[b] -
    window up to b. The range's max and min come from a sparse table with a
    row axis (Bender & Farach-Colton, "The LCA problem revisited", 2000):
    level j holds the extremes of every run of 2**j points of every row, and
    two such runs cover a range of length in [2**j, 2**(j+1)). Levels stop at
    the longest range, so the table has O(P * len(times) * log(longest
    range)) entries. Max and min are exact, so a stack gives the largest of
    its rows' results bit for bit.
    """
    n = len(times)
    if n == 0:
        return 0.0
    values = values.reshape(-1, n)
    end = np.arange(n)
    start = np.searchsorted(times, times - window, side="left")
    level = np.frexp(end - start + 1)[1] - 1     # floor(log2(range length))
    last_run = end - (1 << level) + 1
    table = np.empty((len(values), int(level.max()) + 1, n))

    def range_extreme(pick):                     # the max table, then the min table in its place
        table[:, 0] = values
        for j in range(1, table.shape[1]):
            half = 1 << (j - 1)
            runs = n - 2 * half + 1              # runs of 2**j points
            pick(table[:, j - 1, :runs], table[:, j - 1, half:half + runs], out=table[:, j, :runs])
        return pick(table[:, level, start], table[:, level, last_run])

    top = range_extreme(np.maximum)
    bottom = range_extreme(np.minimum)
    return max(0.0, float(np.max(top - values)), float(np.max(values - bottom)))


def fairness_metric(curves, weights, window: float, flow_busy) -> float:
    """Worst weight-normalised service gap over jointly-backlogged windows.

    curves: per-flow (times, bits) breakpoints of transmitted service, every
    flow over one shared ``times`` array, as ``service_curves`` returns them.
    window: maximum window length, in the same time unit as the curves.
    flow_busy: per-flow list of (start, end) backlogged intervals.

    The flow pairs' jointly-backlogged intervals are grouped by (start, end).
    A group's grid (the breakpoints inside the interval and its two ends) is
    built once, each of its flows is interpolated and weight-normalised once,
    and its pairs' differences go through ``_window_extreme`` in stacks of
    at most ``GAUGE_BLOCK`` values, or one pair.
    """
    times = curves[0][0]
    groups: dict[tuple[float, float], list[tuple[int, int]]] = {}
    for i, j in itertools.combinations(range(len(curves)), 2):
        for joint in _intersect(flow_busy[i], flow_busy[j]):
            groups.setdefault(joint, []).append((i, j))
    worst = 0.0
    for (lo, hi), pairs in groups.items():
        inner = times[np.searchsorted(times, lo, side="right"):
                      np.searchsorted(times, hi, side="left")]
        grid = np.unique(np.concatenate((inner, [lo, hi])))
        norm = np.empty((len(curves), len(grid)))
        for k in {k for pair in pairs for k in pair}:
            norm[k] = np.interp(grid, times, curves[k][1]) / weights[k]
        first, second = np.array(pairs).T
        step = max(1, GAUGE_BLOCK // len(grid))
        for at in range(0, len(pairs), step):
            diff = norm[first[at:at + step]] - norm[second[at:at + step]]
            worst = max(worst, _window_extreme(grid, diff, window))
    return worst
