"""Run statistics: delay, loss, throughput, power, and the fairness gauge.

The fairness gauge follows the classic fair-queueing yardstick: over any
window in which two flows are both continuously backlogged, their
weight-normalised service amounts should stay close. We report the worst
absolute normalised-service difference over all flow pairs and all windows
up to a configurable length, evaluated on the breakpoints of the piecewise
linear service curves.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


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


def service_curves(frames, n_flows: int, packet_bits: int):
    """Piecewise-linear transmitted-service curves from the frame records.

    ``frames`` yields (start, depart, g) with non-overlapping spans in order.
    Within a frame each flow accrues g_k * packet_bits uniformly. Returns a
    list of (times, bits) breakpoint arrays, one per flow; every flow shares
    one ``times`` array.
    """
    frames = list(frames)
    if not frames:
        zero = np.zeros(1)
        return [(zero, zero.copy()) for _ in range(n_flows)]
    starts, departs, gs = zip(*frames)
    times = np.array((starts, departs)).T.ravel()      # start, depart, start, ...
    g_mat = np.fromiter(itertools.chain.from_iterable(gs), np.int64,
                        len(frames) * n_flows).reshape(len(frames), n_flows)
    cum = (np.cumsum(g_mat, axis=0) * packet_bits).T     # (K, F), exact in float
    bits = np.zeros((n_flows, len(times)))
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
    """Max |values[b] - values[a]| over index pairs with times[b]-times[a] <= window.

    ``times`` is nondecreasing, so point b's window is the index range from
    the first a with times[a] >= times[b] - window up to b. The range's max
    and min come from a sparse table: row j holds the extremes of every run
    of 2**j points, and two such runs cover a range of length in [2**j,
    2**(j+1)). Rows stop at the longest range, so the table has
    O(len(times) * log(longest range)) entries.
    """
    n = len(times)
    if n == 0:
        return 0.0
    end = np.arange(n)
    start = np.searchsorted(times, times - window, side="left")
    level = np.frexp(end - start + 1)[1] - 1     # floor(log2(range length))
    hi = np.empty((int(level.max()) + 1, n))
    lo = np.empty_like(hi)
    hi[0] = lo[0] = values
    for j in range(1, len(hi)):
        half = 1 << (j - 1)
        runs = n - 2 * half + 1                  # runs of 2**j points
        np.maximum(hi[j - 1, :runs], hi[j - 1, half:half + runs], out=hi[j, :runs])
        np.minimum(lo[j - 1, :runs], lo[j - 1, half:half + runs], out=lo[j, :runs])
    last_run = end - (1 << level) + 1
    top = np.maximum(hi[level, start], hi[level, last_run])
    bottom = np.minimum(lo[level, start], lo[level, last_run])
    return max(0.0, float(np.max(top - values)), float(np.max(values - bottom)))


def fairness_metric(curves, weights, window: float, flow_busy) -> float:
    """Worst weight-normalised service gap over jointly-backlogged windows.

    curves: per-flow (times, bits) breakpoints of transmitted service.
    window: maximum window length, in the same time unit as the curves.
    flow_busy: per-flow list of (start, end) backlogged intervals.
    """
    n = len(curves)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            joint = _intersect(flow_busy[i], flow_busy[j])
            if not joint:
                continue
            t_i, b_i = curves[i]
            t_j, b_j = curves[j]
            for lo, hi in joint:
                grid = np.concatenate((
                    t_i[(t_i > lo) & (t_i < hi)],
                    t_j[(t_j > lo) & (t_j < hi)],
                    [lo, hi]))
                grid = np.unique(grid)
                f = (np.interp(grid, t_i, b_i) / weights[i]
                     - np.interp(grid, t_j, b_j) / weights[j])
                worst = max(worst, _window_extreme(grid, f, window))
    return worst
