"""Joint subcarrier and power assignment for one transmission frame.

Power control inverts the channel so every scheduled packet is received at
its user's SNR target; the remaining freedom is which user occupies each
subcarrier-symbol slot. With per-user slot quotas fixed by the batch
composition, minimising transmit power per bit is a balanced transportation
problem whose LP relaxation has integral optima, so an exact min-cost-flow
style solver recovers the true integer optimum. A brute-force enumerator
over tiny instances provides an independent check of that claim.

The frame repeats one group of ``group`` symbols airtime/group times, so all
arithmetic happens on the compressed K x N group matrix: column n stands for
``group`` identical slots on subcarrier n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget
from .model import SystemConfig, frame_length, group_size, subcarrier_quota

# Gains this far below the instance median are clamped before inversion so a
# single fade cannot blow up the cost matrix.
GAIN_FLOOR_REL = 1e-12


class ZeroGain(ValueError):
    """A scheduled user has a non-positive channel gain."""


class UnbalancedInstance(ValueError):
    """Quotas do not add up to the number of slots on offer."""


class InstanceTooLarge(ValueError):
    """Instance beyond the exhaustive enumeration bound."""


def required_power(gain: float, gamma: float, noise_power: float):
    """Transmit power that hits the SNR target through the given power gain."""
    g = np.asarray(gain, dtype=float)
    if np.any(g <= 0.0):
        raise ZeroGain("channel gain must be positive")
    return gamma * noise_power / g


@dataclass
class TransportInstance:
    """Balanced transportation instance on the compressed group matrix."""

    alpha: np.ndarray            # (K, N) unit-slot costs
    quotas: np.ndarray           # (K,) slots owed per user
    group: int                   # identical slots per subcarrier column

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.quotas = np.asarray(self.quotas, dtype=np.int64)
        if self.alpha.ndim != 2:
            raise ValueError("cost matrix must be 2-D")
        if self.quotas.shape != (self.alpha.shape[0],):
            raise ValueError("need one quota per user row")
        if np.any(self.quotas < 0):
            raise ValueError("quotas must be nonnegative")
        if self.group < 1:
            raise ValueError("group must be positive")
        if not np.all(np.isfinite(self.alpha)):
            raise ValueError("costs must be finite")
        n = self.alpha.shape[1]
        if int(self.quotas.sum()) != self.group * n:
            raise UnbalancedInstance(
                f"quotas sum to {int(self.quotas.sum())}, need {self.group * n}")


def _split_rows(costs: np.ndarray, quotas: np.ndarray, demand: int) -> np.ndarray:
    """Exact solver for one or two active rows (closed forms)."""
    k, n = costs.shape
    counts = np.zeros((k, n), dtype=np.int64)
    if k == 1:
        counts[0] = demand
        return counts
    # two rows: give row 0 the columns where its cost advantage is largest
    diff = costs[0] - costs[1]
    order = np.argsort(diff, kind="stable")
    full, part = divmod(int(quotas[0]), demand)
    counts[0, order[:full]] = demand
    if part:
        counts[0, order[full]] = part
    counts[1] = demand - counts[0]
    return counts


def _solve_exchange(costs: np.ndarray, quotas: np.ndarray, demand: int) -> np.ndarray:
    """Min-cost assignment by successive shortest exchange paths.

    Start from the quota-free optimum (every column fully on its cheapest
    row), then repeatedly move units from over-quota rows to under-quota rows
    along cheapest exchange paths. The start is optimal for its own row
    totals and each correction is a shortest path in the residual graph, so
    the invariant "optimal for current totals" holds to the end.
    """
    k, n = costs.shape
    counts = np.zeros((k, n), dtype=np.int64)
    best = np.argmin(costs, axis=0)
    counts[best, np.arange(n)] = demand
    delta = counts.sum(axis=1) - quotas          # + surplus, - deficit
    while delta.max() > 0:
        edge_cost = np.full((k, k), np.inf)
        edge_col = np.zeros((k, k), dtype=np.int64)
        for src in range(k):
            cols = np.nonzero(counts[src])[0]
            if cols.size == 0:
                continue
            d = costs[:, cols] - costs[src, cols][None, :]
            pick = np.argmin(d, axis=1)
            edge_cost[src] = d[np.arange(k), pick]
            edge_col[src] = cols[pick]
            edge_cost[src, src] = np.inf
        # shortest paths from all surplus rows, unrolled by path length so the
        # parent chain can never cycle (simultaneous relaxations with zero- or
        # negative-cost edges would let a single parent array do exactly that)
        level_dist = np.where(delta > 0, 0.0, np.inf)
        parents: list[np.ndarray] = []
        best_dist = level_dist.copy()
        best_len = np.zeros(k, dtype=np.int64)
        for _ in range(k - 1):
            via = level_dist[:, None] + edge_cost
            level_dist = via.min(axis=0)
            parents.append(via.argmin(axis=0))
            improved = level_dist < best_dist
            best_dist[improved] = level_dist[improved]
            best_len[improved] = len(parents)
        sinks = np.nonzero(delta < 0)[0]
        reach = sinks[np.isfinite(best_dist[sinks])]
        if reach.size == 0:
            raise UnbalancedInstance("no exchange path between surplus and deficit rows")
        sink = int(reach[np.argmin(best_dist[reach])])
        node, lvl = sink, int(best_len[sink])
        path = []
        while lvl > 0:
            prev = int(parents[lvl - 1][node])
            path.append((prev, node))
            node, lvl = prev, lvl - 1
        path.reverse()
        # splice out any repeated node (possible only through float ties)
        seen = {path[0][0]: 0}
        i = 0
        while i < len(path):
            dst = path[i][1]
            if dst in seen:
                del path[seen[dst]:i + 1]
                i = seen[dst]
                seen = {v: j for v, j in seen.items() if j <= i}
            else:
                i += 1
                seen[dst] = i
        move = min(int(delta[node]), int(-delta[sink]))
        for src, dst in path:
            move = min(move, int(counts[src, edge_col[src, dst]]))
        for src, dst in path:
            col = edge_col[src, dst]
            counts[src, col] -= move
            counts[dst, col] += move
        delta[node] -= move
        delta[sink] += move
    return counts


def _min_cost_counts(costs: np.ndarray, quotas: np.ndarray, demand: int) -> np.ndarray:
    active = np.nonzero(quotas > 0)[0]
    k, n = costs.shape
    counts = np.zeros((k, n), dtype=np.int64)
    if active.size <= 2:
        sub = _split_rows(costs[active], quotas[active], demand)
    else:
        sub = _solve_exchange(costs[active], quotas[active], demand)
    counts[active] = sub
    return counts


def solve_transport(instance: TransportInstance) -> tuple[np.ndarray, float]:
    """Exact optimum of the group assignment problem.

    Returns the (K, N) slot-count matrix (column sums equal the group size,
    row sums equal the quotas) and its objective value.
    """
    counts = _min_cost_counts(instance.alpha, instance.quotas, instance.group)
    objective = float(np.sum(instance.alpha * counts))
    return counts, objective


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


def composition_value(powers: np.ndarray, g, n_subcarriers: int, r: int) -> float:
    """Transmit power per bit of the best assignment for composition ``g``.

    Works on a scaled instance (supplies g_k * N, column demand sum(g)) whose
    optimum value is invariant to the group size, so compositions can be
    ranked without constructing each frame's group structure.
    """
    g = np.asarray(g, dtype=np.int64)
    m_sel = int(g.sum())
    if m_sel < 1:
        raise ValueError("empty composition")
    counts = _min_cost_counts(powers, g * n_subcarriers, m_sel)
    return float(np.sum(powers * counts)) / (n_subcarriers * r * m_sel)


@dataclass
class AllocationResult:
    """Complete physical-layer plan for one frame."""

    g: tuple[int, ...]
    m_sel: int
    airtime: int                 # symbols
    group: int                   # symbols per group
    repeats: int                 # airtime // group
    counts: np.ndarray           # (K, N) slots per group
    per_bit_power: float         # W of transmit power per delivered bit
    energy: float                # J over the whole frame at requested power
    mean_power: float            # W, mean over the frame's airtime


def clamp_gains(gains: np.ndarray) -> np.ndarray:
    """Floor pathological fades relative to the instance median."""
    if np.any(gains <= 0.0):
        raise ZeroGain("channel gain must be positive")
    floor = GAIN_FLOOR_REL * float(np.median(gains))
    return np.maximum(gains, floor)


def frame_powers(gains: np.ndarray, budget: LinkBudget) -> np.ndarray:
    """Per-user, per-subcarrier transmit power needed to hit the target SNR, W."""
    return required_power(clamp_gains(gains), budget.gamma[:, None], budget.noise_power)


def allocate_frame(g, powers: np.ndarray, cfg: SystemConfig) -> AllocationResult:
    """Solve one frame end to end: quotas, group assignment, energy.

    ``powers`` is the frame's (K, N) power matrix from ``frame_powers``, the
    same one the batch selection ranked compositions with.
    """
    g = tuple(int(x) for x in g)
    m_sel = sum(g)
    airtime = frame_length(g, cfg)
    grp = group_size(airtime, g, cfg.N)
    quotas = np.array([subcarrier_quota(g_k, grp, cfg.N, m_sel) for g_k in g], dtype=np.int64)
    alpha = powers / (grp * cfg.N * cfg.r)
    instance = TransportInstance(alpha=alpha, quotas=quotas, group=grp)
    counts, objective = solve_transport(instance)
    # summing group costs is exactly power per bit; energy follows from it
    energy = objective * cfg.L * m_sel * cfg.T_sym
    slot_power = float(np.sum(powers * counts))   # W summed over group slots
    return AllocationResult(
        g=g, m_sel=m_sel, airtime=airtime, group=grp, repeats=airtime // grp,
        counts=counts, per_bit_power=objective, energy=energy,
        mean_power=slot_power / grp)
