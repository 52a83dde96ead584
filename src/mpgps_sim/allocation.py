"""Joint subcarrier and power assignment for one transmission frame.

Power control inverts the channel so every scheduled packet is received at
its user's SNR target; the remaining freedom is which user occupies each
subcarrier-symbol slot. With per-user slot quotas fixed by the batch
composition, minimising transmit power per bit is a balanced transportation
problem whose LP relaxation has integral optima, so an exact min-cost-flow
style solver recovers the true integer optimum. With three or more active
rows the solver prices the rows first (a few Gauss-Seidel rounds of dual
ascent, after Bertsekas' auction method for transportation problems), starts
from the assignment those prices make cheapest, and finishes with shortest
exchange paths. Each exchange round builds every row-to-row edge in one
array operation and relaxes the paths over the few active rows in plain
Python. One private stacked solve serves both the ranking of compositions
and the frame plans. The tests check exactness against a brute-force
enumerator on tiny instances and the HiGHS LP optimum on larger ones; both
oracles live in ``tests/``, not in the package.

The frame repeats one group of ``group`` symbols airtime/group times, so all
arithmetic happens on the compressed K x N group matrix: column n stands for
``group`` identical slots on subcarrier n.

``solve_frames`` plans a stack of frames with one validated
``solve_transport`` call: every frame with one or two active rows goes
through one stacked closed-form split, each frame with three or more through
the exchange solver, and the call's objective is each frame's power per bit.
The engine solves the plans of an unbudgeted run once per channel block,
since nothing reads them before the run ends, and a budgeted run's plan at
frame start, where its mean power sets the power scale; ``allocate_frame``
is the one-frame form.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .channel import LinkBudget
from .model import SystemConfig, frame_length, group_size, subcarrier_quota

# Gains this far below the instance median are clamped before inversion so a
# single fade cannot blow up the cost matrix.
GAIN_FLOOR_REL = 1e-12

# Gauss-Seidel price rounds before the exchange solve. On the power_mpgps
# benchmark instances two rounds cut the mean exchange count from ~39 to ~1.2.
PRICE_ROUNDS = 2

# Compositions ranked per block by composition_value. Caps its (block, K, N)
# count stack at ~1.3 MB for K=10, N=64, however many compositions a window has.
RANK_BLOCK = 256

# Frame layouts kept per (g, L, N, r), shared by every run in a process, in
# least-recently-used order. An entry takes ~400 B at K=10. The power
# benchmark's 80 drops (mpgps, M=4, K=10) form ~650 compositions; 256 entries
# serve 89 % of their lookups, and 1,024 entries served 98 % but held ~0.3 MB
# more peak memory.
LAYOUT_CACHE = 256


class ZeroGain(ValueError):
    """A scheduled user has a non-positive channel gain."""


class UnbalancedInstance(ValueError):
    """Quotas do not add up to the number of slots on offer."""


@dataclass
class TransportInstance:
    """Balanced transportation instance on the compressed group matrix, or a
    stack of C of them."""

    alpha: np.ndarray            # (K, N) unit-slot costs, or a (C, K, N) stack
    quotas: np.ndarray           # (K,) slots owed per user, or (C, K)
    group: int | np.ndarray      # identical slots per subcarrier column, or (C,)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.quotas = np.asarray(self.quotas, dtype=np.int64)
        group = np.asarray(self.group)
        if self.alpha.ndim not in (2, 3):
            raise ValueError("costs must be a (K, N) matrix or a (C, K, N) stack")
        if self.quotas.shape != self.alpha.shape[:-1]:
            raise ValueError("need one quota per user row")
        if group.shape != self.alpha.shape[:-2]:
            raise ValueError("need one group size per instance")
        if (self.quotas < 0).any():
            raise ValueError("quotas must be nonnegative")
        if (group < 1).any():
            raise ValueError("group must be positive")
        if not np.isfinite(self.alpha).all():
            raise ValueError("costs must be finite")
        supply, need = self.quotas.sum(axis=-1), group * self.alpha.shape[-1]
        if (supply != need).any():
            i = np.flatnonzero(supply != need)[0]
            raise UnbalancedInstance(f"quotas sum to {supply.flat[i]}, need {need.flat[i]}")


def _split_rows(first: np.ndarray, last: np.ndarray, quota: np.ndarray,
                demand: np.ndarray) -> np.ndarray:
    """Exact first-row counts of stacked instances with one or two active rows.

    ``first`` and ``last`` are the (C, N) cost rows of each instance's first
    and last active row; ``quota`` (the first row's) and ``demand`` broadcast
    as (C, 1). Down the columns in stable order of the first row's cost
    advantage, the first row takes ``demand`` slots a column until its quota
    runs out; the last row takes the rest of each column. A single active row
    is passed as both rows: its difference is zero and it takes every column.
    """
    rank = (first - last).argsort(axis=1, kind="stable").argsort(axis=1)
    return np.minimum(np.maximum(quota - demand * rank, 0), demand)


def _price_start(costs: np.ndarray, quotas: np.ndarray, demand: int) -> np.ndarray:
    """Row of each column under Gauss-Seidel row prices; whole columns only.

    The price rule is the Gauss-Seidel one of Bertsekas & Castanon (1989) for
    transportation problems. Row i should win ``quotas[i] // demand``
    columns. Given the other rows' prices, row i wins column n exactly when
    its price u_i exceeds c_in - min_{j != i}(c_jn - u_j), so each update sets
    u_i midway between the target count's threshold and the next one, read
    straight from the sorted thresholds. A row that should win no column or
    every column has its missing end taken one spread (largest minus smallest
    threshold) past the last threshold, which clamps its price.
    """
    n = costs.shape[1]
    reduced = costs.copy()                       # costs - u[:, None], u = 0
    rows = list(zip(costs, reduced, (quotas // demand).tolist()))
    cuts = np.empty(n)
    for _ in range(PRICE_ROUNDS):
        for row, red, q in rows:
            red.fill(np.inf)
            np.subtract(row, reduced.min(axis=0), out=cuts)
            cuts.sort()
            if q == 0:
                lo = cuts.item(0)
                mid = 0.5 * ((lo - (cuts.item(-1) - lo)) + lo)
            elif q == n:
                hi = cuts.item(-1)
                mid = 0.5 * (hi + (hi + (hi - cuts.item(0))))
            else:
                mid = 0.5 * (cuts.item(q - 1) + cuts.item(q))
            np.subtract(row, mid, out=red)
    return reduced.argmin(axis=0)


def _solve_exchange(costs: np.ndarray, quotas: np.ndarray, demand: int) -> np.ndarray:
    """Min-cost assignment: price-initialised start, shortest exchange paths.

    Start with every column fully on its cheapest row under the row prices u
    of ``_price_start``. That start is optimal for its own row totals: with
    v_n = min_k(c_kn - u_k) every reduced cost c_kn - u_k - v_n is
    nonnegative and every used slot has reduced cost zero, so complementary
    slackness holds. Then repeatedly move units from over-quota rows to
    under-quota rows along cheapest exchange paths. Each correction is a
    shortest path in the residual graph, so the invariant "optimal for
    current totals" holds to the end. Good prices leave few units to move;
    they never affect exactness.
    """
    k, n = costs.shape
    rows = range(k)
    counts = np.zeros((k, n), dtype=np.int64)
    counts[_price_start(costs, quotas, demand), np.arange(n)] = demand
    delta = (counts.sum(axis=1) - quotas).tolist()     # + surplus, - deficit
    # moving a slot of column n from row src to row dst costs
    # costs[dst, n] - costs[src, n]; src can only give columns it holds
    shift = costs[None, :, :] - costs[:, None, :]       # [src, dst, n]
    shift[rows, rows] = np.inf                          # no edge from a row to itself
    while max(delta) > 0:
        held = np.where(counts[:, None, :] > 0, shift, np.inf)
        edge_col = held.argmin(axis=2).tolist()         # first cheapest column
        edge_cost = held.min(axis=2).tolist()
        # shortest paths from all surplus rows, unrolled by path length so the
        # parent chain can never cycle (simultaneous relaxations with zero- or
        # negative-cost edges would let a single parent array do exactly that);
        # k <= M, so plain lists beat numpy calls. Ties go to the first source.
        level_dist = [0.0 if d > 0 else math.inf for d in delta]
        parents: list[list[int]] = []
        best_dist = level_dist[:]
        best_len = [0] * k
        for lvl in range(1, k):
            via = [min((level_dist[src] + edge_cost[src][dst], src) for src in rows)
                   for dst in rows]
            level_dist = [dist for dist, _ in via]
            parents.append([src for _, src in via])
            for dst in rows:
                if level_dist[dst] < best_dist[dst]:
                    best_dist[dst], best_len[dst] = level_dist[dst], lvl
        reach = [s for s in rows if delta[s] < 0 and best_dist[s] < math.inf]
        if not reach:
            raise UnbalancedInstance("no exchange path between surplus and deficit rows")
        sink = min(reach, key=best_dist.__getitem__)     # first cheapest sink
        node, lvl = sink, best_len[sink]
        path = []
        while lvl > 0:
            prev = parents[lvl - 1][node]
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
        move = min(delta[node], -delta[sink])
        for src, dst in path:
            move = min(move, int(counts[src, edge_col[src][dst]]))
        for src, dst in path:
            col = edge_col[src][dst]
            counts[src, col] -= move
            counts[dst, col] += move
        delta[node] -= move
        delta[sink] += move
    return counts


def _solve_stack(costs: np.ndarray, quotas: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Optimal (C, K, N) slot counts of a stack of transportation instances.

    ``costs`` is one (K, N) matrix shared by every instance or a (C, K, N)
    stack, ``quotas`` the (C, K) row supplies and ``demand`` the (C,) column
    demands; nothing is validated. Every instance is split between its first
    and last active rows in one ``_split_rows`` call, which is exact for one
    or two active rows; each instance with three or more is then solved on
    its active rows by ``_solve_exchange``.
    """
    c, k = quotas.shape
    counts = np.zeros((c, k, costs.shape[-1]), dtype=np.int64)
    each = np.arange(c)
    active = quotas > 0
    # array methods, not the np.* wrappers: on a stack of one frame the
    # wrappers' dispatch costs as much as the arithmetic
    first = active.argmax(axis=1)
    last = k - 1 - active[:, ::-1].argmax(axis=1)
    # a shared matrix is indexed by row alone: broadcasting it costs more
    at_first, at_last = (first, last) if costs.ndim == 2 else ((each, first), (each, last))
    top = _split_rows(costs[at_first], costs[at_last], quotas[each, first][:, None],
                      demand[:, None])
    counts[each, last] = demand[:, None] - top   # overwritten when last == first
    counts[each, first] = top
    # the split wrote only active rows, all of which the exchange solve rewrites
    for i in (active.sum(axis=1) > 2).nonzero()[0]:
        rows = active[i].nonzero()[0]
        own = costs if costs.ndim == 2 else costs[i]
        counts[i, rows] = _solve_exchange(own[rows], quotas[i, rows], int(demand[i]))
    return counts


def solve_transport(instance: TransportInstance) -> tuple[np.ndarray, float | np.ndarray]:
    """Exact optimum of the group assignment problem.

    Returns the (K, N) slot-count matrix (column sums equal the group size,
    row sums equal the quotas) and its objective value; for a stack, the
    (C, K, N) counts and the (C,) objective values.
    """
    alpha = instance.alpha.reshape(-1, *instance.alpha.shape[-2:])
    counts = _solve_stack(alpha, instance.quotas.reshape(len(alpha), -1),
                          np.reshape(instance.group, -1))
    objective = (alpha * counts).sum(axis=(1, 2))
    if instance.alpha.ndim == 2:
        return counts[0], float(objective[0])
    return counts, objective


def composition_value(powers: np.ndarray, gs, n_subcarriers: int, r: int) -> np.ndarray:
    """Transmit power per bit of the best assignment for each composition.

    ``gs`` is a (C, K) stack of compositions; returns their C values. Each
    value comes from a scaled instance (supplies g_k * N, column demand
    sum(g)) whose optimum value is invariant to the group size, so
    compositions can be ranked without constructing each frame's group
    structure. The stack is solved ``RANK_BLOCK`` compositions at a time.
    """
    gs = np.asarray(gs, dtype=np.int64)
    m_sel = gs.sum(axis=1)
    if m_sel.min() < 1:
        raise ValueError("empty composition")
    slot_power = np.empty(len(gs))
    for lo in range(0, len(gs), RANK_BLOCK):
        block = gs[lo:lo + RANK_BLOCK]
        m = m_sel[lo:lo + RANK_BLOCK]
        counts = _solve_stack(powers, block * n_subcarriers, m)
        slot_power[lo:lo + RANK_BLOCK] = (powers * counts).sum(axis=(1, 2))
    return slot_power / (n_subcarriers * r * m_sel)


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


def frame_powers(gains: np.ndarray, budget: LinkBudget) -> np.ndarray:
    """Per-user, per-subcarrier transmit power needed to hit the target SNR, W.

    ``gains`` is one frame's (K, N) matrix or a stack (..., K, N) of frames.
    A frame whose smallest gain lies below ``GAIN_FLOOR_REL`` times its
    largest has its gains floored at ``GAIN_FLOOR_REL`` times its own median
    first, so a single fade cannot blow up its costs; the other frames are
    inverted as they are.
    """
    frames = gains.reshape(-1, *gains.shape[-2:])
    low = frames.min(axis=(1, 2))
    if low.min() <= 0.0:
        raise ZeroGain("channel gain must be positive")
    faded = np.flatnonzero(low < GAIN_FLOOR_REL * frames.max(axis=(1, 2)))
    if faded.size:
        frames = frames.copy()
        for b in faded:
            frames[b] = np.maximum(frames[b], GAIN_FLOOR_REL * float(np.median(frames[b])))
        gains = frames.reshape(gains.shape)
    return budget.gamma * budget.noise_power / gains


class FrameLayout(NamedTuple):
    """Frame arithmetic of one composition; it depends only on g and the config."""

    m_sel: int
    airtime: int                 # symbols
    group: int                   # symbols per group
    quotas: tuple[int, ...]      # slots per group owed to each user


def frame_layout(g, cfg: SystemConfig) -> FrameLayout:
    """Airtime, group size and quotas of composition ``g``.

    A layout depends on g, L, N and r alone, so it is computed once per
    process for each (g, L, N, r) and shared by every run; a composition
    whose frame or quotas are not integral raises each time it is asked for.
    """
    return _frame_layout(g if type(g) is tuple else tuple(g), cfg.L, cfg.N, cfg.r)


@functools.lru_cache(maxsize=LAYOUT_CACHE)
def _frame_layout(g: tuple, L: int, N: int, r: int) -> FrameLayout:
    # equal keys hash alike whatever their integer type; the layout holds ints
    g = tuple(map(int, g))
    m_sel = sum(g)
    # frame_length reads the packet size and the bits a symbol carries
    airtime = frame_length(g, SimpleNamespace(L=L, bits_per_symbol=N * r))
    grp = group_size(airtime, g, N)
    return FrameLayout(m_sel, airtime, grp,
                       tuple(subcarrier_quota(g_k, grp, N, m_sel) for g_k in g))


def solve_frames(layouts, powers: np.ndarray, cfg: SystemConfig
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Optimal plans of a stack of frames: counts, per-bit power, energy, mean power.

    ``layouts`` holds each frame's ``FrameLayout`` and ``powers`` their
    (B, K, N) power matrices from ``frame_powers``, the ones the batch
    selection ranked compositions with. Returns the (B, K, N) slot counts per
    group and the (B,) power per bit (W per delivered bit), energy over the
    whole frame at requested power (J) and mean power over the airtime (W).
    """
    table = np.array([(lay.group, lay.m_sel, *lay.quotas) for lay in layouts], dtype=np.int64)
    grp, m_sel, quotas = table[:, 0], table[:, 1], table[:, 2:]
    alpha = powers / (grp * (cfg.N * cfg.r))[:, None, None]
    # the objective, a sum of group costs, is exactly power per bit
    counts, per_bit_power = solve_transport(
        TransportInstance(alpha=alpha, quotas=quotas, group=grp))
    energy = per_bit_power * cfg.L * m_sel * cfg.T_sym
    mean_power = (powers * counts).sum(axis=(1, 2)) / grp
    return counts, per_bit_power, energy, mean_power


def allocate_frame(g, powers: np.ndarray, cfg: SystemConfig) -> AllocationResult:
    """Solve one frame end to end: quotas, group assignment, energy.

    ``powers`` is the frame's (K, N) power matrix from ``frame_powers``; the
    plan is ``solve_frames`` on a stack of one.
    """
    lay = frame_layout(g, cfg)
    counts, per_bit_power, energy, mean_power = solve_frames([lay], powers[None], cfg)
    return AllocationResult(
        g=tuple(int(x) for x in g), m_sel=lay.m_sel, airtime=lay.airtime,
        group=lay.group, repeats=lay.airtime // lay.group, counts=counts[0],
        per_bit_power=float(per_bit_power[0]), energy=float(energy[0]),
        mean_power=float(mean_power[0]))
