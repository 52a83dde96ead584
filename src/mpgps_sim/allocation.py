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
exchange paths. The instances of a stack with the same number of active
rows are solved in lockstep: each price update moves one row of every
instance, and each exchange round builds every unfinished instance's
row-to-row edges and relaxes its shortest paths as stacked arrays, walking
each path in plain Python. One private stacked solve serves both the
ranking of compositions and the frame plans. The tests check exactness
against a brute-force enumerator on tiny instances and the HiGHS LP optimum
on larger ones; both oracles live in ``tests/``, not in the package.

The frame repeats one group of ``group`` symbols airtime/group times, so all
arithmetic happens on the compressed K x N group matrix: column n stands for
``group`` identical slots on subcarrier n.

``solve_frames`` plans a stack of frames with one validated
``solve_transport`` call: every frame with one or two active rows goes
through one stacked closed-form split, the frames with three or more through
the lockstep exchange solver, and the call's objective is each frame's power
per bit. The engine plans a channel-blind run (pgps or mpgps without a power
budget) once its event loop has ended, ``engine.PLAN_STACK`` frames a call,
since no decision reads its channel; an unbudgeted ampgps or ompgps run
once per channel block; and a budgeted run at each frame's start, where the
plan's mean power sets the power scale. ``allocate_frame`` is the one-frame
form.
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
# count stack at ~1.3 MB for K=10, N=64, however many compositions a window
# has; engine.PLAN_STACK caps a channel-blind run's plan stacks alike.
RANK_BLOCK = 256

# Instances whose costs times counts solve_transport multiplies and sums in
# one pass, so a stack of frame plans holds no product of its own size.
SUM_BLOCK = 16

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


def _price_start(costs: np.ndarray, quotas: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Row of each column under Gauss-Seidel row prices, for a stack of instances.

    ``costs`` is a (C, k, N) stack, ``quotas`` its (C, k) row supplies and
    ``demand`` its (C,) column demands; returns the (C, N) owning rows. The
    price rule is the Gauss-Seidel one of Bertsekas & Castanon (1989) for
    transportation problems, run on every instance of the stack at once.
    Row i should win ``quotas[i] // demand`` columns. Given the other rows'
    prices, row i wins column n exactly when its price u_i exceeds
    c_in - min_{j != i}(c_jn - u_j), so each update sets u_i midway between
    the target count's threshold and the next one, read from the sorted
    thresholds. A row that should win no column or every column has its
    missing end taken one spread (largest minus smallest threshold) past the
    last threshold, which clamps its price. Each instance's prices come out
    as if it were priced alone, bit for bit.
    """
    c, k, n = costs.shape
    # row-major copies, [row, instance, column]: a row of every instance is
    # one contiguous block, and the minimum over rows runs down the first axis
    by_row = np.ascontiguousarray(costs.transpose(1, 0, 2))
    reduced = by_row.copy()                      # costs - u, u = 0
    targets = quotas // demand[:, None]
    # each row's sorted thresholds, padded by their spread on both ends when
    # some target is 0 or N, and the flat position of the threshold just
    # below each target
    cuts = np.empty((c, n + 2))
    flat, inner = cuts.ravel(), cuts[:, 1:-1]
    lo, hi, below, above = cuts[:, 1], cuts[:, n], cuts[:, 0], cuts[:, -1]
    padded = not (targets % n).all()
    at = targets + np.arange(0, c * (n + 2), n + 2)[:, None]
    rows = [(by_row[i], reduced[i], at[:, i], at[:, i] + 1) for i in range(k)]
    for _ in range(PRICE_ROUNDS):
        for row, red, left, right in rows:
            red.fill(np.inf)
            np.subtract(row, reduced.min(axis=0), out=inner)
            inner.sort(axis=1)
            if padded:
                spread = hi - lo
                np.subtract(lo, spread, out=below)
                np.add(hi, spread, out=above)
            mid = flat.take(left) + flat.take(right)
            mid *= 0.5
            np.subtract(row, mid[:, None], out=red)
    return reduced.argmin(axis=0)


def _exchange(costs: np.ndarray, quotas: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Min-cost (C, k, N) counts of a stack of instances of k rows each.

    Each instance starts with every column fully on its cheapest row under
    the row prices u of ``_price_start``. That start is optimal for its own
    row totals: with v_n = min_k(c_kn - u_k) every reduced cost
    c_kn - u_k - v_n is nonnegative and every used slot has reduced cost
    zero, so complementary slackness holds. Then units move from over-quota
    rows to under-quota rows along cheapest exchange paths (successive
    shortest paths). Each correction is a shortest path in the residual
    graph, so the invariant "optimal for current totals" holds to the end.
    Good prices leave few units to move; they never affect exactness.

    The instances run in lockstep, one exchange path each a round, until
    none has a surplus row left; one already balanced after pricing never
    enters a round. A round builds every instance's row-to-row edges and
    relaxes their paths as stacked arrays; the walk along each path and
    the move stay per instance. ``_solve_stack`` passes active rows only.
    """
    c, k, n = costs.shape
    counts = np.zeros((c, k, n), dtype=np.int64)
    counts[np.arange(c)[:, None], _price_start(costs, quotas, demand),
           np.arange(n)] = demand[:, None]
    delta = (counts.sum(axis=2) - quotas).tolist()     # + surplus, - deficit
    live = [ci for ci, gap in enumerate(delta) if max(gap) > 0]
    diag = np.arange(k)
    while live:
        own = costs[live]
        # moving a slot of column n from row src to row dst costs
        # own[dst, n] - own[src, n]; src can only give columns it holds
        held = own[:, None, :, :] - own[:, :, None, :]   # [c, src, dst, n]
        np.copyto(held, np.inf, where=counts[live, :, None, :] == 0)
        held[:, diag, diag] = np.inf                     # no edge from a row to itself
        edge_col = held.argmin(axis=3)                   # first cheapest column
        edge_cost = held.min(axis=3)
        # shortest paths from all surplus rows, unrolled by path length so the
        # parent chain can never cycle (simultaneous relaxations with zero- or
        # negative-cost edges would let a single parent array do exactly that).
        # argmin keeps the first minimum: ties go to the first source, and a
        # row's path is the shortest of those at its least distance.
        level = np.array([[0.0 if d > 0 else math.inf for d in delta[ci]] for ci in live])
        dist, parents = [level], []
        for _ in range(1, k):
            via = level[:, :, None] + edge_cost          # [c, src, dst]
            parents.append(via.argmin(axis=1))
            level = via.min(axis=1)
            dist.append(level)
        dist = np.array(dist)                            # [length, c, row]
        up = np.array(parents).tolist()                  # [length - 1][c][row]
        for pos, (ci, cols, lens, best) in enumerate(zip(
                live, edge_col.tolist(), dist.argmin(axis=0).tolist(),
                dist.min(axis=0).tolist())):
            gap = delta[ci]
            # the first cheapest deficit row
            cost, sink = min(((d, row) for row, d in enumerate(best) if gap[row] < 0),
                             default=(math.inf, 0))
            if cost == math.inf:
                raise UnbalancedInstance("no exchange path between surplus and deficit rows")
            node, lvl = sink, lens[sink]
            path = []
            while lvl > 0:
                prev = up[lvl - 1][pos][node]
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
            held_counts = counts[ci]
            move = min(gap[node], -gap[sink])
            for src, dst in path:
                move = min(move, int(held_counts[src, cols[src][dst]]))
            for src, dst in path:
                col = cols[src][dst]
                held_counts[src, col] -= move
                held_counts[dst, col] += move
            gap[node] -= move
            gap[sink] += move
        live = [ci for ci in live if max(delta[ci]) > 0]
    return counts


def _solve_stack(costs: np.ndarray, quotas: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """Optimal (C, K, N) slot counts of a stack of transportation instances.

    ``costs`` is one (K, N) matrix shared by every instance or a (C, K, N)
    stack, ``quotas`` the (C, K) row supplies and ``demand`` the (C,) column
    demands; nothing is validated. Every instance is split between its first
    and last active rows in one ``_split_rows`` call, which is exact for one
    or two active rows. The instances with three or more are grouped by
    their active-row count k, and each group's (C_k, k, N) stack of active
    rows is solved in lockstep by ``_exchange``.
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
    widths = active.sum(axis=1)
    for width in sorted(set(widths[widths > 2].tolist())):
        members = np.flatnonzero(widths == width)
        rows = active[members].nonzero()[1].reshape(-1, width)
        at = (rows,) if costs.ndim == 2 else (members[:, None], rows)
        counts[members[:, None], rows] = _exchange(
            costs[at], quotas[members[:, None], rows], demand[members])
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
    # a few instances at a time, so no product of the whole stack is held
    objective = np.empty(len(alpha))
    for lo in range(0, len(alpha), SUM_BLOCK):
        objective[lo:lo + SUM_BLOCK] = (alpha[lo:lo + SUM_BLOCK]
                                        * counts[lo:lo + SUM_BLOCK]).sum(axis=(1, 2))
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
    # the costs are spent: their buffer takes the products
    mean_power = np.multiply(powers, counts, out=alpha).sum(axis=(1, 2)) / grp
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
