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
each path in plain Python. The tests check exactness against a brute-force
enumerator on tiny instances and the HiGHS LP optimum on larger ones; both
oracles live in ``tests/``, not in the package.

The frame repeats one group of ``group`` symbols airtime/group times, so all
arithmetic happens on the compressed K x N group matrix: column n stands for
``group`` identical slots on subcarrier n. ``frame_layouts`` is the package's
one rule for a composition's group size and per-flow quotas.

``solve_frames`` plans a stack of frames from its (B, K) composition
matrix with one validated ``solve_transport`` call: ``frame_layouts`` takes
every frame's group size and quotas from the matrix in one pass, every
frame with one or two active rows goes through one stacked closed-form
split, the frames with three or more through the lockstep exchange solver,
and the call's objective is each frame's power per bit. ``allocate_frame``
is the one-frame form.

A plan can be built in a reused workspace: each thread keeps, per (K, N),
one fixed (``RANK_BLOCK``, K, N) stack each of powers, costs and slot
counts, allocated once; pages never written take no memory. The caller
puts a plan's powers into the leading frames of the powers stack
(``workspace_powers``); a channel-blind run does so through ``row_powers``,
which inverts only the scheduled rows into the zero-filled stack.
``solve_frames`` then builds the costs in the costs stack, and
``solve_transport`` the counts in the counts stack, which ``_solve_stack``
zero-fills. Fresh stacks of this size would be handed back to the kernel
when freed and fault their pages in again on the next plan.
Only a plan whose powers lie in the workspace is built there, and only its
counts are returned from it: ``allocate_frame`` and every solve on arrays of
its caller's own return new arrays.

The ranking of compositions and the frame plans share the split, the
exchange solver and the rule that finds each instance's active rows
(``_active_rows``), but not their set-up. A plan finds its active rows and
split counts from its quotas (``_solve_stack``). ``composition_value``
ranks the compositions of one window shape from a ``RankTable`` built once
per (batch size, occupancy, N) by ``rank_table`` and cached by the
scheduler: each composition's first and last active row, the split counts
at each sorted column position, and the active rows of those the exchange
solver takes. A ranking call then gathers the held flows' powers, sorts the
first-minus-last cost rows once, and scatters the cached counts, with the
counts, and so the values, ``_solve_stack`` would give.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import LinkBudget
from .model import SystemConfig, frame_length

# Gains this far below the instance median are clamped before inversion so a
# single fade cannot blow up the cost matrix.
GAIN_FLOOR_REL = 1e-12

# Gauss-Seidel price rounds before the exchange solve. On the power_mpgps
# benchmark instances two rounds cut the mean exchange count from ~39 to ~1.2.
PRICE_ROUNDS = 2

# Compositions ranked per block by composition_value. Caps its (block, K, N)
# count stack at ~1.3 MB for K=10, N=64, however many compositions a window
# has. Each plan workspace stack holds this many frames, and so
# engine.PLAN_STACK caps a channel-blind run's plan stacks alike.
RANK_BLOCK = 256

# Instances whose costs times counts solve_transport multiplies and sums in
# one pass, so a stack of frame plans holds no product of its own size.
SUM_BLOCK = 16


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


def _active_rows(active: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Each instance's first and last active row in a (C, K) mask, and the
    instances the exchange solver takes: for each active-row count k >= 3,
    ascending, their indices and their (C_k, k) active rows."""
    # array methods, not the np.* wrappers: on a stack of one frame the
    # wrappers' dispatch costs as much as the arithmetic
    first = active.argmax(axis=1)
    last = active.shape[1] - 1 - active[:, ::-1].argmax(axis=1)
    widths = active.sum(axis=1)
    wide = []
    for width in sorted(set(widths[widths > 2].tolist())):
        members = np.flatnonzero(widths == width)
        wide.append((members, active[members].nonzero()[1].reshape(-1, width)))
    return first, last, wide


def _solve_stack(costs: np.ndarray, quotas: np.ndarray, demand: np.ndarray,
                 counts: np.ndarray | None = None) -> np.ndarray:
    """Optimal (C, K, N) slot counts of a stack of transportation instances.

    ``costs`` is the (C, K, N) stack, ``quotas`` the (C, K) row supplies and
    ``demand`` the (C,) column demands; nothing is validated. Every instance
    is split between its first and last active rows in one ``_split_rows``
    call, which is exact for one or two active rows. The instances with
    three or more are grouped by their active-row count k, and each group's
    (C_k, k, N) stack of active rows is solved in lockstep by ``_exchange``.
    The counts go to a new array, or to the int64 ``counts`` given, which is
    zero-filled first.
    """
    c, k = quotas.shape
    if counts is None:
        counts = np.zeros((c, k, costs.shape[-1]), dtype=np.int64)
    else:
        counts.fill(0)
    each = np.arange(c)
    first, last, wide = _active_rows(quotas > 0)
    top = _split_rows(costs[each, first], costs[each, last], quotas[each, first][:, None],
                      demand[:, None])
    counts[each, last] = demand[:, None] - top   # overwritten when last == first
    counts[each, first] = top
    # the split wrote only active rows, all of which the exchange solve rewrites
    for members, rows in wide:
        at = (members[:, None], rows)
        counts[at] = _exchange(costs[at], quotas[at], demand[members])
    return counts


class _PlanStacks(NamedTuple):
    """One thread's plan workspace for one (K, N): three (S, K, N) stacks."""

    powers: np.ndarray           # power matrices, drawn by the engine
    alpha: np.ndarray            # unit-slot costs, then the products of the mean power
    counts: np.ndarray           # int64 slot counts


class _Workspace(threading.local):
    """Each thread's plan stacks by (K, N), so concurrent runs share none."""

    def __init__(self):
        self.stacks: dict[tuple[int, int], _PlanStacks] = {}


_WORKSPACE = _Workspace()


def workspace_powers(frames: int, k: int, n: int) -> np.ndarray:
    """The first ``frames`` (at most ``RANK_BLOCK``) (K, N) matrices of this
    thread's powers stack, to draw a plan's powers into; ``solve_frames``
    plans them in the workspace. What the stacks hold is valid until the
    next workspace plan of the same (K, N) in this thread.
    """
    held = _WORKSPACE.stacks.get((k, n))
    if held is None:
        held = _WORKSPACE.stacks[(k, n)] = _PlanStacks(
            np.empty((RANK_BLOCK, k, n)), np.empty((RANK_BLOCK, k, n)),
            np.empty((RANK_BLOCK, k, n), dtype=np.int64))
    return held.powers[:frames]


def _workspace_of(stack: np.ndarray, field: str) -> _PlanStacks | None:
    """This thread's plan stacks if ``stack`` is a view of their stack ``field``."""
    held = _WORKSPACE.stacks.get(stack.shape[1:])
    return held if held is not None and stack.base is getattr(held, field) else None


def solve_transport(instance: TransportInstance) -> tuple[np.ndarray, float | np.ndarray]:
    """Exact optimum of the group assignment problem.

    Returns the (K, N) slot-count matrix (column sums equal the group size,
    row sums equal the quotas) and its objective value; for a stack, the
    (C, K, N) counts and the (C,) objective values. The counts of a stack
    whose costs ``solve_frames`` built in the plan workspace are built
    there too; any other instance's are a new array.
    """
    alpha = instance.alpha.reshape(-1, *instance.alpha.shape[-2:])
    held = _workspace_of(alpha, "alpha")
    counts = _solve_stack(alpha, instance.quotas.reshape(len(alpha), -1),
                          np.reshape(instance.group, -1),
                          None if held is None else held.counts[:len(alpha)])
    # a few instances at a time, so no product of the whole stack is held
    objective = np.empty(len(alpha))
    for lo in range(0, len(alpha), SUM_BLOCK):
        objective[lo:lo + SUM_BLOCK] = (alpha[lo:lo + SUM_BLOCK]
                                        * counts[lo:lo + SUM_BLOCK]).sum(axis=(1, 2))
    if instance.alpha.ndim == 2:
        return counts[0], float(objective[0])
    return counts, objective


class RankBlock(NamedTuple):
    """Integer facts of up to ``RANK_BLOCK`` consecutive compositions of a table."""

    each: np.ndarray             # (B, 1, 1) member index, shared per B
    ends: np.ndarray             # (B, 2) held positions of its first and last active row
    g_first: np.ndarray          # (B,) packets of its first active row
    wide: tuple                  # (members, (B_k, k) active positions) per k >= 3 rows


class RankTable(NamedTuple):
    """The compositions of one window shape over its held flows, and the facts
    that rank them; every array is read-only."""

    table: np.ndarray            # (C, H) compositions, lexicographic
    m_sel: int
    profiles: np.ndarray         # (m_sel + 1, 2, N) split counts, shared per (m_sel, N)
    blocks: tuple[RankBlock, ...]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=RANK_BLOCK)
def _member_index(size: int) -> np.ndarray:
    return _read_only(np.arange(size).reshape(-1, 1, 1))


@functools.lru_cache(maxsize=64)
def _split_profiles(m_sel: int, n: int) -> np.ndarray:
    """Counts the closed-form split gives a composition's first and last active
    row at each sorted column position, by the first row's packets g.

    With column demand m and first-row quota g * N, the first row takes
    min(max(g * N - m * j, 0), m) slots at the j-th column in its order and
    the last row the rest; g = m is a lone active row, which takes every
    slot, entered as both rows. Float, as the products with the powers are.
    """
    top = np.clip(np.arange(m_sel + 1)[:, None] * n - m_sel * np.arange(n), 0, m_sel)
    profiles = np.stack((top, m_sel - top), axis=1).astype(float)
    profiles[m_sel, 1] = m_sel
    return _read_only(profiles)


def rank_table(table: np.ndarray, m_sel: int, n_subcarriers: int) -> RankTable:
    """The ranking facts of a (C, H) table of compositions of batch size ``m_sel``.

    Everything ``composition_value`` reads besides the powers and the held
    flows is fixed here, ``RANK_BLOCK`` compositions a block: each
    composition's first and last active position and the first one's
    packets, and, grouped by their active-row count, the active positions of
    those with three or more.
    """
    if m_sel < 1:
        raise ValueError("empty composition")
    blocks = []
    for lo in range(0, len(table), RANK_BLOCK):
        block = table[lo:lo + RANK_BLOCK]
        first, last, wide = _active_rows(block > 0)
        # kept in the smallest unsigned types that hold them
        wide = tuple((_read_only(members.astype(np.min_scalar_type(len(block)))),
                      _read_only(pos.astype(np.min_scalar_type(block.shape[1]))))
                     for members, pos in wide)
        blocks.append(RankBlock(_member_index(len(block)),
                                _read_only(np.stack((first, last), axis=1)),
                                _read_only(block[np.arange(len(block)), first]), wide))
    return RankTable(_read_only(table), m_sel, _split_profiles(m_sel, n_subcarriers),
                     tuple(blocks))


def composition_value(powers: np.ndarray, held, ranked: RankTable, r: int) -> np.ndarray:
    """Transmit power per bit of the best assignment for each composition.

    ``ranked`` is the ``rank_table`` of C compositions over the flows
    ``held`` (rows of the (K, N) ``powers``, ascending); returns their C
    values. Each value comes from a scaled instance (supplies g_k * N, column
    demand sum(g)) whose optimum value is invariant to the group size, so
    compositions can be ranked without constructing each frame's group
    structure. A block's compositions are split in one stable argsort of
    their first-minus-last row costs and one scatter of the cached split
    counts into a (B, K, N) count stack; those with three or more active
    rows are then solved by ``_exchange``, one stack per active-row count.
    The counts, and so the values, are those ``_solve_stack`` gives.
    """
    k, n = powers.shape
    held = np.asarray(held)
    slot_power = np.empty(len(ranked.table))
    lo = 0
    for blk in ranked.blocks:
        rows = held[blk.ends]
        ends = powers[rows]
        order = (ends[:, 0] - ends[:, 1]).argsort(axis=1, kind="stable")
        # float counts, exact as integers, save a cast in the product
        counts = np.zeros((len(rows), k, n))
        counts[blk.each, rows[:, :, None], order[:, None]] = ranked.profiles[blk.g_first]
        # the split wrote only active rows, all of which the exchange solve rewrites
        for members, pos in blk.wide:
            wide_rows = held[pos]
            quotas = ranked.table[lo:lo + len(rows)][members[:, None], pos] * n
            counts[members[:, None], wide_rows] = _exchange(
                powers[wide_rows], quotas, np.full(len(members), ranked.m_sel))
        slot_power[lo:lo + len(rows)] = np.multiply(counts, powers, out=counts).sum(axis=(1, 2))
        lo += len(rows)
    return slot_power / (n * r * ranked.m_sel)


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
    inverted as they are. A channel-blind run sends a frame here only when
    ``row_powers`` finds a gain its plan reads within that floor of the
    frame's gain bound; its other frames' unscheduled gains are never
    inverted, so there ``ZeroGain`` can come only from a frame whose plan
    reads a gain that faded that deep.
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


def row_powers(out: np.ndarray, frames: np.ndarray, users: np.ndarray, gains: np.ndarray,
               bound: np.ndarray, budget: LinkBudget) -> np.ndarray:
    """Invert the scheduled rows of a stack of frames into ``out``; return
    the frames that ``frame_powers`` must invert whole.

    ``out`` is the (B, K, N) powers stack, which is zero-filled first;
    ``gains`` holds the (P, N) gains of the (frame, user) pairs ``frames``,
    ``users`` (every frame has one), and ``bound`` each frame's bound on all
    its gains. A frame whose scheduled gains all exceed ``GAIN_FLOOR_REL``
    times its bound gets their inverses as ``frame_powers`` gives them: its
    floor, at most ``GAIN_FLOOR_REL`` times its largest gain, lies below
    every gain its plan reads. A plan reads no other row, and a zero row adds
    the zeros its costs times counts added before. Any other frame is left
    for the whole-frame rule.
    """
    out.fill(0.0)
    low = np.full(len(out), np.inf)
    np.minimum.at(low, frames, gains.min(axis=1))
    whole = ~(low > GAIN_FLOOR_REL * bound)
    keep = ~whole[frames]
    out[frames[keep], users[keep]] = budget.gamma * budget.noise_power / gains[keep]
    return np.flatnonzero(whole)


def frame_layouts(g: np.ndarray, cfg: SystemConfig
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch size, airtime, group size and quotas of every composition of a
    (B, K) int64 matrix ``g``: int64 arrays (B,), (B,), (B,) and (B, K).

    The airtime is ``model.frame_length``'s. The group is the smallest one
    giving every flow a whole quota g_k * group * N / m_sel, which is
    m_sel / d with d = gcd(m_sel, N * gcd(g)); each quota is g_k * N / d.
    It always divides the airtime: with P = L / r, whole as ``SystemConfig``
    takes L as a multiple of r, a whole airtime P * m_sel / N means N
    divides P * m_sel and P * N, so P * gcd(m_sel, N), so P * d, and
    airtime / group = P * d / N is whole. A stack with a row that
    ``frame_length`` refuses is handed to it row by row, so the first such
    row raises what it raises (``NonIntegralFrame`` or ``ValueError``).
    """
    m_sel = g.sum(axis=1)
    airtime, spare = np.divmod(cfg.L * m_sel, cfg.bits_per_symbol)
    if m_sel.min() > 0 and g.min() >= 0 and not spare.any():
        group = m_sel // np.gcd(m_sel, cfg.N * np.gcd.reduce(g, axis=1))
        return m_sel, airtime, group, g * (group * cfg.N)[:, None] // m_sel[:, None]
    for row in g.tolist():
        frame_length(row, cfg)
    raise AssertionError("a composition refused by the stacked checks passed frame_length")


def solve_frames(g: np.ndarray, powers: np.ndarray, cfg: SystemConfig
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Optimal plans of a stack of frames: counts, per-bit power, energy, mean power.

    ``g`` is the stack's (B, K) int64 composition matrix, from which
    ``frame_layouts`` takes every frame's group size and quotas in one
    pass, and ``powers`` their (B, K, N) power matrices from
    ``frame_powers``, the ones the batch selection ranked compositions
    with, or from ``row_powers``, whose unscheduled rows are zero: a plan
    reads only its scheduled rows. Returns the (B, K, N) slot counts per
    group and the (B,) power per bit (W per delivered bit), energy over the
    whole frame at requested power (J) and mean power over the airtime (W).
    Powers drawn into ``workspace_powers`` are planned in the workspace, and
    the counts returned stay valid only until its next plan; other powers
    get new arrays.
    """
    m_sel, _, grp, quotas = frame_layouts(g, cfg)
    held = _workspace_of(powers, "powers")
    alpha = np.divide(powers, (grp * (cfg.N * cfg.r))[:, None, None],
                      out=None if held is None else held.alpha[:len(powers)])
    # the objective, a sum of group costs, is exactly power per bit
    counts, per_bit_power = solve_transport(
        TransportInstance(alpha=alpha, quotas=quotas, group=grp))
    energy = per_bit_power * cfg.L * m_sel * cfg.T_sym
    # the costs are spent: their buffer takes the products
    mean_power = np.multiply(powers, counts, out=alpha).sum(axis=(1, 2)) / grp
    return counts, per_bit_power, energy, mean_power


def allocate_frame(g, powers: np.ndarray, cfg: SystemConfig) -> AllocationResult:
    """Solve one frame end to end: quotas, group assignment, energy.

    ``g`` is the frame's composition and ``powers`` its (K, N) power matrix
    from ``frame_powers``; the plan is ``solve_frames`` on the (1, K)
    composition matrix of a stack of one.
    """
    gs = np.array([g], dtype=np.int64)
    m_sel, airtime, grp = (int(x[0]) for x in frame_layouts(gs, cfg)[:3])
    counts, per_bit_power, energy, mean_power = solve_frames(gs, powers[None], cfg)
    return AllocationResult(
        g=tuple(int(x) for x in g), m_sel=m_sel, airtime=airtime, group=grp,
        repeats=airtime // grp, counts=counts[0], per_bit_power=float(per_bit_power[0]),
        energy=float(energy[0]), mean_power=float(mean_power[0]))
