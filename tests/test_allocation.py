"""Exact assignment solver vs brute force, plus frame-level plan checks."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpgps_sim as m
from mpgps_sim import allocation, scheduling
from mpgps_sim.allocation import _exchange, _price_start, _solve_stack
from oracles import (InstanceTooLarge, brute_force_ilp, composition_values_stacked,
                     one_composition_value, price_start_padded)


def price_one(costs, quotas, demand):
    """``_price_start`` on a stack of one instance."""
    return _price_start(costs[None], quotas[None], np.array([demand]))[0]


def solve_one(costs, quotas, demand):
    """``_solve_stack`` on a stack of one instance."""
    return _solve_stack(costs[None], quotas[None], np.array([demand]))[0]


def check_feasible(counts, instance):
    assert counts.dtype == np.int64
    assert np.all(counts >= 0)
    np.testing.assert_array_equal(counts.sum(axis=1), instance.quotas)
    assert np.all(counts.sum(axis=0) == instance.group)


def highs_optimum(instance):
    """LP optimum of the transportation instance; its vertices are integral."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    k, n = instance.alpha.shape
    a_eq = np.vstack([np.kron(np.eye(k), np.ones(n)), np.kron(np.ones(k), np.eye(n))])
    b_eq = np.concatenate([instance.quotas, np.full(n, instance.group)])
    res = linprog(instance.alpha.ravel(), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


class TestSolver:
    def test_diagonal_pick(self):
        inst = m.TransportInstance(alpha=np.array([[1.0, 3.0], [2.0, 1.0]]),
                                   quotas=np.array([1, 1]), group=1)
        counts, obj = m.solve_transport(inst)
        check_feasible(counts, inst)
        assert obj == pytest.approx(2.0)
        np.testing.assert_array_equal(counts, [[1, 0], [0, 1]])

    def test_greedy_start_needs_exchanges(self):
        # row 0 is cheapest everywhere, but quotas force one slot per row
        alpha = np.array([[1.0, 1.0, 1.0],
                          [2.0, 2.0, 2.0],
                          [3.0, 3.0, 3.0]])
        inst = m.TransportInstance(alpha=alpha, quotas=np.array([1, 1, 1]), group=1)
        counts, obj = m.solve_transport(inst)
        check_feasible(counts, inst)
        assert obj == pytest.approx(6.0)

    def test_two_hop_exchange_path(self):
        # moving a unit from row 0 to row 2 directly is costly; the cheap
        # correction routes through row 1
        alpha = np.array([[0.0, 0.0, 0.0],
                          [0.1, 0.0, 5.0],
                          [9.0, 0.2, 9.0]])
        inst = m.TransportInstance(alpha=alpha, quotas=np.array([1, 1, 1]), group=1)
        counts, obj = m.solve_transport(inst)
        _, oracle = brute_force_ilp(inst)
        check_feasible(counts, inst)
        assert obj == pytest.approx(oracle, abs=1e-12)

    def test_zero_quota_rows_are_ignored(self):
        alpha = np.array([[5.0, 5.0], [1.0, 1.0], [2.0, 2.0]])
        inst = m.TransportInstance(alpha=alpha, quotas=np.array([0, 3, 1]), group=2)
        counts, obj = m.solve_transport(inst)
        check_feasible(counts, inst)
        assert counts[0].sum() == 0
        assert obj == pytest.approx(5.0)

    def test_unbalanced_rejected(self):
        with pytest.raises(m.UnbalancedInstance):
            m.TransportInstance(alpha=np.ones((2, 2)), quotas=np.array([1, 2]),
                                group=1)

    def test_row_with_every_column_clamps_its_price(self):
        # quota // demand == n: the last row's price must clear its largest
        # threshold and the zero-quota rows' prices must sit below their
        # smallest, strictly, or argmin ties hand columns to the lower rows
        alpha = np.array([[1.0, 2.0, 3.0, 4.0],
                          [2.0, 3.0, 1.0, 1.0],
                          [5.0, 1.0, 4.0, 3.0]])
        quotas = np.array([0, 0, 8])
        np.testing.assert_array_equal(price_one(alpha, quotas, 2), [2, 2, 2, 2])
        counts = _exchange(alpha[None], quotas[None], np.array([2]))[0]
        np.testing.assert_array_equal(counts, [[0] * 4, [0] * 4, [2, 2, 2, 2]])

    def test_exchange_refuses_a_surplus_no_path_can_place(self):
        # unvalidated quotas summing past the slots on offer leave a surplus
        # row with no deficit row to take it
        with pytest.raises(m.UnbalancedInstance, match="no exchange path"):
            _exchange(np.ones((1, 3, 2)), np.array([[1, 1, 1]]), np.array([2]))

    def test_captured_demand_three_instance(self):
        # a k=3 frame of the power_mpgps benchmark (g=(1,1,1), so m_sel=3 and
        # group=3), costs scaled by their minimum and kept to 3 digits; from
        # the plain cheapest-row start it took 65 exchange paths
        alpha = np.array([
            [237, 261, 273, 271, 255, 233, 210, 190, 175, 165, 159, 158, 160,
             166, 176, 190, 208, 230, 256, 285, 316, 347, 374, 394, 405, 406,
             399, 390, 381, 376, 377, 385, 399, 416, 426, 418, 385, 330, 269,
             214, 170, 138, 114, 97.4, 85.8, 77.9, 72.8, 69.8, 68.7, 69, 70.5,
             73.2, 76.8, 81.1, 86.2, 92, 98.6, 106, 116, 127, 142, 160, 183,
             209],
            [1.02, 1.06, 1.11, 1.17, 1.24, 1.31, 1.39, 1.49, 1.6, 1.74, 1.93,
             2.16, 2.45, 2.81, 3.18, 3.52, 3.74, 3.78, 3.67, 3.49, 3.31, 3.2,
             3.18, 3.27, 3.51, 3.94, 4.6, 5.58, 6.95, 8.73, 10.7, 12.6, 13.8,
             14.5, 15, 15.6, 16.8, 18.3, 19.9, 20.4, 18.9, 15.8, 12.4, 9.65,
             7.73, 6.44, 5.61, 5.08, 4.74, 4.48, 4.22, 3.88, 3.45, 2.97, 2.49,
             2.07, 1.74, 1.48, 1.3, 1.16, 1.08, 1.02, 1, 1],
            [2310, 1850, 1480, 1240, 1090, 1010, 984, 1010, 1100, 1250, 1490,
             1840, 2310, 2870, 3380, 3660, 3640, 3410, 3140, 2910, 2740, 2630,
             2550, 2460, 2350, 2200, 2040, 1870, 1720, 1610, 1530, 1490, 1490,
             1520, 1560, 1590, 1590, 1530, 1410, 1250, 1080, 918, 784, 678,
             596, 534, 487, 453, 430, 416, 410, 413, 425, 449, 489, 549, 638,
             773, 977, 1280, 1730, 2270, 2700, 2700]])
        inst = m.TransportInstance(alpha=alpha, quotas=np.array([64, 64, 64]),
                                   group=3)
        counts, obj = m.solve_transport(inst)
        check_feasible(counts, inst)
        ref = highs_optimum(inst)
        assert abs(obj - ref) <= 1e-9 * abs(ref)

    def test_brute_force_size_guard(self):
        with pytest.raises(InstanceTooLarge):
            brute_force_ilp(m.TransportInstance(
                alpha=np.ones((3, 7)), quotas=np.array([5, 5, 4]), group=2))


@st.composite
def instances(draw):
    # K*G*N <= 4*2*4 = 32 stays inside the enumeration bound
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    grp = draw(st.integers(1, 2))
    costs = draw(st.lists(st.floats(0.01, 10.0), min_size=k * n, max_size=k * n))
    total = n * grp
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1,
                                max_size=k - 1)))
    quotas = np.diff(np.array([0, *cuts, total]))
    return m.TransportInstance(alpha=np.array(costs).reshape(k, n),
                               quotas=quotas, group=grp)


@settings(max_examples=200, deadline=None)
@given(inst=instances())
def test_solver_matches_brute_force(inst):
    counts, obj = m.solve_transport(inst)
    _, oracle = brute_force_ilp(inst)
    check_feasible(counts, inst)
    assert abs(obj - oracle) <= 1e-9 * max(1.0, abs(oracle))


def random_instance(rng, rounded):
    k = int(rng.integers(3, 11))
    grp = int(rng.integers(1, 9))
    n = 64
    costs = rng.uniform(1.0, 10.0, size=(k, n))
    if rounded:
        costs = np.round(costs)          # integer costs, so ties are common
    total = n * grp
    cuts = np.sort(rng.choice(np.arange(1, total), size=k - 1, replace=False))
    quotas = np.diff(np.concatenate(([0], cuts, [total])))
    return m.TransportInstance(alpha=costs, quotas=quotas, group=grp)


@pytest.mark.parametrize("seed", range(100))
def test_solver_matches_highs_beyond_enumeration(seed):
    inst = random_instance(np.random.default_rng(seed), rounded=seed % 3 == 0)
    counts, obj = m.solve_transport(inst)
    check_feasible(counts, inst)
    ref = highs_optimum(inst)
    assert abs(obj - ref) <= 1e-9 * abs(ref)


def row_loop_exchange(costs, quotas, demand, log=None):
    """The exchange solve of one instance, with its edges built by a loop
    over source rows and its shortest paths relaxed one level at a time;
    ``_solve_stack`` must return its counts exactly, ties and spliced paths
    included. ``log``, when given, gets "balanced" if the priced start
    already meets every quota and "spliced" for each path that loses a
    repeated node."""
    k, n = costs.shape
    counts = np.zeros((k, n), dtype=np.int64)
    counts[price_one(costs, quotas, demand), np.arange(n)] = demand
    delta = counts.sum(axis=1) - quotas
    if log is not None and delta.max() <= 0:
        log.append("balanced")
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
        level_dist = np.where(delta > 0, 0.0, np.inf)
        parents = []
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
        sink = int(reach[np.argmin(best_dist[reach])])
        node, lvl = sink, int(best_len[sink])
        path = []
        while lvl > 0:
            prev = int(parents[lvl - 1][node])
            path.append((prev, node))
            node, lvl = prev, lvl - 1
        path.reverse()
        seen = {path[0][0]: 0}
        i = 0
        while i < len(path):
            dst = path[i][1]
            if dst in seen:
                del path[seen[dst]:i + 1]
                i = seen[dst]
                seen = {v: j for v, j in seen.items() if j <= i}
                if log is not None:
                    log.append("spliced")
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


def exchange_instance(rng, integer, n=None, rows=(3, 6)):
    """``rows`` active rows (at most demand * N), N in 4..64 unless given,
    demand 1-4, quotas summing to demand * N.

    Costs are small integers (ties everywhere) or spread over four decades.
    """
    n = int(rng.integers(4, 65)) if n is None else n
    demand = int(rng.integers(1, 5))
    k = min(int(rng.integers(rows[0], rows[1] + 1)), demand * n)
    if integer:
        costs = rng.integers(1, 4, size=(k, n)).astype(float)
    else:
        costs = 10.0 ** rng.uniform(-2, 2, size=(k, 1)) * rng.exponential(size=(k, n))
    cuts = np.sort(rng.choice(np.arange(1, demand * n), size=k - 1, replace=False))
    return costs, np.diff(np.concatenate(([0], cuts, [demand * n]))), demand


@pytest.mark.parametrize("integer", [False, True], ids=["continuous", "integer"])
def test_exchange_matches_row_loop(integer):
    rng = np.random.default_rng(2024 + integer)
    empty_after_pricing = 0
    for case in range(1000):
        costs, quotas, demand = exchange_instance(rng, integer)
        k = len(quotas)
        owners = price_one(costs, quotas, demand)
        empty_after_pricing += np.bincount(owners, minlength=k).min() == 0
        want = row_loop_exchange(costs, quotas, demand)
        assert solve_one(costs, quotas, demand).tolist() == want.tolist(), case
    assert empty_after_pricing > 0


def scattered_stack(members, k, rng):
    """One stack of (costs, quotas, demand) members sharing N, each with its
    active rows at random places among k rows; the other rows have zero
    quota and random costs. Returns the stack's arrays and each member's rows."""
    n = members[0][0].shape[1]
    alpha = rng.uniform(0.5, 2.0, size=(len(members), k, n))
    quotas = np.zeros((len(members), k), dtype=np.int64)
    places = []
    for i, (costs, q, _) in enumerate(members):
        rows = np.sort(rng.choice(k, size=len(q), replace=False))
        alpha[i, rows] = costs
        quotas[i, rows] = q
        places.append(rows)
    return alpha, quotas, np.array([demand for *_, demand in members]), places


def test_lockstep_stacks_match_row_loop():
    # stacks mixing 3 to 8 active rows, each member equal to its solve alone
    rng = np.random.default_rng(2042)
    log = []
    widths = set()
    for case in range(60):
        n = int(rng.choice([4, 9, 16, 64]))
        members = [exchange_instance(rng, integer=case % 3 != 0, n=n, rows=(3, 8))
                   for _ in range(int(rng.integers(2, 25)))]
        alpha, quotas, demand, places = scattered_stack(members, 10, rng)
        counts = _solve_stack(alpha, quotas, demand)
        for i, (costs, q, d) in enumerate(members):
            want = row_loop_exchange(costs, q, d, log)
            assert counts[i, places[i]].tolist() == want.tolist(), (case, i)
            assert counts[i].sum() == counts[i, places[i]].sum(), (case, i)
            widths.add(len(q))
    assert widths == set(range(3, 9))
    assert "balanced" in log and "spliced" in log


class TestPriceStart:
    """The bracketing thresholds read directly against the padded array."""

    @staticmethod
    def instance(rng, k, integer, n=None):
        n = int(rng.integers(4, 65)) if n is None else n
        demand = int(rng.integers(1, 5))
        if integer:
            costs = rng.integers(1, 4, size=(k, n)).astype(float)
        else:
            costs = 10.0 ** rng.uniform(-2, 2, size=(k, 1)) * rng.exponential(size=(k, n))
        shape = rng.integers(3)
        if shape == 0:
            # one row owed every column (target N), the others nothing
            quotas = np.zeros(k, dtype=np.int64)
            quotas[rng.integers(k)] = demand * n
        else:
            # a random split; with demand > 1 some rows are owed less than a
            # column (target 0)
            cuts = np.sort(rng.integers(0, demand * n + 1, size=k - 1))
            quotas = np.diff(np.concatenate(([0], cuts, [demand * n])))
        return costs, quotas, demand

    @pytest.mark.parametrize("k", range(3, 9))
    def test_owners_equal_padded_thresholds(self, k):
        rng = np.random.default_rng(70 + k)
        owed_none = owed_some = owed_all = 0
        for case in range(300):
            costs, quotas, demand = self.instance(rng, k, integer=case % 2 == 1)
            got = price_one(costs, quotas, demand)
            assert got.tolist() == price_start_padded(costs, quotas, demand).tolist(), case
            targets = quotas // demand
            owed_none += int((targets == 0).sum())
            owed_some += int(((0 < targets) & (targets < costs.shape[1])).sum())
            owed_all += int((targets == costs.shape[1]).sum())
        assert min(owed_none, owed_some, owed_all) > 0

    @pytest.mark.parametrize("k", range(3, 9))
    def test_stack_members_equal_padded_thresholds(self, k):
        # every member of a stack is priced as if alone
        rng = np.random.default_rng(90 + k)
        for case in range(20):
            n = int(rng.integers(4, 65))
            members = [self.instance(rng, k, integer=case % 2 == 1, n=n)
                       for _ in range(int(rng.integers(1, 30)))]
            got = _price_start(np.array([c for c, _, _ in members]),
                               np.array([q for _, q, _ in members]),
                               np.array([d for *_, d in members]))
            for i, member in enumerate(members):
                assert got[i].tolist() == price_start_padded(*member).tolist(), (case, i)


def padded_stack(members, k):
    """One stacked instance of (costs, quotas, demand) members sharing N; each
    member is padded to k rows with zero-quota rows of unit cost."""
    alpha = np.ones((len(members), k, members[0][0].shape[1]))
    quotas = np.zeros((len(members), k), dtype=np.int64)
    for i, (costs, q, _) in enumerate(members):
        alpha[i, :len(q)] = costs
        quotas[i, :len(q)] = q
    return m.TransportInstance(alpha=alpha, quotas=quotas,
                               group=np.array([demand for *_, demand in members]))


def on_fewer_rows(costs, quotas, demand, rows):
    """The same costs with the whole supply moved onto the first ``rows`` rows."""
    q = np.zeros_like(quotas)
    q[:rows] = quotas[:rows]
    q[rows - 1] += quotas.sum() - q.sum()
    return costs, q, demand


class TestStackedSolve:
    def check_stack(self, stack):
        counts, objective = m.solve_transport(stack)
        assert counts.shape == stack.alpha.shape
        assert objective.shape == (len(stack.alpha),)
        for i in range(len(stack.alpha)):
            alone, value = m.solve_transport(m.TransportInstance(
                alpha=stack.alpha[i], quotas=stack.quotas[i], group=int(stack.group[i])))
            assert isinstance(value, float)
            assert counts[i].tolist() == alone.tolist(), i
            assert objective[i] == value, i
        return counts

    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances(self, seed):
        # 3-10 active rows, and the same members on one and on two rows
        rng = np.random.default_rng(seed)
        members = []
        for j in range(8):
            inst = random_instance(rng, rounded=j % 3 == 0)
            member = (inst.alpha, inst.quotas, inst.group)
            members += [member, on_fewer_rows(*member, 1), on_fewer_rows(*member, 2)]
        counts = self.check_stack(padded_stack(members, 10))
        for i, (costs, q, demand) in enumerate(members):
            alone = m.solve_transport(m.TransportInstance(alpha=costs, quotas=q, group=demand))[0]
            assert counts[i, :len(q)].tolist() == alone.tolist()
            assert not counts[i, len(q):].any()

    def test_exchange_instances(self):
        rng = np.random.default_rng(2031)
        by_width = {}
        for j in range(400):
            costs, quotas, demand = exchange_instance(rng, integer=j % 2 == 1)
            by_width.setdefault(costs.shape[1], []).append((costs, quotas, demand))
        stacks = [members for members in by_width.values() if len(members) > 1]
        assert len(stacks) > 20
        for members in stacks:
            self.check_stack(padded_stack(members, 6))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_one_non_finite_cost_is_refused(self, bad):
        rng = np.random.default_rng(5)
        stack = padded_stack([(i.alpha, i.quotas, i.group)
                              for i in (random_instance(rng, False) for _ in range(5))], 10)
        alpha = stack.alpha.copy()
        alpha[3, 1, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            m.TransportInstance(alpha=alpha, quotas=stack.quotas, group=stack.group)

    def test_one_unbalanced_member_is_refused(self):
        rng = np.random.default_rng(6)
        stack = padded_stack([(i.alpha, i.quotas, i.group)
                              for i in (random_instance(rng, False) for _ in range(5))], 10)
        quotas = stack.quotas.copy()
        quotas[2, 0] += 1
        with pytest.raises(m.UnbalancedInstance, match=f"need {stack.group[2] * 64}"):
            m.TransportInstance(alpha=stack.alpha, quotas=quotas, group=stack.group)
        with pytest.raises(ValueError, match="group size"):
            m.TransportInstance(alpha=stack.alpha, quotas=stack.quotas, group=stack.group[:4])


def small_cfg(k=3):
    return m.SystemConfig(K=k, N=8, L=64, r=2, M=k, M_max=k)


def rand_gains(rng, k, n):
    return rng.uniform(0.05, 2.0, size=(k, n))


class TestFrameAllocation:
    @pytest.mark.parametrize("g", [(2, 1, 0), (1, 1, 1), (3, 0, 0), (0, 2, 2)])
    def test_composition_value_matches_full_frame_plan(self, g):
        # the scaled ranking instance and the real group instance share an
        # optimum value, whatever group size the frame ends up with
        cfg = small_cfg()
        budget = m.link_budget(cfg)
        gains = rand_gains(np.random.default_rng(hash(g) % 2**32), 3, 8)
        powers = m.frame_powers(gains, budget)
        plan = m.allocate_frame(g, powers, cfg)
        ranked = one_composition_value(powers, g, cfg.r)
        assert ranked == pytest.approx(plan.per_bit_power, rel=1e-9)

    def test_plan_accounting(self):
        cfg = small_cfg()
        budget = m.link_budget(cfg)
        powers = m.frame_powers(rand_gains(np.random.default_rng(17), 3, 8), budget)
        plan = m.allocate_frame((2, 1, 0), powers, cfg)
        assert plan.m_sel == 3
        assert plan.airtime == m.frame_length((2, 1, 0), cfg)
        assert plan.airtime == plan.group * plan.repeats
        assert plan.energy == pytest.approx(
            plan.per_bit_power * cfg.L * plan.m_sel * cfg.T_sym)
        assert plan.energy == pytest.approx(
            plan.mean_power * plan.airtime * cfg.T_sym)
        check = np.sum(powers * plan.counts) / plan.group
        assert plan.mean_power == pytest.approx(check)

    def test_quota_rows_match_composition(self):
        cfg = small_cfg()
        budget = m.link_budget(cfg)
        powers = m.frame_powers(rand_gains(np.random.default_rng(4), 3, 8), budget)
        plan = m.allocate_frame((1, 2, 0), powers, cfg)
        per_flow_slots = plan.counts.sum(axis=1) * plan.repeats
        # slots over the whole frame carry exactly g_k * L bits at r bits each
        np.testing.assert_array_equal(per_flow_slots * cfg.r,
                                      np.array([1, 2, 0]) * cfg.L)

    def test_cheaper_subcarriers_get_used(self):
        cfg = m.SystemConfig(K=2, N=8, L=64, r=2, M=2)
        budget = m.link_budget(cfg)
        gains = np.ones((2, 8))
        gains[0, :4] = 100.0         # user 0 is strong on the first half
        gains[1, 4:] = 100.0
        plan = m.allocate_frame((1, 1), m.frame_powers(gains, budget), cfg)
        assert plan.counts[0, :4].sum() == plan.counts[0].sum()
        assert plan.counts[1, 4:].sum() == plan.counts[1].sum()


def oracle_plan(g, powers, cfg):
    """One frame planned on its own: quotas, instance, exact solve, whole-matrix sums."""
    m_sel = sum(g)
    grp = m.group_size(m.frame_length(g, cfg), g, cfg.N)
    quotas = np.array([m.subcarrier_quota(gk, grp, cfg.N, m_sel) for gk in g])
    alpha = powers / (grp * cfg.N * cfg.r)
    counts, objective = m.solve_transport(
        m.TransportInstance(alpha=alpha, quotas=quotas, group=grp))
    energy = objective * cfg.L * m_sel * cfg.T_sym
    mean_power = float((powers * counts).sum()) / grp
    return counts, objective, energy, mean_power


def plan_stack(seed, b=16, k=10):
    """Compositions and power matrices of b frames at K=k, N=64, M <= 4.

    Gains spread over several decades, as path loss and fading make them, and
    every frame count from one to four active rows occurs.
    """
    rng = np.random.default_rng(seed)
    cfg = m.SystemConfig(K=k, N=64, L=1024, r=2, M=4)
    gs = []
    for i in range(b):
        rows = rng.choice(k, size=1 + i % 4, replace=False)
        g = np.zeros(k, dtype=int)
        g[rows] = 1
        g[rng.choice(rows, size=int(rng.integers(0, 5 - rows.size)))] += 1
        gs.append(tuple(int(x) for x in g))
    gains = 10.0 ** rng.uniform(-9, -5, size=(b, k, 1)) * rng.exponential(size=(b, k, 64))
    return cfg, gs, gains


class TestStackedPlans:
    def test_stack_equals_per_frame_solves(self):
        for seed in range(12):
            cfg, gs, gains = plan_stack(seed)
            assert {np.count_nonzero(g) for g in gs} == {1, 2, 3, 4}
            powers = m.frame_powers(gains, m.link_budget(cfg))
            layouts = [allocation.frame_layout(g, cfg) for g in gs]
            counts, per_bit, energy, mean_power = allocation.solve_frames(layouts, powers, cfg)
            for b, g in enumerate(gs):
                want = oracle_plan(g, powers[b], cfg)
                assert counts[b].tolist() == want[0].tolist(), (seed, g)
                assert (per_bit[b], energy[b], mean_power[b]) == want[1:], (seed, g)

    def test_clamped_frame(self):
        cfg, gs, gains = plan_stack(3, b=4)
        gains[2, 1, 7] = 1e-3 * allocation.GAIN_FLOOR_REL * gains[2].max()
        gs[2] = (1, 1, 1) + (0,) * 7
        budget = m.link_budget(cfg)
        powers = m.frame_powers(gains, budget)
        assert powers[2, 1, 7] < budget.gamma * budget.noise_power / gains[2, 1, 7]
        _, per_bit, energy, mean_power = allocation.solve_frames(
            [allocation.frame_layout(g, cfg) for g in gs], powers, cfg)
        for b, g in enumerate(gs):
            assert (per_bit[b], energy[b], mean_power[b]) == oracle_plan(g, powers[b], cfg)[1:]

    def test_allocate_frame_is_the_stack_of_one(self):
        cfg, gs, gains = plan_stack(5, b=4)
        powers = m.frame_powers(gains, m.link_budget(cfg))
        for b, g in enumerate(gs):
            plan = m.allocate_frame(g, powers[b], cfg)
            want = oracle_plan(g, powers[b], cfg)
            assert plan.counts.tolist() == want[0].tolist()
            assert (plan.per_bit_power, plan.energy, plan.mean_power) == want[1:]

    def test_one_validated_solve_per_stack(self, monkeypatch):
        calls = []
        real = allocation.solve_transport
        monkeypatch.setattr(allocation, "solve_transport",
                            lambda instance: calls.append(instance) or real(instance))
        cfg, gs, gains = plan_stack(1)
        powers = m.frame_powers(gains, m.link_budget(cfg))
        layouts = [allocation.frame_layout(g, cfg) for g in gs]
        allocation.solve_frames(layouts, powers, cfg)
        assert [c.alpha.shape for c in calls] == [powers.shape]
        # a one-row frame's costs are checked too
        assert np.count_nonzero(gs[0]) == 1
        powers[0, :, 3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            allocation.solve_frames(layouts, powers, cfg)

    def test_stacked_sums_equal_per_frame_sums(self):
        # the stack sums each frame's K*N products in the same pairwise order
        rng = np.random.default_rng(11)
        stack = rng.uniform(1e-10, 1e-6, size=(16, 10, 64)) * rng.integers(0, 5, size=(16, 10, 64))
        assert stack.flags.c_contiguous
        assert stack.sum(axis=(1, 2)).tolist() == [float(f.sum()) for f in stack]


class TestFrameLayoutCache:
    """Layouts are cached per (g, L, N, r) and shared across configs."""

    @staticmethod
    def fresh_layout(g, cfg):
        m_sel = sum(g)
        airtime = m.frame_length(g, cfg)
        grp = m.group_size(airtime, g, cfg.N)
        return allocation.FrameLayout(m_sel, airtime, grp, tuple(
            m.subcarrier_quota(g_k, grp, cfg.N, m_sel) for g_k in g))

    @pytest.mark.parametrize("shape", [dict(L=64, N=8, r=2), dict(L=1024, N=64, r=2)])
    def test_cached_layouts_equal_a_fresh_computation(self, shape):
        cfg = m.SystemConfig(K=4, M=6, **shape)
        allocation._frame_layout.cache_clear()
        gs = [g for total in range(1, 7)
              for g in m.compositions(total, (total,) * cfg.K)]
        assert len(gs) == 209
        for _ in range(2):                       # computed, then read from the cache
            for g in gs:
                got = allocation.frame_layout(np.array(g), cfg)
                assert got == self.fresh_layout(g, cfg)
                assert allocation.frame_layout(list(g), cfg) is got
                assert all(type(x) is int for x in (*got[:3], *got.quotas))
        assert allocation._frame_layout.cache_info().hits > 0

    def test_configs_differing_in_L_N_or_r_get_their_own_entries(self):
        allocation._frame_layout.cache_clear()
        g = (2, 0, 2)
        base = m.SystemConfig(K=3, N=8, L=64, r=2, M=4, seed=1)
        lays = [allocation.frame_layout(g, replace(base, **kw))
                for kw in ({}, {"L": 128}, {"N": 16}, {"r": 4})]
        assert allocation._frame_layout.cache_info().currsize == 4
        assert len(set(lays)) == 4
        assert lays[0] == self.fresh_layout(g, base)
        # the seed, weights and deadline play no part
        other = replace(base, seed=9, weights=(1.0, 2.0, 0.5), deadline=0.01)
        assert allocation.frame_layout(g, other) is lays[0]
        assert allocation._frame_layout.cache_info().currsize == 4

    def test_non_integral_composition_raises_and_is_not_cached(self):
        allocation._frame_layout.cache_clear()
        cfg = m.SystemConfig(K=3, N=64, L=64, r=2)      # a packet is half a symbol
        for _ in range(2):
            with pytest.raises(m.NonIntegralFrame):
                allocation.frame_layout((1, 0, 0), cfg)
        assert allocation._frame_layout.cache_info().currsize == 0
        assert allocation.frame_layout((1, 1, 0), cfg).airtime == 1


class TestDeferredPlans:
    """An unbudgeted ampgps or ompgps run plans a channel block at a time, and
    a channel-blind run (pgps or mpgps without a budget) plans every started
    frame after its last event; every frame must still carry the plan a
    solve at its own start gives."""

    def run_capturing_powers(self, monkeypatch, engine):
        blocks = []
        real = allocation.frame_powers

        def capture(gains, budget):
            blocks.append(real(gains, budget))
            return blocks[-1]

        monkeypatch.setattr(allocation, "frame_powers", capture)
        return engine.run(), np.concatenate(blocks)

    def check_plans(self, res, powers):
        cfg = res.cfg
        for f in res.frames:
            _, per_bit, energy, mean_power = oracle_plan(f.g, powers[f.index], cfg)
            scale = 1.0
            if cfg.power_budget is not None and mean_power > cfg.power_budget:
                scale = cfg.power_budget / mean_power
            assert (f.per_bit_power, f.mean_power, f.scale, f.energy) == (
                per_bit, mean_power, scale, energy * scale), f.index

    def test_poisson_horizon_ends_mid_block(self, monkeypatch):
        cfg = m.SystemConfig(K=10, N=64, L=1024, r=2, M=4, seed=4)
        eng = m.Engine(cfg, m.TrafficModel(rate_bps=50000.0), "mpgps", 1500.0)
        drawn = []
        real = eng.channel.block
        monkeypatch.setattr(eng.channel, "block",
                            lambda lo, count: drawn.append((lo, count)) or real(lo, count))
        res, powers = self.run_capturing_powers(monkeypatch, eng)
        # the channel-blind run draws its started frames in CHANNEL_BLOCK
        # chunks after its last event: contiguous from frame 0, covering
        # exactly the started frames, the last chunk cut short by the horizon
        assert [lo for lo, _ in drawn] == list(range(0, eng.frames_started,
                                                     m.engine.CHANNEL_BLOCK))
        assert sum(count for _, count in drawn) == eng.frames_started
        assert drawn[-1][1] < m.engine.CHANNEL_BLOCK
        assert any(np.count_nonzero(f.g) >= 3 for f in res.frames)
        self.check_plans(res, powers)

    def test_poisson_blocks_hold_no_frame_past_the_horizon(self, monkeypatch):
        # frames start by the horizon, at least one one-packet airtime apart,
        # so a block an ompgps run draws ahead at t holds at most
        # (horizon - t) // shortest + 1
        cfg = m.SystemConfig(K=10, N=64, L=1024, r=2, M=4, U=5, seed=4)
        eng = m.Engine(cfg, m.TrafficModel(rate_bps=50000.0), "ompgps", 1500.0)
        drawn = []
        real = eng.channel.block
        monkeypatch.setattr(eng.channel, "block",
                            lambda lo, count: drawn.append((lo, count)) or real(lo, count))
        res, powers = self.run_capturing_powers(monkeypatch, eng)
        started = res.frames + [eng.inflight.record] * (eng.inflight is not None)
        assert [f.index for f in started] == list(range(eng.frames_started))
        shortest = m.frame_length((1,), cfg)
        for lo, count in drawn:
            assert count <= (1500.0 - started[lo].start) // shortest + 1, lo
        # the horizon cut the last block short
        assert drawn[-1][1] < m.engine.CHANNEL_BLOCK
        assert sum(count for _, count in drawn) == len(powers) >= eng.frames_started
        self.check_plans(res, powers)

    def test_channel_blind_run_draws_after_its_last_event(self, monkeypatch):
        # no decision of an unbudgeted mpgps run reads the channel: it draws
        # and inverts exactly its started frames, from frame 0 on, once its
        # event loop is over
        cfg = m.SystemConfig(K=10, N=64, L=1024, r=2, M=4, seed=4)
        eng = m.Engine(cfg, m.TrafficModel(rate_bps=50000.0), "mpgps", 1500.0)
        log = []
        for name in ("_admit", "_instant", "_finish_frame"):
            real_event = getattr(eng, name)
            monkeypatch.setattr(eng, name, lambda *a, real=real_event: log.append("event")
                                or real(*a))
        real_block = eng.channel.block
        monkeypatch.setattr(eng.channel, "block", lambda lo, count: log.append((lo, count))
                            or real_block(lo, count))
        stacks = []
        real_solve = allocation.solve_frames
        monkeypatch.setattr(allocation, "solve_frames", lambda layouts, powers, cfg:
                            stacks.append(len(layouts)) or real_solve(layouts, powers, cfg))
        res, powers = self.run_capturing_powers(monkeypatch, eng)
        drawn = [entry for entry in log if entry != "event"]
        assert log.index(drawn[0]) == log.count("event") > 0
        assert [lo for lo, _ in drawn] == np.cumsum([0] + [c for _, c in drawn[:-1]]).tolist()
        assert sum(count for _, count in drawn) == len(powers) == eng.frames_started
        assert max(count for _, count in drawn) <= m.engine.PLAN_STACK
        assert sum(stacks) == eng.frames_started and max(stacks) <= m.engine.PLAN_STACK
        self.check_plans(res, powers)

    def test_plans_hold_across_a_stack_boundary(self, monkeypatch):
        # correlated taps walk on from one stack into the next
        cfg = m.SystemConfig(K=10, N=64, L=1024, r=2, M=4, seed=4, time_corr=0.9)
        eng = m.Engine(cfg, m.TrafficModel(rate_bps=50000.0), "mpgps", 5000.0)
        stacks = []
        real_solve = allocation.solve_frames
        monkeypatch.setattr(allocation, "solve_frames", lambda layouts, powers, cfg:
                            stacks.append(len(layouts)) or real_solve(layouts, powers, cfg))
        res, powers = self.run_capturing_powers(monkeypatch, eng)
        assert stacks == [m.engine.PLAN_STACK, eng.frames_started - m.engine.PLAN_STACK]
        assert any(np.count_nonzero(f.g) >= 3 for f in res.frames[m.engine.PLAN_STACK:])
        gains = m.ChannelProcess(cfg).block(0, eng.frames_started)
        assert powers.tolist() == m.frame_powers(gains, m.link_budget(cfg)).tolist()
        self.check_plans(res, powers)

    def test_frame_cap_not_a_multiple_of_the_block(self, monkeypatch):
        cfg = m.SystemConfig(K=6, N=64, L=1024, r=2, M=3, seed=2)
        eng = m.Engine(cfg, m.TrafficModel(infinite_backlog=True), "mpgps", 1.0,
                       max_frames=37)
        res, powers = self.run_capturing_powers(monkeypatch, eng)
        assert len(res.frames) == 37 == len(powers)
        self.check_plans(res, powers)

    def test_budgeted_frames_are_scaled(self, monkeypatch):
        cfg = m.SystemConfig(K=10, N=64, L=1024, r=2, M=4, seed=4)
        free = m.run(cfg, m.TrafficModel(rate_bps=50000.0), "mpgps", 1500.0)
        cap = float(np.median([f.mean_power for f in free.frames]))
        eng = m.Engine(replace(cfg, power_budget=cap), m.TrafficModel(rate_bps=50000.0),
                       "mpgps", 1500.0)
        res, powers = self.run_capturing_powers(monkeypatch, eng)
        assert any(f.scale < 1.0 for f in res.frames)
        self.check_plans(res, powers)

    @pytest.mark.parametrize("mode", ["mpgps", "ompgps"])
    def test_verify_runs_solve_no_plan(self, monkeypatch, mode):
        calls = []
        real = allocation.solve_frames
        monkeypatch.setattr(allocation, "solve_frames",
                            lambda *a: calls.append(1) or real(*a))
        cfg = m.SystemConfig(K=4, N=64, L=1024, r=2, M=2, U=3, seed=1)
        res = m.verify_bounds(cfg, m.TrafficModel(rate_bps=80000.0), mode, 3000.0)
        assert res.frames and res.bounds.passed
        assert calls == []

    @pytest.mark.parametrize("mode", ["pgps", "mpgps", "ampgps", "ompgps"])
    def test_verify_runs_build_no_layout(self, mode):
        # a verify run reads each frame's airtime by its batch size
        cfg = m.SystemConfig(K=4, N=64, L=1024, r=2, M=2, M_max=3, U=3, seed=1)
        traffic = m.TrafficModel(rate_bps=80000.0)
        allocation._frame_layout.cache_clear()
        res = m.verify_bounds(cfg, traffic, mode, 3000.0)
        info = allocation._frame_layout.cache_info()
        assert res.frames and res.bounds.passed
        assert info.hits + info.misses == 0
        assert all(f.depart == f.start + m.frame_length((f.m_sel,), cfg) for f in res.frames)
        m.run(cfg, traffic, mode, 3000.0)
        assert allocation._frame_layout.cache_info().misses > 0


class TestPlanWorkspace:
    """A channel-blind run plans in its thread's reused workspace; no run and
    no plan handed to a caller may see what another plan left there."""

    # the power_mpgps benchmark config, a small shape, a run longer than
    # PLAN_STACK frames and a run with frames floored at GAIN_FLOOR_REL
    RUNS = [
        (dict(K=10, N=64, L=1024, r=2, M=4, seed=1), 50000.0, 2000.0),
        (dict(K=3, N=8, L=64, r=2, M=2, seed=2), 9000.0, 3000.0),
        (dict(K=10, N=64, L=1024, r=2, M=4, seed=4, time_corr=0.9), 50000.0, 5000.0),
        (dict(K=4, N=16, L=256, r=2, M=2, seed=29, pathloss_exp=6.0, shadow_std_db=20.0),
         40000.0, 1500.0),
    ]

    @staticmethod
    def frames(system, rate, horizon):
        return m.run(m.SystemConfig(**system), m.TrafficModel(rate_bps=rate), "mpgps",
                     horizon).frames

    @staticmethod
    def in_threads(*jobs):
        """Each job's result, every job in its own new thread: a cold workspace."""
        out = [None] * len(jobs)

        def work(i):
            out[i] = jobs[i]()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads)
        return out

    def test_runs_equal_runs_in_a_cold_workspace(self):
        cold = self.in_threads(*(lambda run=run: self.frames(*run) for run in self.RUNS))
        assert len(cold[2]) > m.engine.PLAN_STACK
        system = m.SystemConfig(**self.RUNS[3][0])
        gains = m.ChannelProcess(system).block(0, len(cold[3]))
        assert (gains.min(axis=(1, 2)) < allocation.GAIN_FLOOR_REL * gains.max(axis=(1, 2))).any()
        # on the second pass each shape's stacks hold what its last plan left
        for _ in range(2):
            assert [self.frames(*run) for run in self.RUNS] == cold

    def test_returned_plans_share_no_memory_with_the_workspace(self):
        system, rate, horizon = self.RUNS[0]
        cfg = m.SystemConfig(**system)
        self.frames(system, rate, horizon)
        powers = m.frame_powers(m.ChannelProcess(cfg).block(0, 4), m.link_budget(cfg))
        gs = [(1, 1, 1, 1) + (0,) * 6, (4,) + (0,) * 9, (2, 0, 2) + (0,) * 7, (0,) * 9 + (4,)]
        layouts = [allocation.frame_layout(g, cfg) for g in gs]
        instance = m.TransportInstance(alpha=powers, quotas=[lay.quotas for lay in layouts],
                                       group=[lay.group for lay in layouts])
        results = [m.allocate_frame(gs[0], powers[0], cfg).counts,
                   *allocation.solve_frames(layouts, powers, cfg), *m.solve_transport(instance)]
        kept = [r.tolist() for r in results]
        self.frames({**system, "seed": 2}, rate, horizon)
        assert [r.tolist() for r in results] == kept
        stacks = allocation._WORKSPACE.stacks[(cfg.K, cfg.N)]
        assert not any(np.shares_memory(r, s) for r in results for s in stacks)

    def test_concurrent_threads_plan_apart(self):
        runs = [self.RUNS[0], ({**self.RUNS[0][0], "seed": 3}, 50000.0, 2000.0), self.RUNS[1]]
        want = [self.frames(*run) for run in runs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = self.in_threads(*(lambda: [self.frames(*run) for run in runs * 2]
                                    for _ in range(3)))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want * 2] * 3

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page faults are counted as on Linux")
    def test_blind_plans_fault_no_pages_in(self):
        resource = pytest.importorskip("resource")
        system, rate, horizon = self.RUNS[0]
        for seed in (41, 42):                    # warm-ups
            self.frames({**system, "seed": seed}, rate, horizon)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seed in range(1, 41):
            self.frames({**system, "seed": seed}, rate, horizon)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 5 * 40, faults


def reference_value(powers, g, r):
    """Power per bit of one composition, solved on its own scaled instance."""
    n = powers.shape[1]
    g = np.asarray(g, dtype=np.int64)
    m_sel = int(g.sum())
    instance = m.TransportInstance(alpha=powers, quotas=g * n, group=m_sel)
    return m.solve_transport(instance)[1] / (n * r * m_sel)


def window_stack(seed):
    """The ranking table of one random ompgps window: K <= 10, N = 64, M <= 4, U <= 8.

    Returns the powers, the held flows, their cached ``RankTable`` and its
    compositions as a (C, K) stack. Even seeds draw integer-valued powers,
    so ties occur; odd seeds draw continuous ones, so every sum rounds.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 11))
    u = int(rng.integers(1, 9))
    occupancy = np.bincount(rng.integers(0, k, size=u), minlength=k)
    held = np.flatnonzero(occupancy).tolist()
    ranked = scheduling._composition_table(int(rng.integers(1, min(4, u) + 1)),
                                           tuple(occupancy[held].tolist()), 64)
    gs = np.zeros((len(ranked.table), k), dtype=np.int64)
    gs[:, held] = ranked.table
    if seed % 2:
        powers = rng.uniform(1e-9, 1e-6, size=(k, 64))
    else:
        powers = rng.integers(1, 5, size=(k, 64)).astype(float)
    return powers, held, ranked, gs


class TestSplitRows:
    """The stacked two-row closed form against a per-row greedy fill."""

    @staticmethod
    def greedy_first_row(first, last, quota, demand):
        # columns in stable order of the first row's cost advantage; the
        # first row takes up to `demand` slots a column until its quota runs out
        out = [0] * len(first)
        left = quota
        for col in sorted(range(len(first)), key=lambda n: (first[n] - last[n], n)):
            out[col] = min(left, demand)
            left -= out[col]
        return out

    @pytest.mark.parametrize("c", range(1, 9))
    def test_matches_greedy_fill_with_ties(self, c):
        rng = np.random.default_rng(c)
        for n in (1, 2, 3, 7, 16, 33, 64):
            # few integer cost levels force ties in the cost advantage
            first = rng.integers(0, 4, size=(c, n)).astype(float)
            last = rng.integers(0, 4, size=(c, n)).astype(float)
            demand = rng.integers(1, 5, size=(c, 1))
            # every quota from none to all of each instance's n * demand slots
            for step in range(4 * n + 1):
                quota = (np.arange(c)[:, None] * 7 + step) % (demand * n + 1)
                got = allocation._split_rows(first, last, quota, demand)
                want = [self.greedy_first_row(first[i].tolist(), last[i].tolist(),
                                              int(quota[i, 0]), int(demand[i, 0]))
                        for i in range(c)]
                assert got.tolist() == want, (n, quota.ravel().tolist())


class TestCompositionRanking:
    def test_stack_equals_per_composition_solves(self):
        multi_row = 0
        for seed in range(120):
            powers, held, ranked, gs = window_stack(seed)
            got = m.composition_value(powers, held, ranked, 2)
            want = np.array([reference_value(powers, g, 2) for g in gs])
            assert got.tolist() == want.tolist(), seed
            multi_row += int(np.sum(np.count_nonzero(gs, axis=1) >= 3))
        assert multi_row > 0             # the exchange solver path ran too

    def test_blocks_do_not_change_values(self, monkeypatch):
        powers, held, ranked, gs = window_stack(7)
        whole = m.composition_value(powers, held, ranked, 2)
        # blocks are fixed when a table is built; this one bypasses the cache
        monkeypatch.setattr(allocation, "RANK_BLOCK", 3)
        blocked = allocation.rank_table(ranked.table, ranked.m_sel, 64)
        assert len(gs) > 3 and len(blocked.blocks) == -(-len(gs) // 3)
        assert m.composition_value(powers, held, blocked, 2).tolist() == whole.tolist()

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            allocation.rank_table(np.zeros((1, 2), dtype=np.int64), 0, 4)
        with pytest.raises(ValueError, match="empty composition"):
            scheduling._composition_table(0, (1, 1), 4)

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("n", [4, 9, 16, 64])
    def test_equals_the_stacked_reference(self, k, n):
        # random windows of M = 1..4 and U <= 8; integer powers of few levels
        # force ties in the split order and in the argmin, continuous ones
        # make every sum round
        rng = np.random.default_rng([k, n])
        mixed = 0
        for trial in range(60):
            u = int(rng.integers(1, 9))
            # the window's packets among a random number of flows, so some
            # flow can hold a whole batch
            flows = rng.choice(k, int(rng.integers(1, k + 1)), replace=False)
            occupancy = np.bincount(rng.choice(flows, size=u), minlength=k)
            held = np.flatnonzero(occupancy).tolist()
            mm = int(rng.integers(1, min(4, u) + 1))
            ranked = scheduling._composition_table(mm, tuple(occupancy[held].tolist()), n)
            gs = np.zeros((len(ranked.table), k), dtype=np.int64)
            gs[:, held] = ranked.table
            if trial % 2:
                powers = rng.uniform(1e-9, 1e-6, size=(k, n))
            else:
                powers = rng.integers(1, 4, size=(k, n)).astype(float)
            got = m.composition_value(powers, held, ranked, 2)
            want = composition_values_stacked(powers, gs, n, 2)
            assert got.tolist() == want.tolist(), trial
            assert got.argmin() == want.argmin(), trial
            widths = set(np.count_nonzero(gs, axis=1).tolist())
            mixed += {1, 2} <= widths and max(widths) >= 3
        # some table held members with one, two and three or more active rows
        assert mixed > 0


class TestPowerInversion:
    BUDGET = m.LinkBudget(gamma=20.0, noise_power=2e-17)

    def invert(self, gains):
        return self.BUDGET.gamma * self.BUDGET.noise_power / gains

    def test_required_power_hits_target(self):
        p = m.frame_powers(np.array([[0.5]]), self.BUDGET)
        assert p[0, 0] * 0.5 / 2e-17 == pytest.approx(20.0)

    def test_zero_gain_rejected(self):
        with pytest.raises(m.ZeroGain):
            m.frame_powers(np.array([[0.0]]), self.BUDGET)
        with pytest.raises(m.ZeroGain):
            m.frame_powers(np.array([[1.0, -0.5]]), self.BUDGET)
        with pytest.raises(m.ZeroGain):        # one frame of a stack, below the floor
            m.frame_powers(np.array([[[1.0, 2.0]], [[1.0, -1e-300]]]), self.BUDGET)

    def test_deep_fade_is_floored(self):
        p = m.frame_powers(np.array([[1.0, 1e-300]]), self.BUDGET)
        assert p[0, 1] <= self.invert(1e-12 * 1.0 / 2)  # relative to the median

    def test_one_gain_below_the_floor(self):
        gains = np.full((2, 4), 2.0)
        gains[1, 2] = 1e-13                  # below 1e-12 * median (= 2e-12)
        got = m.frame_powers(gains, self.BUDGET)
        want = gains.copy()
        want[1, 2] = 1e-12 * 2.0
        assert got.tolist() == self.invert(want).tolist()

    @pytest.mark.parametrize("low", [6e-12, 2e-12])
    def test_gains_above_the_floor_pass_unchanged(self, low):
        # 6e-12 >= 1e-12 * max skips the median; 2e-12 needs it (floor 1.5e-12)
        gains = np.array([[1.0, low], [2.0, 5.0]])
        assert m.frame_powers(gains, self.BUDGET).tolist() == self.invert(gains).tolist()

    def test_a_block_clamps_each_frame_against_its_own_gains(self):
        budget = m.link_budget(small_cfg())
        block = np.random.default_rng(8).uniform(0.05, 2.0, size=(6, 3, 8))
        block[2, 1, 5] = 1e-15       # the one frame below GAIN_FLOOR_REL * its max
        block[4] *= 1e-13            # below the block's floor, not its own
        before = block.copy()
        got = m.frame_powers(block, budget)
        for b in range(len(block)):
            assert got[b].tolist() == m.frame_powers(block[b], budget).tolist()
        plain = budget.gamma * budget.noise_power / block
        untouched = [0, 1, 3, 4, 5]
        assert got[untouched].tolist() == plain[untouched].tolist()
        assert got[2, 1, 5] < plain[2, 1, 5]
        assert block.tolist() == before.tolist()
