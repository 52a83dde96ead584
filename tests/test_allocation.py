"""Exact assignment solver vs brute force, plus frame-level plan checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpgps_sim as m
from mpgps_sim.allocation import clamp_gains, required_power


def check_feasible(counts, instance):
    assert counts.dtype == np.int64
    assert np.all(counts >= 0)
    np.testing.assert_array_equal(counts.sum(axis=1), instance.quotas)
    assert np.all(counts.sum(axis=0) == instance.group)


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
        _, oracle = m.brute_force_ilp(inst)
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

    def test_brute_force_size_guard(self):
        with pytest.raises(m.InstanceTooLarge):
            m.brute_force_ilp(m.TransportInstance(
                alpha=np.ones((3, 7)), quotas=np.array([5, 5, 4]), group=2))


@st.composite
def instances(draw):
    k = draw(st.integers(1, 3))
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
    _, oracle = m.brute_force_ilp(inst)
    check_feasible(counts, inst)
    assert abs(obj - oracle) <= 1e-9 * max(1.0, abs(oracle))


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
        ranked = m.composition_value(powers, g, cfg.N, cfg.r)
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


class TestPowerInversion:
    def test_required_power_hits_target(self):
        p = required_power(np.array([0.5]), 20.0, 2e-17)
        assert p[0] * 0.5 / 2e-17 == pytest.approx(20.0)

    def test_zero_gain_rejected(self):
        with pytest.raises(m.ZeroGain):
            required_power(np.array([0.0]), 20.0, 2e-17)
        with pytest.raises(m.ZeroGain):
            clamp_gains(np.array([[1.0, -0.5]]))

    def test_deep_fade_is_floored(self):
        g = clamp_gains(np.array([[1.0, 1e-300]]))
        assert g[0, 1] >= 1e-12 * 1.0 / 2  # relative to the median
