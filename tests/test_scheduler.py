"""Batch selection disciplines and the reordering audit ledger."""
import numpy as np
import pytest

import mpgps_sim as m


def make_queues(stamp_lists):
    queues = [m.FlowQueue(k) for k in range(len(stamp_lists))]
    for k, stamps in enumerate(stamp_lists):
        for i, vf in enumerate(stamps):
            p = m.Packet(flow=k, seq=i, arrival=0.0, bits=64, vfinish=float(vf))
            queues[k].push(p)
    return queues


def keys(decision):
    return [(p.flow, p.seq) for p in decision.chosen]


def occupancy(decision, k):
    return tuple(sum(p.flow == flow for p in decision.window) for flow in range(k))


class TestStampOrderedSelection:
    def test_takes_smallest_stamps_across_flows(self):
        queues = make_queues([[5.0, 9.0], [1.0, 2.0], [7.0]])
        d = m.select_mpgps(queues, 3)
        assert keys(d) == [(1, 0), (1, 1), (0, 0)]
        assert d.g == (1, 2, 0)
        assert d.m_sel == 3

    def test_tie_prefers_lower_flow_index(self):
        queues = make_queues([[1.0], [1.0]])
        assert keys(m.select_mpgps(queues, 1)) == [(0, 0)]

    def test_short_backlog_shrinks_batch(self):
        queues = make_queues([[1.0], [2.0]])
        d = m.select_mpgps(queues, 6)
        assert d.m_sel == 2

    def test_guards(self):
        with pytest.raises(ValueError):
            m.select_mpgps(make_queues([[1.0]]), 0)
        with pytest.raises(ValueError):
            m.select_mpgps(make_queues([[], []]), 1)

    def test_window_occupancy(self):
        queues = make_queues([[1.0, 5.0], [2.0, 3.0]])
        powers = np.ones((2, 4))
        for u, occ in [(3, (1, 2)), (10, (2, 2))]:
            assert occupancy(m.ompgps_schedule(queues, 1, u, powers, sched_cfg()), 2) == occ


class TestCompositions:
    def test_enumerates_within_bounds(self):
        got = list(m.compositions(3, (2, 2, 2)))
        assert len(got) == 7
        assert all(sum(g) == 3 and all(v <= 2 for v in g) for g in got)
        assert got == sorted(got)            # lexicographic
        assert got[0] == (0, 1, 2) and got[-1] == (2, 1, 0)

    def test_zero_total(self):
        assert list(m.compositions(0, (1, 1))) == [(0, 0)]

    def test_infeasible_total_is_empty(self):
        assert list(m.compositions(5, (1, 1))) == []


def sched_cfg(k=2, n=4):
    return m.SystemConfig(K=k, N=n, L=64, r=2, M=2, U=4, M_max=2)


class TestOpportunisticSelection:
    def test_window_equal_to_batch_forces_stamp_order(self):
        queues = make_queues([[1.0, 9.0], [2.0, 3.0]])
        powers = np.full((2, 4), 2.0)
        d = m.ompgps_schedule(queues, 2, 2, powers, sched_cfg())
        ref = m.select_mpgps(queues, 2)
        assert d.g == ref.g
        assert keys(d) == keys(ref)
        assert occupancy(d, 2) == (1, 1)

    def test_picks_the_cheap_flow_inside_the_window(self):
        queues = make_queues([[1.0, 2.0], [3.0, 4.0]])
        powers = np.array([[100.0] * 4, [1.0] * 4])
        d = m.ompgps_schedule(queues, 2, 4, powers, sched_cfg())
        assert d.g == (0, 2)
        assert d.per_bit_power == pytest.approx(
            m.composition_value(powers, [(0, 2)], 4, 2)[0])

    def test_tie_keeps_first_composition(self):
        # uniform power makes every composition equally cheap per bit
        queues = make_queues([[1.0, 2.0], [3.0, 4.0]])
        powers = np.full((2, 4), 3.0)
        d = m.ompgps_schedule(queues, 2, 4, powers, sched_cfg())
        assert d.g == (0, 2)        # lexicographically smallest of sum 2

    def test_tie_keeps_lexicographically_first_not_lowest_flow(self):
        # flows 0 and 2 cost the same; (0, 0, 1, 0) precedes (1, 0, 0, 0)
        queues = make_queues([[1.0], [9.0], [2.0], [3.0]])
        powers = np.array([[2.0] * 4, [1.0] * 4, [2.0] * 4, [7.0] * 4])
        d = m.ompgps_schedule(queues, 1, 3, powers, sched_cfg(k=4))
        assert occupancy(d, 4) == (1, 0, 1, 1)
        assert d.g == (0, 0, 1, 0)

    def test_matches_first_cheapest_of_a_per_composition_loop(self):
        # integer powers make exact ties common
        ties = 0
        for seed in range(80):
            rng = np.random.default_rng(seed)
            k, u = int(rng.integers(2, 11)), int(rng.integers(1, 9))
            mm = int(rng.integers(1, min(4, u) + 1))
            queues = make_queues([np.sort(rng.uniform(0, 10, rng.integers(0, 4)))
                                  for _ in range(k)])
            backlog = sum(len(q) for q in queues)
            if backlog == 0:
                continue
            powers = rng.integers(1, 4, size=(k, 64)).astype(float)
            cfg = m.SystemConfig(K=k, N=64, L=1024, r=2, M=mm, U=u)
            best_g, best_val, vals = None, float("inf"), []
            earliest = sorted((p.vfinish, p.flow) for q in queues for p in q.fifo)[:u]
            window = [sum(f == flow for _, f in earliest) for flow in range(k)]
            for g in m.compositions(min(mm, backlog), window):
                g_arr = np.array(g)
                val = m.solve_transport(m.TransportInstance(
                    alpha=powers, quotas=g_arr * 64, group=int(g_arr.sum())))[1] / (
                        64 * 2 * g_arr.sum())
                vals.append(val)
                if val < best_val:
                    best_g, best_val = g, val
            ties += vals.count(best_val) > 1
            d = m.ompgps_schedule(queues, mm, u, powers, cfg)
            assert (d.g, d.per_bit_power) == (best_g, best_val), seed
        assert ties > 0

    def test_window_cannot_reach_past_occupancy(self):
        queues = make_queues([[1.0], [2.0, 3.0, 4.0]])
        powers = np.array([[1.0] * 4, [100.0] * 4])
        d = m.ompgps_schedule(queues, 3, 4, powers, sched_cfg())
        # only one packet of the cheap flow is queued, so g0 caps at 1
        assert d.g == (1, 2)

    def test_window_smaller_than_batch_rejected(self):
        with pytest.raises(ValueError):
            m.ompgps_schedule(make_queues([[1.0]]), 2, 1,
                              np.ones((1, 4)), sched_cfg(k=1))


class TestAdaptiveGrowth:
    def test_grows_when_diversity_pays(self):
        queues = make_queues([[1.0], [2.0]])
        powers = np.array([[1.0, 1.0, 9.0, 9.0],
                           [9.0, 9.0, 1.0, 1.0]])
        d = m.ampgps_schedule(queues, 2, powers, sched_cfg())
        assert d.m_sel == 2
        assert d.g == (1, 1)

    def test_stops_at_a_deep_fade(self):
        queues = make_queues([[1.0], [2.0]])
        powers = np.array([[1.0] * 4, [100.0] * 4])
        d = m.ampgps_schedule(queues, 2, powers, sched_cfg())
        assert d.m_sel == 1
        assert d.g == (1, 0)

    def test_tie_stops_growth(self):
        queues = make_queues([[1.0, 2.0], [3.0]])
        powers = np.full((2, 4), 5.0)
        d = m.ampgps_schedule(queues, 3, powers, sched_cfg())
        assert d.m_sel == 1

    def test_backlog_exhaustion_keeps_best(self):
        queues = make_queues([[1.0], [2.0]])
        powers = np.array([[1.0, 1.0, 9.0, 9.0],
                           [9.0, 9.0, 1.0, 1.0]])
        d = m.ampgps_schedule(queues, 5, powers, sched_cfg())
        assert d.m_sel == 2         # only two packets exist

    def test_reports_value_of_chosen_batch(self):
        queues = make_queues([[1.0], [2.0]])
        powers = np.array([[1.0, 1.0, 9.0, 9.0],
                           [9.0, 9.0, 1.0, 1.0]])
        d = m.ampgps_schedule(queues, 2, powers, sched_cfg())
        assert d.per_bit_power == pytest.approx(
            m.composition_value(powers, [d.g], 4, 2)[0])


class TestLagLedger:
    def test_hand_walk(self):
        led = m.LagLedger(bound=1)
        led.update({"a", "b"}, {"b"}, {"a"})          # shadow sends a, real sends b
        assert led.lag == {"a"} and led.lead == {"b"}
        led.update({"a", "c"}, {"a"}, {"c"})          # real catches up on a, owes c
        assert led.lag == {"c"} and led.lead == {"b"}
        assert led.max_lag == 1
        assert led.violations == 0
        assert led.steps == 2

    def test_catching_up_empties_the_sets(self):
        led = m.LagLedger(bound=2)
        led.update({"a", "b"}, {"b"}, {"a"})
        led.update({"a"}, {"a"}, {"b"})     # real sends what shadow owed
        assert led.lag == set() and led.lead == set()

    def test_identity_violation_raises(self):
        led = m.LagLedger(bound=3)
        with pytest.raises(m.BoundViolation):
            led.update(set(), {"x"}, {"y"})

    def test_bound_excess_counts_violations(self):
        led = m.LagLedger(bound=0)
        led.update({"a", "b"}, {"b"}, {"a"})
        assert led.violations == 1
        assert led.max_lag == 1

    def test_lockstep_never_drifts(self):
        led = m.LagLedger(bound=4)
        for i in range(5):
            led.update({i, i + 100}, {i}, {i})
            assert led.lag == set() and led.lead == set()
        assert led.max_lag == 0
