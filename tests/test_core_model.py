"""Frame arithmetic, config validation, and queue basics."""
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mpgps_sim as m
from oracles import group_size_search


def cfg64(**kw):
    return m.SystemConfig(K=kw.pop("K", 4), N=64, L=1024, r=2, **kw)


class TestFrameLength:
    def test_four_packets_fill_32_symbols(self):
        assert m.frame_length((1, 1, 1, 1), cfg64()) == 32

    def test_single_packet(self):
        # 1024 bits over 64 subcarriers at 2 bits each -> 8 symbols
        assert m.frame_length((1, 0, 0, 0), cfg64()) == 8

    def test_uneven_composition(self):
        assert m.frame_length((3, 1, 0, 0), cfg64()) == 32

    def test_non_integral_raises(self):
        cfg = m.SystemConfig(K=2, N=64, L=1000, r=2)
        with pytest.raises(m.NonIntegralFrame):
            m.frame_length((1, 0), cfg)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            m.frame_length((0, 0, 0, 0), cfg64())

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            m.frame_length((2, -1, 0, 0), cfg64())


class TestQuotaAndGroup:
    def test_quota_example(self):
        assert m.subcarrier_quota(2, 2, 64, 4) == 64

    def test_quota_not_divisible(self):
        with pytest.raises(m.NonIntegralQuota):
            m.subcarrier_quota(1, 1, 64, 3)

    def test_group_of_one_when_m_divides(self):
        # four packets, every quota g_k*64 divisible by 4
        assert m.group_size(32, (1, 1, 1, 1), 64) == 1

    def test_group_grows_for_three_packets(self):
        # m_sel = 3 does not divide 64, nor 128; the group must reach 3
        assert m.group_size(24, (1, 1, 1), 64) == 3

    def test_group_balances_quotas(self):
        g = (3, 1)
        airtime = m.frame_length(g, cfg64(K=2))
        grp = m.group_size(airtime, g, 64)
        quotas = [m.subcarrier_quota(gk, grp, 64, sum(g)) for gk in g]
        assert sum(quotas) == grp * 64

    @settings(max_examples=200, deadline=None)
    @given(
        g=st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
            lambda v: sum(v) >= 1),
        n=st.sampled_from([4, 8, 16, 64]),
        r=st.sampled_from([1, 2, 4]),
        l_bits=st.sampled_from([16, 64, 128, 256, 1024]),
    )
    def test_group_size_is_minimal_feasible_divisor(self, g, n, r, l_bits):
        assume(l_bits % r == 0)
        cfg = m.SystemConfig(K=len(g), N=n, L=l_bits, r=r)
        try:
            airtime = m.frame_length(g, cfg)
        except m.NonIntegralFrame:
            assume(False)
        grp = m.group_size(airtime, g, n)
        m_sel = sum(g)
        assert airtime % grp == 0
        quotas = [m.subcarrier_quota(gk, grp, n, m_sel) for gk in g]
        assert sum(quotas) == grp * n
        # nothing smaller works
        for d in range(1, grp):
            if airtime % d:
                continue
            assert any((gk * d * n) % m_sel for gk in g)

    def test_group_size_matches_the_divisor_search(self):
        # the closed form against the search, raises included
        cases = raised = 0
        for k in range(1, 4):
            for g in itertools.product(range(5), repeat=k):
                if not sum(g):
                    continue
                for n, airtime in itertools.product((1, 2, 3, 4, 6, 8, 12, 16, 64),
                                                    range(1, 41)):
                    try:
                        want = group_size_search(airtime, g, n)
                    except m.NonIntegralQuota:
                        with pytest.raises(m.NonIntegralQuota):
                            m.group_size(airtime, g, n)
                        raised += 1
                    else:
                        assert m.group_size(airtime, g, n) == want, (airtime, g, n)
                    cases += 1
        assert raised and cases - raised


class TestSystemConfig:
    def test_window_defaults_to_server_ceiling(self):
        cfg = m.SystemConfig(K=4, M=2, M_max=5)
        assert cfg.U == 5

    def test_derived_quantities(self):
        cfg = m.SystemConfig()
        assert cfg.bits_per_symbol == 128
        assert cfg.B == pytest.approx(5000.0)
        assert cfg.noise_power == pytest.approx(4e-21 * 5000.0)
        assert cfg.deadline_symbols == pytest.approx(200.0)

    def test_weights_default_equal(self):
        cfg = m.SystemConfig(K=3)
        assert cfg.weights == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("kw", [
        {"K": 0},
        {"L": 1023, "r": 2},
        {"M": 0},
        {"M": 3, "U": 2},
        {"weights": (1.0, 2.0)},        # wrong length for K=10
        {"weights": (0.0,) * 10},
        {"weights": (1.0,) * 9 + (math.nan,)},
        {"weights": (1.0,) * 9 + (math.inf,)},
        {"target_ber": 0.0},
        {"target_ber": 1.0},
        {"deadline": 0.0},
        {"deadline": -1.0},
        {"taps": 0},
        {"time_corr": 1.0},
        {"time_corr": -0.1},
        {"power_budget": 0.0},
        {"T_sym": 0.0},
        {"weights": (1e-4,) * 10},      # outside model.WEIGHT_RANGE
        {"weights": (1.0,) * 9 + (1e4,)},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            m.SystemConfig(**kw)

    @pytest.mark.parametrize("field, value", [
        ("T_sym", math.inf),            # the Poisson draw never reaches the horizon
        ("T_sym", math.nan),
        ("N0", 0.0), ("N0", -1e-21), ("N0", math.nan), ("N0", math.inf),
        ("B", 0.0), ("B", -1.0), ("B", math.nan), ("B", math.inf),
        ("cell_radius_m", -5.0), ("cell_radius_m", 0.0), ("cell_radius_m", math.inf),
        ("ref_distance_m", 0.0), ("ref_distance_m", math.nan),
        ("tap_decay", 0.0), ("tap_decay", math.nan), ("tap_decay", math.inf),
        ("shadow_std_db", -1.0), ("shadow_std_db", math.nan), ("shadow_std_db", math.inf),
        ("pathloss_exp", math.nan), ("pathloss_exp", math.inf),
        ("deadline", math.nan),         # would never drop a packet
        ("power_budget", math.nan), ("power_budget", math.inf),
    ])
    def test_rejects_bad_physical_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            m.SystemConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_rejects_bad_seed(self, seed):
        # both used to build, then fail inside numpy when the run drew
        with pytest.raises(ValueError, match="seed"):
            m.SystemConfig(seed=seed)

    def test_infinite_deadline_allowed(self):
        cfg = m.SystemConfig(deadline=math.inf)
        assert math.isinf(cfg.deadline_symbols)


def test_every_exported_name_resolves():
    namespace = {}
    exec("from mpgps_sim import *", namespace)
    assert len(set(m.__all__)) == len(m.__all__)
    assert set(m.__all__) <= namespace.keys()
