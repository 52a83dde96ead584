"""Frame arithmetic, config validation, and queue basics."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mpgps_sim as m
from mpgps_sim import allocation
from oracles import layout_search


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


def layout(g, cfg):
    """``frame_layouts`` of one composition, in ``layout_search``'s form."""
    m_sel, airtime, grp, quotas = allocation.frame_layouts(np.array([g], dtype=np.int64), cfg)
    return int(m_sel[0]), int(airtime[0]), int(grp[0]), quotas[0].tolist()


class TestQuotaAndGroup:
    def test_quota_example(self):
        # four packets over 64 subcarriers: 16 slots a packet in a group of one
        assert layout((2, 1, 1), cfg64(K=3)) == (4, 32, 1, [32, 16, 16])

    def test_quota_not_divisible(self):
        # 64 slots do not split 2:1, so the group takes three symbols' 192
        assert layout((2, 1), cfg64(K=2)) == (3, 24, 3, [128, 64])

    def test_group_of_one_when_m_divides(self):
        # four packets, every quota g_k*64 divisible by 4
        assert layout((1, 1, 1, 1), cfg64())[2] == 1

    def test_group_grows_for_three_packets(self):
        # m_sel = 3 does not divide 64, nor 128; the group must reach 3
        assert layout((1, 1, 1), cfg64(K=3))[1:3] == (24, 3)

    def test_group_balances_quotas(self):
        _, _, grp, quotas = layout((3, 1), cfg64(K=2))
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
            m.frame_length(g, cfg)
        except m.NonIntegralFrame:
            assume(False)
        m_sel, airtime, grp, quotas = layout(g, cfg)
        assert m_sel == sum(g)
        assert airtime % grp == 0
        assert quotas == [gk * grp * n // m_sel for gk in g]
        assert sum(quotas) == grp * n
        # nothing smaller works
        for d in range(1, grp):
            if airtime % d:
                continue
            assert any((gk * d * n) % m_sel for gk in g)

    # the shapes of the sweeps this property replaced: N of 1, 3, 6 and 12,
    # r of 3, one-bit-per-subcarrier packets and the 64-subcarrier working point
    @example(n=64, r=2, k=4, m0=1, t=8)
    @example(n=1, r=1, k=3, m0=1, t=1)
    @example(n=3, r=3, k=3, m0=3, t=1)
    @example(n=6, r=3, k=3, m0=6, t=1)
    @example(n=12, r=2, k=3, m0=4, t=1)
    @example(n=16, r=4, k=4, m0=2, t=1)
    @example(n=8, r=1, k=2, m0=1, t=2)
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 64), r=st.integers(1, 4), k=st.integers(1, 4),
           m0=st.integers(1, 6), t=st.integers(1, 16))
    def test_group_size_matches_the_divisor_search(self, n, r, k, m0, t):
        # a packet of L/r = t * N / gcd(N, m0) subcarrier-symbols gives a
        # batch of m0 a whole airtime. Every composition of up to six packets
        # whose airtime is whole gets the searched group and whole, balanced
        # quotas
        cfg = m.SystemConfig(K=k, N=n, L=n // math.gcd(n, m0) * t * r, r=r)
        gs = [g for total in range(1, 7) if (cfg.L * total) % cfg.bits_per_symbol == 0
              for g in itertools.product(range(total + 1), repeat=k) if sum(g) == total]
        m_sel, airtime, grp, quotas = allocation.frame_layouts(np.array(gs, dtype=np.int64), cfg)
        got = list(zip(m_sel.tolist(), airtime.tolist(), grp.tolist(), quotas.tolist()))
        assert got == [layout_search(g, cfg) for g in gs]
        assert (quotas.sum(axis=1) == grp * n).all()


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
