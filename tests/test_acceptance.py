"""Gate checks. Each criterion prints one pass/fail line in the summary.

These are end-to-end runs at realistic scale, so the module is slower than
the unit tests; the heavy ones are marked ``slow`` but still run by default.
Seeds and scales are pinned so the suite is reproducible bit for bit.
"""
import math
import time

import numpy as np
import pytest

import mpgps_sim.cli as cli
from mpgps_sim import (SystemConfig, TrafficModel, TransportInstance,
                       brute_force_ilp, run, snr_target, solve_transport,
                       verify_bounds)

# default geometry: L=1024 bits over N=64 subcarriers at r=2 bits/symbol,
# so one packet occupies 8 subcarrier-symbols of airtime
PKT_SYMBOLS = 1024 / (64 * 2)


# -- criteria 1-3: verification runs at 60% load ------------------------------

@pytest.fixture(scope="session")
def verification_runs():
    """20 seeds x M in {1,2,4}; K=4 flows at 96 kb/s = 60% of capacity."""
    out = {}
    for m in (1, 2, 4):
        mode = "pgps" if m == 1 else "mpgps"
        runs = []
        for s in range(20):
            cfg = SystemConfig(K=4, M=m, seed=1000 + s)
            t0 = time.perf_counter()
            res = verify_bounds(cfg, TrafficModel(rate_bps=96000.0), mode,
                                horizon_symbols=70000.0, warmup_frac=0.0)
            runs.append((res, time.perf_counter() - t0))
        out[m] = runs
    return out


@pytest.mark.slow
@pytest.mark.criterion(1, "batch delay gap within (2M-1)L/(Nr) ceiling")
def test_delay_gap_ceiling(verification_runs, criterion_note):
    worst = {}
    for m, runs in verification_runs.items():
        bound = (2 * m - 1) * PKT_SYMBOLS
        delivered = 0
        for res, elapsed in runs:
            e = res.bounds.entry("delay_gap")
            assert e.applicable
            assert e.bound == pytest.approx(bound)
            assert e.violations == 0
            assert elapsed < 120.0
            delivered += res.metrics.delivered
            worst[m] = max(worst.get(m, 0.0), e.observed)
        assert delivered >= 100_000
    assert (2 * 4 - 1) * PKT_SYMBOLS == 56.0
    criterion_note(1, "worst gap at M=4: "
                      f"{worst[4]:.2f} of 56 symbols, >=1e5 packets per M")


@pytest.mark.slow
@pytest.mark.criterion(2, "service and backlog gaps bounded at every event")
def test_service_and_backlog_gaps(verification_runs, criterion_note):
    worst_frac = 0.0
    for m, runs in verification_runs.items():
        for res, _ in runs:
            srv = res.bounds.entry("service_gap")
            qln = res.bounds.entry("backlog_gap")
            assert srv.applicable and qln.applicable
            assert srv.bound == pytest.approx((2 * m - 1) * 1024.0)
            assert qln.bound == pytest.approx(2 * m - 1)
            assert srv.violations == 0
            assert qln.violations == 0
            worst_frac = max(worst_frac, srv.observed / srv.bound)
    criterion_note(2, f"worst service gap {100 * worst_frac:.0f}% of bound")


@pytest.mark.slow
@pytest.mark.criterion(3, "single-server runs meet the tighter M=1 bounds")
def test_single_server_reduction(verification_runs):
    for res, _ in verification_runs[1]:
        assert res.mode == "pgps"
        delay = res.bounds.entry("delay_gap")
        srv = res.bounds.entry("service_gap")
        assert delay.bound == pytest.approx(PKT_SYMBOLS)  # L/(Nr) = 8 symbols
        assert srv.bound == pytest.approx(1024.0)         # one packet length
        assert res.bounds.passed


# -- criterion 4: opportunistic window lag ------------------------------------

@pytest.mark.slow
@pytest.mark.criterion(4, "opportunistic lag <= U-M; U=M replays the reference")
def test_window_lag_bound(criterion_note):
    for u, m in ((2, 1), (4, 2), (6, 4), (6, 6)):
        for s in range(5):
            cfg = SystemConfig(K=6, N=8, L=64, r=2, M=m, U=u, seed=100 + s)
            res = verify_bounds(cfg, TrafficModel(rate_bps=8000.0), "ompgps",
                                horizon_symbols=40000.0)
            lag = res.bounds.entry("aggregate_lag")
            assert lag.applicable
            assert lag.bound == u - m
            assert lag.violations == 0
            trace = res.bounds.entry("shadow_trace_equal")
            assert trace.applicable == (u == m)
            if u == m:
                assert trace.violations == 0
                assert lag.observed == 0
    criterion_note(4, "4 (U,M) pairs x 5 seeds, zero violations")


@pytest.mark.slow
@pytest.mark.criterion(4, "opportunistic lag <= U-M; U=M replays the reference")
def test_window_lag_bound_full_scale(criterion_note):
    cfg = SystemConfig(M=2, U=4, seed=33)
    res = verify_bounds(cfg, TrafficModel(rate_bps=50000.0), "ompgps",
                        horizon_symbols=20000.0)
    lag = res.bounds.entry("aggregate_lag")
    assert lag.violations == 0
    assert lag.observed <= lag.bound == 2
    criterion_note(4, f"full scale (U=4,M=2): peak lag {lag.observed:g} of 2")


# -- criterion 5: solver vs exhaustive search ---------------------------------

@pytest.mark.criterion(5, "transport solver matches exhaustive search x1000")
def test_solver_matches_brute_force(criterion_note):
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        group = int(rng.integers(1, 3))
        costs = rng.uniform(0.01, 10.0, size=(k, n))
        cuts = np.sort(rng.integers(0, n * group + 1, size=k - 1))
        quotas = np.diff(np.concatenate(([0], cuts, [n * group])))
        inst = TransportInstance(alpha=costs, quotas=quotas, group=group)
        counts, objective = solve_transport(inst)
        _, oracle = brute_force_ilp(inst)
        assert counts.sum() == n * group
        assert abs(objective - oracle) <= 1e-9
        worst = max(worst, abs(objective - oracle))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    criterion_note(5, f"worst |diff| {worst:.2e} in {elapsed:.1f}s")


# -- criterion 6: SNR target constant -----------------------------------------

@pytest.mark.criterion(6, "QPSK SNR target within 0.1 dB of 13.5401 dB")
def test_snr_target_constant(criterion_note):
    db = 10.0 * math.log10(snr_target(1e-6, 2))
    assert abs(db - 13.5401) <= 0.1
    criterion_note(6, f"measured {db:.4f} dB")


# -- criterion 7: multiuser-diversity power trend ------------------------------

@pytest.fixture(scope="session")
def saturated_power_means():
    """Mean per-bit transmit power vs server count, K=10 flows saturated."""
    means = {}
    for m in range(1, 7):
        vals = []
        for s in range(20):
            cfg = SystemConfig(M=m, seed=500 + s)
            res = run(cfg, TrafficModel(infinite_backlog=True), "mpgps",
                      horizon_symbols=1e7, max_frames=240)
            vals.append(res.metrics.per_bit_power)
        means[m] = float(np.mean(vals))
    return means


@pytest.mark.slow
@pytest.mark.criterion(7, "per-bit power non-increasing in M; >=5 dB at M=6")
def test_power_falls_with_server_count(saturated_power_means, criterion_note):
    means = saturated_power_means
    for m in range(1, 6):
        step_db = 10.0 * math.log10(means[m + 1] / means[m])
        assert step_db <= 0.2, f"power rose {step_db:.2f} dB from M={m}"
    gain_db = 10.0 * math.log10(means[1] / means[6])
    assert gain_db >= 5.0
    criterion_note(7, f"M=6 gain {gain_db:.1f} dB (10 dB is a soft target)")


@pytest.mark.slow
@pytest.mark.criterion(7, "per-bit power non-increasing in M; >=5 dB at M=6")
def test_adaptive_growth_never_hurts(saturated_power_means):
    # the scheduler audits every frame: a grown batch that is worse per bit
    # than its own single-packet seed raises instead of shipping the frame
    vals = []
    for s in range(5):
        cfg = SystemConfig(M_max=6, seed=500 + s)
        res = run(cfg, TrafficModel(infinite_backlog=True), "ampgps",
                  horizon_symbols=1e7, max_frames=240)
        assert len(res.frames) == 240
        vals.append(res.metrics.per_bit_power)
    assert float(np.mean(vals)) <= saturated_power_means[1]


# -- criterion 8: delay trend and the adaptive win -----------------------------

@pytest.mark.slow
@pytest.mark.criterion(8, "delay non-decreasing in M; adaptive strictly faster")
def test_delay_grows_with_server_count(criterion_note):
    means = {}
    for m in (1, 2, 4, 6):
        delays = []
        for s in range(20):
            cfg = SystemConfig(M=m, seed=300 + s)
            res = run(cfg, TrafficModel(rate_bps=63000.0), "mpgps",
                      horizon_symbols=50000.0, error_free=True)
            delays.append(res.metrics.avg_delay)
        means[m] = float(np.mean(delays))
    order = [1, 2, 4, 6]
    for a, b in zip(order, order[1:]):
        assert means[b] >= means[a] - 1e-4, (
            f"mean delay fell from M={a} ({means[a]:.6f}s) "
            f"to M={b} ({means[b]:.6f}s)")
    criterion_note(8, "mean delay " + " -> ".join(
        f"{1e3 * means[m]:.2f}ms" for m in order))


@pytest.mark.slow
@pytest.mark.criterion(8, "delay non-decreasing in M; adaptive strictly faster")
def test_adaptive_beats_fixed_batch_delay(criterion_note):
    fixed, adaptive = [], []
    for s in range(10):
        base = dict(M=6, M_max=6, seed=600 + s)
        traffic = TrafficModel(rate_bps=63000.0)
        res_f = run(SystemConfig(**base), traffic, "mpgps", 30000.0,
                    error_free=True)
        res_a = run(SystemConfig(**base), traffic, "ampgps", 30000.0,
                    error_free=True)
        fixed.append(res_f.metrics.avg_delay)
        adaptive.append(res_a.metrics.avg_delay)
    f_mean, a_mean = float(np.mean(fixed)), float(np.mean(adaptive))
    assert a_mean < f_mean
    criterion_note(8, f"adaptive cuts mean delay {100 * (1 - a_mean / f_mean):.1f}%"
                      " at M=6")


# -- criterion 9: fairness trends ----------------------------------------------

@pytest.mark.slow
@pytest.mark.criterion(9, "fairness gauge rises with U and falls with M")
def test_fairness_trends(criterion_note):
    cache = {}

    def gauge(m, u):
        if (m, u) not in cache:
            vals = []
            for s in range(5):
                cfg = SystemConfig(K=6, N=8, L=64, r=2, M=m, U=u, seed=s)
                res = run(cfg, TrafficModel(infinite_backlog=True), "ompgps",
                          horizon_symbols=1e7, max_frames=1200,
                          error_free=True,
                          collect_fairness=True)
                vals.append(res.metrics.fairness)
            cache[(m, u)] = float(np.mean(vals))
        return cache[(m, u)]

    u_trend = [gauge(2, u) for u in (2, 4, 6)]
    assert u_trend[0] <= u_trend[1] <= u_trend[2], u_trend
    m_trend = [gauge(m, 6) for m in (2, 4, 6)]
    assert m_trend[0] >= m_trend[1] >= m_trend[2], m_trend
    criterion_note(9, "bits astray over U: " +
                   "/".join(f"{v:.0f}" for v in u_trend) + "; over M: " +
                   "/".join(f"{v:.0f}" for v in m_trend))


# -- criterion 10: byte-level determinism --------------------------------------

@pytest.mark.criterion(10, "identical config+seed give byte-identical artifacts")
def test_artifacts_are_byte_identical(tmp_path, criterion_note):
    import json

    cfg = {
        "system": {"K": 3, "N": 8, "L": 64, "r": 2, "seed": 7},
        "traffic": {"rate_bps": 6000.0},
        "run": {"horizon_symbols": 10000, "replications": 2,
                "collect_events": True},
        "sweep": {"modes": ["mpgps"], "M": [1, 2]},
        "figures": ["fig3_delay_vs_M.csv"],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    dirs = [tmp_path / "first", tmp_path / "second"]
    for d in dirs:
        assert cli.main(["run", str(path), "--out", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert "events_p0_r0.csv" in names and "events_p1_r1.csv" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    criterion_note(10, f"{len(names)} files compared byte for byte")


# -- headroom: the scheduler carries heavy offered load cleanly -----------------

@pytest.mark.slow
def test_heavy_load_is_carried_without_loss():
    cfg = SystemConfig(seed=4)
    res = run(cfg, TrafficModel(rate_bps=40000.0), "mpgps", 60000.0,
              error_free=True)
    assert res.metrics.loss_rate < 1e-2
