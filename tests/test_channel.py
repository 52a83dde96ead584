"""Error model inversion and the per-frame channel generator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpgps_sim as m
from mpgps_sim import channel
from mpgps_sim.channel import (STREAM_CHUNK, STREAM_TAGS, ChannelProcess, FrameStreams,
                               UserGeometry, draw_geometry)

# every user at the 1 m reference distance, unshadowed: a large-scale gain of 1
UNIT_PATH_GAIN = dict(cell_radius_m=1.0, shadow_std_db=0.0)


class TestErrorModel:
    @settings(max_examples=80, deadline=None)
    @given(target=st.floats(1e-9, 0.19), r=st.integers(1, 6))
    def test_snr_target_inverts_ber(self, target, r):
        snr = m.snr_target(target, r)
        assert m.ber(snr, r) == pytest.approx(target, rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.2, 0.7, 1.0])
    def test_snr_target_domain(self, bad):
        with pytest.raises(m.DomainError):
            m.snr_target(bad, 2)

    def test_ber_decreases_with_snr(self):
        snr = np.linspace(0.0, 40.0, 50)
        b = m.ber(snr, 2)
        assert np.all(np.diff(b) < 0)

    def test_denser_constellation_needs_more_snr(self):
        assert m.snr_target(1e-6, 4) > m.snr_target(1e-6, 2) > m.snr_target(1e-6, 1)

    def test_packet_error_rate_identity(self):
        b = float(m.ber(10.0, 2))
        per = m.packet_error_rate(10.0, 128, 2)
        assert per == pytest.approx(1.0 - (1.0 - b) ** 128, rel=1e-12)

    def test_packet_error_rate_tiny_ber_stays_precise(self):
        # naive 1-(1-b)^n underflows to 0 here; the union-bound value survives
        snr = m.snr_target(1e-18, 2)
        per = float(m.packet_error_rate(snr, 1024, 2))
        assert per == pytest.approx(1024 * 1e-18, rel=1e-6)

    def test_packet_error_rate_bounds(self):
        snr = np.linspace(0.1, 60.0, 40)
        per = m.packet_error_rate(snr, 1024, 2)
        assert np.all((per >= 0.0) & (per <= 1.0))
        assert np.all(np.diff(per) <= 0)

    def test_link_budget_shape(self):
        cfg = m.SystemConfig(K=5)
        budget = m.link_budget(cfg)
        assert isinstance(budget.gamma, float)
        assert budget.gamma == m.snr_target(cfg.target_ber, cfg.r)
        assert budget.noise_power == cfg.noise_power


class TestGeometry:
    def test_users_land_inside_the_cell(self):
        cfg = m.SystemConfig(K=200, cell_radius_m=50.0)
        geo = draw_geometry(cfg, np.random.default_rng(3))
        d = np.array([g.distance_m for g in geo])
        assert np.all((d >= 0.0) & (d <= 50.0))

    def test_path_gain_clamps_below_reference_distance(self):
        cfg = m.SystemConfig()
        near = UserGeometry(0.01, 0.0).path_gain(cfg)
        at_ref = UserGeometry(1.0, 0.0).path_gain(cfg)
        assert near == at_ref == pytest.approx(1.0)

    def test_shadowing_scales_gain(self):
        cfg = m.SystemConfig()
        assert UserGeometry(1.0, 10.0).path_gain(cfg) == pytest.approx(10.0)


class TestChannelProcess:
    def test_same_seed_same_gains(self):
        cfg = m.SystemConfig(K=3, N=16, L=64, seed=7)
        a = ChannelProcess(cfg).state(4)
        b = ChannelProcess(cfg).state(4)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        g1 = ChannelProcess(m.SystemConfig(K=3, N=16, L=64, seed=7)).state(0)
        g2 = ChannelProcess(m.SystemConfig(K=3, N=16, L=64, seed=8)).state(0)
        assert not np.array_equal(g1, g2)

    def test_independent_frames_regenerate_in_any_order(self):
        cfg = m.SystemConfig(K=2, N=8, L=64, seed=5)
        proc = ChannelProcess(cfg)
        late = proc.state(9).copy()
        early = proc.state(2).copy()
        fresh = ChannelProcess(cfg)
        np.testing.assert_array_equal(fresh.state(2), early)
        np.testing.assert_array_equal(fresh.state(9), late)

    def test_mean_square_gain_is_unit(self):
        # fix the large-scale part at 1 so only fading remains; subcarrier
        # gains within a frame are tap-correlated, so average many frames
        proc = ChannelProcess(m.SystemConfig(K=1, N=16, L=64, seed=2, **UNIT_PATH_GAIN))
        assert proc.path_gains.tolist() == [1.0]
        acc = [proc.state(f) for f in range(2000)]
        assert float(np.mean(acc)) == pytest.approx(1.0, abs=0.05)

    def test_gains_positive(self):
        cfg = m.SystemConfig(K=4, N=32, L=64, seed=1)
        g = ChannelProcess(cfg).state(0)
        assert np.all(g > 0)
        assert g.shape == (4, 32)

    def test_correlated_jump_equals_sequential_walk(self):
        cfg = m.SystemConfig(K=2, N=8, L=64, seed=9, time_corr=0.6)
        seq = ChannelProcess(cfg)
        for f in range(4):
            last = seq.state(f).copy()
        jump = ChannelProcess(cfg)
        np.testing.assert_allclose(jump.state(3), last, rtol=1e-12)

    def test_correlated_rewind_replays_from_origin(self):
        cfg = m.SystemConfig(K=2, N=8, L=64, seed=9, time_corr=0.6)
        proc = ChannelProcess(cfg)
        proc.state(5)
        rewound = proc.state(1)
        fresh = ChannelProcess(cfg).state(1)
        np.testing.assert_allclose(rewound, fresh, rtol=1e-12)

    def test_correlation_shrinks_frame_to_frame_change(self):
        base = dict(K=1, N=16, L=64, seed=4)
        def step_var(rho):
            proc = ChannelProcess(m.SystemConfig(time_corr=rho, **base, **UNIT_PATH_GAIN))
            states = np.array([proc.state(f)[0] for f in range(200)])
            return float(np.mean(np.diff(states, axis=0) ** 2))
        assert step_var(0.95) < step_var(0.0) / 2

    def test_ar1_state_holds_no_view_of_a_returned_stack(self):
        # a blind run's last taps stack is its own: the AR(1) state kept
        # between plans is a copy of one frame's (K, taps) row
        cfg = m.SystemConfig(K=10, N=64, L=1024, r=2, M=4, seed=4, time_corr=0.9)
        eng = m.Engine(cfg, m.TrafficModel(rate_bps=50000.0), "mpgps", 5000.0)
        eng.run()
        assert eng.frames_started > m.engine.PLAN_STACK
        state = eng.channel._last_taps
        assert state.base is None and state.shape == (cfg.K, cfg.taps)
        assert state.tolist() == ChannelProcess(cfg).taps(0, eng.frames_started)[-1].tolist()


def per_frame_reference(cfg, frames):
    """Gains of increasing frames, one at a time: each frame's (K, taps) draw
    comes from its own ``default_rng([seed, 37, frame])``, AR(1) taps walk
    the recurrence from frame 0, and each frame gets its own FFT."""
    profile = np.exp(-np.arange(cfg.taps) / cfg.tap_decay)
    tap_std = np.sqrt(profile / profile.sum() / 2.0)
    large = ChannelProcess(cfg).path_gains

    def draw(f):
        rng = np.random.default_rng([cfg.seed, 37, f])
        shape = (cfg.K, cfg.taps)
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * tap_std

    rho = cfg.time_corr
    walked, taps = 0, draw(0)
    out = []
    for f in frames:
        if rho == 0.0:
            taps = draw(f)
        else:
            while walked < f:
                walked += 1
                taps = rho * taps + math.sqrt(1.0 - rho * rho) * draw(walked)
        h = np.fft.fft(taps, n=cfg.N, axis=1)
        out.append((h.real ** 2 + h.imag ** 2) * large[:, None])
    return np.array(out)


class TestBlockTransform:
    """A block's batched FFT must equal the per-frame FFT bit for bit, so a
    numpy that rounds them differently fails here instead of moving outputs."""

    @pytest.mark.parametrize("rho", [0.0, 0.6])
    def test_block_equals_per_frame_transform(self, rho):
        for seed in range(30):
            cfg = m.SystemConfig(K=1 + seed % 10, N=(8, 16, 64)[seed % 3], L=64,
                                 seed=seed, taps=1 + seed % 6, time_corr=rho)
            lo, count = seed % 7, 1 + seed % 20
            np.testing.assert_array_equal(ChannelProcess(cfg).block(lo, count),
                                          per_frame_reference(cfg, range(lo, lo + count)))

    @pytest.mark.parametrize("rho", [0.0, 0.6])
    def test_frames_inside_a_block_and_after_a_rewind(self, rho):
        cfg = m.SystemConfig(K=4, N=16, L=64, seed=3, time_corr=rho)
        want = per_frame_reference(cfg, range(30))
        proc = ChannelProcess(cfg)
        np.testing.assert_array_equal(proc.block(10, 16), want[10:26])
        np.testing.assert_array_equal(proc.state(17), want[17])   # mid-block
        np.testing.assert_array_equal(proc.block(2, 5), want[2:7])      # rewind
        np.testing.assert_array_equal(proc.block(21, 9), want[21:30])

    def test_block_across_a_stream_chunk(self):
        cfg = m.SystemConfig(K=4, N=16, L=64, seed=3)
        proc = ChannelProcess(cfg)
        proc.block(0, 1)                 # hashes the keys of frames 0 .. 255
        frames = range(STREAM_CHUNK - 6, STREAM_CHUNK + 6)
        np.testing.assert_array_equal(proc.block(frames[0], len(frames)),
                                      per_frame_reference(cfg, frames))

    def test_block_across_the_one_word_boundary(self):
        # frames past 2**32 - 1 fall back to default_rng inside the block
        cfg = m.SystemConfig(K=4, N=16, L=64, seed=3)
        frames = range(2 ** 32 - 3, 2 ** 32 + 3)
        np.testing.assert_array_equal(ChannelProcess(cfg).block(frames[0], len(frames)),
                                      per_frame_reference(cfg, frames))


def random_rows(rng, count, k):
    """A random (frame, user) subset with at least one user a frame, as a
    plan stack schedules them."""
    mask = rng.random((count, k)) < 0.3
    mask[np.arange(count), rng.integers(0, k, count)] = True
    return mask.nonzero()


class TestRowTransform:
    """A channel-blind plan transforms only its scheduled rows: each must
    equal its row of the per-frame transform bit for bit, and each frame's
    gain bound must hold every gain of the frame."""

    @pytest.mark.parametrize("rho", [0.0, 0.6])
    def test_rows_equal_per_frame_transform(self, rho):
        rng = np.random.default_rng(int(rho * 10))
        for seed in range(12):
            cfg = m.SystemConfig(K=1 + seed % 10, N=(8, 16, 64)[seed % 3], L=64,
                                 seed=seed, taps=1 + seed % 6, time_corr=rho)
            want = per_frame_reference(cfg, range(STREAM_CHUNK + 8))
            proc = ChannelProcess(cfg)
            # from frame 0, across a STREAM_CHUNK boundary, then a rewind
            for lo, count in ((0, 20), (STREAM_CHUNK - 6, 14), (3, 9)):
                taps = proc.taps(lo, count)
                frames, users = random_rows(rng, count, cfg.K)
                np.testing.assert_array_equal(proc.rows(taps, frames, users),
                                              want[lo + frames, users])
                # whole frames, as the whole-frame fade rule takes them
                every = np.arange(count)[::2, None]
                np.testing.assert_array_equal(proc.rows(taps, every, np.arange(cfg.K)),
                                              want[lo + every[:, 0]])

    def test_rows_across_the_one_word_boundary(self):
        cfg = m.SystemConfig(K=4, N=16, L=64, seed=3)
        frames_on_air = range(2 ** 32 - 3, 2 ** 32 + 3)
        want = per_frame_reference(cfg, frames_on_air)
        proc = ChannelProcess(cfg)
        taps = proc.taps(frames_on_air[0], len(frames_on_air))
        frames, users = random_rows(np.random.default_rng(1), len(frames_on_air), cfg.K)
        np.testing.assert_array_equal(proc.rows(taps, frames, users), want[frames, users])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), spread=st.booleans(),
           rho=st.sampled_from([0.0, 0.6]), taps=st.integers(1, 12),
           n=st.sampled_from([4, 16, 64]))
    def test_bound_holds_every_gain_of_its_frame(self, seed, spread, rho, taps, n):
        extreme = dict(pathloss_exp=6.0, shadow_std_db=20.0) if spread else {}
        cfg = m.SystemConfig(K=6, N=n, L=64, seed=seed, taps=taps, time_corr=rho, **extreme)
        proc = ChannelProcess(cfg)
        bound = proc.gain_bound(proc.taps(0, 24))
        gains = proc.block(0, 24)                # replays the same taps after a rewind
        assert (gains.max(axis=(1, 2)) <= bound).all()
        if taps <= n:
            # no looser than Cauchy-Schwarz and Parseval allow:
            # (sum_j |h_j|)^2 <= taps * sum_j |h_j|^2 <= taps * max_n |H(n)|^2
            assert (bound <= 1.01 * taps * gains.max(axis=(1, 2))).all()


class TestFrameStreams:
    """Each frame's stream must equal numpy's own seeding of the same key."""

    SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7,
             int(np.random.default_rng(2024).integers(2 ** 64, dtype=np.uint64))]

    @staticmethod
    def assert_same(stream, key):
        ref = np.random.default_rng(key)
        assert stream.bit_generator.state == ref.bit_generator.state, key
        assert stream.normal() == ref.normal(), key
        assert stream.random() == ref.random(), key

    @pytest.mark.parametrize("tag", STREAM_TAGS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_default_rng_key_by_key(self, seed, tag):
        rng = np.random.default_rng([seed, tag])
        frames = (list(range(STREAM_CHUNK + 3))                 # across the first boundary
                  + [2 * STREAM_CHUNK - 1, 2 * STREAM_CHUNK, 5]   # the next one, a rewind
                  + rng.integers(0, 2 ** 32, 160).tolist()
                  + [2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 0])
        streams = FrameStreams(seed, tag)
        for f in frames:
            self.assert_same(streams.at(f), [seed, tag, f])

    @pytest.mark.parametrize("tag", STREAM_TAGS)
    @pytest.mark.parametrize("seed", [1, 2 ** 40 + 7])
    def test_uniforms_equal_default_rng(self, seed, tag):
        # both sides of the first STREAM_CHUNK boundary, the last one-word
        # frame, the fallback past it, and a rewind
        frames = [0, STREAM_CHUNK - 1, STREAM_CHUNK, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 1]
        streams = FrameStreams(seed, tag)
        for f in frames:
            for n in range(1, 9):
                want = np.random.default_rng([seed, tag, f]).random(n).tolist()
                assert streams.uniforms(f, n) == want, (f, n)

    @pytest.mark.parametrize("tag", STREAM_TAGS)
    def test_key_cache_moves_to_other_seeds_and_back(self, tag):
        channel._stream_keys.cache_clear()
        frames = [0, 3, STREAM_CHUNK + 1, 7]
        streams = FrameStreams(5, tag)
        for f in frames:
            self.assert_same(streams.at(f), [5, tag, f])
        # more seeds than the cache holds push seed 5's chunks out
        others = [FrameStreams(seed, tag) for seed in range(6, 12)]
        for other in others:
            self.assert_same(other.at(STREAM_CHUNK + 2), [other.seed, tag, STREAM_CHUNK + 2])
        held = channel._stream_keys.cache_info()
        assert held.currsize == held.maxsize < len(others)
        # back on seed 5: the same streams, through its held chunk and a re-hashed one
        again = FrameStreams(5, tag)
        for f in frames + [STREAM_CHUNK + 9]:
            self.assert_same(streams.at(f), [5, tag, f])
            self.assert_same(again.at(f), [5, tag, f])
            assert streams.uniforms(f, 3) == np.random.default_rng([5, tag, f]).random(3).tolist()


def test_a_short_run_hashes_its_stream_keys_once(monkeypatch):
    # a power_mpgps-config run of at most STREAM_CHUNK frames and flows
    # hashes the keys of its arrival, channel and error streams in one call
    # and seeds no numpy generator per flow or per frame
    cfg = m.SystemConfig(K=10, N=64, L=1024, r=2, M=4, seed=3)
    eng = m.Engine(cfg, m.TrafficModel(rate_bps=50000.0), "mpgps", 2000.0)
    channel._stream_keys.cache_clear()
    m.engine.arrival_trace.cache_clear()
    hashed, seeded = [], []
    real_hash = channel._seed_sequence_states
    monkeypatch.setattr(channel, "_seed_sequence_states",
                        lambda *a: hashed.append(1) or real_hash(*a))
    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **kw: seeded.append(a) or real_rng(*a, **kw))
    res = eng.run()
    assert 0 < eng.frames_started <= STREAM_CHUNK
    assert res.metrics.arrivals > 0 and eng.error_streams is not None
    assert len(hashed) == 1 and seeded == []
