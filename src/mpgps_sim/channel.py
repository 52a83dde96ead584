"""Downlink channel statistics, SNR targets, and the packet-error model.

Small-scale fading is frequency selective: each user sees a tapped delay
line of independent complex-Gaussian taps with an exponentially decaying
power profile, transformed to per-subcarrier gains. Large-scale attenuation
combines distance-based path loss with log-normal shadowing. The modulation
abstraction is a single exponential BER curve parameterised by the
constellation rate, inverted to obtain the SNR that meets a BER target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig

# BER(snr) = BER_CEILING * exp(-BER_SLOPE * snr / (2**r - 1)); the ceiling is
# the value at zero SNR, so no target at or above it is reachable.
BER_CEILING = 0.2
BER_SLOPE = 1.6


class DomainError(ValueError):
    """Requested operating point outside the BER model's range."""


def ber(snr: float, r: int):
    """Bit error rate of a rate-r constellation at the given linear SNR."""
    return BER_CEILING * np.exp(-BER_SLOPE * np.asarray(snr) / (2 ** r - 1))


def snr_target(target_ber: float, r: int) -> float:
    """Linear SNR at which a rate-r constellation meets ``target_ber``."""
    if not 0.0 < target_ber < BER_CEILING:
        raise DomainError(f"target BER must lie in (0, {BER_CEILING})")
    return (2 ** r - 1) * math.log(BER_CEILING / target_ber) / BER_SLOPE


def packet_error_rate(snr, bits: int, r: int):
    """Probability that at least one of ``bits`` independent bits is corrupted."""
    b = ber(snr, r)
    # log1p keeps precision when the per-bit error rate is tiny
    return -np.expm1(bits * np.log1p(-b))


@dataclass(frozen=True)
class UserGeometry:
    """Large-scale situation of one user, fixed for a whole run."""

    distance_m: float
    shadow_db: float

    def path_gain(self, cfg: SystemConfig) -> float:
        d = max(self.distance_m, cfg.ref_distance_m)
        try:
            return (cfg.ref_distance_m / d) ** cfg.pathloss_exp * 10.0 ** (self.shadow_db / 10.0)
        except (OverflowError, ZeroDivisionError):   # beyond float range; the Engine refuses it
            return math.inf


def draw_geometry(cfg: SystemConfig, rng: np.random.Generator) -> list[UserGeometry]:
    """Drop users uniformly over the cell disc with independent shadowing."""
    radius = cfg.cell_radius_m * np.sqrt(rng.random(cfg.K))
    shadow = rng.normal(0.0, cfg.shadow_std_db, cfg.K)
    return [UserGeometry(float(d), float(s)) for d, s in zip(radius, shadow)]


@dataclass(frozen=True)
class LinkBudget:
    """SNR requirement, shared by every user, and the common noise floor."""

    gamma: float                 # linear SNR meeting the BER target
    noise_power: float           # W per subcarrier


def link_budget(cfg: SystemConfig) -> LinkBudget:
    return LinkBudget(gamma=snr_target(cfg.target_ber, cfg.r), noise_power=cfg.noise_power)


# Frames whose stream keys FrameStreams hashes in one numpy pass. numpy's
# per-call overhead sets the cost: a call takes a near-flat ~0.1-0.23 ms
# whether it hashes 16 frames or 256. So a run of up to 256 frames pays two
# calls, one for its channel stream and one for its error stream, and the
# frames of a chunk it never draws cost it next to nothing.
STREAM_CHUNK = 256

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier (numpy/random/src/pcg64/pcg64.h)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK64 = (1 << 64) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / (1 << 53)


def _uint32_words(n: int) -> list[int]:
    """A non-negative integer as SeedSequence reads it: 32-bit words, low first."""
    return [(n >> s) & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _seed_sequence_states(prefix: list[int], frames: np.ndarray) -> np.ndarray:
    """``SeedSequence(prefix + [f]).generate_state(4, np.uint64)`` for every
    frame f of a uint32 column, shape (len(frames), 4).

    The same uint32 arithmetic as numpy's loop, run over the frame column;
    the words of ``prefix`` are shape-(1,) arrays that broadcast against it.
    The hash constants depend on no data, so they stay Python ints.
    """
    entropy = [np.array([w], dtype=np.uint32) for w in prefix] + [frames]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    out = []
    hash_const = _INIT_B
    for i in range(8):          # 4 uint64 words, as uint32 pairs
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append(value ^ (value >> 16))
    return np.stack(out, axis=1).view(np.uint64)


class FrameStreams:
    """One random stream per frame, keyed (seed, tag, frame).

    ``at(frame)`` draws exactly what ``np.random.default_rng([seed, tag,
    frame])`` draws, bit for bit, without hashing the key on each call: keys
    are hashed STREAM_CHUNK frames at a time, and each frame's PCG64 state
    is loaded into one reused Generator. That Generator is valid until the
    next ``at``. ``uniforms(frame, n)`` returns that stream's first n
    ``random()`` doubles as a list, without loading a Generator: from the
    same hashed key it runs the PCG64 generator (O'Neill's PCG XSL-RR
    128/64) in Python ints, one LCG step and one output permutation a draw,
    and keeps the top 53 bits, as numpy's ``random`` does. Frames past the
    one-word range fall back to ``default_rng`` in both.
    """

    def __init__(self, seed: int, tag: int):
        self.seed, self.tag = int(seed), int(tag)
        self._prefix = _uint32_words(self.seed) + _uint32_words(self.tag)
        self._lo = 0
        self._keys: list[list[int]] = []
        self._gen = np.random.Generator(np.random.PCG64(0))

    def _seeded(self, frame: int) -> tuple[int, int]:
        """The seeded PCG64 (state, inc) of a frame in the one-word range."""
        i = frame - self._lo
        if not 0 <= i < len(self._keys):
            frames = np.arange(frame, min(frame + STREAM_CHUNK, _MASK32 + 1), dtype=np.uint32)
            self._keys = _seed_sequence_states(self._prefix, frames).tolist()
            self._lo, i = frame, 0
        w0, w1, w2, w3 = self._keys[i]
        # pcg64_set_seed: inc = seq << 1 | 1, two LCG steps around adding the seed
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        return (((w0 << 64 | w1) + inc) * _PCG_MULT + inc) & _MASK128, inc

    def at(self, frame: int) -> np.random.Generator:
        if not 0 <= frame <= _MASK32:
            return np.random.default_rng([self.seed, self.tag, frame])
        state, inc = self._seeded(frame)
        self._gen.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        return self._gen

    def uniforms(self, frame: int, n: int) -> list[float]:
        """``np.random.default_rng([seed, tag, frame]).random(n).tolist()``, bit for bit."""
        if not 0 <= frame <= _MASK32:
            return np.random.default_rng([self.seed, self.tag, frame]).random(n).tolist()
        state, inc = self._seeded(frame)
        out = []
        for _ in range(n):
            # pcg64_random_r: step the LCG, then xor-fold the new state's
            # halves and rotate right by its top 6 bits
            state = (state * _PCG_MULT + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            out.append((((x >> rot | x << 64 - rot) & _MASK64) >> 11) * _DOUBLE_UNIT)
        return out


class ChannelProcess:
    """Deterministic per-frame channel generator.

    With time_corr == 0 every frame is an independent draw keyed by
    (seed, frame index), so states can be regenerated in any order and are
    bit-identical across runs. With time_corr > 0 taps evolve as an AR(1)
    process and frames must be visited in order (the process caches the last
    state and replays from frame 0 if asked to go back).
    """

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg
        with np.errstate(over="ignore"):        # a decay near 1e-308 leaves one tap
            profile = np.exp(-np.arange(cfg.taps) / cfg.tap_decay)
        self._tap_std = np.sqrt(profile / profile.sum() / 2.0)   # per real component
        geometry = draw_geometry(cfg, np.random.default_rng([cfg.seed, 11]))
        self.path_gains = np.array([g.path_gain(cfg) for g in geometry])
        self._streams = FrameStreams(cfg.seed, 37)
        # AR(1) state: the taps of frame _last_frame; -1 means before frame 0
        self._last_frame = -1
        self._last_taps: np.ndarray | None = None

    def _draw_taps(self, lo: int, count: int) -> np.ndarray:
        """Fresh complex taps of frames lo .. lo + count - 1, shape (count, K, taps).

        Each frame fills its real then its imaginary (K, taps) normals from
        its own stream, in the order two ``normal`` calls would draw them.
        """
        raw = np.empty((count, 2, self.cfg.K, self.cfg.taps))
        for i in range(count):
            self._streams.at(lo + i).standard_normal(out=raw[i])
        return (raw[:, 0] + 1j * raw[:, 1]) * self._tap_std

    def _walk(self, lo: int, count: int) -> np.ndarray:
        """AR(1) taps of frames lo .. lo + count - 1; lo must follow _last_frame."""
        rho = self.cfg.time_corr
        fresh = math.sqrt(1.0 - rho * rho)
        taps = self._draw_taps(lo, count)
        for i in range(count):
            if self._last_taps is not None:
                taps[i] = rho * self._last_taps + fresh * taps[i]
            self._last_taps = taps[i]
        self._last_frame = lo + count - 1
        return taps

    def taps(self, lo: int, count: int) -> np.ndarray:
        """Complex taps of frames lo .. lo + count - 1, shape (count, K, taps).

        Each frame draws its raw normals from its own stream, in stream order.
        With time_corr > 0 the taps walk the AR(1) recursion row by row from
        the cached frame, replaying from frame 0, STREAM_CHUNK frames at a
        time, after a rewind.
        """
        if self.cfg.time_corr == 0.0:
            return self._draw_taps(lo, count)
        if lo <= self._last_frame:
            self._last_frame, self._last_taps = -1, None
        while self._last_frame + 1 < lo:
            start = self._last_frame + 1
            self._walk(start, min(STREAM_CHUNK, lo - start))
        return self._walk(lo, count)

    def _gains(self, taps: np.ndarray, path_gains: np.ndarray) -> np.ndarray:
        """|H|^2 of tap rows (..., taps), each scaled by its path gain (...)."""
        h = np.fft.fft(taps, n=self.cfg.N, axis=-1)
        # in place: one buffer the shape of the gains
        gains = h.real ** 2
        gains += h.imag ** 2
        gains *= path_gains[..., None]
        return gains

    def block(self, lo: int, count: int) -> np.ndarray:
        """Power gains of frames lo .. lo + count - 1, shape (count, K, N).

        The complex taps (``taps``), one FFT and one scaling serve the whole
        block. numpy's batched arithmetic and FFT equal the per-frame ones
        bit for bit (tests/test_channel.py guards this).
        """
        return self._gains(self.taps(lo, count), self.path_gains)

    def rows(self, taps: np.ndarray, frames: np.ndarray, users: np.ndarray) -> np.ndarray:
        """Power gains of the (frame, user) rows of a ``taps`` stack: the
        transform of ``block``, run on those rows only, so each row equals
        its row of the block bit for bit. ``frames`` and ``users`` index as
        a pair and broadcast, so P pairs give (P, N) and a (W, 1) column of
        frames with every user gives those frames' (W, K, N) gains."""
        return self._gains(taps[frames, users], self.path_gains[users])

    def gain_bound(self, taps: np.ndarray) -> np.ndarray:
        """A bound on every power gain of each frame of a ``taps`` stack,
        shape (count,): |H(n)| <= sum_j |h_j|, so no gain of user k exceeds
        path_gain_k * (sum_j |h_kj|)^2. The largest over the users is raised
        by a relative 1e-6, far above the FFT's roundoff."""
        reach = np.abs(taps).sum(axis=-1)
        reach *= reach
        reach *= self.path_gains
        return reach.max(axis=-1) * (1.0 + 1e-6)

    def state(self, frame: int) -> np.ndarray:
        """Power gains |H|^2 of one frame, shape (K, N)."""
        return self.block(frame, 1)[0]
