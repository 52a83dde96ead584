"""Downlink channel statistics, SNR targets, and the packet-error model.

Small-scale fading is frequency selective: each user sees a tapped delay
line of independent complex-Gaussian taps with an exponentially decaying
power profile, transformed to per-subcarrier gains. Large-scale attenuation
combines distance-based path loss with log-normal shadowing. The modulation
abstraction is a single exponential BER curve parameterised by the
constellation rate, inverted to obtain the SNR that meets a BER target.
"""
from __future__ import annotations

import functools
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


# Indices per stream whose keys are hashed in one numpy pass, in chunks
# aligned to multiples of it. numpy's per-call overhead sets the cost: a
# call takes a near-flat ~0.1-0.23 ms whether it hashes 16 keys or 768. So
# one call per chunk hashes the keys of all of STREAM_TAGS, and a run of up
# to 256 frames and 256 flows pays one call for its arrivals, channel and
# packet errors; the indices of a chunk it never draws cost it next to
# nothing.
STREAM_CHUNK = 256

# The tags of a run's keyed streams, each keyed (seed, tag, index): arrivals
# (23, indexed by flow), channel taps (37) and packet errors (53, both
# indexed by frame).
STREAM_TAGS = (23, 37, 53)

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


def _seed_sequence_states(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for every key of a
    stack, shape (keys, 4).

    ``entropy`` holds each key's 32-bit words in order, one uint32 array per
    word position; the arrays broadcast against each other, so a word that
    every key shares is a shape-(1,) array. The same uint32 arithmetic as
    numpy's loop, run over the key column. The hash constants depend on no
    data, so they stay Python ints.
    """
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


@functools.lru_cache(maxsize=4)
def _stream_keys(seed: int, lo: int) -> np.ndarray:
    """The hashed keys (seed, tag, i) of every tag of STREAM_TAGS and every
    index i of the chunk from ``lo``, a multiple of STREAM_CHUNK in the
    one-word range: a read-only uint64 array (len(STREAM_TAGS), count, 4).

    One ``_seed_sequence_states`` call hashes them all. The keys depend on
    the seed alone, so the runs of one sweep replication, which share it,
    share the entries; four entries (~25 KB each) cover a run's arrival,
    channel and error streams in neighbouring chunks, whichever order they
    move in.
    """
    index = np.arange(lo, min(lo + STREAM_CHUNK, _MASK32 + 1), dtype=np.uint32)
    tags = np.repeat(np.array(STREAM_TAGS, dtype=np.uint32), len(index))
    words = [np.array([w], dtype=np.uint32) for w in _uint32_words(seed)]
    keys = _seed_sequence_states(words + [tags, np.tile(index, len(STREAM_TAGS))])
    keys = keys.reshape(len(STREAM_TAGS), len(index), 4)
    keys.flags.writeable = False
    return keys


class FrameStreams:
    """One random stream per index, keyed (seed, tag, index): a frame, or a
    flow for the arrivals. The tag is one of STREAM_TAGS.

    ``at(index)`` draws exactly what ``np.random.default_rng([seed, tag,
    index])`` draws, bit for bit, without hashing the key on each call: it
    reads the key from ``_stream_keys``, which hashes the keys of every tag
    of STREAM_TAGS a chunk of STREAM_CHUNK indices at a time, and loads the
    index's PCG64 state into this object's own Generator, which no other
    object shares. That Generator is valid until the next ``at``.
    ``uniforms(index, n)`` returns that stream's first n ``random()`` doubles
    as a list, without loading a Generator: from the same hashed key it runs
    the PCG64 generator (O'Neill's PCG XSL-RR 128/64) in Python ints, one
    LCG step and one output permutation a draw, and keeps the top 53 bits,
    as numpy's ``random`` does. Indices past the one-word range fall back to
    ``default_rng`` in both.
    """

    def __init__(self, seed: int, tag: int):
        self.seed, self.tag = int(seed), int(tag)
        self._row = STREAM_TAGS.index(self.tag)
        self._lo = 0
        self._keys = np.empty((0, 4), dtype=np.uint64)
        self._gen = np.random.Generator(np.random.PCG64(0))

    def _seeded(self, index: int) -> tuple[int, int]:
        """The seeded PCG64 (state, inc) of an index in the one-word range."""
        i = index - self._lo
        if not 0 <= i < len(self._keys):
            self._lo = index - index % STREAM_CHUNK
            self._keys = _stream_keys(self.seed, self._lo)[self._row]
            i = index - self._lo
        w0, w1, w2, w3 = self._keys[i].tolist()
        # pcg64_set_seed: inc = seq << 1 | 1, two LCG steps around adding the seed
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        return (((w0 << 64 | w1) + inc) * _PCG_MULT + inc) & _MASK128, inc

    def at(self, index: int) -> np.random.Generator:
        if not 0 <= index <= _MASK32:
            return np.random.default_rng([self.seed, self.tag, index])
        state, inc = self._seeded(index)
        self._gen.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
        return self._gen

    def uniforms(self, index: int, n: int) -> list[float]:
        """``np.random.default_rng([seed, tag, index]).random(n).tolist()``, bit for bit."""
        if not 0 <= index <= _MASK32:
            return np.random.default_rng([self.seed, self.tag, index]).random(n).tolist()
        state, inc = self._seeded(index)
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
        prev = self._last_taps
        for i in range(count):
            if prev is not None:
                taps[i] = rho * prev + fresh * taps[i]
            prev = taps[i]
        # a copy: a view would keep the whole returned stack alive
        self._last_taps = None if prev is None else prev.copy()
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
