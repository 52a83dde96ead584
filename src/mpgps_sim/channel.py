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
        return (cfg.ref_distance_m / d) ** cfg.pathloss_exp * 10.0 ** (self.shadow_db / 10.0)


def draw_geometry(cfg: SystemConfig, rng: np.random.Generator) -> list[UserGeometry]:
    """Drop users uniformly over the cell disc with independent shadowing."""
    radius = cfg.cell_radius_m * np.sqrt(rng.random(cfg.K))
    shadow = rng.normal(0.0, cfg.shadow_std_db, cfg.K)
    return [UserGeometry(float(d), float(s)) for d, s in zip(radius, shadow)]


@dataclass(frozen=True)
class LinkBudget:
    """Per-user SNR requirement and the common noise floor."""

    gamma: np.ndarray            # linear SNR meeting the BER target, per user
    noise_power: float           # W per subcarrier


def link_budget(cfg: SystemConfig) -> LinkBudget:
    g = snr_target(cfg.target_ber, cfg.r)
    return LinkBudget(gamma=np.full(cfg.K, g), noise_power=cfg.noise_power)


@dataclass
class ChannelState:
    """Per-frame channel realisation: power gains |H|^2, shape (K, N)."""

    frame: int
    gains: np.ndarray


class ChannelProcess:
    """Deterministic per-frame channel generator.

    With time_corr == 0 every frame is an independent draw keyed by
    (seed, frame index), so states can be regenerated in any order and are
    bit-identical across runs. With time_corr > 0 taps evolve as an AR(1)
    process and frames must be visited in order (the process caches the last
    state and replays from scratch if asked to jump).
    """

    def __init__(self, cfg: SystemConfig, geometry: list[UserGeometry] | None = None):
        self.cfg = cfg
        rng = np.random.default_rng([cfg.seed, 11])
        self.geometry = geometry if geometry is not None else draw_geometry(cfg, rng)
        profile = np.exp(-np.arange(cfg.taps) / cfg.tap_decay)
        self._tap_std = np.sqrt(profile / profile.sum() / 2.0)   # per real component
        self._large = np.array([g.path_gain(cfg) for g in self.geometry])
        self._last_frame: int | None = None
        self._last_taps: np.ndarray | None = None

    def _draw_taps(self, frame: int) -> np.ndarray:
        rng = np.random.default_rng([self.cfg.seed, 37, frame])
        shape = (self.cfg.K, self.cfg.taps)
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * self._tap_std

    def _taps_for(self, frame: int) -> np.ndarray:
        rho = self.cfg.time_corr
        if rho == 0.0:
            return self._draw_taps(frame)
        if self._last_frame is None or frame < self._last_frame:
            self._last_frame, self._last_taps = 0, self._draw_taps(0)
        while self._last_frame < frame:
            self._last_frame += 1
            w = self._draw_taps(self._last_frame)
            self._last_taps = rho * self._last_taps + math.sqrt(1.0 - rho * rho) * w
        return self._last_taps

    def state(self, frame: int) -> ChannelState:
        taps = self._taps_for(frame)
        h = np.fft.fft(taps, n=self.cfg.N, axis=1)
        gains = (h.real ** 2 + h.imag ** 2) * self._large[:, None]
        return ChannelState(frame=frame, gains=gains)
