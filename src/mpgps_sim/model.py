"""Domain types and frame arithmetic for the multi-server fair-queueing stack.

Time convention: the engine works in units of one OFDM symbol duration, so
frame boundaries land on exact integers and bound checks do not accumulate
drift. Seconds appear only at the interfaces (configs, metrics, logs).
"""
from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass


class NonIntegralFrame(ValueError):
    """A batch whose airtime does not come out as a whole number of symbols."""


class NonIntegralQuota(ValueError):
    """A per-user slot quota that does not divide evenly."""


@dataclass
class SystemConfig:
    """Static downlink parameters shared by every module.

    Defaults describe a 64-subcarrier QPSK downlink serving ten users, the
    working point used throughout the test suite.
    """

    K: int = 10                  # flows / users
    N: int = 64                  # subcarriers
    L: int = 1024                # packet size, bits
    r: int = 2                   # bits per subcarrier-symbol (QPSK)
    T_sym: float = 200e-6        # OFDM symbol duration, seconds
    M: int = 1                   # servers scheduled per batch
    M_max: int = 1               # adaptive-mode server ceiling
    U: int | None = None         # opportunistic window size (defaults to M)
    weights: tuple[float, ...] | None = None   # fair-share weights, default equal
    target_ber: float = 1e-6
    N0: float = 4e-21            # one-sided noise density, W/Hz
    B: float | None = None       # subcarrier bandwidth, Hz (default 1/T_sym)
    deadline: float = 0.040      # seconds; math.inf disables dropping
    seed: int = 1
    # Large-scale and small-scale channel model.
    cell_radius_m: float = 50.0
    ref_distance_m: float = 1.0
    pathloss_exp: float = 4.0
    shadow_std_db: float = 6.0
    taps: int = 6                # power-delay-profile length
    tap_decay: float = 1.0       # exponential decay constant, in taps
    time_corr: float = 0.0       # AR(1) tap correlation between frames
    power_budget: float | None = None   # cap on mean frame power, W

    def __post_init__(self):
        if min(self.K, self.N, self.L, self.r) < 1:
            raise ValueError("K, N, L, r must be positive")
        if self.L % self.r:
            raise ValueError("packet size must be a whole number of subcarrier-symbols (L mod r = 0)")
        if not 0 < self.T_sym < math.inf:
            raise ValueError("T_sym must be positive and finite")
        if self.M < 1 or self.M_max < 1:
            raise ValueError("M and M_max must be at least 1")
        if self.U is None:
            self.U = max(self.M, self.M_max)
        if self.U < max(self.M, 1):
            raise ValueError("window size U must be at least M")
        if self.weights is None:
            self.weights = (1.0,) * self.K
        else:
            self.weights = tuple(float(w) for w in self.weights)
        if len(self.weights) != self.K:
            raise ValueError("need one weight per flow")
        if not all(math.isfinite(w) and w > 0 for w in self.weights):
            raise ValueError("weights must be positive and finite")
        if not 0.0 < self.target_ber < 1.0:
            raise ValueError("target_ber must lie in (0, 1)")
        if self.B is None:
            self.B = 1.0 / self.T_sym
        for name in ("N0", "B", "cell_radius_m", "ref_distance_m", "tap_decay"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.shadow_std_db < math.inf:
            raise ValueError("shadow_std_db must be finite and nonnegative")
        if not math.isfinite(self.pathloss_exp):
            raise ValueError("pathloss_exp must be finite")
        if not self.deadline > 0:
            raise ValueError("deadline must be positive (use math.inf to disable)")
        if self.taps < 1:
            raise ValueError("need at least one channel tap")
        if not 0.0 <= self.time_corr < 1.0:
            raise ValueError("time_corr must lie in [0, 1)")
        if self.power_budget is not None and not 0 < self.power_budget < math.inf:
            raise ValueError("power_budget must be positive and finite when set")
        # numpy seeds every random stream from it, and takes no other kind
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")

    @property
    def bits_per_symbol(self) -> int:
        """Aggregate service rate in bits per OFDM symbol."""
        return self.N * self.r

    @property
    def noise_power(self) -> float:
        """Noise power in one subcarrier, W."""
        return self.N0 * self.B

    @property
    def deadline_symbols(self) -> float:
        return self.deadline / self.T_sym


@dataclass(slots=True)
class Packet:
    flow: int
    seq: int
    arrival: float               # symbols
    bits: int
    vstart: float = 0.0
    vfinish: float = 0.0
    deadline_at: float = math.inf   # symbols
    index: int = -1              # arrival order within a run


class FlowQueue:
    """FIFO queue for one flow. Selection only ever takes head-consecutive packets."""

    def __init__(self, flow: int):
        self.flow = flow
        self.fifo: deque[Packet] = deque()

    def __len__(self) -> int:
        return len(self.fifo)

    def push(self, packet: Packet) -> None:
        self.fifo.append(packet)

    def requeue_front(self, packet: Packet) -> None:
        # Failed transmissions go back as head-of-line, keeping their stamps.
        self.fifo.appendleft(packet)

    def pop_front(self) -> Packet:
        return self.fifo.popleft()


def frame_length(g, cfg: SystemConfig) -> int:
    """Airtime in symbols of a batch with composition ``g``.

    The batch carries ``sum(g)`` packets of L bits over N subcarriers at r bits
    each, which must fill a whole number of OFDM symbols.
    """
    total = sum(g)
    if total < 1:
        raise ValueError("empty batch")
    if any(x < 0 for x in g):
        raise ValueError("negative packet count")
    num = cfg.L * total
    den = cfg.bits_per_symbol
    if num % den:
        raise NonIntegralFrame(
            f"batch of {total} packets of {cfg.L} bits does not fill whole symbols "
            f"at {den} bits/symbol")
    return num // den


def subcarrier_quota(g_k: int, group: int, n_subcarriers: int, m_sel: int) -> int:
    """Subcarrier-symbol slots owed to one flow inside a group of ``group`` symbols."""
    if m_sel < 1:
        raise ValueError("m_sel must be positive")
    num = g_k * group * n_subcarriers
    if num % m_sel:
        raise NonIntegralQuota(
            f"quota {g_k}*{group}*{n_subcarriers}/{m_sel} is not an integer")
    return num // m_sel


def group_size(airtime: int, g, n_subcarriers: int) -> int:
    """Smallest divisor of the frame airtime giving every flow an integral quota.

    The frame repeats one group assignment airtime/group times; the group must
    split the N*group slots into whole per-flow quotas.
    """
    m_sel = sum(g)
    for cand in range(1, airtime + 1):
        if airtime % cand:
            continue
        if all((g_k * cand * n_subcarriers) % m_sel == 0 for g_k in g):
            return cand
    raise NonIntegralQuota(f"no divisor of {airtime} yields integral quotas for {tuple(g)}")
