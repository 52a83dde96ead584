"""Machine-speed calibration for timings taken on a shared host.

On a shared machine the same work can take twice as long from one half
minute to the next. The benchmark times a fixed kernel right before and after
each measurement and scales the measured time by ``NOMINAL_S / kernel time``,
so a timing reads as if the kernel had taken ``NOMINAL_S``.

The kernel imitates one simulated frame's mix of work (an event heap, per-flow
lists, a Rayleigh channel draw through an FFT, power inversion, and the small
argmin and fancy-indexing steps of an exchange solve) so that it slows down with the machine the way the simulator
does. It shares no code with the simulator, so a change to the simulator moves
the scaled time exactly as it moves the host time.
"""
from __future__ import annotations

import heapq
import time

# the kernel's time on a quiet 2-core x86 host (Python 3.11, numpy 2.4); load
# from other tenants there stretches it up to about twice as long
NOMINAL_S = 0.02
FRAMES = 100


def _kernel() -> float:
    import numpy as np
    rng = np.random.default_rng([7, 1])
    heap: list[tuple[float, int, int]] = []
    queues: list[list[tuple[float, int]]] = [[] for _ in range(10)]
    cols = np.arange(64)
    t = acc = 0.0
    for i in range(FRAMES):
        for k in range(10):
            t += 0.1
            heapq.heappush(heap, (t + k * 0.01, k, i))
            queues[k].append((t, i))
        g = [0] * 10
        for _, k, _ in (heapq.heappop(heap) for _ in range(4)):
            g[k] += 1
        taps = rng.normal(size=(10, 6)) + 1j * rng.normal(size=(10, 6))
        h = np.fft.fft(taps, n=64, axis=1)
        gains = h.real ** 2 + h.imag ** 2
        power = 1.0 / np.maximum(gains, 1e-12 * float(np.median(gains)))
        acc += float(power[np.argmin(power, axis=0), cols].sum()) + sum(g)
        # a few exchange-path relaxations over four active rows
        owner = np.argmin(power[:4], axis=0)
        for src in range(4):
            own = np.nonzero(owner == src)[0]
            if own.size:
                d = power[:4, own] - power[src, own][None, :]
                acc += float(d[np.arange(4), np.argmin(d, axis=1)].min())
    return acc


def kernel_seconds() -> float:
    """Host seconds one pass of the calibration kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(*kernel_times: float) -> float:
    """Factor turning a host time into a nominal-speed time."""
    return NOMINAL_S * len(kernel_times) / sum(kernel_times)
