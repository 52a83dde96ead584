"""Independent oracles the tests check the simulator against.

``brute_force_ilp`` enumerates tiny transportation instances exhaustively,
the reference for the exact solver's optimality (acceptance criterion 5).
``gps_simulate`` runs the online fluid reference over a whole arrival trace.
"""
from __future__ import annotations

import math

import numpy as np

from mpgps_sim import TransportInstance
from mpgps_sim.virtual_time import GpsReference, GpsTrace


class InstanceTooLarge(ValueError):
    """Instance beyond the exhaustive enumeration bound."""


def brute_force_ilp(instance: TransportInstance) -> tuple[np.ndarray, float]:
    """Exhaustive slot-by-slot enumeration, the oracle for solver exactness.

    Slots of one column are interchangeable, so the enumeration only visits
    non-decreasing user sequences within a column; with branch-and-bound
    pruning that keeps the largest admitted instances well under a second.
    """
    k, n = instance.alpha.shape
    if k * n * instance.group > 36:
        raise InstanceTooLarge("enumeration bound is K*G*N <= 36")
    slots = [col for col in range(n) for _ in range(instance.group)]
    best_val = math.inf
    best: np.ndarray | None = None
    counts = np.zeros((k, n), dtype=np.int64)
    remaining = instance.quotas.copy()

    def descend(i: int, acc: float, low: int) -> None:
        nonlocal best_val, best
        if acc >= best_val:
            return
        if i == len(slots):
            best_val = acc
            best = counts.copy()
            return
        col = slots[i]
        start = low if i and slots[i - 1] == col else 0
        for user in range(start, k):
            if remaining[user] == 0:
                continue
            remaining[user] -= 1
            counts[user, col] += 1
            descend(i + 1, acc + instance.alpha[user, col], user)
            counts[user, col] -= 1
            remaining[user] += 1

    descend(0, 0.0, 0)
    assert best is not None
    return best, float(best_val)


def gps_simulate(arrivals, weights, rate: float) -> GpsTrace:
    """Run the fluid reference over a full arrival trace.

    ``arrivals`` is an iterable of packets (anything with flow, arrival, bits,
    and writable stamps) already sorted by arrival time. Stamps are written onto the packets
    as a side effect, exactly as the online reference would. The trace's
    departures follow the order of ``arrivals``.
    """
    ref = GpsReference(weights, rate, record=True)
    for pkt in arrivals:
        ref.on_arrival(pkt)
    ref.drain()
    return ref.trace()
