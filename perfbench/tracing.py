"""Outside-in span tracer for the simulator's layers.

The tracer wraps public functions and methods where their callers look them
up: a module attribute such as ``allocation.solve_transport`` (found through
the module's globals by ``allocate_frame``) or a class attribute such as
``ChannelProcess.state``. Each call records a span (name, start, end,
parent) in flat arrays kept in memory; leaving the ``with`` block restores
every original binding. A span's self time is its duration minus the durations of its direct
children, which nest inside it because the simulator is single-threaded.
"""
from __future__ import annotations

import os
import time
from array import array
from dataclasses import dataclass

import numpy as np

# spans with fewer calls than this report p99_us as 0
P99_MIN_CALLS = 1000


@dataclass(frozen=True)
class Target:
    span: str                    # layer.function name reported in metrics
    owner: object                # module or class whose attribute is rebound
    attr: str
    writes_file: bool = False    # first argument is a path; count its bytes


def layer_targets() -> list[Target]:
    """Every layer boundary the benchmark times, outermost callers first."""
    from mpgps_sim import (allocation, channel, cli, engine, metrics,
                           scheduling, virtual_time)
    return [
        Target("cli.load_config", cli, "load_config"),
        Target("cli.execute", cli, "execute"),
        Target("cli.write_csv", cli, "write_csv", writes_file=True),
        Target("engine.run", engine.Engine, "run"),
        Target("virtual_time.on_arrival", virtual_time.GpsReference, "on_arrival"),
        Target("virtual_time.drain", virtual_time.GpsReference, "drain"),
        Target("channel.state", channel.ChannelProcess, "state"),
        Target("channel.packet_error_rate", engine, "packet_error_rate"),
        Target("scheduling.select_mpgps", engine, "select_mpgps"),
        Target("scheduling.ompgps_schedule", scheduling, "ompgps_schedule"),
        Target("allocation.frame_powers", allocation, "frame_powers"),
        Target("allocation.composition_value", allocation, "composition_value"),
        Target("allocation.allocate_frame", allocation, "allocate_frame"),
        Target("allocation.solve_transport", allocation, "solve_transport"),
        Target("metrics.service_curves", metrics, "service_curves"),
        Target("metrics.fairness_metric", metrics, "fairness_metric"),
    ]


class Tracer:
    """Rebinds the targets to timing wrappers while installed."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names = [t.span for t in targets]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes_written = {t.span: 0 for t in targets if t.writes_file}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for i, t in enumerate(self.targets):
            original = t.owner.__dict__[t.attr]
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(i, t, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name_i: int, target: Target, fn):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        written = self.bytes_written

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(name_i)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
                if target.writes_file:
                    written[target.span] += os.path.getsize(args[0])

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, p50_us and p99_us of the duration."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        out = {}
        for k, name in enumerate(self.names):
            sel = a["name_id"] == k
            d = dur[sel]
            calls = int(d.size)
            out[name] = {
                "calls": calls,
                "self_s": float(self_t[sel].sum()),
                "p50_us": float(np.median(d)) * 1e6 if calls else 0.0,
                "p99_us": (float(np.percentile(d, 99)) * 1e6
                           if calls >= P99_MIN_CALLS else 0.0),
            }
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
