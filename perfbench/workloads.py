"""Benchmark workloads: fixed simulator inputs, one timed operation per drop.

A workload is a config from ``workloads.json``. A *drop* is one instance of
it: the config with one simulator seed (user placement, fading, arrivals).
The benchmark seed picks ``drops_per_run`` drops out of a pool of
``pool`` seeds, so the same benchmark seed always gives the same inputs and
every drop has a reference recorded by ``record_reference.py``.

This module imports neither numpy nor the simulator at import time, so the
set-up probe can time those imports.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

# relative tolerance for float statistics against the reference
REL_TOL = 1e-9
# bound observations are gaps that can be pure roundoff; they get the engine's
# absolute slack for bound comparisons (symbols or bits) instead
ABS_TOL = {"observed": 1e-6}


def load_specs() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def drop_seeds(name: str, spec: dict, seed: int, limit: int | None = None) -> list[int]:
    """The simulator seeds one benchmark run uses, drawn from the pool."""
    rng = random.Random(f"{name}:{seed}")
    seeds = sorted(rng.sample(range(1, spec["pool"] + 1), spec["drops_per_run"]))
    return seeds[:limit] if limit else seeds


def _num(x) -> float | None:
    """A float statistic as stored in the reference; NaN becomes None."""
    x = float(x)
    return None if math.isnan(x) else x


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


class EngineWorkload:
    """One ``Engine`` per drop, driven through the library API."""

    def __init__(self, name: str, spec: dict):
        self.name = name
        self.spec = spec

    def write_inputs(self, seeds: list[int]) -> None:
        pass

    def setup(self, seed: int):
        from mpgps_sim import Engine, SystemConfig, TrafficModel
        s = self.spec
        cfg = SystemConfig(**s["system"], seed=seed)
        return Engine(cfg, TrafficModel(**s["traffic"]), s["mode"],
                      s["horizon_symbols"], **s["engine"])

    def run(self, seed: int) -> tuple[float, dict]:
        eng = self.setup(seed)
        t0 = time.perf_counter()
        res = eng.run()
        elapsed = time.perf_counter() - t0
        m = res.metrics
        in_flight = len(eng.inflight.members) if eng.inflight else 0
        in_system = sum(len(q) for q in eng.queues) + in_flight
        conserved = (eng.n_arrivals == eng.n_delivered + eng.n_dropped + in_system
                     and m.arrivals == m.delivered + m.dropped + m.residual
                     and m.residual >= 0)
        return elapsed, {
            "frames": m.frames, "arrivals": m.arrivals, "delivered": m.delivered,
            "dropped": m.dropped, "residual": m.residual,
            "g_digest": _digest([list(f.g) for f in res.frames]),
            "avg_delay": _num(m.avg_delay), "per_bit_power": _num(m.per_bit_power),
            "avg_power": _num(m.avg_power), "fairness": _num(m.fairness),
            "conserved": conserved, "bounds_ok": True,
        }


class CliWorkload:
    """One ``mpgps-sim check-bounds`` call per drop, made in-process."""

    def __init__(self, name: str, spec: dict):
        self.name = name
        self.spec = spec
        self.workdir = RESULTS / "work" / name

    def _config(self, seed: int) -> Path:
        return self.workdir / f"scenario-{seed}.json"

    def _args(self, seed: int) -> list[str]:
        return ["check-bounds", str(self._config(seed)),
                "--out", str(self.workdir / f"out-{seed}")]

    def write_inputs(self, seeds: list[int]) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for seed in seeds:
            scenario = json.loads(json.dumps(self.spec["scenario"]))
            scenario["system"]["seed"] = seed
            self._config(seed).write_text(json.dumps(scenario, indent=1))

    def setup(self, seed: int):
        """What one CLI call builds before its first simulated event."""
        from mpgps_sim import Engine, SystemConfig, TrafficModel, cli
        args = cli.make_parser().parse_args(self._args(seed))
        scenario = cli.build_scenario(cli.load_config(args.config), args)
        return [Engine(SystemConfig(**{**scenario.system, **p.overrides}),
                       TrafficModel(**scenario.traffic), p.mode, scenario.horizon,
                       verify=True)
                for p in cli.grid_points(scenario)]

    def run(self, seed: int) -> tuple[float, dict]:
        from mpgps_sim import cli
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(self._args(seed))
        elapsed = time.perf_counter() - t0
        outdir = self.workdir / f"out-{seed}"
        with open(outdir / "runs.csv", newline="") as fh:
            runs = list(csv.DictReader(fh))
        with open(outdir / "bounds.csv", newline="") as fh:
            bounds = list(csv.DictReader(fh))
        points = [{
            "point": int(r["point"]), "mode": r["mode"], "M": int(r["M"]),
            **{k: int(r[k]) for k in ("frames", "arrivals", "delivered",
                                      "dropped", "residual")},
            **{k: _num(r[k]) for k in ("avg_delay", "per_bit_power",
                                       "avg_power", "fairness")},
        } for r in runs]
        checks = [{"point": int(b["point"]), "check": b["check"],
                   "applicable": b["applicable"] == "True",
                   "violations": int(b["violations"]),
                   "observed": _num(b["observed"])} for b in bounds]
        applicable = {c["point"] for c in checks if c["applicable"]}
        bounds_ok = (rc == 0 and "[FAIL]" not in out.getvalue()
                     and applicable == {p["point"] for p in points}
                     and all(c["violations"] == 0 for c in checks if c["applicable"]))
        # verification mode has no deadline, so nothing may be dropped
        conserved = all(p["arrivals"] == p["delivered"] + p["dropped"] + p["residual"]
                        and p["residual"] >= 0 and p["dropped"] == 0 for p in points)
        return elapsed, {
            "frames": sum(p["frames"] for p in points), "exit_code": rc,
            "points": points, "bounds": checks,
            "conserved": conserved, "bounds_ok": bounds_ok,
        }


def make(name: str, spec: dict):
    return {"engine": EngineWorkload, "cli": CliWorkload}[spec["kind"]](name, spec)


def compare(got, want, where: str = "", key: str = "") -> list[str]:
    """Differences of ``got`` from the reference ``want``.

    Integers, strings, booleans and digests must be equal; floats must agree
    to ``REL_TOL`` (or ``ABS_TOL`` for their key); a NaN statistic is stored
    as None and must stay NaN.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [p for k in want for p in compare(got[k], want[k], f"{where}.{k}", k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, f"{where}[{i}]", key)]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL.get(key, 0.0)):
            return []
    elif got == want and type(got) is type(want):
        return []
    return [f"{where}: got {got!r}, reference {want!r}"]


def check(stats: dict, reference: dict | None) -> list[str]:
    """Every reason the drop's output is wrong; empty when it is correct."""
    problems = []
    if not stats["conserved"]:
        problems.append("packet conservation failed")
    if not stats["bounds_ok"]:
        problems.append("a bound check failed or the CLI exited non-zero")
    if reference is None:
        problems.append("no reference recorded for this drop")
    else:
        problems += compare(stats, reference)
    return problems
