"""Scenario runner: configs in, CSV artifacts out.

Three subcommands share one JSON config format:

* ``run``          execute the configured scenario grid and write metrics
* ``check-bounds`` run every grid point in verification mode and report
                   analytic bound vs worst observation
* ``sweep``        like run, with extra grid axes given as ``--axis M=1:6``

Exit codes: 0 success, 1 config error, 2 bound violation, 3 runtime failure.
Flags beat the MPGPS_SIM_SEED / MPGPS_SIM_OUT environment variables, which
beat the config file.  All CSV output is deterministic for a given resolved
config: rows are ordered by grid index and replication, floats are written
with repr, and every table carries the config hash.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

import jsonschema
import numpy as np

from .engine import Engine, TrafficModel
from .model import SystemConfig
from .scheduling import AMPGPS, MODES, MPGPS, OMPGPS, PGPS, BoundViolation

log = logging.getLogger("mpgps_sim.cli")


@dataclass(frozen=True)
class FigureSpec:
    """One figure table drawn from the aggregate rows.

    Each row is (config_hash, mode, *x, *values); rows sort by mode, then x.
    """

    x: tuple[str, ...]                       # axis columns; "M" is the server count
    values: tuple[tuple[str, str, float], ...]   # (column, aggregate key, scale)
    need: str | None = None                  # skip aggregate rows without this column
    power_gain: bool = False                 # append power_gain_db


_MS = 1e3                                    # seconds to milliseconds

FIGURES = {
    "fig2_power_vs_M.csv": FigureSpec(
        ("M", "U"), (("per_bit_power_w", "per_bit_power_mean", 1.0),),
        power_gain=True),
    "fig3_delay_vs_M.csv": FigureSpec(
        ("M",), (("avg_delay_ms_mean", "avg_delay_mean", _MS),
                 ("avg_delay_ms_std", "avg_delay_std", _MS))),
    "fig4_fairness_vs_U.csv": FigureSpec(
        ("U",), (("fairness_bits_mean", "fairness_mean", 1.0),
                 ("fairness_bits_std", "fairness_std", 1.0)), need="U"),
    "fig5_loss_vs_U.csv": FigureSpec(
        ("U",), (("loss_rate_mean", "loss_rate_mean", 1.0),
                 ("loss_rate_std", "loss_rate_std", 1.0)), need="U"),
    "fig6_power_vs_MU.csv": FigureSpec(
        ("M", "U"), (("per_bit_power_w", "per_bit_power_mean", 1.0),),
        power_gain=True),
    "fig7_pareto.csv": FigureSpec(
        ("M", "U"), (("per_bit_power_w", "per_bit_power_mean", 1.0),
                     ("avg_delay_ms", "avg_delay_mean", _MS))),
    "fig8_throughput_vs_ebn0.csv": FigureSpec(
        ("power_budget_db",), (("eb_n0_db_mean", "eb_n0_db_mean", 1.0),
                               ("throughput_mean", "throughput_mean", 1.0)),
        need="power_budget_db"),
    "fig9_loss_vs_power.csv": FigureSpec(
        ("power_budget_db",), (("loss_rate_mean", "loss_rate_mean", 1.0),),
        need="power_budget_db"),
}

_NUMBER = {"type": "number"}
_POS_NUMBER = {"type": "number", "exclusiveMinimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_AXIS = {"oneOf": [{"type": "array", "items": _NUMBER, "minItems": 1},
                   {"type": "string"}]}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "K": _POS_INT, "N": _POS_INT, "L": _POS_INT, "r": _POS_INT,
                "T_sym": _POS_NUMBER, "M": _POS_INT, "M_max": _POS_INT,
                "U": {"oneOf": [_POS_INT, {"type": "null"}]},
                "weights": {"oneOf": [{"type": "array", "items": _POS_NUMBER},
                                      {"type": "null"}]},
                "target_ber": {"type": "number", "exclusiveMinimum": 0,
                               "exclusiveMaximum": 1},
                "N0": _POS_NUMBER,
                "B": {"oneOf": [_POS_NUMBER, {"type": "null"}]},
                "deadline": {"oneOf": [_POS_NUMBER,
                                       {"type": "string", "enum": ["inf"]},
                                       {"type": "null"}]},
                "seed": {"type": "integer", "minimum": 0},
                "cell_radius_m": _POS_NUMBER, "ref_distance_m": _POS_NUMBER,
                "pathloss_exp": _NUMBER, "shadow_std_db": {"type": "number", "minimum": 0},
                "taps": _POS_INT, "tap_decay": _POS_NUMBER,
                "time_corr": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "power_budget": {"oneOf": [_POS_NUMBER, {"type": "null"}]},
            },
        },
        "traffic": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rate_bps": {"oneOf": [_POS_NUMBER,
                                       {"type": "array", "items": _POS_NUMBER,
                                        "minItems": 1}]},
                "bucket": {"oneOf": [
                    {"type": "object", "additionalProperties": False,
                     "required": ["burst_bits", "rate_bps"],
                     "properties": {"burst_bits": _POS_NUMBER,
                                    "rate_bps": _POS_NUMBER}},
                    {"type": "null"}]},
                "infinite_backlog": {"type": "boolean"},
            },
        },
        "run": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"type": "string", "enum": list(MODES)},
                "horizon_symbols": _POS_NUMBER,
                "replications": _POS_INT,
                "warmup_frac": {"type": "number", "minimum": 0,
                                "exclusiveMaximum": 1},
                "error_free": {"type": "boolean"},
                "max_frames": {"oneOf": [_POS_INT, {"type": "null"}]},
                "collect_events": {"type": "boolean"},
                "fairness": {"type": "boolean"},
                "fairness_window_s": _POS_NUMBER,
                "out": {"type": "string"},
                "workers": _POS_INT,
                "gnuplot": {"type": "boolean"},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "modes": {"type": "array", "minItems": 1,
                          "items": {"type": "string", "enum": list(MODES)}},
                "M": _AXIS, "U": _AXIS, "M_max": _AXIS,
                "power_budget_db": {"type": "array", "items": _NUMBER,
                                    "minItems": 1},
            },
        },
        "figures": {"type": "array",
                    "items": {"type": "string", "enum": list(FIGURES)}},
    },
}


class ConfigError(Exception):
    pass


@dataclass
class Scenario:
    system: dict
    traffic: dict
    mode_list: list[str]
    m_axis: list[int] | None
    u_axis: list[int] | None
    mmax_axis: list[int] | None
    budget_db_axis: list[float] | None
    replications: int
    horizon: float
    warmup_frac: float
    error_free: bool
    max_frames: int | None
    collect_events: bool
    fairness: bool
    fairness_window_s: float
    out: str
    workers: int
    gnuplot: bool
    figures: list[str]
    config_hash: str = ""


@dataclass
class Point:
    """One grid point: a mode plus config overrides."""

    index: int
    mode: str
    overrides: dict
    budget_db: float | None = None
    baseline_power: float | None = None

    def label(self) -> dict:
        return {"mode": self.mode, **{k: self.overrides.get(k, "")
                                      for k in ("M", "M_max", "U")},
                "power_budget_db": "" if self.budget_db is None else self.budget_db}


def parse_axis_values(text: str, integer: bool = True) -> list:
    """Accept '1:6', '1:6:2', or '1,2,4' forms."""
    cast = int if integer else float
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3) or not all(parts):
            raise ConfigError(f"bad axis range {text!r}")
        lo, hi = cast(parts[0]), cast(parts[1])
        step = cast(parts[2]) if len(parts) == 3 else 1
        if step <= 0 or hi < lo:
            raise ConfigError(f"bad axis range {text!r}")
        out, v = [], lo
        while v <= hi + (0 if integer else 1e-12):
            out.append(cast(v))
            v += step
        return out
    try:
        return [cast(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"bad axis list {text!r}") from exc


def _axis_list(raw, integer: bool = True) -> list | None:
    if raw is None:
        return None
    if isinstance(raw, str):
        return parse_axis_values(raw, integer)
    return [int(v) if integer else float(v) for v in raw]


def _finite_number(text: str) -> float:
    # the schema cannot catch NaN, which fails no comparison
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {text}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite_number,
                            parse_constant=_finite_number)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(cfg, SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected by schema: {exc.message}") from exc
    return cfg


def build_scenario(config: dict, args: argparse.Namespace) -> Scenario:
    system = dict(config.get("system", {}))
    traffic = dict(config.get("traffic", {}))
    run = dict(config.get("run", {}))
    sweep = dict(config.get("sweep", {}))

    if system.get("deadline") in ("inf", None) and "deadline" in system:
        system["deadline"] = math.inf

    env_seed = os.environ.get("MPGPS_SIM_SEED")
    if env_seed is not None:
        try:
            system["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError("MPGPS_SIM_SEED must be an integer") from exc
    if getattr(args, "seed", None) is not None:
        system["seed"] = args.seed

    out = run.get("out", "results")
    out = os.environ.get("MPGPS_SIM_OUT", out)
    if getattr(args, "out", None) is not None:
        out = args.out

    mode_list = sweep.get("modes") or [run.get("mode", MPGPS)]
    if getattr(args, "mode", None) is not None:
        mode_list = [args.mode]

    replications = run.get("replications", 1)
    if getattr(args, "replications", None) is not None:
        replications = args.replications
    workers = run.get("workers", 1)
    if getattr(args, "workers", None) is not None:
        workers = args.workers

    m_axis = _axis_list(sweep.get("M"))
    u_axis = _axis_list(sweep.get("U"))
    mmax_axis = _axis_list(sweep.get("M_max"))
    budget_axis = _axis_list(sweep.get("power_budget_db"), integer=False)
    for axis_txt in getattr(args, "axis", None) or []:
        name, _, values = axis_txt.partition("=")
        if not values:
            raise ConfigError(f"--axis needs NAME=VALUES, got {axis_txt!r}")
        if name == "M":
            m_axis = parse_axis_values(values)
        elif name == "U":
            u_axis = parse_axis_values(values)
        elif name == "M_max":
            mmax_axis = parse_axis_values(values)
        elif name in ("P", "power_budget_db"):
            budget_axis = parse_axis_values(values, integer=False)
        else:
            raise ConfigError(f"unknown sweep axis {name!r}")

    if traffic.get("infinite_backlog") and not run.get("max_frames"):
        raise ConfigError("infinite_backlog traffic needs run.max_frames")

    scenario = Scenario(
        system=system, traffic=traffic, mode_list=list(mode_list),
        m_axis=m_axis, u_axis=u_axis, mmax_axis=mmax_axis,
        budget_db_axis=budget_axis,
        replications=int(replications),
        horizon=float(run.get("horizon_symbols", 1_000_000)),
        warmup_frac=float(run.get("warmup_frac", 0.05)),
        error_free=bool(run.get("error_free", False)),
        max_frames=run.get("max_frames"),
        collect_events=bool(run.get("collect_events", False)),
        fairness=bool(run.get("fairness", False)),
        fairness_window_s=float(run.get("fairness_window_s", 0.100)),
        out=out, workers=int(workers),
        gnuplot=bool(run.get("gnuplot", False)),
        figures=list(config.get("figures", [])))
    resolved = {
        "system": {k: (repr(v) if isinstance(v, float) else v)
                   for k, v in sorted(system.items())},
        "traffic": traffic, "modes": scenario.mode_list,
        "axes": {"M": m_axis, "U": u_axis, "M_max": mmax_axis,
                 "P": budget_axis},
        "replications": scenario.replications, "horizon": scenario.horizon,
        "warmup": scenario.warmup_frac, "error_free": scenario.error_free,
        "max_frames": scenario.max_frames,
        "fairness_window_s": scenario.fairness_window_s,
        "figures": scenario.figures,
    }
    scenario.config_hash = hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode()).hexdigest()
    return scenario


def grid_points(scenario: Scenario) -> list[Point]:
    """Cartesian product of mode and axes, invalid combinations skipped."""
    points: list[Point] = []
    m_values = scenario.m_axis or [None]
    u_values = scenario.u_axis or [None]
    mmax_values = scenario.mmax_axis or [None]
    budgets = scenario.budget_db_axis or [None]
    idx = 0
    for mode in scenario.mode_list:
        for m in m_values:
            if mode == PGPS and m is not None and m != min(m_values):
                log.info("skip %s M=%s: single-server discipline", mode, m)
                continue
            for mm in mmax_values:
                for u in u_values:
                    if mode != OMPGPS and u is not None and u != u_values[0]:
                        log.info("skip %s U=%s: window only affects the "
                                 "opportunistic discipline", mode, u)
                        continue
                    overrides = {}
                    if m is not None:
                        if mode == AMPGPS:
                            overrides["M_max"] = m
                        else:
                            overrides["M"] = m
                    if mm is not None and mode == AMPGPS:
                        overrides["M_max"] = mm
                    if u is not None and mode == OMPGPS:
                        overrides["U"] = u
                    trial = {**scenario.system, **overrides}
                    try:
                        SystemConfig(**trial)
                    except (TypeError, ValueError) as exc:
                        log.info("skip %s %s: %s", mode, overrides, exc)
                        continue
                    for b in budgets:
                        points.append(Point(index=idx, mode=mode,
                                            overrides=overrides, budget_db=b))
                        idx += 1
    if not points:
        raise ConfigError("every grid point was invalid; nothing to run")
    return points


def _make_task(scenario: Scenario, point: Point, rep: int, *,
               check_bounds: bool, budget_w: float | None) -> dict:
    system = {**scenario.system, **point.overrides}
    system["seed"] = int(system.get("seed", 1)) + rep
    if budget_w is not None:
        system["power_budget"] = budget_w
    return {
        "system": system, "traffic": scenario.traffic, "mode": point.mode,
        "horizon": scenario.horizon, "warmup_frac": scenario.warmup_frac,
        "error_free": scenario.error_free, "max_frames": scenario.max_frames,
        "collect_events": scenario.collect_events and not check_bounds,
        "fairness": scenario.fairness and not check_bounds,
        "fairness_window_s": scenario.fairness_window_s,
        "verify": check_bounds,
        "point": point.index, "rep": rep, "budget_db": point.budget_db,
        "label": point.label(), "hash": scenario.config_hash,
    }


def _run_task(task: dict) -> dict:
    """Worker body: one engine, one run. Must stay importable for pickling."""
    cfg = SystemConfig(**task["system"])
    tr = task["traffic"]
    bucket = tr.get("bucket")
    traffic = TrafficModel(
        rate_bps=(tuple(tr["rate_bps"]) if isinstance(tr.get("rate_bps"), list)
                  else tr.get("rate_bps", 63000.0)),
        bucket=(bucket["burst_bits"], bucket["rate_bps"]) if bucket else None,
        infinite_backlog=bool(tr.get("infinite_backlog", False)))
    eng = Engine(cfg, traffic, task["mode"], task["horizon"],
                 warmup_frac=task["warmup_frac"], error_free=task["error_free"],
                 verify=task["verify"], max_frames=task["max_frames"],
                 collect_events=task["collect_events"],
                 collect_fairness=task["fairness"],
                 fairness_window_s=task["fairness_window_s"])
    bound_rows: list[dict] = []
    violation = False
    try:
        result = eng.run()
    except BoundViolation as exc:
        bound_rows.append({"check": "hard_assert", "bound": 0.0,
                           "observed": 1.0, "violations": 1,
                           "applicable": True, "note": str(exc)})
        return {"task": task, "row": None, "bounds": bound_rows,
                "events": None, "violation": True}
    if result.bounds is not None:
        for e in result.bounds.entries:
            bound_rows.append({"check": e.name, "bound": e.bound,
                               "observed": e.observed,
                               "violations": e.violations,
                               "applicable": e.applicable, "note": e.note})
            if e.applicable and e.violations:
                violation = True
    row = {"config_hash": task["hash"], "point": task["point"],
           **task["label"], "M": cfg.M, "M_max": cfg.M_max, "U": cfg.U,
           "seed": task["system"]["seed"], "replication": task["rep"],
           "horizon_symbols": task["horizon"], **result.metrics.as_dict()}
    events = None
    if task["collect_events"] and result.events is not None:
        t_sym = cfg.T_sym
        outcome = {"deliver": 1, "fail": 0}
        events = [{"time_s": ev.time * t_sym, "event": ev.kind,
                   "flow": ev.flow, "seq": ev.seq, "frame": ev.frame,
                   "outcome": outcome.get(ev.kind, "")}
                  for ev in result.events]
    return {"task": task, "row": row, "bounds": bound_rows,
            "events": events, "violation": violation}


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(row.get(col)) for col in header])


RUN_HEADER = ["config_hash", "point", "mode", "M", "M_max", "U",
              "power_budget_db", "seed", "replication", "horizon_symbols",
              "arrivals", "delivered", "dropped", "residual", "frames",
              "sim_time", "avg_delay", "loss_rate", "throughput", "avg_power",
              "per_bit_power", "eb_n0_db", "fairness", "bound_violations"]

BOUND_HEADER = ["config_hash", "point", "mode", "M", "M_max", "U",
                "power_budget_db", "seed", "replication", "check", "bound",
                "observed", "violations", "applicable", "note"]

_AGG_METRICS = ["avg_delay", "loss_rate", "throughput", "avg_power",
                "per_bit_power", "eb_n0_db", "fairness"]


def aggregate_rows(run_rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in run_rows:
        key = (row["point"], row["mode"], row["M"], row["M_max"], row["U"],
               row["power_budget_db"])
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: k[0]):
        rows = groups[key]
        agg = {"config_hash": rows[0]["config_hash"], "point": key[0],
               "mode": key[1], "M": key[2], "M_max": key[3], "U": key[4],
               "power_budget_db": key[5], "n": len(rows)}
        for metric in _AGG_METRICS:
            vals = np.array([row[metric] for row in rows], dtype=float)
            finite = vals[np.isfinite(vals)]
            agg[f"{metric}_mean"] = float(finite.mean()) if finite.size else float("nan")
            agg[f"{metric}_std"] = float(finite.std()) if finite.size else float("nan")
        out.append(agg)
    return out


AGG_HEADER = (["config_hash", "point", "mode", "M", "M_max", "U",
               "power_budget_db", "n"]
              + [f"{m}_{s}" for m in _AGG_METRICS for s in ("mean", "std")])


# -- figure emitters ----------------------------------------------------------

def _power_gain_column(rows: list[dict]) -> None:
    ref = max((r["per_bit_power_w"] for r in rows
               if isinstance(r["per_bit_power_w"], float)
               and math.isfinite(r["per_bit_power_w"])), default=float("nan"))
    for r in rows:
        p = r["per_bit_power_w"]
        r["power_gain_db"] = (10.0 * math.log10(ref / p)
                              if math.isfinite(ref) and isinstance(p, float)
                              and math.isfinite(p) and p > 0 else float("nan"))


def _servers_axis(row: dict):
    """The x-value a server-count sweep varies: M_max for the adaptive mode."""
    return row["M_max"] if row["mode"] == AMPGPS else row["M"]


def _figure_rows(spec: FigureSpec, agg: list[dict]) -> tuple[list[str], list[dict]]:
    rows = []
    for r in agg:
        if spec.need is not None and r.get(spec.need) in ("", None):
            continue
        row = {"config_hash": r["config_hash"], "mode": r["mode"]}
        for col in spec.x:
            row[col] = _servers_axis(r) if col == "M" else r[col]
        for col, key, scale in spec.values:
            row[col] = r[key] * scale
        rows.append(row)
    # budgets sort numerically; server and window counts sort as text
    rows.sort(key=lambda row: (row["mode"], *(
        float(row[c]) if c == "power_budget_db" else str(row[c]) for c in spec.x)))
    header = ["config_hash", "mode", *spec.x, *(col for col, _, _ in spec.values)]
    if spec.power_gain:
        _power_gain_column(rows)
        header.append("power_gain_db")
    return header, rows


def write_figures(scenario: Scenario, agg: list[dict]) -> list[str]:
    written = []
    for name in scenario.figures:
        header, rows = _figure_rows(FIGURES[name], agg)
        if not rows:
            log.warning("figure %s skipped: the grid has no data for it", name)
            continue
        path = os.path.join(scenario.out, name)
        write_csv(path, header, rows)
        written.append(name)
    if scenario.gnuplot and written:
        _write_gnuplot(scenario, written)
    return written


def _write_gnuplot(scenario: Scenario, names: list[str]) -> None:
    lines = ["set datafile separator ','", "set key autotitle columnhead", ""]
    for name in names:
        png = name.replace(".csv", ".png")
        lines += [f"set output '{png}'", "set terminal png size 800,600",
                  f"plot '{name}' using 3:5 with linespoints", ""]
    with open(os.path.join(scenario.out, "plots.gp"), "w") as fh:
        fh.write("\n".join(lines))


# -- execution ----------------------------------------------------------------

def _calibrate_budgets(scenario: Scenario, points: list[Point]) -> None:
    """Resolve dB budgets into watts against each point's unconstrained power."""
    if scenario.budget_db_axis is None:
        return
    baselines: dict[tuple, float] = {}
    for point in points:
        key = (point.mode, tuple(sorted(point.overrides.items())))
        if key in baselines:
            point.baseline_power = baselines[key]
            continue
        task = _make_task(scenario, point, 0, check_bounds=False, budget_w=None)
        task["collect_events"] = False
        task["fairness"] = False
        out = _run_task(task)
        power = out["row"]["avg_power"] if out["row"] else float("nan")
        baselines[key] = power
        point.baseline_power = power
        log.info("calibration %s %s: mean power %.3g W", point.mode,
                 point.overrides, power)


def _budget_watts(point: Point) -> float | None:
    if point.budget_db is None:
        return None
    base = point.baseline_power
    if base is None or not math.isfinite(base):
        return None
    return base * 10.0 ** (point.budget_db / 10.0)


def execute(scenario: Scenario, check_bounds: bool = False) -> int:
    points = grid_points(scenario)
    _calibrate_budgets(scenario, points)
    tasks = [_make_task(scenario, p, rep, check_bounds=check_bounds,
                        budget_w=_budget_watts(p))
             for p in points for rep in range(scenario.replications)]
    os.makedirs(scenario.out, exist_ok=True)
    results: dict[tuple, dict] = {}
    interrupted = False
    try:
        if scenario.workers > 1:
            with ProcessPoolExecutor(max_workers=scenario.workers) as pool:
                futures = {pool.submit(_run_task, t): t for t in tasks}
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for fut in done:
                        out = fut.result()
                        t = out["task"]
                        results[(t["point"], t["rep"])] = out
        else:
            for t in tasks:
                out = _run_task(t)
                results[(t["point"], t["rep"])] = out
    except KeyboardInterrupt:
        interrupted = True
        log.warning("interrupted: flushing %d completed runs", len(results))

    run_rows, bound_rows, violation = [], [], False
    for key in sorted(results):
        out = results[key]
        t = out["task"]
        if out["row"] is not None:
            run_rows.append(out["row"])
        for b in out["bounds"]:
            bound_rows.append({"config_hash": t["hash"], "point": t["point"],
                               **t["label"], "seed": t["system"]["seed"],
                               "replication": t["rep"], **b})
        violation = violation or out["violation"]
        if out["events"] is not None:
            suffix = ("" if len(points) == 1 and scenario.replications == 1
                      else f"_p{t['point']}_r{t['rep']}")
            write_csv(os.path.join(scenario.out, f"events{suffix}.csv"),
                      ["time_s", "event", "flow", "seq", "frame", "outcome"],
                      out["events"])

    write_csv(os.path.join(scenario.out, "runs.csv"), RUN_HEADER, run_rows)
    if not interrupted:
        agg = aggregate_rows(run_rows)
        write_csv(os.path.join(scenario.out, "aggregate.csv"), AGG_HEADER, agg)
        figures = write_figures(scenario, agg)
    else:
        figures = []
    if check_bounds:
        write_csv(os.path.join(scenario.out, "bounds.csv"), BOUND_HEADER,
                  bound_rows)
        for row in bound_rows:
            state = "FAIL" if (row["applicable"] and row["violations"]) else "pass"
            print(f"[{state}] point {row['point']} {row['mode']} {row['check']}: "
                  f"observed {row['observed']} vs bound {row['bound']}")
    print(f"wrote {len(run_rows)} run rows to {scenario.out}/runs.csv"
          + (f" (+{len(figures)} figure files)" if figures else ""))
    if interrupted:
        return 3
    if check_bounds and violation:
        return 2
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpgps-sim",
        description="Multi-server fair-queueing downlink simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="JSON scenario file")
        p.add_argument("--seed", type=int, help="override base seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--replications", type=int)
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--workers", type=int)
        p.add_argument("-v", "--verbose", action="store_true")

    p_run = sub.add_parser("run", help="execute the configured scenario")
    common(p_run)
    p_chk = sub.add_parser("check-bounds",
                           help="verification mode: analytic bounds vs observations")
    common(p_chk)
    p_swp = sub.add_parser("sweep", help="run with extra grid axes")
    common(p_swp)
    p_swp.add_argument("--axis", action="append", metavar="NAME=VALUES",
                       help="e.g. M=1:6 or U=2,4,6 or P=-6:0:2 (dB budgets)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config)
        scenario = build_scenario(config, args)
        return execute(scenario, check_bounds=args.command == "check-bounds")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 3
    except Exception as exc:                    # noqa: BLE001 - CLI boundary
        log.exception("run failed: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
