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
import itertools
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
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

    Each row is (config_hash, mode, *x, *values[, power_gain_db], point);
    rows sort by mode, then x.
    The gnuplot script draws the ``plot`` column pair, by default the first x
    column against the first value column.
    """

    x: tuple[str, ...]                       # axis columns; "M" is the server count
    values: tuple[tuple[str, str, float], ...]   # (column, aggregate key, scale)
    need: str | None = None                  # skip aggregate rows without this column
    power_gain: bool = False                 # append power_gain_db
    plot: tuple[str, str] | None = None      # (x column, y column) for gnuplot

    def header(self) -> list[str]:
        return ["config_hash", "mode", *self.x, *(col for col, _, _ in self.values),
                *(["power_gain_db"] if self.power_gain else []), "point"]


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
                 ("fairness_bits_std", "fairness_std", 1.0))),
    "fig5_loss_vs_U.csv": FigureSpec(
        ("U",), (("loss_rate_mean", "loss_rate_mean", 1.0),
                 ("loss_rate_std", "loss_rate_std", 1.0))),
    "fig6_power_vs_MU.csv": FigureSpec(
        ("M", "U"), (("per_bit_power_w", "per_bit_power_mean", 1.0),),
        power_gain=True),
    "fig7_pareto.csv": FigureSpec(
        ("M", "U"), (("per_bit_power_w", "per_bit_power_mean", 1.0),
                     ("avg_delay_ms", "avg_delay_mean", _MS)),
        plot=("per_bit_power_w", "avg_delay_ms")),
    "fig8_throughput_vs_ebn0.csv": FigureSpec(
        ("power_budget_db",), (("eb_n0_db_mean", "eb_n0_db_mean", 1.0),
                               ("throughput_mean", "throughput_mean", 1.0)),
        need="power_budget_db", plot=("eb_n0_db_mean", "throughput_mean")),
    "fig9_loss_vs_power.csv": FigureSpec(
        ("power_budget_db",), (("loss_rate_mean", "loss_rate_mean", 1.0),),
        need="power_budget_db"),
}

_NUMBER = {"type": "number"}
_POS_NUMBER = {"type": "number", "exclusiveMinimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_BOOL = {"type": "boolean"}
_AXIS = {"oneOf": [{"type": "array", "items": _NUMBER, "minItems": 1},
                   {"type": "string"}]}


@dataclass(frozen=True)
class RunOption:
    """One key of the ``run`` config section."""

    key: str
    schema: dict
    default: object
    engine: str | None = None    # the Engine keyword it sets; None: a CLI setting


RUN_OPTIONS = (
    RunOption("mode", {"type": "string", "enum": list(MODES)}, MPGPS),
    RunOption("horizon_symbols", _POS_NUMBER, 1_000_000, "horizon_symbols"),
    RunOption("replications", _POS_INT, 1),
    RunOption("warmup_frac", {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
              0.05, "warmup_frac"),
    RunOption("error_free", _BOOL, False, "error_free"),
    RunOption("max_frames", {"oneOf": [_POS_INT, {"type": "null"}]}, None,
              "max_frames"),
    RunOption("collect_events", _BOOL, False, "collect_events"),
    RunOption("fairness", _BOOL, False, "collect_fairness"),
    RunOption("fairness_window_s", _POS_NUMBER, 0.100, "fairness_window_s"),
    RunOption("out", {"type": "string"}, "results"),
    RunOption("workers", _POS_INT, 1),
    RunOption("gnuplot", _BOOL, False),
)

# JSON schema type -> the Python type a resolved option is stored as
_CAST = {"number": float, "integer": int, "boolean": bool}


@dataclass(frozen=True)
class Axis:
    """One sweep axis: its ``sweep`` config key and ``--axis`` name.

    ``field`` maps each discipline the axis varies to the ``SystemConfig``
    field it sets. Any other discipline runs at the axis's first value only.
    """

    name: str
    schema: dict
    field: dict[str, str]
    integer: bool = True
    alias: str | None = None


# sets no SystemConfig field: each point gets the budget, in dB against its
# own unconstrained mean power (see _calibrate_budgets)
BUDGET_AXIS = Axis("power_budget_db",
                   {"type": "array", "items": _NUMBER, "minItems": 1}, {},
                   integer=False, alias="P")
AXES = (
    # the adaptive discipline takes M as its ceiling M_max
    Axis("M", _AXIS, {PGPS: "M", MPGPS: "M", AMPGPS: "M_max", OMPGPS: "M"}),
    Axis("M_max", _AXIS, {AMPGPS: "M_max"}),
    Axis("U", _AXIS, {OMPGPS: "U"}),
    BUDGET_AXIS,
)

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
        "run": {"type": "object", "additionalProperties": False,
                "properties": {o.key: o.schema for o in RUN_OPTIONS}},
        "sweep": {"type": "object", "additionalProperties": False,
                  "properties": {"modes": {"type": "array", "minItems": 1,
                                           "items": {"type": "string",
                                                     "enum": list(MODES)}},
                                 **{a.name: a.schema for a in AXES}}},
        "figures": {"type": "array",
                    "items": {"type": "string", "enum": list(FIGURES)}},
    },
}


# checked against its metaschema by the tests, not on every load
_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


class ConfigError(Exception):
    pass


@dataclass
class Scenario:
    system: dict
    traffic: dict                # the raw ``traffic`` config section
    mode_list: list[str]
    axes: dict[str, list | None]     # axis name -> values; None: not swept
    engine: dict                 # Engine keywords from the ``run`` section
    replications: int
    out: str
    workers: int
    gnuplot: bool
    figures: list[str]
    config_hash: str = ""

    @property
    def horizon(self) -> float:
        return self.engine["horizon_symbols"]


@dataclass
class Point:
    """One grid point: a mode plus config overrides."""

    index: int
    mode: str
    overrides: dict
    budget_db: float | None = None
    baseline_power: float | None = None


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
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"config rejected by schema: {error.message}") from error
    return cfg


def build_scenario(config: dict, args: argparse.Namespace) -> Scenario:
    system = dict(config.get("system", {}))
    traffic = dict(config.get("traffic", {}))
    run_cfg = config.get("run", {})
    sweep = config.get("sweep", {})

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

    run = {o.key: run_cfg.get(o.key, o.default) for o in RUN_OPTIONS}
    run["out"] = os.environ.get("MPGPS_SIM_OUT", run["out"])
    for o in RUN_OPTIONS:
        # a command-line flag named like the key beats the config
        flag = getattr(args, o.key, None)
        value = run[o.key] if flag is None else flag
        run[o.key] = _CAST.get(o.schema.get("type"), lambda v: v)(value)
    mode_list = ([run["mode"]] if getattr(args, "mode", None) is not None
                 else sweep.get("modes") or [run["mode"]])

    axes = {a.name: _axis_list(sweep.get(a.name), a.integer) for a in AXES}
    by_flag = {n: a for a in AXES for n in (a.name, a.alias) if n}
    for axis_txt in getattr(args, "axis", None) or []:
        name, _, values = axis_txt.partition("=")
        if not values:
            raise ConfigError(f"--axis needs NAME=VALUES, got {axis_txt!r}")
        if name not in by_flag:
            raise ConfigError(f"unknown sweep axis {name!r}")
        axes[by_flag[name].name] = parse_axis_values(values, by_flag[name].integer)

    if traffic.get("infinite_backlog") and not run["max_frames"]:
        raise ConfigError("infinite_backlog traffic needs run.max_frames")
    if not traffic.get("infinite_backlog") and run["max_frames"] is not None:
        raise ConfigError("run.max_frames applies only to infinite_backlog traffic")

    engine = {o.engine: run[o.key] for o in RUN_OPTIONS if o.engine}
    scenario = Scenario(
        system=system, traffic=traffic, mode_list=list(mode_list), axes=axes,
        engine=engine, replications=run["replications"], out=run["out"],
        workers=run["workers"], gnuplot=run["gnuplot"],
        figures=list(config.get("figures", [])))
    # the hashed document keeps its original names, so hashes stay comparable
    resolved = {
        "system": {k: (repr(v) if isinstance(v, float) else v)
                   for k, v in sorted(system.items())},
        "traffic": traffic, "modes": scenario.mode_list,
        "axes": {"M": axes["M"], "U": axes["U"], "M_max": axes["M_max"],
                 "P": axes["power_budget_db"]},
        "replications": scenario.replications, "horizon": scenario.horizon,
        "warmup": engine["warmup_frac"], "error_free": engine["error_free"],
        "max_frames": engine["max_frames"],
        "fairness_window_s": engine["fairness_window_s"],
        "figures": scenario.figures,
    }
    scenario.config_hash = hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode()).hexdigest()
    return scenario


def _axis_overrides(axis: Axis, mode: str, values: list | None,
                    swept: set[str]) -> list[dict]:
    """The overrides one axis gives a discipline, one per grid step.

    ``swept`` names the axes with values. When the axis named after this
    axis's field is among them, that axis sets the field and this one adds
    no step.
    """
    if values is None:
        return [{}]
    field = axis.field.get(mode)
    if field != axis.name and field in swept:
        for v in values:
            log.info("skip %s %s=%s: the %s axis sets %s", mode, axis.name, v,
                     field, field)
        return [{}]
    if field is None:
        keep, why = values[0], "the axis does not vary this discipline"
    elif mode == PGPS:
        keep, why = min(values), "single-server discipline"
    else:
        return [{field: v} for v in values]
    for v in values:
        if v != keep:
            log.info("skip %s %s=%s: %s", mode, axis.name, v, why)
    return [{field: v} if field else {} for v in values if v == keep]


def grid_points(scenario: Scenario) -> list[Point]:
    """Cartesian product of mode and axes, invalid combinations skipped."""
    points: list[Point] = []
    swept = {name for name, values in scenario.axes.items() if values is not None}
    for mode in scenario.mode_list:
        steps = [_axis_overrides(a, mode, scenario.axes[a.name], swept)
                 for a in AXES if a is not BUDGET_AXIS]
        for parts in itertools.product(*steps):
            overrides = {k: v for part in parts for k, v in part.items()}
            try:
                SystemConfig(**{**scenario.system, **overrides})
            except (TypeError, ValueError) as exc:
                log.info("skip %s %s: %s", mode, overrides, exc)
                continue
            for b in scenario.axes[BUDGET_AXIS.name] or [None]:
                points.append(Point(index=len(points), mode=mode,
                                    overrides=overrides, budget_db=b))
    if not points:
        raise ConfigError("every grid point was invalid; nothing to run")
    return points


def _make_task(scenario: Scenario, point: Point, rep: int, *,
               verify: bool = False, budget_w: float | None = None) -> dict:
    system = {**scenario.system, **point.overrides}
    system["seed"] = int(system.get("seed", 1)) + rep
    if budget_w is not None:
        system["power_budget"] = budget_w
    engine = {**scenario.engine, "verify": verify}
    if verify:
        engine.update(collect_events=False, collect_fairness=False)
    return {"system": system, "traffic": scenario.traffic, "mode": point.mode,
            "engine": engine, "point": point.index, "rep": rep,
            "label": {"config_hash": scenario.config_hash, "point": point.index,
                      "mode": point.mode, "power_budget_db": point.budget_db}}


def _traffic_model(traffic: dict) -> TrafficModel:
    """The ``traffic`` config section as the engine's source model."""
    tr = dict(traffic)
    if isinstance(tr.get("rate_bps"), list):
        tr["rate_bps"] = tuple(tr["rate_bps"])
    if tr.get("bucket"):
        tr["bucket"] = (tr["bucket"]["burst_bits"], tr["bucket"]["rate_bps"])
    return TrafficModel(**tr)


def _build_engine(task: dict) -> Engine:
    cfg = SystemConfig(**task["system"])
    return Engine(cfg, _traffic_model(task["traffic"]), task["mode"], **task["engine"])


def _run_task(task: dict) -> dict:
    """Worker body: one engine, one run. Must stay importable for pickling."""
    eng = _build_engine(task)
    cfg = eng.cfg
    # labelled before the run, so a hard_assert row carries the same label
    ident = {**task["label"], "M": cfg.M, "M_max": cfg.M_max, "U": cfg.U,
             "seed": cfg.seed, "replication": task["rep"]}
    try:
        result = eng.run()
    except BoundViolation as exc:
        return {"row": None, "events": None, "violation": True,
                "bounds": [{**ident, "check": "hard_assert", "bound": 0.0,
                            "observed": 1.0, "violations": 1,
                            "applicable": True, "note": str(exc)}]}
    entries = result.bounds.entries if result.bounds is not None else []
    bound_rows = [{**ident, "check": e.name, "bound": e.bound,
                   "observed": e.observed, "violations": e.violations,
                   "applicable": e.applicable, "note": e.note} for e in entries]
    violation = any(e.applicable and e.violations for e in entries)
    row = {**ident, "horizon_symbols": task["engine"]["horizon_symbols"],
           **result.metrics.as_dict()}
    events = None
    if task["engine"]["collect_events"] and result.events is not None:
        t_sym = cfg.T_sym
        outcome = {"deliver": 1, "fail": 0}
        events = [{"time_s": ev.time * t_sym, "event": ev.kind,
                   "flow": ev.flow, "seq": ev.seq, "frame": ev.frame,
                   "outcome": outcome.get(ev.kind, "")}
                  for ev in result.events]
    return {"row": row, "bounds": bound_rows, "events": events,
            "violation": violation}


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


LABEL = ["config_hash", "point", "mode", "M", "M_max", "U", "power_budget_db"]

RUN_HEADER = LABEL + [
    "seed", "replication", "horizon_symbols", "arrivals", "delivered", "dropped",
    "residual", "frames", "sim_time", "avg_delay", "loss_rate", "throughput",
    "avg_power", "per_bit_power", "eb_n0_db", "fairness", "bound_violations"]

BOUND_HEADER = LABEL + ["seed", "replication", "check", "bound", "observed",
                        "violations", "applicable", "note"]

_AGG_METRICS = ["avg_delay", "loss_rate", "throughput", "avg_power",
                "per_bit_power", "eb_n0_db", "fairness"]


def aggregate_rows(run_rows: list[dict]) -> list[dict]:
    groups: dict[int, list[dict]] = {}
    for row in run_rows:
        groups.setdefault(row["point"], []).append(row)
    out = []
    for point in sorted(groups):
        rows = groups[point]
        agg = {**{col: rows[0][col] for col in LABEL}, "n": len(rows)}
        for metric in _AGG_METRICS:
            vals = np.array([row[metric] for row in rows], dtype=float)
            finite = vals[np.isfinite(vals)]
            agg[f"{metric}_mean"] = float(finite.mean()) if finite.size else float("nan")
            agg[f"{metric}_std"] = float(finite.std()) if finite.size else float("nan")
        out.append(agg)
    return out


AGG_HEADER = LABEL + ["n"] + [f"{m}_{s}" for m in _AGG_METRICS for s in ("mean", "std")]


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
        row = {"config_hash": r["config_hash"], "mode": r["mode"], "point": r["point"]}
        for col in spec.x:
            row[col] = _servers_axis(r) if col == "M" else r[col]
        for col, key, scale in spec.values:
            row[col] = r[key] * scale
        rows.append(row)
    rows.sort(key=lambda row: (row["mode"], *(float(row[c]) for c in spec.x)))
    if spec.power_gain:
        _power_gain_column(rows)
    return spec.header(), rows


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
        spec = FIGURES[name]
        header = spec.header()
        x, y = spec.plot or (spec.x[0], spec.values[0][0])
        using = f"{header.index(x) + 1}:{header.index(y) + 1}"
        png = name.replace(".csv", ".png")
        lines += [f"set output '{png}'", "set terminal png size 800,600",
                  f"plot '{name}' using {using} with linespoints", ""]
    with open(os.path.join(scenario.out, "plots.gp"), "w") as fh:
        fh.write("\n".join(lines))


# -- execution ----------------------------------------------------------------

def _calibrate_budgets(scenario: Scenario, points: list[Point]) -> None:
    """Resolve dB budgets into watts against each point's unconstrained power."""
    baselines: dict[tuple, float] = {}
    for point in points:
        if point.budget_db is None:
            continue
        key = (point.mode, tuple(sorted(point.overrides.items())))
        if key in baselines:
            point.baseline_power = baselines[key]
            continue
        task = _make_task(scenario, point, 0)
        task["engine"].update(collect_events=False, collect_fairness=False)
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
    # the Engine's own checks (rates, horizon, batch sizes) refuse a
    # schema-valid task before any run starts
    for p in points:
        for rep in range(scenario.replications):
            try:
                _build_engine(_make_task(scenario, p, rep, verify=check_bounds))
            except ValueError as exc:
                raise ConfigError(f"point {p.index} {p.mode} {p.overrides}: {exc}") from exc
    if not check_bounds:        # verification never allocates power
        _calibrate_budgets(scenario, points)
    tasks = [_make_task(scenario, p, rep, verify=check_bounds,
                        budget_w=_budget_watts(p))
             for p in points for rep in range(scenario.replications)]
    os.makedirs(scenario.out, exist_ok=True)
    results: dict[tuple, dict] = {}
    interrupted = False
    try:
        if scenario.workers > 1:
            with ProcessPoolExecutor(max_workers=scenario.workers) as pool:
                futures = {pool.submit(_run_task, t): (t["point"], t["rep"])
                           for t in tasks}
                for fut in as_completed(futures):
                    results[futures[fut]] = fut.result()
        else:
            for t in tasks:
                results[(t["point"], t["rep"])] = _run_task(t)
    except KeyboardInterrupt:
        interrupted = True
        log.warning("interrupted: flushing %d completed runs", len(results))

    run_rows, bound_rows, violation = [], [], False
    for point, rep in sorted(results):
        out = results[(point, rep)]
        if out["row"] is not None:
            run_rows.append(out["row"])
        bound_rows += out["bounds"]
        violation = violation or out["violation"]
        if out["events"] is not None:
            suffix = ("" if len(points) == 1 and scenario.replications == 1
                      else f"_p{point}_r{rep}")
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
