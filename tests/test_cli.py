"""Config handling, grid expansion, artifacts, and exit codes."""
import csv
import json
import logging
import math
import os
import sys
import tempfile
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mpgps_sim.cli as cli
import mpgps_sim.engine as engine_mod
from mpgps_sim import scheduling
from mpgps_sim.model import SystemConfig
from mpgps_sim.scheduling import BoundViolation


def write_cfg(tmp_path, name="scenario.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections))
    return str(path)


def tiny_sections(**overrides):
    sections = {
        "system": {"K": 2, "N": 8, "L": 64, "r": 2, "seed": 5},
        "traffic": {"rate_bps": 4000.0},
        "run": {"horizon_symbols": 8000, "error_free": True},
    }
    for key, val in overrides.items():
        sections.setdefault(key, {}).update(val)
    return sections


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestAxisParsing:
    def test_range(self):
        assert cli.parse_axis_values("1:6") == [1, 2, 3, 4, 5, 6]

    def test_range_with_step(self):
        assert cli.parse_axis_values("1:6:2") == [1, 3, 5]

    def test_comma_list(self):
        assert cli.parse_axis_values("2,4,6") == [2, 4, 6]

    def test_float_axis(self):
        assert cli.parse_axis_values("-6,-3,0", integer=False) == [-6.0, -3.0, 0.0]

    def test_float_range_holds_each_decimal_exactly(self):
        # value i is lo + i * step, not a running float sum that drifts
        values = cli.parse_axis_values("-6:0:0.1", integer=False)
        assert len(values) == 61
        assert values[-1] == 0.0 and -5.7 in values and values[3] == -5.7
        assert cli.parse_axis_values("0:1:0.1", integer=False)[-1] == 1.0

    @pytest.mark.parametrize("bad", ["6:1", "1:2:0", "a,b", "::", "1:"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(cli.ConfigError):
            cli.parse_axis_values(bad)


class TestConfigLoading:
    def test_schema_rejects_unknown_keys(self, tmp_path):
        path = write_cfg(tmp_path, plotting={"dpi": 300})
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_schema_rejects_bad_types(self, tmp_path):
        sections = tiny_sections()
        sections["system"]["K"] = 0
        path = write_cfg(tmp_path, **sections)
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(path))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_numbers_rejected(self, tmp_path, token, capsys):
        # NaN fails no schema comparison, so it is caught while parsing
        path = tmp_path / "nonfinite.json"
        path.write_text('{"traffic": {"rate_bps": %s}}' % token)
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(path))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "x")]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_schema_sections_keep_their_keys(self):
        # the run-option and axis tables must neither add nor drop a key
        assert set(cli.SCHEMA["properties"]["run"]["properties"]) == {
            "mode", "horizon_symbols", "replications", "warmup_frac",
            "error_free", "max_frames", "collect_events", "fairness",
            "fairness_window_s", "out", "workers", "gnuplot"}
        assert set(cli.SCHEMA["properties"]["sweep"]["properties"]) == {
            "modes", "M", "U", "M_max", "power_budget_db"}

    def test_schema_passes_its_metaschema(self):
        jsonschema.validators.validator_for(cli.SCHEMA).check_schema(cli.SCHEMA)

    def test_schema_message_matches_a_full_validate(self, tmp_path):
        sections = tiny_sections()
        sections["system"]["K"] = 0
        sections["run"]["replications"] = "two"
        with pytest.raises(jsonschema.ValidationError) as full:
            jsonschema.validate(json.loads(json.dumps(sections)), cli.SCHEMA)
        with pytest.raises(cli.ConfigError) as got:
            cli.load_config(write_cfg(tmp_path, **sections))
        assert str(got.value) == f"config rejected by schema: {full.value.message}"

    def test_good_config_loads(self, tmp_path):
        path = write_cfg(tmp_path, **tiny_sections())
        cfg = cli.load_config(path)
        assert cfg["system"]["K"] == 2


def parse_args(argv):
    return cli.make_parser().parse_args(argv)


class TestUsageErrors:
    @pytest.mark.parametrize("extra", [["--workers", "abc"], ["--bogus"], None],
                             ids=["bad-int", "unknown-flag", "no-command"])
    def test_usage_error_is_a_config_error(self, tmp_path, capsys, extra):
        path = write_cfg(tmp_path, **tiny_sections())
        argv = [] if extra is None else ["run", path, "--out", str(tmp_path / "o"), *extra]
        assert cli.main(argv) == 1
        assert "usage: mpgps-sim" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_help_still_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "usage: mpgps-sim" in capsys.readouterr().out


class TestOverrideChecks:
    """A flag or environment value gets the schema check of the key it overrides."""

    @pytest.mark.parametrize("name, value", [
        ("--replications", "0"), ("--replications", "-2"), ("--workers", "0"),
        ("--workers", "-1"), ("--seed", "-5"), ("MPGPS_SIM_SEED", "-5")])
    def test_out_of_range_override_is_refused(self, tmp_path, monkeypatch, capsys,
                                              name, value):
        path = write_cfg(tmp_path, **tiny_sections())
        out = tmp_path / "o"
        argv = ["run", path, "--out", str(out)]
        if name.startswith("--"):
            argv += [name, value]
        else:
            monkeypatch.setenv(name, value)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}: {value} is less than the minimum")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_empty_output_directory_is_refused(self, tmp_path, monkeypatch, capsys, source):
        # a budget sweep, so a late refusal would come after its calibrations
        sections = tiny_sections(sweep={"power_budget_db": [-3.0]})
        if source == "config":
            sections["run"]["out"] = ""
        path = write_cfg(tmp_path, **sections)
        argv = ["run", path] + (["--out", ""] if source == "flag" else [])
        if source == "env":
            monkeypatch.setenv("MPGPS_SIM_OUT", "")
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "_run_task", calls.append)
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == ["scenario.json"]

    def test_in_range_overrides_are_kept(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, **tiny_sections())
        monkeypatch.setenv("MPGPS_SIM_SEED", "0")
        scn = cli.build_scenario(cli.load_config(path), parse_args(
            ["run", path, "--replications", "2", "--workers", "1"]))
        assert (scn.system["seed"], scn.replications, scn.workers) == (0, 2, 1)


class TestPrecedence:
    def test_env_seed_beats_config(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, **tiny_sections())
        monkeypatch.setenv("MPGPS_SIM_SEED", "9")
        scn = cli.build_scenario(cli.load_config(path), parse_args(["run", path]))
        assert scn.system["seed"] == 9

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, **tiny_sections())
        monkeypatch.setenv("MPGPS_SIM_SEED", "9")
        scn = cli.build_scenario(cli.load_config(path),
                                 parse_args(["run", path, "--seed", "3"]))
        assert scn.system["seed"] == 3

    def test_env_out_dir(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, **tiny_sections())
        monkeypatch.setenv("MPGPS_SIM_OUT", str(tmp_path / "envout"))
        scn = cli.build_scenario(cli.load_config(path), parse_args(["run", path]))
        assert scn.out == str(tmp_path / "envout")

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, **tiny_sections())
        monkeypatch.setenv("MPGPS_SIM_SEED", "not-a-number")
        with pytest.raises(cli.ConfigError):
            cli.build_scenario(cli.load_config(path), parse_args(["run", path]))

    def test_deadline_inf_token(self, tmp_path):
        sections = tiny_sections()
        sections["system"]["deadline"] = "inf"
        path = write_cfg(tmp_path, **sections)
        scn = cli.build_scenario(cli.load_config(path), parse_args(["run", path]))
        assert scn.system["deadline"] == math.inf


class TestGridExpansion:
    def scenario(self, tmp_path, **sections):
        path = write_cfg(tmp_path, **sections)
        return cli.build_scenario(cli.load_config(path), parse_args(["run", path]))

    def test_single_server_mode_keeps_one_point(self, tmp_path):
        scn = self.scenario(tmp_path, **tiny_sections(
            sweep={"modes": ["pgps", "mpgps"], "M": [1, 2]}))
        points = cli.grid_points(scn)
        labels = [(p.mode, p.overrides.get("M")) for p in points]
        assert labels == [("pgps", 1), ("mpgps", 1), ("mpgps", 2)]

    def test_window_axis_only_applies_to_opportunistic(self, tmp_path, caplog):
        scn = self.scenario(tmp_path, **tiny_sections(
            sweep={"modes": ["mpgps", "ompgps"], "M": [2], "U": [2, 4]}))
        with caplog.at_level(logging.INFO, logger="mpgps_sim.cli"):
            points = cli.grid_points(scn)
        got = [(p.mode, p.overrides.get("U")) for p in points]
        assert got == [("mpgps", None), ("ompgps", 2), ("ompgps", 4)]
        assert "skip" in caplog.text

    def test_invalid_pairs_skipped_with_reason(self, tmp_path, caplog):
        scn = self.scenario(tmp_path, **tiny_sections(
            sweep={"modes": ["ompgps"], "M": [2], "U": [1, 4]}))
        with caplog.at_level(logging.INFO, logger="mpgps_sim.cli"):
            points = cli.grid_points(scn)
        assert [(p.overrides["M"], p.overrides["U"]) for p in points] == [(2, 4)]
        assert "skip" in caplog.text

    def test_adaptive_mode_sweeps_the_ceiling(self, tmp_path):
        scn = self.scenario(tmp_path, **tiny_sections(
            sweep={"modes": ["ampgps"], "M": [1, 2]}))
        points = cli.grid_points(scn)
        assert [p.overrides for p in points] == [{"M_max": 1}, {"M_max": 2}]

    def test_ceiling_axis_only_applies_to_adaptive(self, tmp_path, caplog):
        scn = self.scenario(tmp_path, **tiny_sections(
            sweep={"modes": ["mpgps", "ampgps"], "M_max": [1, 2]}))
        with caplog.at_level(logging.INFO, logger="mpgps_sim.cli"):
            points = cli.grid_points(scn)
        assert [(p.mode, p.overrides) for p in points] == [
            ("mpgps", {}), ("ampgps", {"M_max": 1}), ("ampgps", {"M_max": 2})]
        assert "skip mpgps M_max=2" in caplog.text

    def test_ceiling_axis_beats_the_server_axis_for_adaptive(self, tmp_path, caplog):
        # both axes set M_max for ampgps; only the M_max axis may make points
        scn = self.scenario(tmp_path, **tiny_sections(
            sweep={"modes": ["ampgps"], "M": [1, 2], "M_max": [2, 4]}))
        with caplog.at_level(logging.INFO, logger="mpgps_sim.cli"):
            points = cli.grid_points(scn)
        assert [p.overrides for p in points] == [{"M_max": 2}, {"M_max": 4}]
        assert "skip ampgps M=1: the M_max axis sets M_max" in caplog.text
        assert "skip ampgps M=2: the M_max axis sets M_max" in caplog.text

    def test_all_points_invalid_is_an_error(self, tmp_path):
        scn = self.scenario(tmp_path, **tiny_sections(
            sweep={"modes": ["ompgps"], "M": [4], "U": [1, 2]}))
        with pytest.raises(cli.ConfigError):
            cli.grid_points(scn)


class TestRunCommand:
    def test_minimal_run_writes_artifacts(self, tmp_path, capsys):
        path = write_cfg(tmp_path, **tiny_sections())
        out = tmp_path / "results"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        rows = read_rows(out / "runs.csv")
        assert len(rows) == 1
        assert list(rows[0]) == cli.RUN_HEADER
        assert len(rows[0]["config_hash"]) == 64
        agg = read_rows(out / "aggregate.csv")
        assert agg[0]["n"] == "1"
        assert "wrote 1 run rows" in capsys.readouterr().out

    def test_replications_share_a_point(self, tmp_path):
        path = write_cfg(tmp_path, **tiny_sections(run={"replications": 3}))
        out = tmp_path / "r"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        rows = read_rows(out / "runs.csv")
        assert len(rows) == 3
        assert {r["seed"] for r in rows} == {"5", "6", "7"}
        agg = read_rows(out / "aggregate.csv")
        assert len(agg) == 1 and agg[0]["n"] == "3"

    @pytest.mark.parametrize("sweep", [{}, {"M": [1, 2], "power_budget_db": [-3.0, 0.0]}],
                             ids=["replications", "budget_grid"])
    def test_worker_pool_merges_deterministically(self, tmp_path, sweep):
        # the budget grid also sends its calibrations through the pool
        path = write_cfg(tmp_path, **tiny_sections(run={"replications": 2}, sweep=sweep))
        solo, pooled = tmp_path / "solo", tmp_path / "pooled"
        assert cli.main(["run", path, "--out", str(solo)]) == 0
        assert cli.main(["run", path, "--out", str(pooled),
                         "--workers", "2"]) == 0
        for name in ("runs.csv", "aggregate.csv"):
            assert (solo / name).read_bytes() == (pooled / name).read_bytes()

    @pytest.mark.parametrize("call, rows", [(1, None), (5, 2)],
                             ids=["during_calibration", "during_grid"])
    def test_interrupt_flushes_completed_runs(self, tmp_path, monkeypatch, call, rows):
        # 2 calibrations (one per M), then 4 grid runs, all in this process
        path = write_cfg(tmp_path, **tiny_sections(
            sweep={"M": [1, 2], "power_budget_db": [-3.0, 0.0]}))
        full, cut = tmp_path / "full", tmp_path / "cut"
        assert cli.main(["run", path, "--out", str(full)]) == 0
        real, calls = cli._run_task, []

        def interrupting(task):
            calls.append(task)
            if len(calls) == call:
                raise KeyboardInterrupt
            return real(task)

        monkeypatch.setattr(cli, "_run_task", interrupting)
        assert cli.main(["run", path, "--out", str(cut)]) == 3
        assert len(calls) == call
        if rows is None:                    # no grid run started
            assert not cut.exists()
            return
        kept = (cut / "runs.csv").read_text().splitlines()
        assert kept == (full / "runs.csv").read_text().splitlines()[:1 + rows]
        assert not (cut / "aggregate.csv").exists()

    def test_events_file_for_single_point(self, tmp_path):
        path = write_cfg(tmp_path, **tiny_sections(run={"collect_events": True}))
        out = tmp_path / "ev"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        rows = read_rows(out / "events.csv")
        assert rows
        assert {"arrive", "deliver"} <= {r["event"] for r in rows}

    def test_every_run_option_reaches_engine(self, tmp_path, monkeypatch):
        # every run key off its default, so a dropped option shows up here
        out = tmp_path / "cfg-out"
        sections = tiny_sections(run={
            "mode": "ampgps", "horizon_symbols": 4000, "replications": 2,
            "warmup_frac": 0.1, "error_free": True, "max_frames": 30,
            "collect_events": True, "fairness": True, "fairness_window_s": 0.05,
            "out": str(out), "workers": 2, "gnuplot": True})
        sections["traffic"] = {"rate_bps": [3000.0, 5000.0],
                               "bucket": {"burst_bits": 2048.0, "rate_bps": 6000.0},
                               "infinite_backlog": True}
        sections["figures"] = ["fig3_delay_vs_M.csv"]
        path = write_cfg(tmp_path, **sections)
        scn = cli.build_scenario(cli.load_config(path), parse_args(["run", path]))
        assert (scn.mode_list, scn.replications, scn.workers, scn.out,
                scn.gnuplot) == (["ampgps"], 2, 2, str(out), True)

        calls = []

        class Recorder(engine_mod.Engine):
            def __init__(self, *args, **kwargs):
                calls.append((args, kwargs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "Engine", Recorder)
        scn.workers = 1      # the recorder only sees engines built in this process
        assert cli.execute(scn) == 0
        traffic = engine_mod.TrafficModel(rate_bps=(3000.0, 5000.0),
                                          bucket=(2048.0, 6000.0),
                                          infinite_backlog=True)
        # two tasks, each built once by the up-front check and once to run
        assert [(args[1:], kwargs) for args, kwargs in calls] == [(
            (traffic, "ampgps"),
            {"horizon_symbols": 4000.0, "warmup_frac": 0.1, "error_free": True,
             "max_frames": 30, "collect_events": True, "collect_fairness": True,
             "fairness_window_s": 0.05, "verify": False})] * 4
        assert {"events_p0_r0.csv", "events_p0_r1.csv", "plots.gp"} <= set(
            os.listdir(out))

    def test_saturated_traffic_needs_max_frames(self, tmp_path):
        sections = tiny_sections()
        sections["traffic"]["infinite_backlog"] = True
        path = write_cfg(tmp_path, **sections)
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 1

    def test_frame_cap_needs_saturated_traffic(self, tmp_path):
        sections = tiny_sections(run={"max_frames": 30})
        path = write_cfg(tmp_path, **sections)
        with pytest.raises(cli.ConfigError, match="max_frames"):
            cli.build_scenario(cli.load_config(path), parse_args(["run", path]))
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 1

    def test_schema_error_exit_code(self, tmp_path, capsys):
        sections = tiny_sections()
        sections["system"]["K"] = -3
        path = write_cfg(tmp_path, **sections)
        assert cli.main(["run", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_engine_construction_error_is_a_config_error(self, tmp_path, capsys):
        # schema-valid, but the Poisson run would expect ~6e12 arrivals
        path = write_cfg(tmp_path, system={"K": 2, "N": 8, "L": 64},
                         traffic={"rate_bps": 1e12}, run={"horizon_symbols": 1000000})
        out = tmp_path / "x"
        assert cli.main(["run", path, "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()             # refused before any run

    def test_run_expecting_no_arrival_warns(self, tmp_path, caplog):
        # 2000 symbols of 1e-300 s: the horizon holds ~6e-294 expected arrivals
        path = write_cfg(tmp_path, system={"K": 4, "N": 16, "L": 64, "r": 2, "M": 2,
                                           "T_sym": 1e-300, "B": 15000},
                         traffic={"rate_bps": 50000.0}, run={"horizon_symbols": 2000})
        with caplog.at_level(logging.WARNING, logger="mpgps_sim.engine"):
            assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 0
        warned = [r for r in caplog.records if "the run expects" in r.getMessage()]
        # once per task, although the CLI builds the Engine to check it first
        assert len(warned) == 1
        assert "the run expects 6.25e-294 arrivals" in warned[0].getMessage()

    def test_engine_crash_exit_code(self, tmp_path, monkeypatch):
        class Boom:
            def __init__(self, *a, **kw):
                pass

            def run(self):
                raise RuntimeError("induced failure")

        monkeypatch.setattr(cli, "Engine", Boom)
        path = write_cfg(tmp_path, **tiny_sections())
        assert cli.main(["run", path, "--out", str(tmp_path / "x")]) == 3


class TestUnusableLinks:
    """Schema-valid physical inputs whose power inversion cannot be finite
    are refused before any run, and usable extremes still run."""

    def sections(self, **system):
        return {"system": {"K": 4, "N": 16, "L": 64, "r": 2, **system},
                "traffic": {"rate_bps": 50000.0}, "run": {"horizon_symbols": 2000}}

    @pytest.mark.parametrize("M", [2, 4])
    @pytest.mark.parametrize("system", [{"pathloss_exp": 200}, {"pathloss_exp": -200},
                                        {"N0": 1e300}],
                             ids=["path_gain_underflows", "path_gain_overflows",
                                  "noise_overflows"])
    def test_refused_before_any_run(self, tmp_path, capsys, M, system):
        path = write_cfg(tmp_path, **self.sections(M=M, **system))
        out = tmp_path / "x"
        assert cli.main(["run", path, "--out", str(out)]) == 1
        assert "fading margin" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("system", [
        {"M": 2, "pathloss_exp": 150}, {"M": 4, "pathloss_exp": 150},
        {"K": 10, "N": 64, "L": 1024, "M": 4},          # the README working point
    ])
    def test_usable_extremes_still_run(self, tmp_path, system):
        path = write_cfg(tmp_path, **self.sections(**system))
        out = tmp_path / "x"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        row, = read_rows(out / "runs.csv")
        assert int(row["frames"]) > 0
        assert math.isfinite(float(row["avg_power"]))
        assert math.isfinite(float(row["per_bit_power"]))


# the smallest and the largest positive float
TINY, HUGE = 5e-324, sys.float_info.max


def _edge_system(draw, k):
    """System values at the edges of the schema's ranges, a few keys at a time."""
    edges = {
        "T_sym": [TINY, 1e-300, 1e-6], "B": [TINY, 15000.0, HUGE],
        # the schema's extremes, then those of model.WEIGHT_RANGE
        "weights": [[TINY] * k, [HUGE] * k, [1e-3] * k, [1e-3] + [1e3] * (k - 1)],
        "target_ber": [TINY, 0.5, 1 - 1e-16], "N0": [TINY, 1e300, HUGE],
        "pathloss_exp": [-200.0, 0.0, 200.0], "shadow_std_db": [0.0, 400.0],
        "taps": [1, 64], "tap_decay": [TINY, HUGE], "time_corr": [0.0, 1 - 1e-16],
        "cell_radius_m": [TINY, HUGE], "ref_distance_m": [TINY, HUGE],
        "deadline": [TINY, HUGE, "inf"], "seed": [0, 2 ** 64, 10 ** 30],
        "power_budget": [TINY, HUGE],
    }
    keys = draw(st.sets(st.sampled_from(sorted(edges)), max_size=4))
    return {key: draw(st.sampled_from(edges[key])) for key in sorted(keys)}


@st.composite
def edge_scenarios(draw):
    """A `run` or `check-bounds` invocation of a small schema-valid scenario."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pick = lambda values: draw(st.sampled_from(values))     # noqa: E731
    system = {"K": k, "N": pick([1, 2, 16]), "L": pick([16, 64]), "r": pick([1, 2]),
              "M": m, "M_max": draw(st.integers(1, 4)), "U": pick([None, m, m + 3]),
              **_edge_system(draw, k)}
    if draw(st.booleans()):
        traffic = {"infinite_backlog": True}
        run = {"max_frames": draw(st.integers(1, 30))}
    else:
        # at most 5e4 b/s: the rate caps the arrivals a 2000-symbol horizon expects
        traffic = {"rate_bps": pick([TINY, 1e-300, 2000.0, 5e4, [5e4] + [TINY] * (k - 1)])}
        if draw(st.booleans()):
            traffic["bucket"] = {"burst_bits": pick([64.0, HUGE]),
                                 "rate_bps": pick([TINY, 5e4, HUGE])}
        run = {"horizon_symbols": pick([TINY, 1.0, 2000])}
    run.update(mode=pick(list(cli.MODES)), warmup_frac=pick([0.0, 1 - 1e-16]),
               error_free=draw(st.booleans()), fairness=draw(st.booleans()),
               fairness_window_s=pick([TINY, 0.1, HUGE]))
    sections = {"system": system, "traffic": traffic, "run": run}
    budget = pick([None, [4000], [-4000], [0]])
    if budget is not None:
        sections["sweep"] = {"power_budget_db": budget}
    return pick(["run", "check-bounds"]), sections


def _named(command="run", sweep=None, rate_bps=50000.0, **system):
    sections = {"system": {"K": 4, "N": 16, "L": 64, "r": 2, "M": 2, **system},
                "traffic": {"rate_bps": rate_bps}, "run": {"horizon_symbols": 2000}}
    if sweep:
        sections["sweep"] = sweep
    return command, sections


class TestSchemaEdges:
    """No schema-valid scenario fails mid-run: each exits 0, 1 or 2, never 3."""

    @settings(max_examples=80, deadline=None)
    @given(edge_scenarios())
    @example(_named(pathloss_exp=200.0))
    @example(_named(pathloss_exp=-200.0))
    @example(_named(N0=1e300))
    @example(_named(T_sym=1e-300, B=15000.0))
    @example(_named("check-bounds", T_sym=1e-300, B=15000.0))
    @example(_named(sweep={"power_budget_db": [4000]}))
    # arrival gaps overflow; a path gain of 0.0 ** -200; N0 * bits overflows
    # in Eb/N0; the tap profile overflows; weights 632 decades apart
    @example(_named(rate_bps=1e-300))
    @example(_named(ref_distance_m=TINY, cell_radius_m=HUGE, pathloss_exp=-200.0))
    @example(_named(N0=HUGE, B=TINY))
    @example(_named(tap_decay=TINY))
    @example(_named("check-bounds", weights=[TINY, HUGE, HUGE, HUGE]))
    def test_never_exits_3(self, case):
        command, sections = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w") as fh:
                json.dump(sections, fh)
            assert cli.main([command, path, "--out", os.path.join(tmp, "out")]) in (0, 1, 2)


class TestSweepCommand:
    def test_axis_flag_expands_grid(self, tmp_path):
        path = write_cfg(tmp_path, **tiny_sections())
        out = tmp_path / "sweep"
        code = cli.main(["sweep", path, "--out", str(out), "--axis", "M=1:2"])
        assert code == 0
        rows = read_rows(out / "runs.csv")
        assert [r["M"] for r in rows] == ["1", "2"]

    def test_figure_files_are_emitted(self, tmp_path):
        sections = tiny_sections()
        sections["figures"] = ["fig2_power_vs_M.csv", "fig3_delay_vs_M.csv"]
        path = write_cfg(tmp_path, **sections)
        out = tmp_path / "figs"
        code = cli.main(["sweep", path, "--out", str(out), "--axis", "M=1,2"])
        assert code == 0
        power = read_rows(out / "fig2_power_vs_M.csv")
        assert [(r["M"], r["point"]) for r in power] == [("1", "0"), ("2", "1")]
        # gains are relative to the worst grid point, so the minimum is zero
        gains = [float(r["power_gain_db"]) for r in power]
        assert min(gains) == pytest.approx(0.0)
        assert all(g >= -1e-9 for g in gains)
        delays = read_rows(out / "fig3_delay_vs_M.csv")
        assert all(float(r["avg_delay_ms_mean"]) > 0 for r in delays)

    def test_figure_rows_sort_counts_as_numbers(self, tmp_path):
        sections = tiny_sections(system={"K": 10})
        sections["run"]["horizon_symbols"] = 2000
        sections["figures"] = ["fig3_delay_vs_M.csv"]
        path = write_cfg(tmp_path, **sections)
        out = tmp_path / "figs"
        assert cli.main(["sweep", path, "--out", str(out), "--axis", "M=1,2,10"]) == 0
        rows = read_rows(out / "fig3_delay_vs_M.csv")
        assert [r["M"] for r in rows] == ["1", "2", "10"]

    @pytest.mark.parametrize("sweep, axis, err", [
        ({}, "M=a:b", ""), ({"U": "2:x"}, None, ""), ({}, "P=-3:nan:1", ""),
        ({}, "P=nan", ""), ({}, "P=inf", ""), ({}, "P=0:inf:1", ""), ({}, "P=,", ""),
        ({}, "M=1:1000000000", ""),
        # refused after the calibration, before any grid run
        ({}, "P=4000", ": point 0 mpgps"), ({}, "P=-4000", ": point 0 mpgps"),
        ({"power_budget_db": [4000]}, None, ": point 0 mpgps"),
        # integer axes take integer-valued numbers only
        ({"M": [1.5, 2.9]}, None, ""), ({"U": [2.0, 4.7]}, None, ""),
    ])
    def test_bad_axis_value_is_a_config_error(self, tmp_path, capsys, sweep, axis, err):
        path = write_cfg(tmp_path, **tiny_sections(sweep=sweep))
        out = tmp_path / "x"
        argv = ["sweep", path, "--out", str(out)] + (["--axis", axis] if axis else [])
        assert cli.main(argv) == 1
        assert f"config error{err}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_axis_rejected(self, tmp_path):
        path = write_cfg(tmp_path, **tiny_sections())
        assert cli.main(["sweep", path, "--axis", "Q=1:3"]) == 1

    def test_gnuplot_script(self, tmp_path):
        sections = tiny_sections()
        sections["figures"] = ["fig3_delay_vs_M.csv"]
        sections["run"]["gnuplot"] = True
        path = write_cfg(tmp_path, **sections)
        out = tmp_path / "gp"
        assert cli.main(["sweep", path, "--out", str(out), "--axis", "M=1,2"]) == 0
        script = (out / "plots.gp").read_text()
        # M (column 3) against the mean delay (column 4), not its std
        assert "plot 'fig3_delay_vs_M.csv' using 3:4 with linespoints" in script

    def test_gnuplot_named_column_pairs(self, tmp_path):
        cli._write_gnuplot(SimpleNamespace(out=str(tmp_path)), list(cli.FIGURES))
        script = (tmp_path / "plots.gp").read_text()
        # throughput (column 5) against Eb/N0 (column 4), not the budget
        assert "plot 'fig8_throughput_vs_ebn0.csv' using 4:5 with linespoints" in script
        # the Pareto front: delay (column 6) against power per bit (column 5)
        assert "plot 'fig7_pareto.csv' using 5:6 with linespoints" in script
        assert "plot 'fig9_loss_vs_power.csv' using 3:4 with linespoints" in script


class TestCheckBounds:
    def test_clean_run_passes(self, tmp_path, capsys):
        path = write_cfg(tmp_path, **tiny_sections())
        out = tmp_path / "bounds"
        assert cli.main(["check-bounds", path, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "[pass]" in text and "[FAIL]" not in text
        rows = read_rows(out / "bounds.csv")
        assert {"delay_gap", "service_gap", "backlog_gap"} <= {
            r["check"] for r in rows}
        assert all(r["violations"] == "0" for r in rows
                   if r["applicable"] == "True")

    def test_starving_selector_is_caught(self, tmp_path, monkeypatch, capsys):
        # mutation: always serve the flow whose head stamp is LARGEST, which
        # starves earlier stamps and breaks the delay bound under backlog
        def worst_flow_take(queues, count):
            worst = max((k for k, q in enumerate(queues) if q),
                        key=lambda k: queues[k][0].vfinish)
            take = min(count, len(queues[worst]))
            g = [0] * len(queues)
            g[worst] = take
            chosen = [queues[worst].popleft() for _ in range(take)]
            queues.rebuild()
            return chosen, tuple(g)

        monkeypatch.setattr(scheduling.HeadQueues, "take", worst_flow_take)
        sections = {
            "system": {"K": 3, "N": 8, "L": 64, "r": 2, "seed": 5},
            "traffic": {"rate_bps": 20000.0},
            "run": {"horizon_symbols": 30000},
        }
        path = write_cfg(tmp_path, **sections)
        out = tmp_path / "mut"
        assert cli.main(["check-bounds", path, "--out", str(out)]) == 2
        assert "[FAIL]" in capsys.readouterr().out
        rows = read_rows(out / "bounds.csv")
        broken = [r for r in rows if r["check"] == "delay_gap"]
        assert int(broken[0]["violations"]) > 0


    def test_hard_assert_row_carries_the_run_label(self, tmp_path, monkeypatch):
        class Tripped(engine_mod.Engine):
            def run(self):
                raise BoundViolation("induced")

        monkeypatch.setattr(cli, "Engine", Tripped)
        sections = tiny_sections()
        path = write_cfg(tmp_path, **sections)
        out = tmp_path / "trip"
        assert cli.main(["check-bounds", path, "--out", str(out)]) == 2
        cfg = SystemConfig(**sections["system"])
        rows = read_rows(out / "bounds.csv")
        assert [(r["check"], r["M"], r["M_max"], r["U"]) for r in rows] == [
            ("hard_assert", str(cfg.M), str(cfg.M_max), str(cfg.U))]

    @pytest.mark.parametrize("command, unverified", [("run", 6), ("check-bounds", 0)])
    def test_budgets_calibrated_only_when_power_is_allocated(
            self, tmp_path, monkeypatch, command, unverified):
        # run: 2 calibrations (one per M) + 4 runs; verification allocates
        # no power, so check-bounds needs no calibration run
        path = write_cfg(tmp_path, **tiny_sections(
            sweep={"M": [1, 2], "power_budget_db": [-3.0, 0.0]}))
        real, verify_flags = cli._run_task, []

        def counting(task):
            verify_flags.append(task["engine"]["verify"])
            return real(task)

        monkeypatch.setattr(cli, "_run_task", counting)
        assert cli.main([command, path, "--out", str(tmp_path / "o")]) == 0
        assert verify_flags.count(False) == unverified


class TestAggregation:
    def test_nan_metrics_average_over_finite_values(self):
        rows = [
            {"config_hash": "h", "point": 0, "mode": "mpgps", "M": 1,
             "M_max": 1, "U": 1, "power_budget_db": "", "avg_delay": 2.0,
             "loss_rate": 0.0, "throughput": 1.0, "avg_power": float("nan"),
             "per_bit_power": float("nan"), "eb_n0_db": float("nan"),
             "fairness": float("nan")},
            {"config_hash": "h", "point": 0, "mode": "mpgps", "M": 1,
             "M_max": 1, "U": 1, "power_budget_db": "", "avg_delay": 4.0,
             "loss_rate": 0.0, "throughput": 3.0, "avg_power": 5.0,
             "per_bit_power": float("nan"), "eb_n0_db": float("nan"),
             "fairness": float("nan")},
        ]
        agg = cli.aggregate_rows(rows)[0]
        assert agg["avg_delay_mean"] == pytest.approx(3.0)
        assert agg["avg_power_mean"] == pytest.approx(5.0)
        assert math.isnan(agg["fairness_mean"])
        assert agg["n"] == 2

    def test_float_formatting_round_trips(self):
        assert cli._fmt(0.1) == "0.1"
        assert cli._fmt(np.float64(0.25)) == "0.25"
        assert cli._fmt(None) == ""
        assert cli._fmt(7) == "7"
        assert float(cli._fmt(1 / 3)) == 1 / 3
