"""CLI artifacts against committed golden copies.

Each row of ``GOLDENS`` runs one command on one config in ``tests/golden/``
and compares every file it writes, byte for byte, with the copy committed
under ``tests/golden/<out>/``, at one worker and at two; its ``why`` says
what the golden pins. Criterion 10 only compares two runs of the same code;
a golden catches an output change between commits.

To re-record a row after an intended output change, run
``mpgps-sim <command> tests/golden/<config>.json --out tests/golden/<out>``
and commit the diff with its reason.
"""
from pathlib import Path
from typing import NamedTuple

import pytest

import mpgps_sim.cli as cli
from mpgps_sim import GpsReference
from mpgps_sim.engine import arrival_trace

GOLDEN = Path(__file__).resolve().parent / "golden"


class Golden(NamedTuple):
    config: str
    command: str
    out: str
    files: tuple[str, ...]
    why: str


def _events(points: int, reps: int) -> tuple[str, ...]:
    return tuple(f"events_p{p}_r{r}.csv" for p in range(points) for r in range(reps))


FIGURES = ("fig2_power_vs_M.csv", "fig3_delay_vs_M.csv", "fig4_fairness_vs_U.csv",
           "fig5_loss_vs_U.csv", "fig6_power_vs_MU.csv", "fig7_pareto.csv",
           "fig8_throughput_vs_ebn0.csv", "fig9_loss_vs_power.csv", "plots.gp")
RUN = ("aggregate.csv", "runs.csv")
AUDIT = ("aggregate.csv", "bounds.csv", "runs.csv")

GOLDENS = (
    Golden("scenario", "run", "run", RUN + FIGURES,
           "a small grid (K=3, N=8, L=64; mpgps, ampgps and ompgps over M, U and "
           "power-budget axes, fairness on): all eight figures and the gnuplot script"),
    Golden("scenario", "check-bounds", "check-bounds", AUDIT + FIGURES,
           "the same grid's verify runs and bound report"),
    Golden("events", "run", "events", RUN + _events(2, 1),
           "mpgps and ompgps at M=2, U=3 with deadline drops and packet failures: the "
           "event logs, the only output with each packet's seq and its drop and fail rows"),
    Golden("audit", "check-bounds", "audit", AUDIT,
           "the audit_sweep benchmark's point (K=10, N=64, 80k symbols, ~7,800 arrivals "
           "a run): the event loop reads its arrival trace over more than one chunk"),
    Golden("saturated", "run", "saturated", RUN,
           "saturated ompgps at M=2, U=2 and 4, unequal weights, fairness on: every flow "
           "pair is backlogged over one shared interval, and the saturated avg_power"),
    Golden("power", "run", "power", RUN + _events(2, 4),
           "the power_mpgps benchmark's point (mpgps at M=2 and 4, 50 kb/s, four "
           "replications, event logs on), byte for byte where the benchmark reads 1e-9"),
    Golden("long_power", "run", "long_power", RUN,
           "mpgps and ompgps at M=1 and 4, time_corr 0.9, packet errors: an M=1 run "
           "plans its ~770 frames in more than one stack, the channel walking across"),
    Golden("rank", "check-bounds", "rank", AUDIT,
           "saturated ampgps at M_max = 2, 4, 6 and ompgps at M = 2, 4 with U = 4, 8: a "
           "verify run keeps each frame's ranked power per bit, so runs.csv pins ranking"),
    Golden("requeue", "run", "requeue", RUN + _events(4, 1),
           "pgps and mpgps at M = 1, 2, 3 with ~160 failures a run rejoining their "
           "queue heads, deadline drops, and queues stamped in two fluid busy periods"),
    Golden("saturated_deadline", "run", "saturated_deadline", RUN,
           "saturated runs of all four disciplines at K=10, M=4 with a 2 ms deadline "
           "that drains the queues, each refilled before its decision"),
)


def test_every_golden_is_in_the_table():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted({g.config for g in GOLDENS})
    assert (sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
            == sorted(g.out for g in GOLDENS))
    for g in GOLDENS:
        assert sorted(p.name for p in (GOLDEN / g.out).iterdir()) == sorted(g.files), g.out


def _run(tmp_path: Path, golden: Golden, *extra: str) -> None:
    out = tmp_path / golden.out
    args = [golden.command, str(GOLDEN / f"{golden.config}.json"), "--out", str(out), *extra]
    assert cli.main(args) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(golden.files)
    for name in golden.files:
        assert (out / name).read_bytes() == (GOLDEN / golden.out / name).read_bytes(), (
            f"{golden.out}/{name} changed; the golden pins {golden.why}")


@pytest.mark.parametrize("golden, workers", [
    pytest.param(g, w, id=g.out if w == 1 else f"{g.out}-workers{w}")
    for g in GOLDENS for w in (1, 2)])
def test_artifacts_match_golden(tmp_path, golden, workers):
    _run(tmp_path, golden, "--workers", str(workers))


def test_audit_at_benchmark_point_matches_golden(tmp_path, monkeypatch):
    stamped = []
    stamp = GpsReference.stamp
    monkeypatch.setattr(GpsReference, "stamp",
                        lambda gps, times, flows: stamped.extend(times) or stamp(gps, times, flows))
    arrival_trace.cache_clear()
    audit = next(g for g in GOLDENS if g.out == "audit")
    _run(tmp_path, audit, "--workers", "1")
    # its three runs share a seed and traffic, so one run's worth of stamping
    # serves them all
    args = [audit.command, str(GOLDEN / f"{audit.config}.json")]
    scenario = cli.build_scenario(cli.load_config(args[1]), cli.make_parser().parse_args(args))
    points = cli.grid_points(scenario)
    engines = [cli._build_engine(cli._make_task(scenario, p, 0, verify=True)) for p in points]
    assert len(points) == 3 and all(e.trace_args == engines[0].trace_args for e in engines)
    assert stamped == arrival_trace(*engines[0].trace_args).times.tolist()
