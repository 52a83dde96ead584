"""CLI artifacts against a committed golden copy.

``tests/golden/scenario.json`` is a small grid (K=3, N=8, L=64; mpgps,
ampgps and ompgps over M, U and power-budget axes; all eight figures, the
gnuplot script and the fairness gauge). Its ``run`` and ``check-bounds``
outputs are stored under ``tests/golden/<command>/``. Re-running the scenario
must reproduce every file byte for byte, so any change to the numbers, the
figure tables or the gnuplot script between commits shows up here.

``tests/golden/events.json`` (K=3, mpgps and ompgps at M=2, U=3, with
deadline drops and packet failures) pins the event logs, the only output that
carries each packet's seq and its drop and fail rows; its ``run`` output is
stored under ``tests/golden/events/``.

``tests/golden/audit.json`` is the benchmark's audit working point (K=10,
N=64, L=1024; pgps and mpgps at M=2 and 4, 80k-symbol horizon, error free),
about 7,800 arrivals a run, so the event loop reads its arrival trace over
more than one chunk; its ``check-bounds`` output is stored under
``tests/golden/audit/``.

``tests/golden/saturated.json`` (K=4, N=16, L=64, unequal weights; ompgps at
M=2 and U=2, 4, infinite backlog, 400 frames, fairness gauge on) pins the
saturated shape, in which every flow pair is backlogged over one shared
interval, and the saturated ``avg_power``; its ``run`` output is stored under
``tests/golden/saturated/``.

``tests/golden/power.json`` is the power benchmark's working point (K=10,
N=64, L=1024; mpgps at M=2 and 4, 50 kb/s, 2,000-symbol horizon, default
deadline, four replications) with event logs on. It pins a short power run's
arrival trace, frame schedule and power figures byte for byte, where the
benchmark compares floats to 1e-9 only; its ``run`` output is stored under
``tests/golden/power/``.

``tests/golden/long_power.json`` (K=10, N=64, L=1024; mpgps and ompgps at
M=1 and 4 with U=5, 50 kb/s, ``time_corr`` 0.9, packet errors on, an
8,000-symbol horizon, two replications) pins longer power runs: an M=1 run
starts ~770 frames, so a channel-blind run plans them in more than one
stack, and the correlated channel walks on across each stack boundary. Its
``run`` output is stored under ``tests/golden/long_power/``.

``tests/golden/rank.json`` (K=10, N=64, L=1024, r=2; ampgps at M_max = 2, 4
and 6 and ompgps at M = 2 and 4 with U = 4 and 8, infinite backlog, 40
frames) pins the composition ranking: a verify run keeps each frame's
ranked power per bit, so ``runs.csv`` carries the ranking's own values bit
for bit, from one-row ampgps prefixes to ompgps windows whose compositions
hold three or more flows. Its ``check-bounds`` output is stored under
``tests/golden/rank/``.

``tests/golden/requeue.json`` (K=3, N=8, L=64, unequal weights, per-flow
rates of 12, 20 and 6 kb/s; pgps, and mpgps at M = 1, 2 and 3; an 8 ms
deadline and target BER 1e-3, 20,000 symbols, event logs on) pins the
head-of-queue changes a stamp-ordered run meets: ~160 failed packets a run
rejoin their queue heads, deadlines drop one or two, and a few decisions
see a queue whose packets were stamped in two fluid busy periods, so a
packet behind the head can carry the smaller stamp. Its ``run`` output is
stored under ``tests/golden/requeue/``.

``tests/golden/saturated_deadline.json`` (K=10, N=64, L=1024, M = U = M_max
= 4; pgps, mpgps, ampgps and ompgps, infinite backlog, 300 frames, target
BER 1e-2 and a 2 ms deadline) pins saturated runs whose deadlines drain the
queues: almost every packet fails and expires, and each queue drained below
a batch is refilled before the decision. Its ``run`` output is stored under
``tests/golden/saturated_deadline/``.

To re-record after an intended output change, run each command with
``--out tests/golden/<command>`` (``run tests/golden/events.json --out
tests/golden/events`` for the event logs, ``check-bounds
tests/golden/audit.json --out tests/golden/audit`` for the audit, ``run
tests/golden/saturated.json --out tests/golden/saturated`` for the saturated
run, ``run tests/golden/power.json --out tests/golden/power`` for the power
run, ``run tests/golden/long_power.json --out tests/golden/long_power`` for
the long power runs, ``check-bounds tests/golden/rank.json --out
tests/golden/rank`` for the ranking, ``run tests/golden/requeue.json --out
tests/golden/requeue`` for the requeues, ``run tests/golden/saturated_deadline.json
--out tests/golden/saturated_deadline`` for the drained saturated runs) and
commit the diff with its reason.
"""
from pathlib import Path

import pytest

import mpgps_sim.cli as cli
from mpgps_sim import GpsReference
from mpgps_sim.engine import arrival_trace

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("command", ["run", "check-bounds"])
def test_artifacts_match_golden(tmp_path, command):
    out = tmp_path / command
    assert cli.main([command, str(GOLDEN / "scenario.json"), "--out", str(out)]) == 0
    _assert_same_files(out, GOLDEN / command)


def test_audit_at_benchmark_point_matches_golden(tmp_path, monkeypatch):
    stamped = []
    stamp = GpsReference.stamp
    monkeypatch.setattr(GpsReference, "stamp",
                        lambda gps, times, flows: stamped.extend(times) or stamp(gps, times, flows))
    arrival_trace.cache_clear()
    out = tmp_path / "audit"
    args = ["check-bounds", str(GOLDEN / "audit.json"), "--out", str(out)]
    assert cli.main(args) == 0
    names = _assert_same_files(out, GOLDEN / "audit")
    assert names == ["aggregate.csv", "bounds.csv", "runs.csv"]
    # its three runs share a seed and traffic, so one run's worth of stamping
    # serves them all
    scenario = cli.build_scenario(cli.load_config(args[1]), cli.make_parser().parse_args(args))
    points = cli.grid_points(scenario)
    engines = [cli._build_engine(cli._make_task(scenario, p, 0, verify=True)) for p in points]
    assert len(points) == 3 and all(e.trace_args == engines[0].trace_args for e in engines)
    assert stamped == arrival_trace(*engines[0].trace_args).times.tolist()


def _assert_same_files(out: Path, want: Path) -> list[str]:
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
    return names


def test_event_logs_match_golden(tmp_path):
    out = tmp_path / "events"
    assert cli.main(["run", str(GOLDEN / "events.json"), "--out", str(out)]) == 0
    names = _assert_same_files(out, GOLDEN / "events")
    assert names == ["aggregate.csv", "events_p0_r0.csv", "events_p1_r0.csv", "runs.csv"]


def test_saturated_fairness_run_matches_golden(tmp_path):
    out = tmp_path / "saturated"
    assert cli.main(["run", str(GOLDEN / "saturated.json"), "--out", str(out)]) == 0
    names = _assert_same_files(out, GOLDEN / "saturated")
    assert names == ["aggregate.csv", "runs.csv"]


def test_power_run_matches_golden(tmp_path):
    out = tmp_path / "power"
    assert cli.main(["run", str(GOLDEN / "power.json"), "--out", str(out)]) == 0
    names = _assert_same_files(out, GOLDEN / "power")
    assert names == ["aggregate.csv", *(f"events_p{p}_r{r}.csv" for p in range(2)
                                        for r in range(4)), "runs.csv"]


def test_long_power_runs_match_golden(tmp_path):
    out = tmp_path / "long_power"
    assert cli.main(["run", str(GOLDEN / "long_power.json"), "--out", str(out)]) == 0
    names = _assert_same_files(out, GOLDEN / "long_power")
    assert names == ["aggregate.csv", "runs.csv"]


def test_ranking_runs_match_golden(tmp_path):
    out = tmp_path / "rank"
    assert cli.main(["check-bounds", str(GOLDEN / "rank.json"), "--out", str(out)]) == 0
    names = _assert_same_files(out, GOLDEN / "rank")
    assert names == ["aggregate.csv", "bounds.csv", "runs.csv"]


def test_requeue_runs_match_golden(tmp_path):
    out = tmp_path / "requeue"
    assert cli.main(["run", str(GOLDEN / "requeue.json"), "--out", str(out)]) == 0
    names = _assert_same_files(out, GOLDEN / "requeue")
    assert names == ["aggregate.csv", *(f"events_p{p}_r0.csv" for p in range(4)), "runs.csv"]


def test_saturated_runs_drained_by_deadlines_match_golden(tmp_path):
    out = tmp_path / "saturated_deadline"
    assert cli.main(["run", str(GOLDEN / "saturated_deadline.json"), "--out", str(out)]) == 0
    names = _assert_same_files(out, GOLDEN / "saturated_deadline")
    assert names == ["aggregate.csv", "runs.csv"]
