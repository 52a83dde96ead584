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

To re-record after an intended output change, run each command with
``--out tests/golden/<command>`` (``run tests/golden/events.json --out
tests/golden/events`` for the event logs) and commit the diff with its reason.
"""
from pathlib import Path

import pytest

import mpgps_sim.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("command", ["run", "check-bounds"])
def test_artifacts_match_golden(tmp_path, command):
    out = tmp_path / command
    assert cli.main([command, str(GOLDEN / "scenario.json"), "--out", str(out)]) == 0
    want = GOLDEN / command
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


def test_event_logs_match_golden(tmp_path):
    out = tmp_path / "events"
    assert cli.main(["run", str(GOLDEN / "events.json"), "--out", str(out)]) == 0
    want = GOLDEN / "events"
    names = sorted(p.name for p in want.iterdir())
    assert names == ["aggregate.csv", "events_p0_r0.csv", "events_p1_r0.csv", "runs.csv"]
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
