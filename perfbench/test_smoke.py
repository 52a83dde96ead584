"""Smoke check of the benchmark runner.

    python3 -m pytest perfbench/test_smoke.py      (or: python3 perfbench/test_smoke.py)

Runs every workload for one drop, untraced and traced, and checks that each
result is correct and matches the schema in BENCHMARK.json; then checks that
the runner refuses to run in a directory without the simulator sources.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run_all  # noqa: E402


def test_every_workload_matches_the_schema():
    for workload in run_all.BENCH["workloads"]:
        for trace in (0, 1):
            result = run_all.run_one(workload["name"], trace, seed=1, seconds=0.1, drops=1)
            assert run_all.validate(result, trace) == []
            assert result["correct"], result


def test_traced_run_attributes_time_to_the_chosen_layer():
    result = run_all.run_one("power_mpgps", 1, seed=1, seconds=0.1, drops=1)["metrics"]
    assert result["allocation.solve_transport.calls"]["value"] > 0
    assert result["allocation.composition_value.calls"]["value"] == 0
    assert result["cli.execute.calls"]["value"] == 0


def test_refuses_to_run_without_sources():
    bare = HERE / "results" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "power_mpgps",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


if __name__ == "__main__":
    for test in (test_every_workload_matches_the_schema,
                 test_traced_run_attributes_time_to_the_chosen_layer,
                 test_refuses_to_run_without_sources):
        test()
        print(f"ok {test.__name__}")
