"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/run_all.py [--seed 1] [--seconds 20] [--drops N]

Each run is a fresh ``run.py`` process. For every workload this prints the
output-check verdict with ``failed_frac`` (failed over attempted drops), the
end-to-end metrics and the per-layer metrics, each by name with its unit.
Exits non-zero if any output is wrong or any result breaks the schema that
``BENCHMARK.json`` defines.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_one(workload: str, trace: int, seed: int, seconds: float,
            drops: int | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if drops:
        cmd += ["--drops", str(drops)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def validate(result: dict, trace: int) -> list[str]:
    """Ways ``result`` departs from the result schema of BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    declared = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(declared):
        problems.append(f"metric names differ: missing {sorted(set(declared) - set(got))}, "
                        f"extra {sorted(set(got) - set(declared))}")
    for name, metric in got.items():
        if name not in declared:
            continue
        if metric.get("unit") != declared[name]:
            problems.append(f"{name}: unit {metric.get('unit')!r}, declared {declared[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}: value {value!r} is not a number")
        elif not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not positive")
    return problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--drops", type=int, default=None)
    args = p.parse_args(argv)
    ok = True
    for workload in BENCH["workloads"]:
        name = workload["name"]
        print(f"== {name}: {workload['why']}")
        for trace in (0, 1):
            result = run_one(name, trace, args.seed, args.seconds, args.drops)
            problems = validate(result, trace)
            ok = ok and result["correct"] and not problems
            verdict = "correct" if result["correct"] else "WRONG OUTPUT"
            failed_frac = result["failed"] / max(result["attempted"], 1)
            print(f"  [{'per-layer' if trace else 'end-to-end'}] output check: {verdict}; "
                  f"failed_frac {failed_frac:.6g} ({result['failed']} of "
                  f"{result['attempted']} drops)")
            for problem in problems:
                print(f"  schema: {problem}")
            for metric, m in result["metrics"].items():
                print(f"    {metric:<40} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
