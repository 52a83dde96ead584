"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload power_mpgps --seed 1 --seconds 20 --trace 0

The benchmark seed picks the run's drops (see ``workloads.py``). The run
repeats its drops in a fixed cycle until ``--seconds`` have passed and every
drop ran at least once, and checks every output against the reference.

With ``--trace 0`` it reports the end-to-end metrics:

* ``frames_per_s``: simulated frames over host seconds, summed over drops,
  each drop timed by the median of its repetitions;
* ``setup_s``: median over fresh interpreters of import plus building the
  run's configs and engines (``setup_probe.py``);
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it runs each drop untraced and then traced, and reports
the per-layer metrics of ``tracing.py`` per cycle, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy with the run's
context goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import workloads as wl

SETUP_PROBES = 7
CALIBRATE_EVERY_S = 0.3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--drops", type=int, default=None,
                   help="use only the first N drops (quick checks)")
    return p.parse_args(argv)


def _git_sha() -> str | None:
    if not (wl.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def context() -> dict:
    import numpy
    files = sorted((wl.ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(wl.ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_sha": _git_sha(), "src_lines": lines,
            "src_sha256": digest.hexdigest(), "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def probe_setup(name: str, seeds: list[int]) -> list[float]:
    """Nominal-speed set-up seconds, one per fresh interpreter."""
    cmd = [sys.executable, str(wl.HERE / "setup_probe.py"), name, *map(str, seeds)]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        elapsed, *kernel = map(float, done.stdout.split())
        out.append(elapsed * calibrate.scale(statistics.median(kernel)))
    return out


class Runner:
    """Runs and checks drops, keeping per-drop times of good repetitions.

    ``times`` holds nominal-speed times (see ``calibrate.py``), ``raw`` the
    host times they were scaled from. The kernel is timed between drops at
    most every ``CALIBRATE_EVERY_S``; each drop is scaled by the mean of the
    kernel timings just before and just after it.
    """

    def __init__(self, workload, seeds: list[int], reference: dict):
        self.workload = workload
        self.seeds = seeds
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.frames: dict[int, int] = {}
        self.times: dict[bool, dict[int, list[float]]] = {False: {}, True: {}}
        self.raw: dict[bool, dict[int, list[float]]] = {False: {}, True: {}}
        self.notes: dict = {}           # extra figures for the result file
        self._pending: list[tuple[bool, int, float]] = []
        calibrate.kernel_seconds()      # the first pass pays one-off imports
        self._kernel = self._time_kernel()
        self._kernel_at = time.perf_counter()

    @staticmethod
    def _time_kernel() -> float:
        # collect first, so the kernel never pays for a drop's garbage
        gc.collect()
        return calibrate.kernel_seconds()

    def flush(self) -> None:
        """Time the kernel and file the drops run since the last timing."""
        kernel = self._time_kernel()
        factor = calibrate.scale(self._kernel, kernel)
        for traced, seed, elapsed in self._pending:
            self.raw[traced].setdefault(seed, []).append(elapsed)
            self.times[traced].setdefault(seed, []).append(elapsed * factor)
        self._pending.clear()
        self._kernel = kernel
        self._kernel_at = time.perf_counter()

    def drop(self, seed: int, traced: bool) -> None:
        self.attempted += 1
        gc.collect()
        try:
            elapsed, stats = self.workload.run(seed)
        except Exception as exc:        # noqa: BLE001 - a raising drop is a failed drop
            self.failed += 1
            self.problems.append(f"drop {seed}: raised {exc!r}")
            return
        errors = wl.check(stats, self.reference.get(str(seed)))
        if errors:
            self.failed += 1
            self.problems += [f"drop {seed}: {e}" for e in errors[:5]]
            return
        self.frames[seed] = stats["frames"]
        self._pending.append((traced, seed, elapsed))
        if time.perf_counter() - self._kernel_at >= CALIBRATE_EVERY_S:
            self.flush()

    def wall(self, traced: bool, raw: bool = False) -> tuple[int, float]:
        """Frames and median seconds of one cycle, over good drops."""
        times = (self.raw if raw else self.times)[traced]
        return (sum(self.frames[s] for s in times),
                sum(statistics.median(t) for t in times.values()))


def end_to_end(runner: Runner, seconds: float, name: str) -> dict:
    setup = probe_setup(name, runner.seeds)
    seeds = runner.seeds
    start = time.perf_counter()
    for i in itertools.count():
        runner.drop(seeds[i % len(seeds)], traced=False)
        if i + 1 >= len(seeds) and time.perf_counter() - start >= seconds:
            break
    runner.flush()
    frames, wall = runner.wall(False)
    _, host_wall = runner.wall(False, raw=True)
    runner.notes.update(host_frames_per_s=frames / host_wall if host_wall else 0.0,
                        setup_s_samples=setup)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "frames_per_s": {"value": frames / wall if wall else 0.0, "unit": "frames/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def per_layer(runner: Runner, seconds: float, name: str, seed: int) -> dict:
    from tracing import Tracer, layer_targets
    tracer = Tracer(layer_targets())
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - start < seconds:
        # each traced drop right after its untraced twin, so that drift in
        # machine speed cancels out of the overhead
        for drop_seed in runner.seeds:
            runner.drop(drop_seed, traced=False)
            with tracer:
                runner.drop(drop_seed, traced=True)
        runner.flush()
        cycles += 1
    wl.RESULTS.mkdir(parents=True, exist_ok=True)
    tracer.save(wl.RESULTS / f"spans-{name}-seed{seed}.npz")

    spans = tracer.summary()
    frames, traced_wall = runner.wall(True)
    _, plain_wall = runner.wall(False)
    out = {}
    units = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}
    for span, stats in spans.items():
        stats["calls"] /= cycles
        stats["self_s"] /= cycles
        for key, value in stats.items():
            out[f"{span}.{key}"] = {"value": value, "unit": units[key]}
    solves = spans["allocation.solve_transport"]["calls"]
    ranked = spans["allocation.composition_value"]["calls"]
    out["allocation.solves_per_frame"] = {
        "value": (solves + ranked) / frames if frames else 0.0, "unit": "1/frame"}
    out["scheduling.compositions_per_frame"] = {
        "value": ranked / frames if frames else 0.0, "unit": "1/frame"}
    out["cli.write_csv.bytes"] = {
        "value": tracer.bytes_written["cli.write_csv"] / cycles, "unit": "B"}
    out["trace.overhead_frac"] = {
        "value": (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0,
        "unit": "ratio"}
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (wl.ROOT / "src" / "mpgps_sim" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {wl.ROOT / 'src'}", file=sys.stderr)
        return 2
    if not wl.REFERENCE.is_file():
        print(f"perfbench: reference file {wl.REFERENCE} is missing", file=sys.stderr)
        return 2
    specs = wl.load_specs()
    if args.workload not in specs:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.ROOT / "src"))
    import mpgps_sim
    if not os.path.samefile(os.path.dirname(mpgps_sim.__file__),
                            wl.ROOT / "src" / "mpgps_sim"):
        print(f"perfbench: imported {mpgps_sim.__file__}, not the checkout", file=sys.stderr)
        return 2

    spec = specs[args.workload]
    seeds = wl.drop_seeds(args.workload, spec, args.seed, args.drops)
    workload = wl.make(args.workload, spec)
    workload.write_inputs(seeds)
    reference = json.loads(wl.REFERENCE.read_text())[args.workload]
    runner = Runner(workload, seeds, reference)
    if args.trace:
        metrics = per_layer(runner, args.seconds, args.workload, args.seed)
    else:
        metrics = end_to_end(runner, args.seconds, args.workload)

    result = {"correct": runner.failed == 0 and runner.attempted > 0,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    wl.RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "drops": seeds, "context": context(),
              "failed_frac": runner.failed / max(runner.attempted, 1),
              "problems": runner.problems[:50],
              **runner.notes,
              "samples_s": {str(s): t for s, t in runner.times[False].items()},
              "host_samples_s": {str(s): t for s, t in runner.raw[False].items()},
              "traced_samples_s": {str(s): t for s, t in runner.times[True].items()},
              "result": result}
    path = wl.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for problem in runner.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
