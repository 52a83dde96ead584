"""Time one benchmark run's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <drop seed>...

Imports the simulator from ``src/``, then builds the configs, scenarios and
``Engine`` objects of the given drops, stopping before the first simulated
event. Prints the elapsed seconds, then three timings of the calibration
kernel taken right after (see ``calibrate.py``).
"""
import time

T0 = time.perf_counter()

import gc  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.ROOT / "src"))


def main(argv: list[str]) -> int:
    name, seeds = argv[0], [int(s) for s in argv[1:]]
    workload = workloads.make(name, workloads.load_specs()[name])
    for seed in seeds:
        workload.setup(seed)
    elapsed = time.perf_counter() - T0
    gc.collect()        # the kernel must not pay for the imports' garbage
    print(elapsed, *(calibrate.kernel_seconds() for _ in range(3)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
