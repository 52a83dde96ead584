"""Record the reference statistics of every drop in every workload's pool.

    python3 perfbench/record_reference.py [workload...]

Run this only at a commit whose outputs are trusted: the benchmark fails any
drop whose statistics differ from what this writes to ``reference.json``.
A drop that breaks packet conservation or a bound is refused here too.
"""
from __future__ import annotations

import json
import sys

import workloads as wl


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(wl.ROOT / "src"))
    specs = wl.load_specs()
    reference = json.loads(wl.REFERENCE.read_text()) if wl.REFERENCE.is_file() else {}
    for name in argv or list(specs):
        spec = specs[name]
        workload = wl.make(name, spec)
        seeds = list(range(1, spec["pool"] + 1))
        workload.write_inputs(seeds)
        table = {}
        for seed in seeds:
            _, stats = workload.run(seed)
            problems = wl.check(stats, stats)
            if problems:
                raise SystemExit(f"{name} drop {seed}: {problems}")
            table[str(seed)] = stats
        reference[name] = table
        print(f"{name}: {len(table)} drops recorded", file=sys.stderr)
    wl.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
