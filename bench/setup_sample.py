#!/usr/bin/env python3
"""Time one workload set-up in this fresh interpreter and print it as JSON.

Usage: setup_sample.py WORKLOAD SEED WORKDIR

Set-up is the program's imports, the config and the input files, that is
everything before the first timed pass. run.py starts this script several
times per run, because imports can be timed only once per process.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import probe  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, workdir = argv
    timing, _ = probe.Sampler(probe.stdlib_kernel, probe.NOMINAL_S["stdlib"]).time(
        lambda: workloads.setup(name, int(seed), Path(workdir))
    )
    print(json.dumps(timing.to_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
