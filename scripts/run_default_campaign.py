#!/usr/bin/env python
"""End-to-end run with the built-in defaults.

Simulates the full companion-number grid, analyzes the traces, and fits the
inter-species loss coefficient, leaving every artifact under one output
directory. Handy both as a smoke test and as the reference campaign the
acceptance checks time themselves against.

Usage: run_default_campaign.py [OUT_DIR] [--seed N] [--traces N] [--workers N]
       [--bootstrap N]
"""

import argparse
import sys
import time
from pathlib import Path

from motprobe.cli import main as cli_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", default="runs/default")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--traces", type=int, default=200)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--bootstrap", type=int, default=0)
    args = parser.parse_args(argv)

    out = Path(args.out_dir)
    traces = out / "traces.jsonl"
    t0 = time.perf_counter()

    rc = cli_main([
        "simulate",
        "--out", str(traces),
        "--seed", str(args.seed),
        "--traces", str(args.traces),
        "--workers", str(args.workers),
    ])
    if rc != 0:
        return rc
    rc = cli_main(["analyze", str(traces), "--out", str(out / "analysis")])
    if rc != 0:
        return rc
    fit_args = ["fit", str(traces), "--out", str(out / "fit")]
    if args.bootstrap > 0:
        fit_args += ["--bootstrap", str(args.bootstrap), "--seed", str(args.seed)]
    rc = cli_main(fit_args)
    if rc != 0:
        return rc

    print(f"campaign finished in {time.perf_counter() - t0:.1f} s; see {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(run())
