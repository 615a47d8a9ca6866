#!/usr/bin/env python3
"""Benchmark of the motprobe chain: one workload per process.

Usage (from the repository root):

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Runs whole passes of the workload until the next pass would end past
``--seconds``, checks the outputs of every pass, and prints one JSON object
as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json
(``setup_s``, ``pass_s``, ``peak_rss_mb``); with ``--trace 1`` the program's
public functions are wrapped and the metrics are the per-layer ones. Times
are speed-corrected (see probe.py). Each pass's raw and corrected times,
its probe samples and every failed check go to ``bench/out/`` as JSON, and
the spans of a traced run to ``bench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import probe  # noqa: E402  (stdlib only; numpy comes with the program)
import workloads  # noqa: E402

MIN_PASSES = 3
# Fresh-process set-ups timed after the passes, on top of the run's own.
SETUP_SAMPLES = 4
# Stop starting passes after this long, whatever --seconds says, so that a
# run ends well inside the 180 s a run may take.
HARD_STOP_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def setup_sample(name: str, seed: int, workdir: Path) -> dict:
    """Time one set-up in a fresh interpreter (see setup_sample.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_sample.py"), name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def derived_layer_metrics(layer: dict, wl, workdir: Path) -> dict:
    """Ratios to the pass's input size and the bytes the pass left on disk."""
    traces, bins = wl.traces_per_pass(), wl.bins_per_pass()
    staircases = layer.get("photon.estimate_staircase.calls", 0)
    histograms = layer.get("photon.build_histogram.calls", 0)
    layer["photon.estimate_staircase.calls_per_trace"] = staircases / traces if traces else 0.0
    layer["photon.build_histogram.calls_per_bin"] = histograms / bins if bins else 0.0
    layer["traceio.bytes_written"] = sum(
        p.stat().st_size for p in workdir.rglob("*") if p.is_file() and p.name != "config.json"
    )
    return layer


def run(args, specs: dict, workdir: Path) -> tuple[dict, dict]:
    setup_timing, wl = probe.Sampler(probe.stdlib_kernel, probe.NOMINAL_S["stdlib"]).time(
        lambda: workloads.setup(args.workload, args.seed, workdir)
    )
    import motprobe

    if Path(motprobe.__file__).resolve().parent != ROOT / "src" / "motprobe":
        raise RuntimeError(f"imported motprobe from {motprobe.__file__}, not from src/")
    wl.prepare_checks()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    sampler = probe.Sampler(
        probe.make_full_kernel(), probe.NOMINAL_S["full"],
        on_probe=tracer.on_probe if tracer else None,
    )

    passes, layers = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        wl.clear_outputs()
        mark = tracer.mark() if tracer else None
        timing, stages = sampler.time(wl.run_pass)
        checks = wl.check_pass(stages)
        attempted += len(checks)
        failed += sum(not c.passed for c in checks)
        if not passes:
            first_checks = [f"{c.name}: {c.detail}" for c in checks]
        passes.append({
            **timing.to_dict(),
            "failed_checks": [vars(c) for c in checks if not c.passed],
        })
        if tracer:
            layer = tracer.pass_metrics(mark, timing.factor)
            layer["trace.pass_s"] = timing.corrected_s
            layers.append(derived_layer_metrics(layer, wl, workdir))
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and (
            elapsed + timing.wall_s > args.seconds or elapsed > HARD_STOP_S
        ):
            break

    log = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "first_pass_checks": first_checks, "passes": passes,
    }
    if tracer:
        tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}.npz")
        metrics = {}
        for name, unit in specs["per_layer"].items():
            values = [layer.get(name, 0) for layer in layers]
            if unit == "s":
                value = statistics.median(values)
            else:
                # Counts repeat exactly from pass to pass; a mismatch is logged.
                value = values[0]
                if any(v != value for v in values):
                    log.setdefault("unsteady_counts", {})[name] = values
            metrics[name] = {"value": value, "unit": unit}
        log["layers"] = layers
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_timing.to_dict()]
        for i in range(SETUP_SAMPLES):
            setups.append(setup_sample(args.workload, args.seed, workdir / f"setup{i}"))
        log["setups"] = setups
        values = {
            "setup_s": statistics.median(s["corrected_s"] for s in setups),
            "pass_s": statistics.median(p["corrected_s"] for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in specs["end_to_end"].items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    log["result"] = result
    return result, log


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "motprobe" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'motprobe'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    specs = metric_specs()
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        result, log = run(args, specs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(parents=True, exist_ok=True)
    log_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log_path.write_text(json.dumps(log, indent=1))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(
        f"{args.workload} attempted {result['attempted']} failed {result['failed']} "
        f"over {len(log['passes'])} passes; log {log_path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
