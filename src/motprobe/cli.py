"""Command-line front end.

Four subcommands cover the whole workflow:

  simulate  stochastic shots over the companion-number grid -> traces JSONL
  analyze   traces JSONL -> per-bin summary CSV and count-rate histograms
  fit       traces or bin summary -> loss-coefficient report and model curve
  oracle    self-checks of the simulator against closed-form results

The handlers parse arguments, format and write files: the work is done by
the same library calls a script makes in process (simulate_grid_bins per
worker's run of bins, iter_bins or bin_by_nrb, fit_campaign).

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .inference import (
    DEFAULT_STEADY_TOL,
    BinnedDataset,
    InferenceError,
    bin_by_nrb,
    fit_campaign,
    iter_bins,
)
from .photon import SimulatedBin, build_histogram, simulate_grid_bins
from .physics import steady_state_mean
from .oracles import overlap_checks, poisson_end_state_check, transient_checks
from .traceio import (
    read_bins_csv,
    read_traces_jsonl,
    trace_lines,
    trajectory_records,
    write_bins_csv,
    write_curve_csv,
    write_histogram_csv,
    write_report_json,
)

__all__ = ["main"]


def _bin_lines(b: SimulatedBin, cfg: RunConfig, dump: bool) -> tuple[str, str | None]:
    """The JSON lines of one simulated bin: its traces, and its trajectories
    when dump is set (else None), in trace order."""
    trace_text = trace_lines(b.trace_ids, b.n_rb, cfg.calibration.bin_s, b.segments, b.counts)
    traj_text = None
    if dump:
        traj_text = "".join(
            json.dumps(record) + "\n" for record in trajectory_records(b.trace_ids, b.events)
        )
    return trace_text, traj_text


def _simulate_run_job(bins: range, cfg: RunConfig, dump: bool) -> list[tuple[str, str | None]]:
    """_bin_lines of each bin of one worker's run of bins, in bin order.

    Top-level so process pools can pickle it; every bin's seeding is in
    simulate_grid_bins, making the output identical for any worker count
    and any split of the grid into runs.
    """
    return [_bin_lines(b, cfg, dump) for b in simulate_grid_bins(cfg, bins)]


@contextmanager
def _replaced_on_success(path: Path):
    """Write to a temporary file beside path; move it onto path when the
    block succeeds and remove it when the block fails, so path never holds
    a partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_simulate(args) -> int:
    if args.traces is not None and args.traces < 1:
        print("error: --traces must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    overrides = {"master_seed": args.seed, "traces_per_bin": args.traces}
    cfg = replace(
        load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
    )

    n_bins = len(cfg.grid.values())
    # A pool starts all its processes up front, and each takes one run of bins.
    cpus = os.cpu_count() or 1
    workers = min(args.workers, cpus, n_bins)
    if workers < args.workers:
        print(
            f"note: --workers {args.workers} reduced to {workers} "
            f"({cpus} CPUs, {n_bins} bins)",
            file=sys.stderr,
        )
    # Each worker's bins are one contiguous run, stepped in one event loop.
    runs = [range(k * n_bins // workers, (k + 1) * n_bins // workers) for k in range(workers)]

    out_path = Path(args.out) if args.out else Path(cfg.out_dir) / "traces.jsonl"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    traj_path = out_path.with_name("trajectories.jsonl") if args.dump_trajectories else None

    t0 = time.perf_counter()
    with ExitStack() as stack:
        traj_fh = None
        if traj_path:
            traj_fh = stack.enter_context(_replaced_on_success(traj_path))
        fh = stack.enter_context(_replaced_on_success(out_path))
        if workers > 1:
            # Imported here: multiprocessing is a cost a one-worker run skips.
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            job = functools.partial(_simulate_run_job, cfg=cfg, dump=args.dump_trajectories)
            results = itertools.chain.from_iterable(pool.map(job, runs))
        else:
            # One run of the whole grid, each bin written as it comes.
            results = (
                _bin_lines(b, cfg, args.dump_trajectories)
                for b in simulate_grid_bins(cfg, runs[0])
            )
        for trace_text, traj_text in results:
            fh.write(trace_text)
            if traj_fh:
                traj_fh.write(traj_text)
    n = n_bins * cfg.traces_per_bin
    elapsed = time.perf_counter() - t0

    if not args.quiet:
        print(
            f"wrote {n} traces across {n_bins} companion-number bins "
            f"to {out_path} in {elapsed:.1f} s"
        )
        if traj_path:
            print(f"wrote event dumps to {traj_path}")
    return 0


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    cal = cfg.calibration
    # Each bin's histogram comes from the table its staircase used.
    hists = []
    bins = []
    for b, members in iter_bins(read_traces_jsonl(args.traces), cal, cfg.grid):
        bins.append(b)
        hists.append(build_histogram(members, cal))
        # Let go of the bin's table before the next one is built.
        del members

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_bins_csv(out_dir / "bins.csv", BinnedDataset(bins))
    for b, hist in zip(bins, hists):
        write_histogram_csv(out_dir / f"hist_nrb{int(round(b.center)):05d}.csv", hist)

    header = (
        f"{'n_rb':>6} {'traces':>6} {'mean':>8} {'se':>8} "
        f"{'load/s':>8} {'loss/s':>8} {'ratio':>7} {'lambda':>8}"
    )
    print(header)
    for b in bins:
        ratio = b.load_loss_ratio
        print(
            f"{b.center:>6.0f} {b.n_traces:>6d} {b.mean_n_cs:>8.4f} "
            f"{b.se_mean_n_cs:>8.4f} {b.loading_rate:>8.4f} "
            f"{b.loss_counts_per_time:>8.4f} "
            f"{ratio:>7.3f} {b.poisson_lambda:>8.4f}"
        )
    print(f"wrote {out_dir / 'bins.csv'} and {len(bins)} histograms")
    return 0


def _curve_rows(cfg: RunConfig, params_fit, fitted_bins):
    grid = cfg.grid
    lo, hi = float(grid.min), float(grid.max)
    # 201 distinct points, as the grid's ends are integers, unless they meet.
    points = np.linspace(lo, hi, 201) if hi > lo else [lo]
    # The fitted branch starts at the lower edge of the lowest steady bin.
    fitted_from = min(fitted_bins) - grid.step / 2.0
    rows = []
    for n_rb in points:
        try:
            mean = steady_state_mean(float(n_rb), params_fit)
        except ZeroDivisionError as exc:
            raise ZeroDivisionError(
                f"division by zero while tabulating the model curve at "
                f"n_rb = {n_rb:g}: {exc}"
            ) from exc
        branch = "fitted" if n_rb >= fitted_from else "extrapolated"
        rows.append((float(n_rb), mean, branch))
    return rows


def cmd_fit(args) -> int:
    if args.bootstrap < 0 or args.bootstrap == 1:
        print("error: --bootstrap must be 0 (skip) or >= 2", file=sys.stderr)
        return 2
    if not 0 <= args.tol < math.inf:
        print("error: --tol must be finite and >= 0", file=sys.stderr)
        return 2
    path = Path(args.input)
    if path.suffix not in (".jsonl", ".csv"):
        print(
            "error: input must be a .jsonl trace file or a .csv bin summary",
            file=sys.stderr,
        )
        return 2
    if path.suffix == ".csv" and args.bootstrap:
        print(
            "error: --bootstrap needs a .jsonl trace file; a .csv bin summary "
            "holds no trace-level means",
            file=sys.stderr,
        )
        return 2
    cfg = load_config(args.config)
    if path.suffix == ".jsonl":
        binned = bin_by_nrb(read_traces_jsonl(path), cfg.calibration, cfg.grid)
    else:
        binned = read_bins_csv(path)
    fit = fit_campaign(
        binned, cfg.physics, tol=args.tol, bootstrap=args.bootstrap, seed=args.seed
    )
    report = fit.report

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(out_dir / "report.json", report)

    # The curve uses the fitted loading line and loss coefficient; clamping
    # guards against a noise-driven negative estimate, which the constructor
    # would reject.
    params_fit = replace(
        cfg.physics,
        r0=max(report["r0_per_s"], 0.0),
        alpha=max(report["alpha_per_s_per_rb"], 0.0),
        beta_rbcs=max(report["beta_rbcs_cm3_per_s"], 0.0),
    )
    steady = report["steady_bins"]
    write_curve_csv(out_dir / "steady_state_curve.csv", _curve_rows(cfg, params_fit, steady))

    write_bins_csv(out_dir / "fit_bins.csv", binned, labels=fit.labels)

    print(
        f"loading line: r0 = {report['r0_per_s']:.4g} +- {report['r0_err_per_s']:.2g} /s, "
        f"alpha = {report['alpha_per_s_per_rb']:.4g} "
        f"+- {report['alpha_err_per_s_per_rb']:.2g} /s per atom"
    )
    print(
        f"steady bins: {min(steady):g}..{max(steady):g} "
        f"({report['goodness']['beta_points']} of {report['n_bins']})"
    )
    err_bits = [f"{report['stat_err_cm3_per_s']:.2g} (stat)"]
    if "stat_err_bootstrap_cm3_per_s" in report:
        err_bits.append(f"{report['stat_err_bootstrap_cm3_per_s']:.2g} (bootstrap)")
    err_bits.append(f"{report['syst_err_cm3_per_s']:.2g} (syst)")
    print(
        f"beta_rbcs = {report['beta_rbcs_cm3_per_s']:.4g} cm^3/s +- " + " +- ".join(err_bits)
    )
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def cmd_oracle(args) -> int:
    kwargs = {"master_seed": args.seed}
    if args.runs is not None:
        if args.runs < 2:
            print("error: --runs must be >= 2", file=sys.stderr)
            return 2
        kwargs["runs"] = args.runs
    checks = []

    def run(group):
        # Printed as each group returns, so that a later group's error
        # does not lose the lines of the earlier ones.
        for c in group:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
        checks.extend(group)

    if args.which in ("overlap", "all"):
        run(overlap_checks())
    if args.which in ("transient", "all"):
        params = RunConfig.default().physics
        sets = [
            ("default-1100", 1100.0, params),
            ("default-2200", 2200.0, params),
            ("no-companion", 0.0, params),
        ]
        run(transient_checks(sets, **kwargs))
    if args.which in ("poisson", "all"):
        run([poisson_end_state_check(**kwargs)])
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motprobe",
        description="Single-atom collisional probe: simulation and inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate fluorescence traces")
    p_sim.add_argument("--config", help="JSON config file (defaults built in)")
    p_sim.add_argument("--out", help="output traces path (JSONL)")
    p_sim.add_argument("--seed", type=int, help="override the master seed")
    p_sim.add_argument("--traces", type=int, help="override traces per bin")
    p_sim.add_argument("--workers", type=int, default=1, help="worker processes")
    p_sim.add_argument(
        "--dump-trajectories", action="store_true",
        help="also write the underlying event lists",
    )
    p_sim.add_argument("--quiet", action="store_true", help="suppress the summary line")
    p_sim.set_defaults(func=cmd_simulate)

    p_ana = sub.add_parser("analyze", help="bin traces and build histograms")
    p_ana.add_argument("traces", help="traces JSONL from simulate")
    p_ana.add_argument("--config", help="JSON config file")
    p_ana.add_argument("--out", default="analysis", help="output directory")
    p_ana.set_defaults(func=cmd_analyze)

    p_fit = sub.add_parser("fit", help="fit the inter-species loss coefficient")
    p_fit.add_argument("input", help="traces .jsonl or bins .csv")
    p_fit.add_argument("--config", help="JSON config file")
    p_fit.add_argument("--out", default="fit", help="output directory")
    p_fit.add_argument(
        "--tol", type=float, default=DEFAULT_STEADY_TOL,
        help="steady-state tolerance on |load/loss - 1|",
    )
    p_fit.add_argument(
        "--bootstrap", type=int, default=0,
        help="bootstrap resamples for the statistical error (0 = skip)",
    )
    p_fit.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    p_fit.set_defaults(func=cmd_fit)

    p_orc = sub.add_parser("oracle", help="run simulator self-checks")
    p_orc.add_argument(
        "which", nargs="?", default="all",
        choices=["overlap", "transient", "poisson", "all"],
    )
    p_orc.add_argument("--runs", type=int, help="trajectories per check")
    p_orc.add_argument(
        "--seed", type=int, default=777,
        help="master seed of the transient and Poisson checks",
    )
    p_orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # Every --seed feeds numpy's SeedSequence, which takes no negative entropy.
    if getattr(args, "seed", None) is not None and args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    # ConfigError and TraceFileError are ValueErrors; OSError covers an
    # input that is missing and an output that cannot be written.
    except (InferenceError, ZeroDivisionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
