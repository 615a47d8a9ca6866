"""Command-line front end.

Four subcommands cover the whole workflow:

  simulate  stochastic shots over the companion-number grid -> traces JSONL
  analyze   traces JSONL -> per-bin summary CSV and count-rate histograms
  fit       traces or bin summary -> loss-coefficient report and model curve
  oracle    self-checks of the simulator against closed-form results

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
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
from .gillespie import PHOTON_STREAM, derive_seeds, seeded_generators, simulate_bin
from .inference import (
    DEFAULT_STEADY_TOL,
    InferenceError,
    bin_by_nrb,
    bootstrap_stat_error,
    classify_steady_state,
    fit_beta,
    fit_loading_rate,
    propagate_systematics,
)
from .photon import segment_map_for, synthesize_bin
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


def _simulate_bin_job(job, params, cal, schedule, master_seed, dump):
    """One companion-number bin: its JSON lines of traces, and of
    trajectories when dump is set (else None), in trace order.

    Top-level so process pools can pickle it; all randomness flows from seeds
    derived from (master_seed, stream, bin_index, trace_index), making the
    output identical for any worker count or evaluation order.
    """
    bi, n_rb, traces = job
    seg = segment_map_for(schedule, cal.bin_s)
    table = simulate_bin(n_rb, params, schedule, master_seed, bi, traces)
    seeds = derive_seeds(master_seed, PHOTON_STREAM, bi, count=traces)
    counts = synthesize_bin(table, cal, seg, seeded_generators(seeds))
    trace_ids = [f"b{bi:02d}t{ti:04d}" for ti in range(traces)]
    trace_text = trace_lines(trace_ids, n_rb, cal.bin_s, seg, counts)
    traj_text = None
    if dump:
        traj_text = "".join(
            json.dumps(record) + "\n" for record in trajectory_records(trace_ids, table)
        )
    return trace_text, traj_text


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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.master_seed = int(args.seed)
    if args.traces is not None:
        cfg.traces_per_bin = int(args.traces)

    values = cfg.grid.values()
    jobs = [(bi, float(n_rb), cfg.traces_per_bin) for bi, n_rb in enumerate(values)]
    # A pool starts all its processes up front, and a job is one bin.
    cpus = os.cpu_count() or 1
    workers = min(args.workers, cpus, len(jobs))
    if workers < args.workers:
        print(
            f"note: --workers {args.workers} reduced to {workers} "
            f"({cpus} CPUs, {len(jobs)} bins)",
            file=sys.stderr,
        )

    out_path = Path(args.out) if args.out else Path(cfg.out_dir) / "traces.jsonl"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    traj_path = out_path.with_name("trajectories.jsonl") if args.dump_trajectories else None

    worker = functools.partial(
        _simulate_bin_job,
        params=cfg.physics,
        cal=cfg.calibration,
        schedule=cfg.schedule,
        master_seed=cfg.master_seed,
        dump=args.dump_trajectories,
    )
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
            results = pool.map(worker, jobs)
        else:
            results = map(worker, jobs)
        for trace_text, traj_text in results:
            fh.write(trace_text)
            if traj_fh:
                traj_fh.write(traj_text)
    n = len(jobs) * cfg.traces_per_bin
    elapsed = time.perf_counter() - t0

    if not args.quiet:
        print(
            f"wrote {n} traces across {len(values)} companion-number bins "
            f"to {out_path} in {elapsed:.1f} s"
        )
        if traj_path:
            print(f"wrote event dumps to {traj_path}")
    return 0


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    binned = _bin_traces(args.traces, cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_bins_csv(out_dir / "bins.csv", binned)
    for b in binned.bins:
        write_histogram_csv(out_dir / f"hist_nrb{int(round(b.center)):05d}.csv", b.histogram)

    header = (
        f"{'n_rb':>6} {'traces':>6} {'mean':>8} {'se':>8} "
        f"{'load/s':>8} {'loss/s':>8} {'ratio':>7} {'lambda':>8}"
    )
    print(header)
    for b in binned.bins:
        ratio = b.load_loss_ratio
        print(
            f"{b.center:>6.0f} {b.n_traces:>6d} {b.mean_n_cs:>8.4f} "
            f"{b.se_mean_n_cs:>8.4f} {b.loading_rate:>8.4f} "
            f"{b.loss_counts_per_time:>8.4f} "
            f"{ratio:>7.3f} {b.poisson_lambda:>8.4f}"
        )
    print(f"wrote {out_dir / 'bins.csv'} and {len(binned.bins)} histograms")
    return 0


def _bin_traces(path, cfg: RunConfig):
    """The traces of a JSONL file, binned on the config grid. A trace whose
    nearest grid point lies outside [grid.min, grid.max] is refused."""
    grid = cfg.grid
    return bin_by_nrb(
        read_traces_jsonl(path), cfg.calibration,
        width=float(grid.step), origin=float(grid.min),
        bounds=(float(grid.min), float(grid.max)),
    )


def _curve_rows(cfg: RunConfig, params_fit, fitted_bins, width):
    lo, hi = float(cfg.grid.min), float(cfg.grid.max)
    # 201 distinct points, as the grid's ends are integers, unless they meet.
    points = np.linspace(lo, hi, 201) if hi > lo else [lo]
    fitted_from = min(fitted_bins) - width / 2.0
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
    cfg = load_config(args.config)
    if path.suffix == ".jsonl":
        binned = _bin_traces(path, cfg)
    else:
        binned = read_bins_csv(path)
    params = cfg.physics

    loading = fit_loading_rate(binned)
    labels = classify_steady_state(binned, args.tol)
    beta_fit = fit_beta(binned, params, loading, labels=labels)
    syst = propagate_systematics(params, beta_fit)
    boot = None
    if args.bootstrap > 0:
        boot = bootstrap_stat_error(
            binned, params, loading, beta_fit,
            resamples=args.bootstrap, seed=args.seed,
        )

    report = {
        "r0_per_s": loading.r0,
        "r0_err_per_s": loading.r0_err,
        "alpha_per_s_per_rb": loading.alpha,
        "alpha_err_per_s_per_rb": loading.alpha_err,
        "beta_rbcs_cm3_per_s": beta_fit.beta,
        "stat_err_cm3_per_s": beta_fit.stat_err,
        "syst_err_cm3_per_s": syst,
        "steady_bins": beta_fit.fitted_bins,
        "goodness": {
            "beta_chi2": beta_fit.goodness,
            "beta_points": beta_fit.n_points,
            "loading_chi2": loading.chi2,
            "loading_dof": loading.dof,
        },
        "n_bins": len(binned.bins),
        "tol": args.tol,
    }
    if boot is not None:
        report["stat_err_bootstrap_cm3_per_s"] = boot

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(out_dir / "report.json", report)

    # The curve uses the fitted loading line and loss coefficient; clamping
    # guards against a noise-driven negative estimate, which the constructor
    # would reject.
    params_fit = replace(
        params,
        r0=max(loading.r0, 0.0),
        alpha=max(loading.alpha, 0.0),
        beta_rbcs=max(beta_fit.beta, 0.0),
    )
    rows = _curve_rows(cfg, params_fit, beta_fit.fitted_bins, binned.width)
    write_curve_csv(out_dir / "steady_state_curve.csv", rows)

    write_bins_csv(out_dir / "fit_bins.csv", binned, labels=labels)

    print(
        f"loading line: r0 = {loading.r0:.4g} +- {loading.r0_err:.2g} /s, "
        f"alpha = {loading.alpha:.4g} +- {loading.alpha_err:.2g} /s per atom"
    )
    steady = beta_fit.fitted_bins
    print(
        f"steady bins: {min(steady):g}..{max(steady):g} "
        f"({beta_fit.n_points} of {len(binned.bins)})"
    )
    err_bits = [f"{beta_fit.stat_err:.2g} (stat)"]
    if boot is not None:
        err_bits.append(f"{boot:.2g} (bootstrap)")
    err_bits.append(f"{syst:.2g} (syst)")
    print(
        f"beta_rbcs = {beta_fit.beta:.4g} cm^3/s +- " + " +- ".join(err_bits)
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
