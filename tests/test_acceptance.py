"""End-to-end acceptance checks for the release gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured numbers, then asserts. Campaign-level criteria share the
session fixture so the full pipeline runs once.
"""

import numpy as np
import pytest

from motprobe.cli import main as cli_main
from motprobe.config import RunConfig
from motprobe.gillespie import (
    PHOTON_STREAM,
    TRAJECTORY_STREAM,
    EventKind,
    ExperimentSchedule,
    derive_seed,
    simulate_trajectory,
)
from motprobe.inference import (
    BinnedDataset,
    LoadingFit,
    NrbBin,
    fit_beta,
    fit_loading_rate,
)
from motprobe.oracles import (
    overlap_checks,
    poisson_end_state_check,
    transient_checks,
)
from motprobe.photon import _occupancy_rows, estimate_staircase, synthesize_counts
from motprobe.physics import steady_state_mean

BETA_TRUE = 1.6e-10
R0_TRUE = 1.48
ALPHA_TRUE = 2.3e-4
# Quoted one-sigma uncertainties of the target values; recovered parameters
# must land within two of them.
R0_SIGMA = 0.06
ALPHA_SIGMA = 0.3e-4
SYST_REFERENCE = 9e-11
RUNTIME_BUDGET_S = 300.0


def _report(capsys, idx, name, passed, detail):
    with capsys.disabled():
        print(f"[criterion {idx:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {idx:02d} {name}: {detail}"


def _exact_line_bins():
    bins = []
    for c in np.arange(0, 3301, 220.0):
        load = R0_TRUE - ALPHA_TRUE * c
        bins.append(NrbBin(
            center=float(c), n_traces=200, mean_n_cs=0.0, se_mean_n_cs=0.01,
            loading_rate=load, load_count=888, loss_counts_per_time=load,
            loss_atoms=533, detect_time_s=600.0, poisson_lambda=float("nan"),
        ))
    return BinnedDataset(width=220.0, bins=bins)


def test_criterion_01_beta_accuracy_and_runtime(default_campaign, capsys):
    beta = default_campaign.report["beta_rbcs_cm3_per_s"]
    total = sum(default_campaign.timings.values())
    rel = (beta - BETA_TRUE) / BETA_TRUE
    ok = abs(rel) <= 0.20 and total < RUNTIME_BUDGET_S
    _report(
        capsys, 1, "campaign recovers the loss coefficient", ok,
        f"beta {beta:.3e} cm^3/s ({rel:+.1%} of {BETA_TRUE:.1e}, budget 20%), "
        f"pipeline {total:.1f} s (budget {RUNTIME_BUDGET_S:.0f} s)",
    )


def test_criterion_02_loading_line_recovery(default_campaign, capsys):
    rep = default_campaign.report
    dr0 = abs(rep["r0_per_s"] - R0_TRUE)
    dal = abs(rep["alpha_per_s_per_rb"] - ALPHA_TRUE)

    noiseless = fit_loading_rate(_exact_line_bins())
    exact = (
        abs(noiseless.r0 - R0_TRUE) / R0_TRUE < 1e-10
        and abs(noiseless.alpha - ALPHA_TRUE) / ALPHA_TRUE < 1e-10
    )

    ok = dr0 <= 2 * R0_SIGMA and dal <= 2 * ALPHA_SIGMA and exact
    _report(
        capsys, 2, "loading line within two sigma, exact when noiseless", ok,
        f"R0 {rep['r0_per_s']:.3f} (|d| {dr0:.3f} <= {2 * R0_SIGMA:.2f}), "
        f"alpha {rep['alpha_per_s_per_rb']:.3e} (|d| {dal:.2e} <= {2 * ALPHA_SIGMA:.1e}), "
        f"noiseless exact to 1e-10: {exact}",
    )


def test_criterion_03_overlap_volume_against_quadrature(capsys):
    checks = overlap_checks()
    ok = all(c.passed for c in checks)
    _report(
        capsys, 3, "pair overlap volume matches quadrature", ok,
        "; ".join(c.detail for c in checks),
    )


def test_criterion_04_stationary_occupancy_is_poisson(capsys):
    check = poisson_end_state_check(runs=3000, master_seed=4242)
    _report(capsys, 4, "immigration-death end state is Poisson", check.passed, check.detail)


def test_criterion_05_transient_mean_tracks_closed_form(capsys):
    params = RunConfig.default().physics
    sets = [
        ("no-companion", 0.0, params),
        ("default-1100", 1100.0, params),
        # At 2200 companions the interspecies term is ~100x the one-body rate.
        ("collision-dominated-2200", 2200.0, params),
    ]
    checks = transient_checks(sets, runs=10000, n_checkpoints=10, master_seed=777)
    ok = all(c.passed for c in checks)
    _report(
        capsys, 5, "fill-up curve matches the closed form", ok,
        "; ".join(f"{c.name} {c.detail}" for c in checks),
    )


def test_criterion_06_staircase_recovery(capsys):
    cfg = RunConfig.default()
    params = cfg.physics
    cal = cfg.calibration
    schedule = ExperimentSchedule()
    n_detect = int(round(schedule.detect_s / cal.bin_s))
    master, n_rb, n_traces = 6001, 550.0, 200

    bins_total = bins_right = 0
    events_total = events_found = 0
    for ti in range(n_traces):
        traj = simulate_trajectory(
            n_rb, params, schedule, derive_seed(master, TRAJECTORY_STREAM, 0, ti)
        )
        trace = synthesize_counts(
            traj, cal, schedule, derive_seed(master, PHOTON_STREAM, 0, ti)
        )
        est = estimate_staircase(trace, cal)
        truth = np.clip(
            np.rint(_occupancy_rows([traj], n_detect, cal.bin_s)[0]), 0, None
        ).astype(int)
        bins_total += n_detect
        bins_right += int(np.sum(est.staircase == truth))

        # Resolvable events: inside the window with margin, and at least
        # three bins from every other event so the median filter cannot
        # absorb them.
        in_window = [
            (int(t / cal.bin_s), kind)
            for t, kind, _ in traj.events
            if t < schedule.detect_s
        ]
        for i, (b, kind) in enumerate(in_window):
            if not 2 <= b <= n_detect - 3:
                continue
            if any(abs(b - ob) < 3 for j, (ob, _) in enumerate(in_window) if j != i):
                continue
            events_total += 1
            window = range(b - 1, b + 2)
            if kind is EventKind.LOAD:
                hit = any(lb in window for lb in est.load_events)
            else:
                hit = any(lb in window and mult == 1 for lb, mult in est.loss_events)
            events_found += hit

    accuracy = bins_right / bins_total
    ok = accuracy >= 0.99 and events_found == events_total and events_total > 100
    _report(
        capsys, 6, "atom staircase is faithful", ok,
        f"bin accuracy {accuracy:.4f} (need >= 0.99), recovered "
        f"{events_found}/{events_total} resolvable events within one bin",
    )


def test_criterion_07_steady_state_onset(default_campaign, capsys):
    steady = default_campaign.report["steady_bins"]
    onset = min(steady)
    ok = 800.0 <= onset <= 1400.0
    _report(
        capsys, 7, "steady-state onset in the expected range", ok,
        f"first steady bin at n_rb {onset:.0f} (window [800, 1400]), "
        f"{len(steady)} steady bins",
    )


def test_criterion_08_noiseless_inversion(capsys):
    params = RunConfig.default().physics
    centers = np.arange(1100, 3301, 220.0)
    bins = []
    for c in centers:
        load = R0_TRUE - ALPHA_TRUE * c
        bins.append(NrbBin(
            center=float(c), n_traces=200,
            mean_n_cs=steady_state_mean(float(c), params), se_mean_n_cs=0.01,
            loading_rate=load, load_count=888, loss_counts_per_time=load,
            loss_atoms=533, detect_time_s=600.0, poisson_lambda=float("nan"),
        ))
    line = LoadingFit(
        r0=R0_TRUE, r0_err=0.0, alpha=ALPHA_TRUE, alpha_err=0.0,
        residuals=np.zeros(1), chi2=0.0, dof=1,
    )
    fit = fit_beta(BinnedDataset(220.0, bins), params, line)
    rel = abs(fit.beta - BETA_TRUE) / BETA_TRUE
    ok = rel < 1e-6
    _report(
        capsys, 8, "noiseless steady means invert exactly", ok,
        f"beta {fit.beta:.9e} cm^3/s, rel err {rel:.2e} (tol 1e-6)",
    )


def test_criterion_09_bitwise_reproducible_simulation(tmp_path, capsys):
    digests = []
    for tag, workers in [("a", 1), ("b", 1), ("c", 2), ("d", 3)]:
        out = tmp_path / tag / "traces.jsonl"
        out.parent.mkdir()
        rc = cli_main([
            "simulate", "--out", str(out), "--traces", "25",
            "--workers", str(workers), "--quiet",
        ])
        assert rc == 0
        digests.append(out.read_bytes())
    ok = digests[0] == digests[1] == digests[2] == digests[3]
    _report(
        capsys, 9, "simulation output is byte-stable", ok,
        f"4 runs (workers 1,1,2,3) produced {len(set(digests))} distinct "
        f"byte streams over {len(digests[0])} bytes",
    )


def test_criterion_10_systematic_error_scale(default_campaign, capsys):
    syst = default_campaign.report["syst_err_cm3_per_s"]
    ratio = syst / SYST_REFERENCE
    ok = 0.5 <= ratio <= 2.0
    _report(
        capsys, 10, "systematic error near the reference scale", ok,
        f"syst {syst:.2e} cm^3/s, {ratio:.2f}x the {SYST_REFERENCE:.0e} reference "
        f"(need within a factor of 2)",
    )
