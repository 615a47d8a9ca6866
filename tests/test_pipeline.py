"""The in-process campaign pipeline against the command line.

simulate_campaign -> bin_by_nrb -> fit_campaign is the chain the CLI
stages run through files. Here it runs with no file in between and must
give what the files hold: the same traces as simulate writes, and a report
that hashes to the pinned report.json of the golden analysis.
"""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from motprobe import cli
from motprobe.cli import main
from motprobe.config import RunConfig
from motprobe.inference import DEFAULT_STEADY_TOL, bin_by_nrb, fit_campaign
from motprobe.photon import simulate_campaign, simulate_grid_bins
from motprobe.traceio import read_traces_jsonl, write_report_json
from test_golden_stream import GOLDEN_ANALYSIS, sha256

# The golden analysis: defaults at 16 bins x 20 traces, master seed 1234.
GOLDEN_CONFIG = replace(RunConfig.default(), traces_per_bin=20, master_seed=1234)


@pytest.fixture(scope="module")
def golden_traces(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "traces.jsonl"
    assert main([
        "simulate", "--out", str(path), "--traces", "20", "--seed", "1234", "--quiet",
    ]) == 0
    return path


def test_simulate_campaign_equals_the_simulate_file(golden_traces):
    got = simulate_campaign(GOLDEN_CONFIG)
    want = read_traces_jsonl(golden_traces)
    assert got.trace_ids == want.trace_ids
    assert np.array_equal(got.n_rb, want.n_rb)
    assert (got.segments, got.bin_s) == (want.segments, want.bin_s)
    assert got.counts.dtype == want.counts.dtype == np.int64
    assert np.array_equal(got.counts, want.counts)


def test_fit_campaign_report_is_the_pinned_report(tmp_path):
    cfg = GOLDEN_CONFIG
    binned = bin_by_nrb(simulate_campaign(cfg), cfg.calibration, cfg.grid)
    fit = fit_campaign(
        binned, cfg.physics, tol=DEFAULT_STEADY_TOL, bootstrap=20, seed=0
    )
    write_report_json(tmp_path / "report.json", fit.report)
    assert sha256(tmp_path / "report.json") == GOLDEN_ANALYSIS["fit/report.json"]
    assert len(fit.labels) == len(binned.bins)
    steady = [b.center for b, lab in zip(binned.bins, fit.labels) if lab == "steady"]
    assert steady == fit.report["steady_bins"]


def test_grid_bin_is_a_slice_of_the_campaign():
    cfg = replace(GOLDEN_CONFIG, traces_per_bin=3)
    table = simulate_campaign(cfg)
    b = next(simulate_grid_bins(cfg, [5]))
    rows = slice(5 * 3, 6 * 3)
    assert b.trace_ids == table.trace_ids[rows] == ["b05t0000", "b05t0001", "b05t0002"]
    assert b.n_rb == 1100.0
    assert np.array_equal(b.counts, table.counts[rows])
    assert len(b.events) == 3


@pytest.mark.parametrize("bin_index", [-1, 16])
def test_grid_bin_outside_the_grid_is_refused(bin_index):
    with pytest.raises(ValueError, match="bin_index must be in"):
        next(simulate_grid_bins(GOLDEN_CONFIG, [bin_index]))


@pytest.mark.parametrize(
    "bin_index", [True, np.bool_(True), 2.0, np.float64(2.0), "2"], ids=repr
)
def test_grid_bin_not_an_integer_is_refused(bin_index):
    """A bin index names a bin's seeds and trace ids: a bool, a float (even
    a whole one) or a string is refused by name, never converted."""
    want = f"bin_index must be an integer, got {bin_index!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        next(simulate_grid_bins(GOLDEN_CONFIG, [3, bin_index]))


@pytest.mark.parametrize("bin_index", [np.int64(5), np.uint8(5), np.int32(5)])
def test_grid_bin_may_be_a_numpy_integer(bin_index):
    cfg = replace(GOLDEN_CONFIG, traces_per_bin=2)
    b = next(simulate_grid_bins(cfg, [bin_index]))
    want = next(simulate_grid_bins(cfg, [5]))
    assert b.trace_ids == want.trace_ids == ["b05t0000", "b05t0001"]
    assert np.array_equal(b.counts, want.counts)


@pytest.mark.parametrize("bootstrap", [-1, 1])
def test_fit_campaign_refuses_a_bootstrap_of_one_or_less(bootstrap, default_campaign):
    with pytest.raises(ValueError, match="bootstrap must be 0"):
        fit_campaign(default_campaign.binned, default_campaign.config.physics,
                     bootstrap=bootstrap)


def test_cli_runs_no_layer_of_the_chain_itself():
    """The command handlers reach the chain only through the pipeline."""
    for name in (
        "derive_seed", "simulate_groups", "synthesize_bin",
        "fit_loading_rate", "classify_steady_state", "fit_beta",
        "propagate_systematics", "bootstrap_stat_error",
    ):
        assert not hasattr(cli, name), name


def test_csv_and_jsonl_fits_agree_on_a_sparse_grid(tmp_path, default_campaign):
    """Traces only at every other grid point: the bins.csv written by
    analyze then has centres 440 apart, while the grid step is 220. Both
    fit inputs must draw the model curve's fitted branch from the lower
    edge of the lowest steady bin, half a grid step below its centre."""
    even = tmp_path / "even.jsonl"
    with open(default_campaign.traces_path) as src, open(even, "w") as dst:
        dst.writelines(line for line in src if json.loads(line)["n_rb"] % 440 == 0)
    assert main(["analyze", str(even), "--out", str(tmp_path / "ana")]) == 0
    assert main(["fit", str(even), "--out", str(tmp_path / "from_jsonl")]) == 0
    assert main([
        "fit", str(tmp_path / "ana" / "bins.csv"), "--out", str(tmp_path / "from_csv"),
    ]) == 0
    for name in ("report.json", "fit_bins.csv", "steady_state_curve.csv"):
        a = (tmp_path / "from_jsonl" / name).read_bytes()
        assert a == (tmp_path / "from_csv" / name).read_bytes(), name

    report = json.loads((tmp_path / "from_jsonl" / "report.json").read_text())
    lowest = min(report["steady_bins"])
    with open(tmp_path / "from_csv" / "steady_state_curve.csv", newline="") as fh:
        rows = [(float(r["n_rb"]), r["branch"]) for r in csv.DictReader(fh)]
    # Rows within one centre spacing but more than half a step below the
    # lowest steady bin: a width taken from the centres would call them fitted.
    between = [branch for n_rb, branch in rows if lowest - 220.0 <= n_rb < lowest - 110.0]
    assert between and set(between) == {"extrapolated"}
    for n_rb, branch in rows:
        assert branch == ("fitted" if n_rb >= lowest - 110.0 else "extrapolated")


def test_readme_in_process_block_runs_as_written(default_campaign):
    """The README's "In-process use" block, executed as written, fits the
    report that fit writes for the default campaign with the same
    bootstrap."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### In-process use", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["fit"].report == default_campaign.report


def test_default_campaign_script_writes_a_report(tmp_path):
    """scripts/run_default_campaign.py, as the README runs it, end to end."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "campaign"
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_default_campaign.py"), str(out),
         "--traces", "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads((out / "fit" / "report.json").read_text())
    assert report["n_bins"] == 16
    assert "campaign finished" in run.stdout
