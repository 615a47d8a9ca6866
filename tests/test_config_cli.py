"""Configuration handling and the command-line pipeline.

The CLI tests run main() in-process with small grids so the whole module
stays fast; reproducibility checks compare output files byte for byte.
"""

import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from motprobe import cli, config, gillespie, traceio
from motprobe.cli import main
from motprobe.config import ConfigError, GridSpec, RunConfig, load_config
from motprobe.gillespie import ExperimentSchedule
from motprobe.inference import BinnedDataset, NrbBin, bin_by_nrb
from motprobe.photon import DetectionCalibration, estimate_staircase
from motprobe.physics import PhysicalParams, steady_state_mean
from motprobe.traceio import (
    TraceFileError,
    read_bins_csv,
    read_traces_jsonl,
    write_bins_csv,
)
from reference import trace_from_dict

UM = 1e-4

SMALL_CONFIG = {
    "grid": {"min": 0, "max": 440, "step": 220},
    "traces_per_bin": 4,
    "master_seed": 99,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestGridSpec:
    def test_default_grid_includes_both_endpoints(self):
        values = GridSpec().values()
        assert len(values) == 16
        assert values[0] == 0.0
        assert values[-1] == 3300.0
        assert np.all(np.diff(values) == 220.0)

    def test_single_point_grid(self):
        assert list(GridSpec(min=0, max=0, step=1).values()) == [0.0]

    def test_rejects_bad_spec(self):
        with pytest.raises(ConfigError):
            GridSpec(min=100, max=0, step=220)
        with pytest.raises(ConfigError):
            GridSpec(min=0, max=100, step=0)
        with pytest.raises(ConfigError, match="nearest grid values are 440 and 660"):
            GridSpec(min=0, max=500, step=220)

    def test_off_step_max_is_refused_by_simulate(self, tmp_path, capsys):
        """A max off the step is one error line, not a grid that silently
        stops at the last step below it."""
        cfg = write_config(tmp_path, {"grid": {"min": 0, "max": 500, "step": 220}})
        out = tmp_path / "traces.jsonl"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "grid.max 500" in err and "440 and 660" in err
        assert not out.exists()


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig.default()
        assert cfg.traces_per_bin == 200
        assert cfg.master_seed == 1234
        assert cfg.physics.r0 == 1.48
        assert cfg.calibration.rate_per_atom == 1e4
        assert cfg.schedule.detect_s == 3.0

    def test_readme_block_is_the_defaults(self):
        """The configuration JSON in README spells out every default."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert RunConfig.from_dict(json.loads(block)) == RunConfig.default()

    def test_micron_radii_become_centimeters(self):
        params = RunConfig.default().physics
        assert params.w_cs == pytest.approx(6.6e-4)
        assert params.w_rb == pytest.approx(26.4e-4)

    def test_unknown_keys_are_rejected_by_section(self):
        with pytest.raises(ConfigError, match="physics.*r0_typo"):
            RunConfig.from_dict({"physics": {"r0_typo": 1.0}})
        with pytest.raises(ConfigError, match="config.*gridd"):
            RunConfig.from_dict({"gridd": {}})

    def test_invalid_values_fail_fast(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"physics": {"w_cs_um": -1.0}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"traces_per_bin": 0})

    @pytest.mark.parametrize("change, message", [
        ({"traces_per_bin": 0}, "traces_per_bin must be >= 1, got 0"),
        ({"traces_per_bin": 2.5}, "traces_per_bin must be an integer, got 2.5"),
        ({"master_seed": -1}, "master_seed must be non-negative, got -1"),
        ({"master_seed": True}, "master_seed must be an integer, got True"),
        ({"out_dir": 5}, "out_dir must be a string, got 5"),
    ])
    def test_scalars_are_checked_by_the_config_itself(self, change, message):
        """A config made by replace is checked as one read from JSON is,
        with the same message."""
        with pytest.raises(ConfigError, match=f"^{message}$"):
            dataclasses.replace(RunConfig.default(), **change)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            RunConfig.from_dict(change)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig.default().master_seed = 7

    @pytest.mark.parametrize("section, value, kind", [
        ("physics", {"r0_per_s": 1.48}, "PhysicalParams"),
        ("calibration", None, "DetectionCalibration"),
        ("schedule", (3.0, 0.5, 0.2), "ExperimentSchedule"),
        ("grid", {"min": 0, "max": 220, "step": 220}, "GridSpec"),
        ("grid", ExperimentSchedule(), "GridSpec"),
    ])
    def test_sections_are_checked_by_the_config_itself(self, section, value, kind):
        """A section that is not its dataclass is refused at replace, naming
        the field, not left to fail inside the simulator."""
        message = f"{section} must be a {kind}, got {value!r}"
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(RunConfig.default(), **{section: value})
        assert str(info.value) == message

    def test_load_config_errors(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)
        listfile = tmp_path / "list.json"
        listfile.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(listfile)


class TestSimulateDeterminism:
    def _run(self, tmp_path, out_name, extra=()):
        tmp_path.mkdir(parents=True, exist_ok=True)
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / out_name
        rc = main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--quiet", "--dump-trajectories", *extra,
        ])
        assert rc == 0
        return out.read_bytes(), out.with_name("trajectories.jsonl").read_bytes()

    def test_identical_bytes_across_runs_and_worker_counts(self, tmp_path):
        first = self._run(tmp_path / "a", "traces.jsonl")
        again = self._run(tmp_path / "b", "traces.jsonl")
        pooled2 = self._run(tmp_path / "c", "traces.jsonl", ("--workers", "2"))
        pooled3 = self._run(tmp_path / "d", "traces.jsonl", ("--workers", "3"))
        assert first == again == pooled2 == pooled3

    def test_seed_override_changes_output(self, tmp_path):
        base = self._run(tmp_path / "a", "traces.jsonl")
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "reseeded.jsonl"
        assert main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--seed", "100", "--quiet",
        ]) == 0
        assert out.read_bytes() != base[0]

    def test_trace_count_and_ids(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "traces.jsonl"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        traces = read_traces_jsonl(out)
        assert len(traces) == 12
        assert traces[0].trace_id == "b00t0000"
        assert traces[-1].trace_id == "b02t0003"
        assert sorted({t.n_rb for t in traces}) == [0.0, 220.0, 440.0]

    def test_rejects_bad_counts(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--traces", "0"]) == 2
        assert main(["simulate", "--config", str(cfg), "--workers", "0"]) == 2
        # Checked before the config is even read.
        missing = str(tmp_path / "missing.json")
        assert main(["simulate", "--config", missing, "--traces", "0"]) == 2
        assert main(["simulate", "--config", missing, "--workers", "0"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "fit", "oracle"])
    def test_negative_seed_is_usage_error_before_any_output(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def never(*args, **kwargs):
            raise AssertionError("input read or simulated before --seed was checked")

        for name in ("load_config", "transient_checks", "poisson_end_state_check"):
            monkeypatch.setattr(cli, name, never)
        out = tmp_path / "neg"
        argv = {
            "simulate": [
                "simulate", "--traces", "1", "--out", str(out / "traces.jsonl"),
                "--dump-trajectories",
            ],
            # The trace file does not exist: reading it would exit 1.
            "fit": ["fit", str(tmp_path / "t.jsonl"), "--bootstrap", "10", "--out", str(out)],
            "oracle": ["oracle", "poisson"],
        }[command]
        assert main([*argv, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestQuietSource:
    def test_all_rates_zero_gives_one_background_trace(self, tmp_path):
        payload = {
            "grid": {"min": 0, "max": 0, "step": 1},
            "traces_per_bin": 1,
            "physics": {
                "r0_per_s": 0.0, "alpha_per_s_per_rb": 0.0, "gamma_per_s": 0.0,
                "beta_rbcs_cm3_per_s": 0.0, "beta_cscs_cm3_per_s": 0.0,
            },
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "traces.jsonl"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        traces = read_traces_jsonl(out)
        assert len(traces) == 1
        trace = traces[0]
        assert trace.n_rb == 0.0
        cal = load_config(cfg).calibration
        estimate = estimate_staircase(trace, cal)
        assert np.all(estimate.staircase == 0)
        assert estimate.load_events == []
        assert estimate.loss_events == []
        off = trace.counts[trace.segments.off[0]:trace.segments.off[1]]
        assert np.all(off == 0)


class TestAnalyze:
    def test_writes_bins_and_histograms(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        traces_path = tmp_path / "traces.jsonl"
        main(["simulate", "--config", str(cfg), "--out", str(traces_path), "--quiet"])
        out_dir = tmp_path / "analysis"
        rc = main([
            "analyze", str(traces_path), "--config", str(cfg), "--out", str(out_dir)
        ])
        assert rc == 0
        assert (out_dir / "bins.csv").exists()
        for center in (0, 220, 440):
            assert (out_dir / f"hist_nrb{center:05d}.csv").exists()
        table = capsys.readouterr().out
        assert "n_rb" in table and "ratio" in table

    def test_csv_round_trip_matches_memory(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        traces_path = tmp_path / "traces.jsonl"
        main(["simulate", "--config", str(cfg), "--out", str(traces_path), "--quiet"])
        out_dir = tmp_path / "analysis"
        main(["analyze", str(traces_path), "--config", str(cfg), "--out", str(out_dir)])

        run_cfg = load_config(cfg)
        direct = bin_by_nrb(
            read_traces_jsonl(traces_path), run_cfg.calibration, run_cfg.grid
        )
        reloaded = read_bins_csv(out_dir / "bins.csv")
        for a, b in zip(reloaded.bins, direct.bins):
            assert a.center == b.center
            assert a.n_traces == b.n_traces
            assert a.mean_n_cs == b.mean_n_cs
            assert a.se_mean_n_cs == b.se_mean_n_cs
            assert a.loading_rate == b.loading_rate
            assert a.load_count == b.load_count
            assert a.loss_counts_per_time == b.loss_counts_per_time
            assert a.loss_atoms == b.loss_atoms
            assert a.detect_time_s == b.detect_time_s
            assert a.poisson_lambda == b.poisson_lambda or (
                math.isnan(a.poisson_lambda) and math.isnan(b.poisson_lambda)
            )

    def test_empty_trace_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["analyze", str(empty), "--out", str(tmp_path / "x")]) == 1
        assert "no traces" in capsys.readouterr().err

    def test_malformed_line_is_located(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"trace_id": "x"\n')
        assert main(["analyze", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_empty_detect_segment_is_located(self, tmp_path, capsys, recwarn):
        good = {
            "trace_id": "good", "n_rb": 0.0, "bin_s": 0.02,
            "segments": {"detect": [0, 2], "off": [2, 3], "background": [3, 5]},
            "counts": [100, 100, 0, 100, 100],
        }
        empty = dict(
            good, trace_id="empty", counts=[0, 100, 100],
            segments={"detect": [0, 0], "off": [0, 1], "background": [1, 3]},
        )
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(good) + "\n" + json.dumps(empty) + "\n")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "detect" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        with pytest.raises(TraceFileError, match="line 7"):
            trace_from_dict(empty, 7)

    def test_empty_background_segment_is_located(self, tmp_path, capsys, recwarn):
        good = {
            "trace_id": "good", "n_rb": 0.0, "bin_s": 0.02,
            "segments": {"detect": [0, 2], "off": [2, 3], "background": [3, 5]},
            "counts": [100, 100, 0, 100, 100],
        }
        nobg = dict(
            good, trace_id="nobg", counts=[100, 100, 0],
            segments={"detect": [0, 2], "off": [2, 3], "background": [3, 3]},
        )
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(good) + "\n" + json.dumps(nobg) + "\n")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "background" in err
        assert not (tmp_path / "x").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        with pytest.raises(TraceFileError, match="line 7"):
            trace_from_dict(nobg, 7)

    def test_second_layout_is_one_error_line(self, tmp_path, capsys):
        """A file whose lines do not share one segment map and bin width
        is refused at the first line that differs, with nothing written."""
        good = {
            "trace_id": "good", "n_rb": 0.0, "bin_s": 0.02,
            "segments": {"detect": [0, 2], "off": [2, 3], "background": [3, 5]},
            "counts": [100, 100, 0, 100, 100],
        }
        finer = dict(good, trace_id="finer", bin_s=0.01)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(obj) + "\n" for obj in (good, good, finer, good)))
        assert main(["analyze", str(bad), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and err.count("\n") == 1
        assert "bin_s 0.01 differ from line 1's" in err and "bin_s 0.02" in err
        assert not (tmp_path / "x").exists()


class TestOffGridTraces:
    """A trace whose nearest grid point lies outside [grid.min, grid.max]
    is refused by analyze and by fit on a trace file, before anything is
    written."""

    def traces_with(self, tmp_path, n_rb):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        traces_path = tmp_path / "traces.jsonl"
        assert main([
            "simulate", "--config", str(cfg), "--out", str(traces_path), "--quiet",
        ]) == 0
        lines = traces_path.read_text().splitlines()
        extra = dict(json.loads(lines[0]), trace_id="stray", n_rb=n_rb)
        traces_path.write_text("\n".join(lines + [json.dumps(extra)]) + "\n")
        return cfg, traces_path

    @pytest.mark.parametrize("command", ["analyze", "fit"])
    @pytest.mark.parametrize("n_rb, shown", [(-440.0, "-440.0"), (1e300, "1e+300")])
    def test_refused_with_nothing_written(self, tmp_path, capsys, command, n_rb, shown):
        cfg, traces_path = self.traces_with(tmp_path, n_rb)
        capsys.readouterr()
        out_dir = tmp_path / "out"
        rc = main([command, str(traces_path), "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'stray'" in err and f"n_rb {shown}" in err and "[0, 440]" in err
        assert not out_dir.exists()

    def test_trace_nearest_the_grid_max_is_kept(self, tmp_path):
        cfg, traces_path = self.traces_with(tmp_path, 549.0)
        out_dir = tmp_path / "out"
        assert main([
            "analyze", str(traces_path), "--config", str(cfg), "--out", str(out_dir),
        ]) == 0
        binned = read_bins_csv(out_dir / "bins.csv")
        assert binned.centers().tolist() == [0.0, 220.0, 440.0]
        assert [b.n_traces for b in binned.bins] == [4, 4, 5]


def crafted_bins_csv(path, params, gamma_zero=False):
    """Noiseless bins on the default grid: exact loading line, balanced
    loss, steady-state means from the closed form."""
    bins = []
    for c in np.arange(0, 3301, 220.0):
        load = 1.48 - 2.3e-4 * c
        if gamma_zero and c == 0.0:
            mean, loss = 0.0, 0.0
        else:
            mean, loss = steady_state_mean(c, params), load
        bins.append(NrbBin(
            center=float(c), n_traces=200, mean_n_cs=mean, se_mean_n_cs=0.01,
            loading_rate=load, load_count=int(load * 600), loss_counts_per_time=loss,
            loss_atoms=int(loss * 600), detect_time_s=600.0,
            poisson_lambda=float("nan"),
        ))
    write_bins_csv(path, BinnedDataset(bins=bins))


class TestFit:
    def test_noiseless_csv_recovers_coefficient(self, tmp_path, capsys):
        params = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.03, beta_rbcs=1.6e-10,
            beta_cscs=0.0, w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        csv_path = tmp_path / "bins.csv"
        crafted_bins_csv(csv_path, params)
        out_dir = tmp_path / "fit"
        assert main(["fit", str(csv_path), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert abs(report["beta_rbcs_cm3_per_s"] - 1.6e-10) / 1.6e-10 < 1e-6
        assert abs(report["r0_per_s"] - 1.48) < 1e-9
        assert (out_dir / "steady_state_curve.csv").exists()
        assert (out_dir / "fit_bins.csv").exists()
        assert "beta_rbcs" in capsys.readouterr().out

    def test_gamma_zero_curve_reports_division_by_zero(self, tmp_path, capsys):
        params = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.0, beta_rbcs=1.6e-10,
            beta_cscs=0.0, w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        csv_path = tmp_path / "bins.csv"
        crafted_bins_csv(csv_path, params, gamma_zero=True)
        cfg = write_config(tmp_path, {"physics": {"gamma_per_s": 0.0}})
        out_dir = tmp_path / "fit"
        rc = main(["fit", str(csv_path), "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "division by zero while tabulating the model curve" in err

    def test_refuses_pair_loss_physics(self, tmp_path, capsys):
        params = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.03, beta_rbcs=1.6e-10,
            beta_cscs=0.0, w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        csv_path = tmp_path / "bins.csv"
        crafted_bins_csv(csv_path, params)
        cfg = write_config(tmp_path, {"physics": {"beta_cscs_cm3_per_s": 2e-9}})
        out_dir = tmp_path / "fit"
        rc = main(["fit", str(csv_path), "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 1
        assert "beta_cscs" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_off_origin_grid_bins_stay_on_the_grid(self, tmp_path):
        payload = {
            "grid": {"min": 110, "max": 3410, "step": 220},
            "traces_per_bin": 40,
            "master_seed": 5,
        }
        cfg = write_config(tmp_path, payload)
        traces_path = tmp_path / "traces.jsonl"
        assert main([
            "simulate", "--config", str(cfg), "--out", str(traces_path), "--quiet",
        ]) == 0
        grid = [float(v) for v in range(110, 3411, 220)]
        assert main([
            "analyze", str(traces_path), "--config", str(cfg),
            "--out", str(tmp_path / "analysis"),
        ]) == 0
        binned = read_bins_csv(tmp_path / "analysis" / "bins.csv")
        assert binned.centers().tolist() == grid
        for center in grid:
            assert (tmp_path / "analysis" / f"hist_nrb{int(center):05d}.csv").exists()
        out_dir = tmp_path / "fit"
        assert main([
            "fit", str(traces_path), "--config", str(cfg), "--out", str(out_dir),
        ]) == 0
        steady = json.loads((out_dir / "report.json").read_text())["steady_bins"]
        assert steady and set(steady) <= set(grid)
        assert max(steady) <= 3410.0

    @pytest.mark.parametrize("count", ["-5", "1"])
    def test_bootstrap_count_is_checked_up_front(self, tmp_path, capsys, count):
        params = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.03, beta_rbcs=1.6e-10,
            beta_cscs=0.0, w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        csv_path = tmp_path / "bins.csv"
        crafted_bins_csv(csv_path, params)
        out_dir = tmp_path / "fit"
        assert main([
            "fit", str(csv_path), "--out", str(out_dir), "--bootstrap", count,
        ]) == 2
        assert "--bootstrap" in capsys.readouterr().err
        assert not out_dir.exists()
        # Checked before the input is even read.
        assert main(["fit", str(tmp_path / "missing.jsonl"), "--bootstrap", count]) == 2

    def test_bootstrap_of_a_bins_csv_is_a_usage_error(self, tmp_path, capsys):
        """A bins.csv holds no trace-level means to resample: refused
        before the config or the CSV is read."""
        params = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.03, beta_rbcs=1.6e-10,
            beta_cscs=0.0, w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        csv_path = tmp_path / "bins.csv"
        crafted_bins_csv(csv_path, params)
        out_dir = tmp_path / "fit"
        assert main(["fit", str(csv_path), "--out", str(out_dir), "--bootstrap", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --bootstrap needs a .jsonl") and err.count("\n") == 1
        assert not out_dir.exists()
        assert main([
            "fit", str(tmp_path / "missing.csv"),
            "--config", str(tmp_path / "missing.json"), "--bootstrap", "50",
        ]) == 2
        # Without a bootstrap the CSV fits as before.
        assert main(["fit", str(csv_path), "--out", str(out_dir), "--bootstrap", "0"]) == 0

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tol_is_checked_up_front(self, tmp_path, capsys, tol):
        params = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.03, beta_rbcs=1.6e-10,
            beta_cscs=0.0, w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        csv_path = tmp_path / "bins.csv"
        crafted_bins_csv(csv_path, params)
        out_dir = tmp_path / "fit"
        assert main(["fit", str(csv_path), "--out", str(out_dir), "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err
        assert not out_dir.exists()
        # Checked before the config or the input is even read.
        assert main([
            "fit", str(tmp_path / "missing.jsonl"),
            "--config", str(tmp_path / "missing.json"), "--tol", tol,
        ]) == 2

    def test_unknown_suffix_is_usage_error(self, tmp_path, capsys):
        stray = tmp_path / "data.txt"
        stray.write_text("whatever")
        assert main(["fit", str(stray)]) == 2
        assert ".jsonl" in capsys.readouterr().err
        # Checked before the config is even read.
        assert main(["fit", str(stray), "--config", str(tmp_path / "missing.json")]) == 2
        assert ".jsonl" in capsys.readouterr().err

    def test_bins_csv_reproduces_the_trace_fit(self, tmp_path):
        """fit on analyze's bins.csv writes the same three files, byte for
        byte, as fit on the traces they came from."""
        traces_path = tmp_path / "traces.jsonl"
        assert main([
            "simulate", "--traces", "20", "--out", str(traces_path), "--quiet",
        ]) == 0
        assert main(["analyze", str(traces_path), "--out", str(tmp_path / "analysis")]) == 0
        outputs = []
        for name, source in (("a", traces_path), ("b", tmp_path / "analysis" / "bins.csv")):
            assert main(["fit", str(source), "--out", str(tmp_path / name)]) == 0
            outputs.append([
                (tmp_path / name / file).read_bytes()
                for file in ("report.json", "fit_bins.csv", "steady_state_curve.csv")
            ])
        assert outputs[0] == outputs[1]

    def test_all_transient_data_is_a_clean_failure(self, tmp_path, capsys):
        bins = []
        for c in np.arange(0, 3301, 220.0):
            load = 1.48 - 2.3e-4 * c
            bins.append(NrbBin(
                center=float(c), n_traces=200, mean_n_cs=1.0, se_mean_n_cs=0.01,
                loading_rate=load, load_count=int(load * 600),
                loss_counts_per_time=0.0, loss_atoms=0, detect_time_s=600.0,
                poisson_lambda=float("nan"),
            ))
        csv_path = tmp_path / "bins.csv"
        write_bins_csv(csv_path, BinnedDataset(bins=bins))
        assert main(["fit", str(csv_path), "--out", str(tmp_path / "fit")]) == 1
        assert "per-bin outcome" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", ["880.0", "880", "8.8e2"])
    def test_repeated_bin_center_is_refused(self, tmp_path, capsys, spelling):
        """A bins.csv with a centre twice is refused with both its lines,
        not fitted with the repeat counted twice."""
        params = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.03, beta_rbcs=1.6e-10,
            beta_cscs=0.0, w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        csv_path = tmp_path / "bins.csv"
        crafted_bins_csv(csv_path, params)
        lines = csv_path.read_text().splitlines(keepends=True)
        assert lines[5].startswith("880.0,")
        lines.append(spelling + lines[5][len("880.0"):])
        csv_path.write_text("".join(lines))
        with pytest.raises(TraceFileError) as info:
            read_bins_csv(csv_path)
        assert info.value.line_number == 18
        assert str(info.value) == "line 18: n_rb_center 880.0 repeats the bin on line 6"
        out_dir = tmp_path / "fit"
        assert main(["fit", str(csv_path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 18: n_rb_center 880.0 repeats the bin on line 6\n"
        assert not out_dir.exists()


class TestOracleCommand:
    def test_overlap_checks_pass(self, capsys):
        assert main(["oracle", "overlap"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["oracle", "bogus"]) == 2

    @pytest.mark.parametrize(
        "which, runs",
        [("poisson", "0"), ("poisson", "1"), ("transient", "-3"), ("transient", "1"),
         ("all", "1")],
    )
    def test_runs_below_two_is_usage_error(self, monkeypatch, capsys, which, runs):
        def never(*args, **kwargs):
            raise AssertionError("simulated before --runs was checked")

        monkeypatch.setattr(cli, "transient_checks", never)
        monkeypatch.setattr(cli, "poisson_end_state_check", never)
        assert main(["oracle", which, "--runs", runs]) == 2
        captured = capsys.readouterr()
        assert "--runs" in captured.err
        assert captured.out == ""

    def test_lines_of_earlier_groups_survive_a_later_error(self, capsys):
        # At 12 runs the Poisson check refuses its samples, after the
        # overlap and transient groups have run and printed.
        assert main(["oracle", "all", "--runs", "12"]) == 1
        captured = capsys.readouterr()
        names = [line.split(":")[0].split(" ", 1)[1] for line in captured.out.splitlines()]
        assert names == [
            "pair_overlap_vs_quadrature",
            "four_to_one_radius_special_case",
            "transient_mean[default-1100]",
            "transient_mean[default-2200]",
            "transient_mean[no-companion]",
        ]
        assert captured.err.startswith("error: 12 samples pool into 1 cell(s)")

    @pytest.mark.parametrize("runs, cells", [("2", 0), ("3", 0), ("6", 1), ("12", 1)])
    def test_too_few_runs_for_two_cells_is_an_error(self, capsys, runs, cells):
        assert main(["oracle", "poisson", "--runs", runs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {runs} samples pool into {cells} cell(s) of expected count >= 5; "
            "a chi-square test needs at least 2\n"
        )


class TestIntegerKeys:
    """Integer keys refuse floats and booleans instead of truncating them."""

    @pytest.mark.parametrize("payload, key", [
        ({"traces_per_bin": 2.7}, "traces_per_bin"),
        ({"traces_per_bin": True}, "traces_per_bin"),
        ({"master_seed": 1.9}, "master_seed"),
        ({"grid": {"step": 220.5}}, "grid.step"),
        ({"grid": {"min": True}}, "grid.min"),
    ])
    def test_rejected_with_key_named(self, tmp_path, capsys, payload, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict(payload)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "traces.jsonl"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestSectionTypes:
    """A section, number or out_dir of the wrong JSON type is one error line
    from simulate --config, naming the key, and no traceback."""

    def _refused(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "traces.jsonl"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("section, value, shown", [
        ("physics", 5, "5"),
        ("calibration", "x", "'x'"),
        ("schedule", None, "None"),
        ("grid", [1, 2], "[1, 2]"),
    ])
    def test_section_not_an_object(self, tmp_path, capsys, section, value, shown):
        err = self._refused(tmp_path, capsys, {section: value})
        assert err == f"error: {section} must be a JSON object, got {shown}\n"

    @pytest.mark.parametrize("section, key, value", [
        ("physics", "w_cs_um", "6.6"),
        ("calibration", "bin_s", " 0.02 "),
        ("schedule", "detect_s", "3"),
        ("schedule", "off_s", "inf"),
        ("physics", "r0_per_s", 10**400),
    ])
    def test_number_of_another_type(self, tmp_path, capsys, section, key, value):
        err = self._refused(tmp_path, capsys, {section: {key: value}})
        assert err == f"error: {section}.{key} must be a finite number, got {value!r}\n"

    @pytest.mark.parametrize("value, shown", [(5, "5"), (None, "None"), (["a"], "['a']")])
    def test_out_dir_not_a_string(self, tmp_path, capsys, value, shown):
        err = self._refused(tmp_path, capsys, {"out_dir": value})
        assert err == f"error: out_dir must be a string, got {shown}\n"


class TestWorkerCap:
    """--workers is capped at the CPU and bin counts; the pool is replaced
    by a recorder, so no process is ever started."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # cli imports the pool from concurrent.futures only when it uses one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        return sizes

    def _simulate(self, tmp_path, payload, workers):
        cfg = write_config(tmp_path, payload, name=f"config-{workers}.json")
        out = tmp_path / f"traces-{workers}.jsonl"
        assert main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--quiet", "--workers", str(workers),
        ]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("grid, workers, expected", [
        ({"min": 0, "max": 3300, "step": 220}, 100_000, 4),  # CPU bound
        ({"min": 0, "max": 440, "step": 220}, 100_000, 3),  # bin bound
        ({"min": 0, "max": 440, "step": 220}, 2, 2),
    ])
    def test_pool_size(self, tmp_path, capsys, pool_sizes, grid, workers, expected):
        payload = {"grid": grid, "traces_per_bin": 2, "master_seed": 5}
        pooled = self._simulate(tmp_path, payload, workers)
        assert pool_sizes == [expected]
        err = capsys.readouterr().err
        if expected < workers:
            assert err.count("\n") == 1
            assert f"--workers {workers} reduced to {expected}" in err
        else:
            assert err == ""
        assert pooled == self._simulate(tmp_path, payload, 1)
        assert pool_sizes == [expected]


class TestWorkerRuns:
    """Each worker takes one contiguous run of bins and steps its shots in
    one event loop, so chunks span bins; the files are still those of one
    worker, byte for byte."""

    TRACES = 300

    @pytest.mark.parametrize("payload", [
        {"physics": {"r0_per_s": 10.0, "beta_cscs_cm3_per_s": 2e-9}},
        {"calibration": {"dark_rate_per_s": 2.0e3}},
    ], ids=["pair_loss", "dark_rate"])
    def test_two_workers_write_the_one_worker_bytes(self, tmp_path, monkeypatch, payload):
        # Two runs of 8 of the 16 default bins meet between bins 7 and 8;
        # each run is 2400 shots, so its first chunk ends inside its 7th bin.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert 8 * self.TRACES > gillespie._CHUNK and gillespie._CHUNK % self.TRACES
        cfg = write_config(tmp_path, payload)
        files = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}" / "traces.jsonl"
            assert main([
                "simulate", "--config", str(cfg), "--out", str(out), "--quiet",
                "--traces", str(self.TRACES), "--workers", str(workers),
                "--dump-trajectories",
            ]) == 0
            files.append((out.read_bytes(), out.with_name("trajectories.jsonl").read_bytes()))
        assert files[0] == files[1]

    def test_fewer_traces_are_the_first_of_each_bin(self, tmp_path, monkeypatch):
        """A bin's counts are one draw on the bin's generator, shot after
        shot, so --traces 3 writes the records of the first 3 traces of
        each bin of --traces 5 (their counts spelt to the width of the
        bin's own largest count), and --workers 2 writes the --workers 1
        bytes."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = write_config(tmp_path, {"calibration": {"dark_rate_per_s": 2.0e3}})
        files = {}
        for traces, workers in ((5, 1), (5, 2), (3, 1)):
            out = tmp_path / f"traces{traces}-workers{workers}.jsonl"
            assert main([
                "simulate", "--config", str(cfg), "--out", str(out), "--quiet",
                "--traces", str(traces), "--workers", str(workers),
            ]) == 0
            files[traces, workers] = out.read_bytes()
        assert files[5, 2] == files[5, 1]
        head = [
            line for line in files[5, 1].splitlines(keepends=True)
            if int(json.loads(line)["trace_id"][-4:]) < 3
        ]
        assert len(head) == 16 * 3
        assert list(map(json.loads, head)) == list(map(json.loads, files[3, 1].splitlines()))

    def test_runs_split_the_grid_in_order(self, tmp_path, monkeypatch):
        runs = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                runs.extend(jobs)
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = write_config(tmp_path, {"traces_per_bin": 2})
        pooled, alone = tmp_path / "pooled.jsonl", tmp_path / "alone.jsonl"
        for out, workers in ((pooled, "3"), (alone, "1")):
            assert main([
                "simulate", "--config", str(cfg), "--out", str(out), "--quiet",
                "--workers", workers,
            ]) == 0
        assert runs == [range(0, 5), range(5, 10), range(10, 16)]
        assert pooled.read_bytes() == alone.read_bytes()


POOL_GUARD = """
import sys

import motprobe.cli

print("multiprocessing" in sys.modules)
code = motprobe.cli.main(
    ["simulate", "--traces", "2", "--out", "t.jsonl", "--quiet", "--workers", "1"]
)
print(code, "multiprocessing" in sys.modules)
"""


def test_process_pool_is_imported_only_when_used(tmp_path):
    """Importing the CLI, or simulating with one worker, loads no
    multiprocessing: a top-level import of the pool would, at a cost to
    every command."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", POOL_GUARD],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-2:] == ["False", "0 False"]


def test_text_files_are_utf8_under_an_ascii_locale(tmp_path):
    """Trace and config files are read as UTF-8 whatever the locale: under
    the C locale, with no UTF-8 mode or locale coercion, a raw UTF-8
    trace_id and config string read as they do in process, and analyze
    writes the same bins."""
    traces, cfg = tmp_path / "traces.jsonl", tmp_path / "config.json"
    assert main(["simulate", "--traces", "2", "--out", str(traces), "--quiet"]) == 0
    first, *rest = traces.read_text(encoding="utf-8").splitlines(keepends=True)
    obj = json.loads(first)
    obj["trace_id"] = "\u00e9t\u00e9-" + obj["trace_id"]
    text = json.dumps(obj, ensure_ascii=False) + "\n" + "".join(rest)
    traces.write_text(text, encoding="utf-8")
    cfg.write_text(json.dumps({"out_dir": "r\u00e9sultats"}, ensure_ascii=False), encoding="utf-8")
    assert not (text.isascii() or cfg.read_text(encoding="utf-8").isascii())
    here = tmp_path / "in-process"
    assert main(["analyze", str(traces), "--config", str(cfg), "--out", str(here)]) == 0

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [
            sys.executable, "-m", "motprobe", "analyze", str(traces),
            "--config", str(cfg), "--out", str(tmp_path / "c-locale"),
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "c-locale" / "bins.csv").read_bytes() == (here / "bins.csv").read_bytes()


class TestFiniteValues:
    """Non-finite config values are refused, naming the key. Only objects
    and configs are built here: a simulation over an infinite window would
    never end."""

    @pytest.mark.parametrize("payload, key", [
        ({"schedule": {"detect_s": math.inf}}, "schedule.detect_s"),
        ({"schedule": {"off_s": math.nan}}, "schedule.off_s"),
        ({"calibration": {"rate_per_atom_per_s": math.nan}}, "calibration.rate_per_atom_per_s"),
        ({"calibration": {"background_rate_per_s": math.inf}}, "calibration.background_rate_per_s"),
        ({"calibration": {"dark_rate_per_s": -math.inf}}, "calibration.dark_rate_per_s"),
        ({"calibration": {"bin_s": math.inf}}, "calibration.bin_s"),
        ({"physics": {"r0_per_s": math.nan}}, "physics.r0_per_s"),
        ({"physics": {"w_rb_um": math.inf}}, "physics.w_rb_um"),
        ({"calibration": {"bin_s": True}}, "calibration.bin_s"),
    ])
    def test_rejected_with_key_named(self, tmp_path, payload, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict(payload)
        # json writes Infinity and NaN, and json reads them back as floats.
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, payload))

    def test_json_infinity_literal(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"schedule": {"detect_s": Infinity}}')
        with pytest.raises(ConfigError, match="schedule.detect_s"):
            load_config(path)

    @pytest.mark.parametrize("name", ["detect_s", "off_s", "background_s"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_schedule_refuses(self, name, value):
        with pytest.raises(ValueError, match=name):
            ExperimentSchedule(**{name: value})

    @pytest.mark.parametrize("name", ["rate_per_atom", "background_rate", "dark_rate", "bin_s"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_calibration_refuses(self, name, value):
        with pytest.raises(ValueError, match=name):
            DetectionCalibration(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -0.0, -1e4])
    def test_calibration_refuses_rate_per_atom_not_positive(self, value):
        """rate_per_atom divides every rate the staircase rounds."""
        with pytest.raises(ValueError, match="rate_per_atom must be finite and positive"):
            DetectionCalibration(rate_per_atom=value)

    def test_simulate_refuses_zero_rate_per_atom(self, tmp_path, capsys):
        """A calibration analyze could not use is refused before simulate
        writes anything."""
        cfg = write_config(tmp_path, {**SMALL_CONFIG, "calibration": {"rate_per_atom_per_s": 0}})
        out = tmp_path / "run" / "traces.jsonl"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "calibration" in err and "rate_per_atom" in err
        assert not out.parent.exists()


GOOD_TRACE = {
    "trace_id": "good", "n_rb": 220.0, "bin_s": 0.02,
    "segments": {"detect": [0, 3], "off": [3, 4], "background": [4, 5]},
    "counts": [100, 300, 200, 0, 100],
}


class TestTraceLoader:
    """trace_from_dict refuses what it would otherwise truncate, wrap or
    crash on, naming the line."""

    def test_good_trace_loads_as_int64(self):
        trace = trace_from_dict(GOOD_TRACE, 7)
        assert trace.counts.dtype == np.int64
        assert trace.counts.tolist() == GOOD_TRACE["counts"]
        assert trace.segments.detect == (0, 3)

    @pytest.mark.parametrize("change, match", [
        ({"counts": [100, 300, 200.9, 0, 100]}, "integers"),
        ({"counts": [100.0, 300.0, 200.0, 0.0, 100.0]}, "integers"),
        ({"counts": [True, False, True, False, True]}, "integers"),
        ({"counts": [100, 300, 2**63, 0, 100]}, "integers"),
        ({"counts": [100, 300, 2**70, 0, 100]}, "integers"),
        ({"counts": [100, 300, None, 0, 100]}, "integers"),
        ({"counts": [[1, 2, 3, 4, 5]] * 5}, "flat list"),
        ({"counts": 5}, "flat list"),
        ({"counts": []}, "length 0"),
        ({"n_rb": math.inf}, "n_rb"),
        ({"n_rb": math.nan}, "n_rb"),
        ({"n_rb": 10**400}, "n_rb|large"),
        ({"bin_s": 0.0}, "bin_s"),
        ({"bin_s": -0.02}, "bin_s"),
        ({"bin_s": math.inf}, "bin_s"),
        ({"bin_s": math.nan}, "bin_s"),
        ({"segments": {"detect": [0, 3.9], "off": [3.9, 4], "background": [4, 5]}}, "segments.detect"),
        ({"segments": {"detect": [0, 3], "off": [3, 4.0], "background": [4, 5]}}, "segments.off"),
        ({"segments": {"detect": [0, 3], "off": [3, 4], "background": [4, True]}}, "segments.background"),
        ({"segments": 3}, "segments"),
        ({"n_rb": "1100"}, "n_rb must be a number"),
        ({"n_rb": True}, "n_rb must be a number"),
        ({"bin_s": True}, "bin_s must be a number"),
        ({"trace_id": None}, "trace_id must be a string"),
    ])
    def test_refused_with_line(self, change, match):
        with pytest.raises(TraceFileError, match=f"^line 7: .*({match})"):
            trace_from_dict({**GOOD_TRACE, **change}, 7)

    def test_file_reader_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(GOOD_TRACE) + "\n"
            + json.dumps({**GOOD_TRACE, "counts": [100, 300, 200.9, 0, 100]}) + "\n"
        )
        with pytest.raises(TraceFileError, match="line 2"):
            read_traces_jsonl(bad)
        assert main(["analyze", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("detect", 5), ("off", "34"), ("background", {"0": 4}), ("detect", None),
        ("off", [3]), ("background", [4, 5, 6]),
    ])
    def test_segment_that_is_not_a_pair_is_named(self, tmp_path, capsys, key, value):
        segments = {**GOOD_TRACE["segments"], key: value}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({**GOOD_TRACE, "segments": segments}) + "\n")
        message = f"segments.{key} must be a [start, stop] pair, got {value!r}"
        with pytest.raises(TraceFileError) as caught:
            read_traces_jsonl(bad)
        assert str(caught.value) == f"line 1: {message}"
        assert main(["analyze", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: line 1: {message}\n"

    @pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"trace"', "true"])
    def test_non_object_line_is_refused(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(GOOD_TRACE) + "\n" + text + "\n")
        with pytest.raises(TraceFileError, match="^line 2: .*JSON object"):
            read_traces_jsonl(bad)
        with pytest.raises(TraceFileError, match="^line 7: .*JSON object"):
            trace_from_dict(json.loads(text), 7)
        for argv in (
            ["analyze", str(bad), "--out", str(tmp_path / "x")],
            ["fit", str(bad), "--out", str(tmp_path / "y")],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: line 2: ") and "JSON object" in err
        assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


class TestBooleanCounts:
    """Booleans among integer counts infer int64 in numpy; the loader still
    refuses them, naming the line, and scans every line it reads with json
    for them."""

    SHORT = {
        "trace_id": "short", "n_rb": 220.0, "bin_s": 0.02,
        "segments": {"detect": [0, 1], "off": [1, 2], "background": [2, 3]},
        "counts": [1, 2, 3],
    }

    def test_mixed_booleans_refused_with_line(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(self.SHORT) + "\n"
            + json.dumps({**self.SHORT, "counts": [True, 2, 3]}) + "\n"
        )
        assert '[true, 2, 3]' in bad.read_text()
        with pytest.raises(TraceFileError, match="^line 2: .*booleans"):
            read_traces_jsonl(bad)

    def test_mixed_booleans_refused_from_dict(self):
        with pytest.raises(TraceFileError, match="^line 7: .*booleans"):
            trace_from_dict({**self.SHORT, "counts": [2, False, 3]}, 7)

    def test_true_in_trace_id_loads(self, tmp_path):
        good = tmp_path / "good.jsonl"
        good.write_text(json.dumps({**self.SHORT, "trace_id": "true-false"}) + "\n")
        (trace,) = read_traces_jsonl(good)
        assert trace.trace_id == "true-false"
        assert trace.counts.tolist() == [1, 2, 3]


class TestAtomicSimulateOutput:
    """simulate writes beside its outputs and moves the files into place
    only when every bin succeeded."""

    def _fail_in_bin(self, monkeypatch, bin_index, exc):
        real = cli._bin_lines
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) > bin_index:
                raise exc
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "_bin_lines", failing)

    def _simulate(self, tmp_path, out):
        cfg = write_config(tmp_path, SMALL_CONFIG)
        return main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--quiet", "--dump-trajectories",
        ])

    def test_success_leaves_only_the_outputs(self, tmp_path):
        out = tmp_path / "run" / "traces.jsonl"
        assert self._simulate(tmp_path, out) == 0
        assert sorted(p.name for p in out.parent.iterdir()) == [
            "traces.jsonl", "trajectories.jsonl",
        ]
        assert len(read_traces_jsonl(out)) == 12

    def test_failure_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run" / "traces.jsonl"
        self._fail_in_bin(monkeypatch, 2, ValueError("bin failed"))
        assert self._simulate(tmp_path, out) == 1
        assert "bin failed" in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []

    def test_failure_keeps_the_previous_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "run" / "traces.jsonl"
        assert self._simulate(tmp_path, out) == 0
        before = out.read_bytes(), out.with_name("trajectories.jsonl").read_bytes()
        self._fail_in_bin(monkeypatch, 1, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            self._simulate(tmp_path, out)
        after = out.read_bytes(), out.with_name("trajectories.jsonl").read_bytes()
        assert after == before
        assert sorted(p.name for p in out.parent.iterdir()) == [
            "traces.jsonl", "trajectories.jsonl",
        ]

    def test_failed_move_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "traces.jsonl"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            with cli._replaced_on_success(target) as fh:
                fh.write("{}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["traces.jsonl"]

    def test_traces_named_as_the_dumps_is_a_usage_error(self, tmp_path, capsys):
        """--out naming trajectories.jsonl with --dump-trajectories would
        send both outputs to one file; it is refused before any is opened."""
        out = tmp_path / "run" / "trajectories.jsonl"
        assert self._simulate(tmp_path, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and "--dump-trajectories" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        # Without the dumps, the name is a traces file like any other.
        cfg = tmp_path / "config.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert len(read_traces_jsonl(out)) == 12

    def test_directory_as_out_is_an_error_line(self, tmp_path, capsys):
        out = tmp_path / "traces.jsonl"
        out.mkdir()
        assert self._simulate(tmp_path, out) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "traces.jsonl",
        ]
        assert list(out.iterdir()) == []


class TestBinsCsvValues:
    """read_bins_csv refuses NaN and infinite values in the columns the fits
    read, and values no analysis can give, naming the line and the column."""

    PARAMS = PhysicalParams(
        r0=1.48, alpha=2.3e-4, gamma=0.03, beta_rbcs=1.6e-10,
        beta_cscs=0.0, w_cs=6.6 * UM, w_rb=26.4 * UM,
    )

    def _with_value(self, tmp_path, column, value, line=4):
        path = tmp_path / "bins.csv"
        crafted_bins_csv(path, self.PARAMS)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[line - 1].split(",")
        cells[header.index(column)] = value
        lines[line - 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("column", [
        "n_rb_center", "mean_n_cs", "se_mean_n_cs", "loading_rate_per_s",
        "loss_counts_per_time_per_s", "detect_time_s",
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_refused(self, tmp_path, capsys, recwarn, column, value):
        path = self._with_value(tmp_path, column, value)
        with pytest.raises(TraceFileError, match=f"^line 4: {column} must be finite"):
            read_bins_csv(path)
        assert main(["fit", str(path), "--out", str(tmp_path / "fit")]) == 1
        err = capsys.readouterr().err
        assert "line 4" in err and column in err
        assert not (tmp_path / "fit").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("column, value, rule", [
        ("n_traces", "-3", "non-negative"),
        ("load_count", "-1", "non-negative"),
        ("loss_atom_count", "-2", "non-negative"),
        ("se_mean_n_cs", "-0.01", "non-negative"),
        ("detect_time_s", "-12.0", "positive"),
        ("detect_time_s", "0.0", "positive"),
    ])
    def test_impossible_value_refused(self, tmp_path, capsys, column, value, rule):
        path = self._with_value(tmp_path, column, value)
        with pytest.raises(TraceFileError, match=f"^line 4: {column} must be {rule}"):
            read_bins_csv(path)
        assert main(["fit", str(path), "--out", str(tmp_path / "fit")]) == 1
        err = capsys.readouterr().err
        assert "line 4" in err and column in err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("column, value, kind", [
        ("n_traces", "1.5", "an integer"),
        ("load_count", "12.0", "an integer"),
        ("loss_atom_count", "", "an integer"),
        ("mean_n_cs", "1.2.3", "a number"),
        ("poisson_lambda", "many", "a number"),
    ])
    def test_unreadable_value_names_its_column(self, tmp_path, capsys, column, value, kind):
        path = self._with_value(tmp_path, column, value)
        message = f"line 4: {column} must be {kind}, got {value!r}"
        with pytest.raises(TraceFileError) as caught:
            read_bins_csv(path)
        assert str(caught.value) == message
        assert main(["fit", str(path), "--out", str(tmp_path / "fit")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "fit").exists()

    def test_unused_columns_stay_legal(self, tmp_path):
        path = self._with_value(tmp_path, "ratio_load_loss", "inf")
        binned = read_bins_csv(path)
        assert all(math.isnan(b.poisson_lambda) for b in binned.bins)
        assert len(binned.bins) == 16


def test_bins_csv_labels_of_another_length_are_refused(tmp_path):
    """Three bins with one label is refused with both lengths, and no file
    is written, rather than a one-row fit_bins.csv."""
    binned = BinnedDataset(bins=[
        NrbBin(
            center=220.0 * k, n_traces=4, mean_n_cs=1.0, se_mean_n_cs=0.1,
            loading_rate=1.0, load_count=3, loss_counts_per_time=1.0,
            loss_atoms=3, detect_time_s=3.0, poisson_lambda=float("nan"),
        )
        for k in range(3)
    ])
    path = tmp_path / "fit_bins.csv"
    for labels in (["steady"], ["steady"] * 4):
        message = f"^labels holds {len(labels)} entries for 3 bins$"
        with pytest.raises(ValueError, match=message):
            write_bins_csv(path, binned, labels=labels)
    assert not path.exists()


class TestOneDeclaration:
    """bins.csv and the physics section are each declared in one table; a
    half-wired column or key fails here before any file is written."""

    def test_every_bin_field_is_read_from_one_column(self):
        read = [
            (attribute, kind)
            for _, attribute, kind, rule in traceio._BIN_COLUMNS
            if rule is not None
        ]
        fields = {
            f.name: f.type for f in dataclasses.fields(NrbBin) if f.name != "trace_means"
        }
        assert sorted(attribute for attribute, _ in read) == sorted(fields)
        assert all(fields[attribute] == kind.__name__ for attribute, kind in read)
        columns = [column for column, *_ in traceio._BIN_COLUMNS]
        assert len(set(columns)) == len(columns)
        assert "state" not in columns

    def test_every_physics_key_feeds_a_distinct_field(self):
        names = [name for name, _, _ in config._PHYSICS.values()]
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(PhysicalParams))
        assert [key for key, (_, _, scale) in config._PHYSICS.items() if scale != 1.0] == [
            "w_cs_um", "w_rb_um",
        ]


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "motprobe", "oracle", "overlap"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("PASS pair_overlap_vs_quadrature")
