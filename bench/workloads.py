"""The three benchmark workloads: inputs, one timed pass, and output checks.

Every workload calls the program only through ``motprobe.cli.main``,
in-process and with ``--workers 1``. The benchmark seed reaches the program
only as ``master_seed`` in the generated config; ``oracle`` takes no config
and runs at the program's own fixed seeds.

A pass is a fixed list of CLI stage calls. Before each pass the benchmark
removes every file the last pass wrote, so each check reads this pass's
outputs. After each pass it checks the outputs; every stage call and every
check is one operation, so each pass attempts the same number of
operations.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from occupancy import window_mean_occupancy

DEFAULT_PHYSICS = {
    "r0_per_s": 1.48,
    "alpha_per_s_per_rb": 2.3e-4,
    "gamma_per_s": 0.03,
    "beta_rbcs_cm3_per_s": 1.6e-10,
    "beta_cscs_cm3_per_s": 0.0,
    "w_cs_um": 6.6,
    "w_rb_um": 26.4,
}
DEFAULT_CALIBRATION = {
    "rate_per_atom_per_s": 1.0e4,
    "background_rate_per_s": 5.0e3,
    "dark_rate_per_s": 0.0,
    "bin_s": 0.02,
}
DEFAULT_SCHEDULE = {"detect_s": 3.0, "off_s": 0.5, "background_s": 0.2}
DEFAULT_GRID = {"min": 0, "max": 3300, "step": 220}
N_BINS = len(range(DEFAULT_GRID["min"], DEFAULT_GRID["max"] + 1, DEFAULT_GRID["step"]))

# A bin's staircase mean may sit this many of its standard errors from the
# exact window-averaged occupancy.
Z_MAX = 5.0
# Fit windows: beta within 20 % of its true value; alpha within two of the
# quoted 0.3e-4 sigma (the window of acceptance criterion 02); curvature and
# bootstrap errors of beta within a factor of two of each other.
BETA_REL_TOL = 0.20
ALPHA_WINDOW = 2 * 0.3e-4
ERROR_RATIO_MAX = 2.0
ORACLE_CHECKS = 6


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class StageResult:
    name: str
    code: int
    stdout: str


class Workload:
    """One workload bound to a seed, a working directory and the CLI."""

    name = ""
    # Checks output_checks() returns; kept fixed so a failed stage still
    # books the same number of operations.
    n_output_checks = 0

    def __init__(self, seed: int, workdir: Path, cli_main):
        self.seed = seed
        self.workdir = workdir
        self.cli_main = cli_main
        self.config = self.make_config()
        self.config_path = workdir / "config.json"
        if self.config is not None:
            self.config_path.write_text(json.dumps(self.config, indent=1))
        self._first_digest: str | None = None

    def make_config(self) -> dict | None:
        return None

    def stage_argv(self) -> list[list[str]]:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        """Remove everything in the working directory but the config; untimed."""
        for p in self.workdir.iterdir():
            if p.is_dir():
                shutil.rmtree(p)
            elif p != self.config_path:
                p.unlink()

    def run_pass(self) -> list[StageResult]:
        """The timed work: every stage of the workload, stdout captured."""
        results = []
        for argv in self.stage_argv():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.cli_main(argv)
            results.append(StageResult(argv[0], code, out.getvalue()))
        return results

    def prepare_checks(self) -> None:
        """Reference figures for the checks; computed once, outside timing."""

    def output_checks(self, stages: list[StageResult]) -> list[Check]:
        raise NotImplementedError

    def output_digest(self, stages: list[StageResult]) -> str:
        """Hash of every stage's stdout and of every file the pass wrote."""
        h = hashlib.sha256()
        for s in stages:
            h.update(s.stdout.encode())
        for p in sorted(self.workdir.rglob("*")):
            if p.is_file() and p != self.config_path:
                h.update(str(p.relative_to(self.workdir)).encode())
                h.update(p.read_bytes())
        return h.hexdigest()

    def check_pass(self, stages: list[StageResult]) -> list[Check]:
        """Stage exit codes, output checks, and byte-identity with pass 1."""
        checks = [
            Check(f"stage {s.name}", s.code == 0, f"exit code {s.code}") for s in stages
        ]
        digest = "no outputs"
        if not all(s.code == 0 for s in stages):
            checks += [Check("outputs", False, "a stage failed")] * self.n_output_checks
        else:
            try:
                checks += self.output_checks(stages)
                digest = self.output_digest(stages)
            except (OSError, ValueError, KeyError) as exc:
                # An output the pass should have written is missing or malformed.
                checks += [Check("outputs", False, str(exc))] * self.n_output_checks
        if self._first_digest is None:
            self._first_digest = digest
        checks.append(
            Check("repeatable", digest == self._first_digest, "outputs identical to pass 1")
        )
        return checks

    def traces_per_pass(self) -> int:
        """Traces the pass simulates; 0 when it handles no traces."""
        return 0

    def bins_per_pass(self) -> int:
        return 0


class _TraceWorkload(Workload):
    """Shared shape of the workloads that simulate and analyze traces."""

    physics_overrides: dict = {}
    traces_per_bin = 200

    def make_config(self) -> dict:
        return {
            "physics": {**DEFAULT_PHYSICS, **self.physics_overrides},
            "calibration": dict(DEFAULT_CALIBRATION),
            "schedule": dict(DEFAULT_SCHEDULE),
            "grid": dict(DEFAULT_GRID),
            "traces_per_bin": self.traces_per_bin,
            "master_seed": self.seed,
            "out_dir": str(self.workdir),
        }

    @property
    def traces_path(self) -> Path:
        return self.workdir / "traces.jsonl"

    @property
    def grid(self) -> list[int]:
        g = self.config["grid"]
        return list(range(g["min"], g["max"] + 1, g["step"]))

    def stage_argv(self) -> list[list[str]]:
        cfg = str(self.config_path)
        return [
            ["simulate", "--config", cfg, "--out", str(self.traces_path),
             "--workers", "1", "--quiet"],
            ["analyze", str(self.traces_path), "--config", cfg,
             "--out", str(self.workdir / "analysis")],
        ]

    def prepare_checks(self) -> None:
        window = self.config["schedule"]["detect_s"]
        self.expected = {
            float(n): window_mean_occupancy(self.config["physics"], float(n), window)
            for n in self.grid
        }

    def bin_checks(self) -> list[Check]:
        with open(self.workdir / "analysis" / "bins.csv", newline="") as fh:
            rows = {float(r["n_rb_center"]): r for r in csv.DictReader(fh)}
        checks = []
        for n_rb, expected in self.expected.items():
            row = rows.get(n_rb)
            if row is None:
                checks.append(Check(f"bin {n_rb:g}", False, "bin missing from bins.csv"))
                continue
            mean, se = float(row["mean_n_cs"]), float(row["se_mean_n_cs"])
            z = (mean - expected) / se if se > 0 else float("inf")
            checks.append(Check(
                f"bin {n_rb:g}", abs(z) <= Z_MAX,
                f"staircase {mean:.4f} +- {se:.4f} vs exact {expected:.4f} (z {z:+.2f})",
            ))
        return checks

    def traces_per_pass(self) -> int:
        return self.traces_per_bin * len(self.grid)

    def bins_per_pass(self) -> int:
        return len(self.grid)


class Campaign(_TraceWorkload):
    """Default config, 16 bins x 200 traces: simulate, analyze, fit --bootstrap 200."""

    name = "campaign"
    n_output_checks = N_BINS + 3

    def stage_argv(self) -> list[list[str]]:
        return super().stage_argv() + [
            ["fit", str(self.traces_path), "--config", str(self.config_path),
             "--out", str(self.workdir / "fit"), "--bootstrap", "200"],
        ]

    def output_checks(self, stages: list[StageResult]) -> list[Check]:
        report = json.loads((self.workdir / "fit" / "report.json").read_text())
        physics = self.config["physics"]
        beta_true = physics["beta_rbcs_cm3_per_s"]
        beta = report["beta_rbcs_cm3_per_s"]
        alpha = report["alpha_per_s_per_rb"]
        curv = report["stat_err_cm3_per_s"]
        boot = report["stat_err_bootstrap_cm3_per_s"]
        ratio = boot / curv if curv > 0 else float("inf")
        return self.bin_checks() + [
            Check("beta", abs(beta / beta_true - 1.0) <= BETA_REL_TOL,
                  f"{beta:.4g} vs true {beta_true:.4g}"),
            Check("alpha", abs(alpha - physics["alpha_per_s_per_rb"]) <= ALPHA_WINDOW,
                  f"{alpha:.4g} vs true {physics['alpha_per_s_per_rb']:.4g}"),
            Check("beta errors", 1.0 / ERROR_RATIO_MAX <= ratio <= ERROR_RATIO_MAX,
                  f"bootstrap {boot:.3g} / curvature {curv:.3g} = {ratio:.3f}"),
        ]


class PairLoss(_TraceWorkload):
    """Few-atom regime with Cs-Cs pair loss, 16 bins x 100 traces: simulate, analyze."""

    name = "pairloss"
    physics_overrides = {"r0_per_s": 10.0, "beta_cscs_cm3_per_s": 2e-9}
    traces_per_bin = 100
    n_output_checks = N_BINS

    def output_checks(self, stages: list[StageResult]) -> list[Check]:
        return self.bin_checks()


class Oracle(Workload):
    """`motprobe oracle all` at its defaults; the benchmark seed is not used."""

    name = "oracle"
    n_output_checks = ORACLE_CHECKS

    def stage_argv(self) -> list[list[str]]:
        return [["oracle", "all"]]

    def output_checks(self, stages: list[StageResult]) -> list[Check]:
        lines = [ln for ln in stages[0].stdout.splitlines() if ln.strip()]
        lines += ["missing"] * (ORACLE_CHECKS - len(lines))
        return [Check(f"oracle line {i + 1}", lines[i].startswith("PASS "), lines[i])
                for i in range(ORACLE_CHECKS)]


WORKLOADS = {w.name: w for w in (Campaign, Oracle, PairLoss)}


def setup(name: str, seed: int, workdir: Path) -> Workload:
    """Program imports, config and input generation before the first pass."""
    import motprobe.cli

    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir, motprobe.cli.main)
