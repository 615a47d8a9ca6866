"""Shared fixtures: one full default campaign per test session.

The campaign (16 companion-number bins, 200 traces each) is what several
recovery checks grade themselves against; running it once and sharing the
artifacts keeps the suite fast.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import pytest

from motprobe.cli import main as cli_main
from motprobe.config import RunConfig
from motprobe.inference import bin_by_nrb
from motprobe.traceio import read_traces_jsonl


@pytest.fixture(scope="session")
def default_campaign(tmp_path_factory):
    """simulate -> analyze -> fit with built-in defaults; timed per stage."""
    root = tmp_path_factory.mktemp("campaign")
    traces_path = root / "traces.jsonl"
    timings = {}

    t0 = time.perf_counter()
    assert cli_main(["simulate", "--out", str(traces_path), "--quiet"]) == 0
    timings["simulate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    assert cli_main(["analyze", str(traces_path), "--out", str(root / "analysis")]) == 0
    timings["analyze"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    assert cli_main([
        "fit", str(traces_path), "--out", str(root / "fit"),
        "--bootstrap", "200", "--seed", "1234",
    ]) == 0
    timings["fit"] = time.perf_counter() - t0

    report = json.loads((root / "fit" / "report.json").read_text())

    cfg = RunConfig.default()
    traces = read_traces_jsonl(traces_path)
    binned = bin_by_nrb(traces, cfg.calibration, width=float(cfg.grid.step))

    return SimpleNamespace(
        root=root,
        traces_path=traces_path,
        traces=traces,
        binned=binned,
        report=report,
        timings=timings,
        config=cfg,
    )
