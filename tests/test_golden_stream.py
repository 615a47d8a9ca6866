"""Golden seeded streams: the exact bytes `simulate` writes for three small
configs at master seed 1234.

Both files are pinned: the traces (photon counts) and the trajectory dump,
whose event times expose a change of even one unit in the last place of
any rate sum. Any change to the seeded stream (draw order, rate arithmetic,
photon synthesis, serialization) changes these hashes. Such a change must
be deliberate: update the pinned hashes in the same change and say why in
CHANGES.md. A speed-up that keeps the stream must leave them alone.
"""

import hashlib
import json

import pytest

from motprobe.cli import main

GOLDEN = {
    # built-in defaults, 16 bins x 5 traces
    "defaults": (
        {},
        "0ce66784b2718d8786a0aefc6a262e26150f978730d026b3bf6f80584f8f805b",
        "ae81e1777b17c77ff287b807c44909aa509a4d4f47c5a608ff4fc25e5d1d6e56",
    ),
    # a dark rate in the off segment, 16 bins x 5 traces: the off counts
    # are Poisson draws, not zeros, so their place in the draw order shows
    "dark_rate": (
        {"calibration": {"dark_rate_per_s": 2.0e3}},
        "b5083f0bb4bf61651ec7a8e8f493cea6252d8db5cb081e67f70311a85f25b7a5",
        "ae81e1777b17c77ff287b807c44909aa509a4d4f47c5a608ff4fc25e5d1d6e56",
    ),
    # few-atom regime with Cs-Cs pair loss, 16 bins x 5 traces
    "pair_loss": (
        {"physics": {"r0_per_s": 10.0, "beta_cscs_cm3_per_s": 2e-9}},
        "35b5876839481a0b7ecb554e371dc154f401d48226054e99487d9c26a22f2fb2",
        "0aaac87fbb6ce08c0f1dd983fc50891dd28402633c1eb8e560f4a85942ebc28f",
    ),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_stream_is_pinned(tmp_path, name):
    payload, traces_hash, trajectories_hash = GOLDEN[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "traces.jsonl"
    assert main([
        "simulate", "--config", str(cfg), "--out", str(out),
        "--traces", "5", "--seed", "1234", "--quiet", "--dump-trajectories",
    ]) == 0
    assert sha256(out) == traces_hash
    assert sha256(tmp_path / "trajectories.jsonl") == trajectories_hash


# The oracle seed paths (2, i) and (3, i), pinned by the exact stdout and
# exit code of `oracle` at 300 runs; the pin is of the bytes, not a verdict.
# The overlap oracle takes no runs; its worst relative error and the radius
# pair it occurs at are pinned as printed.
GOLDEN_ORACLE = {
    "overlap": (0, (
        "PASS pair_overlap_vs_quadrature: worst rel err 1.913e-15 at radii "
        "3.162e-03/3.162e-03 cm (tol 1e-06, 5x5 grid)\n"
        "PASS four_to_one_radius_special_case: rel err 2.359e-16 between general "
        "and cubic form\n"
    )),
    "transient": (0, (
        "PASS transient_mean[default-1100]: worst |z| 2.42 over 10 checkpoints, 300 runs (limit 3)\n"
        "PASS transient_mean[default-2200]: worst |z| 2.18 over 10 checkpoints, 300 runs (limit 3)\n"
        "PASS transient_mean[no-companion]: worst |z| 0.69 over 10 checkpoints, 300 runs (limit 3)\n"
    )),
    "poisson": (0, (
        "PASS stationary_occupancy_poisson: chi2 2.97 with 5 dof, p 0.705 against rate 2 "
        "(300 runs, need p > 0.01)\n"
    )),
}


@pytest.mark.parametrize("which", sorted(GOLDEN_ORACLE))
def test_oracle_stream_is_pinned(capsys, which):
    code, stdout = GOLDEN_ORACLE[which]
    assert main(["oracle", which, "--runs", "300"]) == code
    assert capsys.readouterr().out == stdout


# The analysis chain on the seeded stream: every file `analyze` and
# `fit --bootstrap 20` write for the defaults at 16 bins x 20 traces, master
# seed 1234. The staircase, the histograms, the loading and beta fits, the
# bootstrap and the CSV/JSON formatting all feed these bytes.
GOLDEN_ANALYSIS = {
    "analysis/bins.csv": "459ecae6185e1139a92225c129063bec3b4f4aec9ba8a0961af10a79186d1814",
    "analysis/hist_nrb00000.csv": "c6879a2b1693f2d5bf2a27eda84e767b8f58346532aa12a585f947eef15925ac",
    "analysis/hist_nrb00220.csv": "43303717c6fa957130b1226241eedb6cac08e6ef490242e1b50c463a4a622972",
    "analysis/hist_nrb00440.csv": "3d9719ac2570826b17f5a303e86eef583bad09131641e5c7dca1bbc97d20de1c",
    "analysis/hist_nrb00660.csv": "3484229593e7f29577c5d0679eb312350eb16c65da9be9d3761963ea352ce343",
    "analysis/hist_nrb00880.csv": "14e58ca43d76e855a21324f1c6e76aad2dfd61ba7857d4417656d29fd7b7d672",
    "analysis/hist_nrb01100.csv": "1202e02f7757a6bca636dc2f24ef4957a4f1d07d0c35a667e48d721dfc42f67c",
    "analysis/hist_nrb01320.csv": "3cc07b1810636494e12101a0fb882c4e508b30b3761e34ed128e8190863e5dbb",
    "analysis/hist_nrb01540.csv": "3769615acd52d16c62e241e6c3246405e610a8ab7a91b846ac608bd72e6042a4",
    "analysis/hist_nrb01760.csv": "0b8604d13027d90227452e18101782d000c53a5a1442e46f75149c5fdf59946c",
    "analysis/hist_nrb01980.csv": "51141448ee664128ebbbe1c6667a0fba15a9fe81765e6b09b0edd6562c12ae70",
    "analysis/hist_nrb02200.csv": "ce5cb924012bdb04ae1a406bb8ad02d1d93ed6ae021acca1f334ed5cb01fa21c",
    "analysis/hist_nrb02420.csv": "62ea918bff35141a06d531a8cce8abd91e93781457c7c9c2d57504e2a27275ee",
    "analysis/hist_nrb02640.csv": "53f08c6ce0cb03dfa288423e3565539534c1e811aff01ef05d65d7207875f05a",
    "analysis/hist_nrb02860.csv": "335a1ddfb87043da4ae44bec9a649d5eb7e76abf62f4eb5981310839e794f5ac",
    "analysis/hist_nrb03080.csv": "ba2128061e8121fcd6d900b1dea21640eb8c0dcdded48a027d324384a80a553f",
    "analysis/hist_nrb03300.csv": "0746e12d9519db14b9290e5f0a8c7f1a81c9e460309abdf1b3e8ac44a9c4ee77",
    "fit/fit_bins.csv": "af9c2aa8ad3526b53247fe798b7e9bd0d7ef7d98f97baa274d9b4e5816f7b955",
    "fit/report.json": "a434a241c369d18482a430f9759ee8b3c8501a8f2f0386572133690433ee0112",
    "fit/steady_state_curve.csv": "17912051816f457edef490abbc6acb7604d48f58b05142eaa0d187633f2410f9",
}


def test_analysis_outputs_are_pinned(tmp_path):
    traces = tmp_path / "traces.jsonl"
    assert main([
        "simulate", "--out", str(traces), "--traces", "20", "--seed", "1234", "--quiet",
    ]) == 0
    assert main(["analyze", str(traces), "--out", str(tmp_path / "analysis")]) == 0
    assert main([
        "fit", str(traces), "--out", str(tmp_path / "fit"), "--bootstrap", "20",
    ]) == 0
    written = {
        str(p.relative_to(tmp_path))
        for sub in ("analysis", "fit")
        for p in (tmp_path / sub).iterdir()
    }
    assert written == set(GOLDEN_ANALYSIS)
    for name, digest in GOLDEN_ANALYSIS.items():
        assert sha256(tmp_path / name) == digest, name
