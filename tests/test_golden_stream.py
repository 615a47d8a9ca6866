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
        "268f20bdd34557d081f8f3a79a43e83b70f175b09615274b652126e790f0b1c6",
        "eb6c7587a3a560f80fff7a74aba7be46656937a8d18ae857158b0f20e3ba632b",
    ),
    # a dark rate in the off segment, 16 bins x 5 traces: the off counts
    # are Poisson draws, not zeros, so their place in the draw order shows
    "dark_rate": (
        {"calibration": {"dark_rate_per_s": 2.0e3}},
        "6e1bb0bb9085b91237e4144a0f717a36d3afb41afa4a48eeb551393b09052196",
        "eb6c7587a3a560f80fff7a74aba7be46656937a8d18ae857158b0f20e3ba632b",
    ),
    # few-atom regime with Cs-Cs pair loss, 16 bins x 5 traces
    "pair_loss": (
        {"physics": {"r0_per_s": 10.0, "beta_cscs_cm3_per_s": 2e-9}},
        "08714c5e2d0123b294d3516047ab37b48508554d604b6f3a9ff692957168583d",
        "c7e4b961c296796417910a990da5092423ae25deadf251265503e84e378cbc39",
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


# The oracle seed paths (2, g) and (3, g), pinned by the exact stdout and
# exit code of `oracle` at 300 runs (one group each); the pin is of the
# bytes, not a verdict.
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
        "PASS transient_mean[default-1100]: worst |z| 1.62 over 10 checkpoints, 300 runs (limit 3)\n"
        "PASS transient_mean[default-2200]: worst |z| 1.56 over 10 checkpoints, 300 runs (limit 3)\n"
        "PASS transient_mean[no-companion]: worst |z| 1.95 over 10 checkpoints, 300 runs (limit 3)\n"
    )),
    "poisson": (0, (
        "PASS stationary_occupancy_poisson: chi2 4.48 with 5 dof, p 0.482 against rate 2 "
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
    "analysis/bins.csv": "c2f3c3e2bd4102d5694f7bf32312759764666442faf7baa47952ccfc2f005716",
    "analysis/hist_nrb00000.csv": "ee7b64306b3cd74eadb39ec02107077e3c2b195e5dcff09ade3a15eb773c19c3",
    "analysis/hist_nrb00220.csv": "f5d986ee141ab9b412760249096583cbdfefc7124835d27cc20134d835ac8ed6",
    "analysis/hist_nrb00440.csv": "df6e6719e39fc14a009a90ed267c7467a8447140df3e1824feacbe3a04f06dbf",
    "analysis/hist_nrb00660.csv": "2279c6ca25c41b9e2bc37a4625ab2053e7f71a7286f7d654223f9e989e23289a",
    "analysis/hist_nrb00880.csv": "7f78d6b82e7ea709e732eb5240d774c26681457ca8f43af05438c8643c46d457",
    "analysis/hist_nrb01100.csv": "d1beb22eea027155d226f35e46decd8305a8a92a8ee386c9a56c0b5390691cbc",
    "analysis/hist_nrb01320.csv": "a5fde29ec889761600005e79a1a7195d91df8c10b044804403e0ef196a8e8015",
    "analysis/hist_nrb01540.csv": "29eead4c28e15a50d1cd15b364992f70d7bb4c414a70cc5c96311266ec0d13e5",
    "analysis/hist_nrb01760.csv": "94f005b2c42a9a5f3207d7c589b01ea1393eea9d25cd61250add1e59463b358a",
    "analysis/hist_nrb01980.csv": "c501e0180c53d5c63da58ec4373e87423548258025fb5e379958e4c27aec6f62",
    "analysis/hist_nrb02200.csv": "dac4837cda42b081f647cc2548fbe236f3c64fc5ac989cf62b303442454173d9",
    "analysis/hist_nrb02420.csv": "565ae832a5aa8171fa7cea567794c1ad5baa555c964ee1ba52f35201ed2a1861",
    "analysis/hist_nrb02640.csv": "8db4134b5dd6247df426a383a9dab39850d22e25a0feaa2a45286ceb1a643aa0",
    "analysis/hist_nrb02860.csv": "546f8c80b6c9b08241eda1b13cb8952ebfca540f255526efd594874285f050e9",
    "analysis/hist_nrb03080.csv": "7cec081ad68bfd77395f90d40d5e7c89410938790fb04e547d106be198ebbefb",
    "analysis/hist_nrb03300.csv": "c4afd5b73a79e0fa9a149d92d4f4e1eaa4e069ab64f28e1922b05439650bd3d2",
    "fit/fit_bins.csv": "ef839113f86172629982268290c1eb1e25e9f8e7dc611b4ef3ee98d08f123ff6",
    "fit/report.json": "c4328db0f3f5008b50d3e43d6d63044b9603a06626a41a2b2495ff4ebccf915b",
    "fit/steady_state_curve.csv": "ea906be1bb93a45ae584096d8ad0ed3082830534b9b664d90cbfe01e61386c26",
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
