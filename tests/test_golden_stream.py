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
        "e6b8358e8be8be890eec94c2744941861a5a56a3c1867066f37ce0048c8be0b3",
        "f7f4d67c1c6bd31d0a6cd685235fd254ca3206c97900dafa1ca338f9a3ab8a34",
    ),
    # a dark rate in the off segment, 16 bins x 5 traces: the off counts
    # are Poisson draws, not zeros, so their place in the draw order shows
    "dark_rate": (
        {"calibration": {"dark_rate_per_s": 2.0e3}},
        "3c719e292e97a9a4ac90fb8b93ddaa6af6d5202207484536eecd9fab1407b51b",
        "f7f4d67c1c6bd31d0a6cd685235fd254ca3206c97900dafa1ca338f9a3ab8a34",
    ),
    # few-atom regime with Cs-Cs pair loss, 16 bins x 5 traces
    "pair_loss": (
        {"physics": {"r0_per_s": 10.0, "beta_cscs_cm3_per_s": 2e-9}},
        "e542ce3f3ffc6e3486a861a7e8ee2c92cb62f623f897976fdcfd633fa512327d",
        "5f4fa1e15d9ef23e789df6de3871a88011bd8fa29c1fa42054f59a94d94f29b6",
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
# exit code of `oracle` at 300 runs. At this run count the Poisson check
# fails at its default seed (p 0.007); the pin is of the bytes, not a verdict.
# The overlap oracle takes no runs; its worst relative error and the radius
# pair it occurs at are pinned as printed.
GOLDEN_ORACLE = {
    "overlap": (0, (
        "PASS pair_overlap_vs_quadrature: worst rel err 5.708e-15 at radii "
        "1.000e-04/1.000e-03 cm (tol 1e-06, 5x5 grid)\n"
        "PASS four_to_one_radius_special_case: rel err 2.359e-16 between general "
        "and cubic form\n"
    )),
    "transient": (0, (
        "PASS transient_mean[default-1100]: worst |z| 2.13 over 10 checkpoints, 300 runs (limit 3)\n"
        "PASS transient_mean[default-2200]: worst |z| 1.97 over 10 checkpoints, 300 runs (limit 3)\n"
        "PASS transient_mean[no-companion]: worst |z| 0.62 over 10 checkpoints, 300 runs (limit 3)\n"
    )),
    "poisson": (1, (
        "FAIL stationary_occupancy_poisson: chi2 15.85 with 5 dof, p 0.007 against rate 2 "
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
    "analysis/bins.csv": "66f9b8826ecc70cb451edccece26765a8d3248f8305d228f10504ec18412208a",
    "analysis/hist_nrb00000.csv": "4778c4f9d040d91919a4a48893ef0cb13613995eb5576e1c7179dade178e75c0",
    "analysis/hist_nrb00220.csv": "3a26ace06384e4235559fabf435f52e008168b2ca2445b51b8178437cfa74346",
    "analysis/hist_nrb00440.csv": "7d1ff8f8fbaba5d55c8920846e743d096ff6d562c7f7457611812210b2e1164f",
    "analysis/hist_nrb00660.csv": "b0e09fca66ad96d2881465a973c0c47026c1c614163b26c7d3085c4b4156bfdc",
    "analysis/hist_nrb00880.csv": "6bace569be0b71add69484282a3af6910cefdd2ea3897613b39883c3c7084feb",
    "analysis/hist_nrb01100.csv": "0530764ce31a1962aecfda6801737292bf8b9262c93dfdb4444f95086768fc74",
    "analysis/hist_nrb01320.csv": "6fb51a5832aaa3d91304fd680369b40aee8975f0eb8c6feccc624e56a428238a",
    "analysis/hist_nrb01540.csv": "cb8491d938dc068a526a5aabc7c3787052602dfd1d5c7cedacbf154ee9cf7608",
    "analysis/hist_nrb01760.csv": "5502cd4a4dc47d18685616d50cd095f693c9bfed4c5477c142ea2cf1a494d482",
    "analysis/hist_nrb01980.csv": "1f2641c4ebf4428464f378b420526a7f787ba57d64cf6c84c823cb26eeba7e3e",
    "analysis/hist_nrb02200.csv": "c9f9c08c738f98f36a509aa0bca56e72550e6d0d70b7b2930e9a7f544a75ef65",
    "analysis/hist_nrb02420.csv": "630d3df58040b81985aac4ddb729a864b9393aaf5e0701b8efb03eb962497504",
    "analysis/hist_nrb02640.csv": "2ba261222e5d6be59b3d123980ff7ef25570eb1790dd40b2613903671069f8f5",
    "analysis/hist_nrb02860.csv": "ec594743f4f43d3b16b117693d18e6ba47727cbbc86b759108bf64d461bcc42d",
    "analysis/hist_nrb03080.csv": "453ffc22341fc194e3fe9510ac9d5c560c023e40450c677272964d17a39c48d7",
    "analysis/hist_nrb03300.csv": "b32c80122a4b4fde40dd86d6fcba74b6c013166de7861ceb3914f601d33375c6",
    "fit/fit_bins.csv": "4daced4e67d0e5ad4e5315309134af79d77f26b0a396cd51aa99599c80bcd63a",
    "fit/report.json": "67dc4a1423ce724400b4b0239b2c99233fd585505afc2bff3ef808d392381b97",
    "fit/steady_state_curve.csv": "570a6672d6de9ba088f1100179f0f4db7094a23f6d470c2f1f8c56fa38e73ee6",
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
