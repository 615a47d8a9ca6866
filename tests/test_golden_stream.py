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
        "9a25b323390b6c07d02d94d60781fcf438f6f8cb604a13b461b8e0f8d2410111",
        "ae81e1777b17c77ff287b807c44909aa509a4d4f47c5a608ff4fc25e5d1d6e56",
    ),
    # a dark rate in the off segment, 16 bins x 5 traces: the off counts
    # are Poisson draws, not zeros, so their place in the draw order shows
    "dark_rate": (
        {"calibration": {"dark_rate_per_s": 2.0e3}},
        "8769e408f48a7b479d29e214baed4dbf9941dba3c924cbaf3c6236a2a6a78177",
        "ae81e1777b17c77ff287b807c44909aa509a4d4f47c5a608ff4fc25e5d1d6e56",
    ),
    # few-atom regime with Cs-Cs pair loss, 16 bins x 5 traces
    "pair_loss": (
        {"physics": {"r0_per_s": 10.0, "beta_cscs_cm3_per_s": 2e-9}},
        "17eb37186d98754283f2005ddaada7142a598e473e414ac2a1807213f67c9771",
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
    "analysis/bins.csv": "b49b5e77033f182b12d5e5aaadeec240d9da313fa93920532373d3247e68f87c",
    "analysis/hist_nrb00000.csv": "6b9d25118e4c8dd1874eea2eb282314a0c4bea3c9fb2471888c248841ae0a483",
    "analysis/hist_nrb00220.csv": "f23e4c515e69e2f35758eac0ac8e4bddd2f40ba0b28f724d78f6edea06557a7e",
    "analysis/hist_nrb00440.csv": "53ba16804f2ae930b4256a78ef587e0a66e0e4898945c4d08e18093e18e03403",
    "analysis/hist_nrb00660.csv": "d92a012f59a18830afb1cb15d85d7e6be3670d2d247e2859ac987d33ff75e35a",
    "analysis/hist_nrb00880.csv": "9c97d88600bf15a5d9f713c9e0de7923d6371d0b96a4e85eb3728cb6b0b4979a",
    "analysis/hist_nrb01100.csv": "303dafc5977636785af2aec52563e8630dd6adaf4a8908d57790b9c311e0aa78",
    "analysis/hist_nrb01320.csv": "e6caab24f92bc445434d02fa8dcd5f03c4b27fbc7878d7430343fa2ee3e2264e",
    "analysis/hist_nrb01540.csv": "2114cc66bd57da66d67e13d0cac461e0b801545de5997a75577a0fd12e3d23da",
    "analysis/hist_nrb01760.csv": "213d5cacd828cf7c76043c53a45ae6137e969fa115d82922893b6b09898aef08",
    "analysis/hist_nrb01980.csv": "190cf77b7c7ec988c4d6e44e926b43141acf3df7a2ca0297d7f7a7e81dc09735",
    "analysis/hist_nrb02200.csv": "41fe65c621ad3db49d55ccd1b704e05861824bba9bc78007561e2ed252d46b80",
    "analysis/hist_nrb02420.csv": "c85566b4f9b3aee63b80b630bc4ba935f596afe0110d223015bd4efcc77a9144",
    "analysis/hist_nrb02640.csv": "8725d26fe20ad98a6fee6b5549e9cb83a0f69777f3ada28bc2c3c117df6a1976",
    "analysis/hist_nrb02860.csv": "fb06d91f207d9d9a62937dcbf23720b52587420b0b1891783dca1cb2609220cc",
    "analysis/hist_nrb03080.csv": "dcc18c1c6705236e52b58398d9ae5a31b8088ae53b585e297da7e4610c9413d4",
    "analysis/hist_nrb03300.csv": "27adfe0591d796727b6baeca5facce2450f7f3622d2b9cc7b05290fbe429e2db",
    "fit/fit_bins.csv": "97ad78204774937e1e88c9644f331a38adef08b6a1b27a8e6ebcab6587f1d688",
    "fit/report.json": "112359baea626d0781eed69cb95680aee3156d3dcb6facc9ce1917810da07c6c",
    "fit/steady_state_curve.csv": "7bd7df3efc22e868e5779f3eff25e889a8a1cf7dc4325d31f59010978a4069d8",
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
