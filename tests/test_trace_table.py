"""The columnar trace table against the per-line loader it replaces.

read_traces_jsonl fills one int64 count matrix per (segments, bin_s) layout,
reading _FILL_BLOCK lines at a time, whether it parses their counts
together or each line on its own, and bin_by_nrb takes each bin's rows from
that table. The references here are trace_from_dict
(reference.py) called line by line and bin_by_nrb on the resulting list of
traces; every comparison asks for equality, not closeness.
"""

import json
import math
import os
import threading

import numpy as np
import pytest

from motprobe import traceio
from motprobe.gillespie import ExperimentSchedule, derive_seed, simulate_trajectory
from motprobe.inference import bin_by_nrb
from motprobe.photon import (
    DetectionCalibration,
    FluorescenceTrace,
    SegmentMap,
    TraceTable,
    estimate_staircase,
    synthesize_counts,
)
from motprobe.physics import PhysicalParams
from motprobe.traceio import TraceFileError, read_traces_jsonl, trace_to_dict
from reference import group_by_bin, trace_from_dict

UM = 1e-4

DEFAULTS = PhysicalParams(
    r0=1.48, alpha=2.3e-4, gamma=0.03,
    beta_rbcs=1.6e-10, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)
CAL = DetectionCalibration()

# (schedule, calibration) of each layout; the last has another bin width.
LAYOUTS = [
    (ExperimentSchedule(detect_s=3.0), CAL),
    (ExperimentSchedule(detect_s=1.5), CAL),
    (
        ExperimentSchedule(detect_s=1.0, off_s=0.5, background_s=0.2),
        DetectionCalibration(bin_s=0.01),
    ),
]

N_TRACES = 150


def simulated_lines():
    """JSON lines of N_TRACES traces over three n_rb values and three
    layouts; the first bin is all one layout, the others mix them."""
    lines = []
    for ti in range(N_TRACES):
        n_rb = (0.0, 1100.0, 2200.0)[ti % 3]
        sched, cal = LAYOUTS[0] if n_rb == 0.0 else LAYOUTS[(ti // 3) % 3]
        traj = simulate_trajectory(n_rb, DEFAULTS, sched, derive_seed(9, 0, ti))
        trace = synthesize_counts(
            traj, cal, sched, derive_seed(9, 1, ti), trace_id=f"t{ti:03d}"
        )
        lines.append(json.dumps(trace_to_dict(trace)))
    return lines


@pytest.fixture(scope="module")
def mixed_file(tmp_path_factory):
    """The path of the simulated lines with blank lines among them."""
    path = tmp_path_factory.mktemp("table") / "mixed.jsonl"
    text = []
    for k, entry in enumerate(simulated_lines()):
        if k % 37 == 5:
            text.append("   ")
        text.append(entry)
    path.write_text("\n".join(text) + "\n\n")
    return path


def reference_traces(path):
    """trace_from_dict line by line: the per-trace loader."""
    traces = []
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if line.strip():
            traces.append(trace_from_dict(json.loads(line), i))
    return traces


def assert_same_trace(got, want):
    assert got.trace_id == want.trace_id
    assert got.n_rb == want.n_rb and type(got.n_rb) is float
    assert got.bin_s == want.bin_s
    assert got.segments == want.segments
    assert got.counts.dtype == np.int64
    assert np.array_equal(got.counts, want.counts)


class TestReader:
    def test_fields_and_counts_match_per_line_reference(self, mixed_file):
        path = mixed_file
        assert N_TRACES > 2 * traceio._FILL_BLOCK
        table = read_traces_jsonl(path)
        ref = reference_traces(path)
        assert isinstance(table, TraceTable)
        assert len(table) == len(ref) == N_TRACES
        for got, want in zip(table, ref):
            assert_same_trace(got, want)
        assert_same_trace(table[-1], ref[-1])
        with pytest.raises(IndexError):
            table[N_TRACES]

        # The layouts partition the rows, each in file order.
        assert len(table.layouts) == 3
        assert table.trace_ids == [t.trace_id for t in ref]
        assert np.array_equal(table.n_rb, [t.n_rb for t in ref])
        seen = np.concatenate([layout.positions for layout in table.layouts])
        assert sorted(seen.tolist()) == list(range(N_TRACES))
        for layout in table.layouts:
            assert np.all(np.diff(layout.positions) > 0)
            assert layout.counts.dtype == np.int64
            assert layout.counts.shape == (len(layout.positions), layout.segments.n_bins)
            for row, i in zip(layout.counts, layout.positions):
                assert ref[i].segments == layout.segments
                assert ref[i].bin_s == layout.bin_s
                assert np.array_equal(row, ref[i].counts)

    def test_table_is_read_only(self, mixed_file):
        table = read_traces_jsonl(mixed_file)
        with pytest.raises(ValueError):
            table[0].counts[0] = 1
        with pytest.raises(ValueError):
            table.layouts[0].counts[0, 0] = 1
        with pytest.raises(ValueError):
            table.n_rb[0] = 1.0
        assert TraceTable.from_traces(table) is table

    def test_from_traces_matches_reader(self, mixed_file):
        path = mixed_file
        table = read_traces_jsonl(path)
        built = TraceTable.from_traces(reference_traces(path))
        assert built.trace_ids == table.trace_ids
        assert np.array_equal(built.n_rb, table.n_rb)
        for a, b in zip(built.layouts, table.layouts):
            assert (a.segments, a.bin_s) == (b.segments, b.bin_s)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.counts, b.counts)

    def test_cr_only_line_endings(self, tmp_path, mixed_file):
        path = tmp_path / "cr.jsonl"
        path.write_bytes(mixed_file.read_bytes().replace(b"\n", b"\r"))
        table = read_traces_jsonl(path)
        ref = reference_traces(mixed_file)
        assert len(table) == len(ref)
        for got, want in zip(table, ref):
            assert_same_trace(got, want)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_one_pass_input(self, mixed_file):
        """A pipe, as `analyze <(zcat traces.jsonl.gz)` passes it, can be
        read only once."""
        data = mixed_file.read_bytes()
        read_fd, write_fd = os.pipe()

        def feed():
            try:
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(data)
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            table = read_traces_jsonl(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
            writer.join(timeout=10)
        ref = reference_traces(mixed_file)
        assert len(table) == len(ref)
        for got, want in zip(table, ref):
            assert_same_trace(got, want)


def assert_same_bins(got, want):
    assert got.width == want.width
    assert len(got.bins) == len(want.bins)
    for a, b in zip(got.bins, want.bins):
        for field in (
            "center", "n_traces", "mean_n_cs", "se_mean_n_cs", "loading_rate",
            "load_count", "loss_counts_per_time", "loss_atoms", "detect_time_s",
        ):
            assert getattr(a, field) == getattr(b, field), field
        assert a.poisson_lambda == b.poisson_lambda or (
            math.isnan(a.poisson_lambda) and math.isnan(b.poisson_lambda)
        )
        assert np.array_equal(a.trace_means, b.trace_means)
        assert np.array_equal(a.histogram.bin_edges, b.histogram.bin_edges)
        assert np.array_equal(a.histogram.occurrences, b.histogram.occurrences)
        assert a.histogram.peaks == b.histogram.peaks
        assert a.histogram.poisson_lambda == b.histogram.poisson_lambda


class TestBinning:
    def test_table_bins_match_list_bins(self, mixed_file):
        path = mixed_file
        table = read_traces_jsonl(path)
        ref = reference_traces(path)
        got = bin_by_nrb(table, CAL, width=1100.0)
        assert_same_bins(got, bin_by_nrb(ref, CAL, width=1100.0))
        # Bins 1100 and 2200 mix all three layouts.
        groups = group_by_bin(ref, width=1100.0)
        mixed = [
            {(t.segments, t.bin_s) for t in members} for members in groups.values()
        ]
        assert [len(m) for m in mixed] == [1, 3, 3]

    def test_bins_match_trace_by_trace(self, mixed_file):
        """Each bin against group_by_bin and a per-trace staircase, with the
        detect time summed trace by trace in file order."""
        path = mixed_file
        binned = bin_by_nrb(read_traces_jsonl(path), CAL, width=1100.0)
        groups = group_by_bin(reference_traces(path), width=1100.0)
        assert [b.center for b in binned.bins] == list(groups)
        for b, members in zip(binned.bins, groups.values()):
            means, loads, lost, detect_time = [], 0, 0, 0.0
            for t in members:
                est = estimate_staircase(t, CAL)
                means.append(float(est.staircase.mean()))
                loads += len(est.load_events)
                lost += sum(mult for _, mult in est.loss_events)
                detect_time += (t.segments.detect[1] - t.segments.detect[0]) * t.bin_s
            assert np.array_equal(b.trace_means, np.array(means))
            assert (b.load_count, b.loss_atoms) == (loads, lost)
            assert b.detect_time_s == detect_time

    @pytest.mark.parametrize("width, origin", [(220.0, 0.0), (220.0, 110.0), (0.3, -0.1)])
    def test_grouping_matches_group_by_bin(self, width, origin):
        """Half-way points, negatives and large values land where
        group_by_bin puts them, in file order within each bin."""
        values = [
            0.0, 110.0, -110.0, 109.99999999999999, 330.0, 329.99999999999994,
            -0.0, 1e17, 0.15, 0.45, -0.25, 5e-324, 2200.0, 110.0, -330.0,
        ]
        seg = SegmentMap(detect=(0, 2), off=(2, 3), background=(3, 4))
        traces = [
            FluorescenceTrace(f"v{k}", v, 0.02, seg, np.array([300, 100, 0, 100]))
            for k, v in enumerate(values)
        ]
        binned = bin_by_nrb(traces, CAL, width=width, origin=origin)
        groups = group_by_bin(traces, width=width, origin=origin)
        assert [b.center for b in binned.bins] == list(groups)
        for b, members in zip(binned.bins, groups.values()):
            detect_time = 0.0
            for t in members:
                detect_time += 2 * t.bin_s
            assert b.n_traces == len(members)
            assert b.detect_time_s == detect_time

    def test_detect_time_is_summed_in_file_order(self):
        """Unequal detect times, whose float sum depends on the order."""
        traces = []
        for k in range(100):
            nd = 1 + k % 3
            seg = SegmentMap(detect=(0, nd), off=(nd, nd + 1), background=(nd + 1, nd + 2))
            counts = np.array([300] * nd + [0, 100])
            traces.append(FluorescenceTrace(f"u{k}", 0.0, 0.01 + 0.000317 * (k % 13), seg, counts))
        (b,) = bin_by_nrb(traces, CAL).bins
        detect_time = 0.0
        for t in traces:
            detect_time += (t.segments.detect[1] - t.segments.detect[0]) * t.bin_s
        assert b.detect_time_s == detect_time
        durations = [(t.segments.detect[1] - t.segments.detect[0]) * t.bin_s for t in traces]
        assert detect_time != float(np.sum(durations))

    def test_non_finite_n_rb_is_named(self):
        seg = SegmentMap(detect=(0, 2), off=(2, 3), background=(3, 4))
        traces = [
            FluorescenceTrace(name, v, 0.02, seg, np.array([300, 100, 0, 100]))
            for name, v in (("ok", 0.0), ("far", math.inf))
        ]
        with pytest.raises(ValueError, match="'far'"):
            bin_by_nrb(traces, CAL)


GOOD = {
    "trace_id": "g", "n_rb": 220.0, "bin_s": 0.02,
    "segments": {"detect": [0, 3], "off": [3, 4], "background": [4, 6]},
    "counts": [100, 300, 200, 0, 100, 100],
}
OTHER = {
    "trace_id": "o", "n_rb": 440.0, "bin_s": 0.01,
    "segments": {"detect": [0, 2], "off": [2, 3], "background": [3, 4]},
    "counts": [100, 300, 0, 100],
}

# Counts refused only once a line's counts are converted.
BAD_COUNTS = {
    "float": [100, 300, 200.5, 0, 100, 100],
    "boolean": [100, True, 200, 0, 100, 100],
    "past_int64": [100, 300, 2**63, 0, 100, 100],
    "nested": [[100, 300], [200, 0], [100, 100]],
    "negative": [100, 300, -1, 0, 100, 100],
    "short": [100, 300, 200, 0, 100],
    "long": [100, 300, 200, 0, 100, 100, 7],
}


def write_lines(path, objs, separators=None):
    path.write_text("".join(json.dumps(obj, separators=separators) + "\n" for obj in objs))
    return path


class TestBlockRefusals:
    BAD_LINE = 90

    def reference_message(self, obj, line):
        with pytest.raises(TraceFileError) as info:
            trace_from_dict(obj, line)
        return str(info.value)

    @pytest.mark.parametrize("kind", sorted(BAD_COUNTS))
    def test_first_bad_line_is_named(self, tmp_path, kind):
        assert self.BAD_LINE > traceio._FILL_BLOCK
        objs = [dict(GOOD, trace_id=f"g{k}") for k in range(120)]
        bad = dict(GOOD, counts=BAD_COUNTS[kind])
        objs[self.BAD_LINE - 1] = bad
        # Later lines that are bad too, in the same block and past it.
        objs[self.BAD_LINE] = dict(GOOD, n_rb="far")
        objs[110] = dict(GOOD, counts=[-5] * 6)
        path = write_lines(tmp_path / "bad.jsonl", objs)
        with pytest.raises(TraceFileError) as info:
            read_traces_jsonl(path)
        assert info.value.line_number == self.BAD_LINE
        assert str(info.value) == self.reference_message(bad, self.BAD_LINE)

    @pytest.mark.parametrize("kind", ["float", "negative", "nested"])
    def test_earliest_line_across_layouts(self, tmp_path, kind):
        """Two layouts in the same block: the earlier bad line is named,
        whichever layout holds it."""
        objs = [dict(OTHER if k % 2 else GOOD, trace_id=f"r{k}") for k in range(100)]
        objs[80] = dict(GOOD, counts=[-1] * 6)
        bad = dict(OTHER, counts=BAD_COUNTS[kind][:4] if kind != "nested" else [[1, 2]] * 4)
        objs[77] = bad
        path = write_lines(tmp_path / "bad.jsonl", objs)
        with pytest.raises(TraceFileError) as info:
            read_traces_jsonl(path)
        assert info.value.line_number == 78
        assert str(info.value) == self.reference_message(bad, 78)

    # The default separators give the form trace_lines writes; the compact
    # ones send every block to the line-by-line path.
    @pytest.mark.parametrize(
        "separators, line_blocks", [(None, 0), ((",", ":"), 4)], ids=["default", "compact"]
    )
    def test_good_file_past_several_blocks(self, tmp_path, monkeypatch, separators, line_blocks):
        objs = [dict(GOOD if k % 3 else OTHER, trace_id=f"r{k}") for k in range(200)]
        objs[150] = dict(GOOD, trace_id="true")
        path = write_lines(tmp_path / "good.jsonl", objs, separators)
        taken = []
        real = traceio._TableReader._read_block_lines

        def spy(self, block):
            taken.append(block[0][0])
            real(self, block)

        monkeypatch.setattr(traceio._TableReader, "_read_block_lines", spy)
        table = read_traces_jsonl(path)
        assert len(taken) == line_blocks
        assert len(table) == 200
        # Past the first _FILL_BLOCK rows of both layouts' matrices.
        assert [len(layout.positions) for layout in table.layouts] == [66, 134]
        for k, trace in enumerate(table):
            assert_same_trace(trace, trace_from_dict(objs[k]))
