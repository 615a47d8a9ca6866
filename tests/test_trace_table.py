"""The columnar trace table against the per-line loader it replaces.

read_traces_jsonl fills the table's one int64 count matrix, reading
_FILL_BLOCK lines at a time, whether it parses their counts together or
each line on its own, and bin_by_nrb takes each bin's rows from that table.
A file or a list of traces that mixes segment maps or bin widths is
refused at the first trace that differs. The references here are
trace_from_dict (reference.py) called line by line and bin_by_nrb on the
resulting list of traces; every comparison asks for equality, not
closeness.
"""

import json
import math
import os
import sys
import threading

import numpy as np
import pytest

from motprobe import photon, traceio
from motprobe.cli import main
from motprobe.config import GridSpec, RunConfig
from motprobe.gillespie import ExperimentSchedule, derive_seed, simulate_trajectory
from motprobe.inference import _grid_points, bin_by_nrb
from motprobe.photon import (
    DetectionCalibration,
    FluorescenceTrace,
    SegmentMap,
    TraceTable,
    build_histogram,
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

# The file's one layout: shorter segments and 10 ms bins, not the defaults.
SCHED = ExperimentSchedule(detect_s=1.0, off_s=0.5, background_s=0.2)
FILE_CAL = DetectionCalibration(bin_s=0.01)
GRID = GridSpec(min=0, max=2200, step=1100)

N_TRACES = 150


def simulated_lines():
    """JSON lines of N_TRACES traces over three n_rb values."""
    lines = []
    for ti in range(N_TRACES):
        n_rb = (0.0, 1100.0, 2200.0)[ti % 3]
        traj = simulate_trajectory(n_rb, DEFAULTS, SCHED, derive_seed(9, 0, ti))
        trace = synthesize_counts(
            traj, FILE_CAL, SCHED, derive_seed(9, 1, ti), trace_id=f"t{ti:03d}"
        )
        lines.append(json.dumps(trace_to_dict(trace)))
    return lines


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """The path of the simulated lines with blank lines among them."""
    path = tmp_path_factory.mktemp("table") / "traces.jsonl"
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
    def test_fields_and_counts_match_per_line_reference(self, trace_file):
        path = trace_file
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

        # One count matrix, one row per trace in file order.
        assert table.trace_ids == [t.trace_id for t in ref]
        assert np.array_equal(table.n_rb, [t.n_rb for t in ref])
        assert (table.segments, table.bin_s) == (ref[0].segments, 0.01)
        assert table.counts.dtype == np.int64
        assert table.counts.shape == (N_TRACES, table.segments.n_bins)
        assert np.array_equal(table.counts, np.stack([t.counts for t in ref]))

    def test_table_is_read_only(self, trace_file):
        table = read_traces_jsonl(trace_file)
        with pytest.raises(ValueError):
            table[0].counts[0] = 1
        with pytest.raises(ValueError):
            table.counts[0, 0] = 1
        with pytest.raises(ValueError):
            table.n_rb[0] = 1.0
        assert TraceTable.from_traces(table) is table

    def test_from_traces_matches_reader(self, trace_file):
        path = trace_file
        table = read_traces_jsonl(path)
        built = TraceTable.from_traces(reference_traces(path))
        assert built.trace_ids == table.trace_ids
        assert np.array_equal(built.n_rb, table.n_rb)
        assert (built.segments, built.bin_s) == (table.segments, table.bin_s)
        assert np.array_equal(built.counts, table.counts)

    def test_cr_only_line_endings(self, tmp_path, trace_file):
        path = tmp_path / "cr.jsonl"
        path.write_bytes(trace_file.read_bytes().replace(b"\n", b"\r"))
        table = read_traces_jsonl(path)
        ref = reference_traces(trace_file)
        assert len(table) == len(ref)
        for got, want in zip(table, ref):
            assert_same_trace(got, want)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_one_pass_input(self, trace_file):
        """A pipe, as `analyze <(zcat traces.jsonl.gz)` passes it, can be
        read only once."""
        data = trace_file.read_bytes()
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
        ref = reference_traces(trace_file)
        assert len(table) == len(ref)
        for got, want in zip(table, ref):
            assert_same_trace(got, want)

    def test_from_traces_refuses_a_second_layout(self):
        """The first trace whose segments or bin_s differ from the first
        trace's is named."""
        seg = SegmentMap(detect=(0, 2), off=(2, 3), background=(3, 4))
        longer = SegmentMap(detect=(0, 3), off=(3, 4), background=(4, 5))
        counts = np.array([300, 100, 0, 100])

        def trace(name, segments=seg, bin_s=0.02):
            n = segments.n_bins
            return FluorescenceTrace(name, 0.0, bin_s, segments, np.resize(counts, n))

        for odd in (trace("odd", segments=longer), trace("odd", bin_s=0.01)):
            traces = [trace("a"), trace("b"), odd, trace("c", segments=longer)]
            with pytest.raises(ValueError, match="trace 'odd' has .* trace 'a'"):
                TraceTable.from_traces(traces)
            with pytest.raises(ValueError, match="'odd'"):
                bin_by_nrb(traces, CAL, GridSpec())


def assert_same_bins(got, want):
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


def assert_lambda_of_histogram(b, members):
    """A bin's poisson_lambda is that of build_histogram on its traces,
    NaN where the histogram resolves fewer than two peaks."""
    lam = build_histogram(members, CAL).poisson_lambda
    if lam is None:
        assert math.isnan(b.poisson_lambda)
    else:
        assert b.poisson_lambda == lam


# Half-way points, negatives and large values, for the grouping tests.
N_RB_VALUES = [
    0.0, 110.0, -110.0, 109.99999999999999, 330.0, 329.99999999999994,
    -0.0, 1e17, 0.15, 0.45, -0.25, 5e-324, 2200.0, 110.0, -330.0,
]


def value_traces(values):
    seg = SegmentMap(detect=(0, 2), off=(2, 3), background=(3, 4))
    return [
        FluorescenceTrace(f"v{k}", v, 0.02, seg, np.array([300, 100, 0, 100]))
        for k, v in enumerate(values)
    ]


class TestBinning:
    def test_table_bins_match_list_bins(self, trace_file):
        path = trace_file
        table = read_traces_jsonl(path)
        ref = reference_traces(path)
        got = bin_by_nrb(table, CAL, GRID)
        assert_same_bins(got, bin_by_nrb(ref, CAL, GRID))
        groups = group_by_bin(ref, width=1100.0)
        assert [len(m) for m in groups.values()] == [50, 50, 50]
        for b, members in zip(got.bins, groups.values()):
            assert_lambda_of_histogram(b, members)

    def test_bins_match_trace_by_trace(self, trace_file):
        """Each bin against group_by_bin and a per-trace staircase, with the
        detect time summed trace by trace in file order."""
        path = trace_file
        binned = bin_by_nrb(read_traces_jsonl(path), CAL, GRID)
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
        """Half-way points, negatives and large values get the grid point
        group_by_bin gives them, on grids a GridSpec cannot hold too."""
        traces = value_traces(N_RB_VALUES)
        points = _grid_points(TraceTable.from_traces(traces), width, origin)
        groups = group_by_bin(traces, width=width, origin=origin)
        assert np.unique(points).tolist() == list(groups)
        for center, members in groups.items():
            rows = np.flatnonzero(points == center)
            assert [traces[i] for i in rows] == members

    @pytest.mark.parametrize("grid", [
        GridSpec(min=0, max=2200, step=220), GridSpec(min=110, max=2310, step=220),
    ], ids=["origin0", "origin110"])
    def test_bins_of_the_grid_match_group_by_bin(self, grid):
        """The values whose grid point is on the grid land in bin_by_nrb's
        bins as group_by_bin puts them, in file order within each bin."""
        width, origin = float(grid.step), float(grid.min)
        on_grid = [
            v for v in N_RB_VALUES
            if grid.min <= origin + math.floor((v - origin) / width + 0.5) * width <= grid.max
        ]
        traces = value_traces(on_grid)
        binned = bin_by_nrb(traces, CAL, grid)
        groups = group_by_bin(traces, width=width, origin=origin)
        assert [b.center for b in binned.bins] == list(groups)
        for b, members in zip(binned.bins, groups.values()):
            detect_time = 0.0
            for t in members:
                detect_time += 2 * t.bin_s
            assert b.n_traces == len(members)
            assert b.detect_time_s == detect_time
            assert_lambda_of_histogram(b, members)
        # Bins of fewer than five traces resolve fewer than two peaks.
        assert any(math.isnan(b.poisson_lambda) for b in binned.bins)

    def test_detect_time_is_summed_in_file_order(self):
        """The traces' equal detect times are added one by one, left to
        right, as a trace-by-trace sum would; n * d rounds differently."""
        nd, bin_s = 3, 0.010317
        seg = SegmentMap(detect=(0, nd), off=(nd, nd + 1), background=(nd + 1, nd + 2))
        counts = np.array([300] * nd + [0, 100])
        traces = [FluorescenceTrace(f"u{k}", 0.0, bin_s, seg, counts) for k in range(100)]
        (b,) = bin_by_nrb(traces, CAL, GridSpec()).bins
        detect_time = 0.0
        for t in traces:
            detect_time += (t.segments.detect[1] - t.segments.detect[0]) * t.bin_s
        assert b.detect_time_s == detect_time
        assert detect_time != len(traces) * (nd * bin_s)

    def test_non_finite_n_rb_is_named(self):
        seg = SegmentMap(detect=(0, 2), off=(2, 3), background=(3, 4))
        traces = [
            FluorescenceTrace(name, v, 0.02, seg, np.array([300, 100, 0, 100]))
            for name, v in (("ok", 0.0), ("far", math.inf))
        ]
        with pytest.raises(ValueError, match="'far'"):
            bin_by_nrb(traces, CAL, GridSpec())

    def test_cells_are_counted_once_per_bin(self, tmp_path, trace_file, monkeypatch):
        """analyze counts each bin's whole-atom cells once, for the peak
        rate and the histogram together: one np.bincount per bin in
        photon, over the bin's 50 traces x 100 detect bins."""
        calls = []
        real = np.bincount

        def spy(x, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == photon.__name__:
                calls.append(len(x))
            return real(x, *args, **kwargs)

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"min": 0, "max": 2200, "step": 1100}}))
        monkeypatch.setattr(np, "bincount", spy)
        assert main([
            "analyze", str(trace_file), "--config", str(config), "--out", str(tmp_path / "a"),
        ]) == 0
        assert calls == [50 * 100] * 3


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
        """A bad line and, later in the same block, a line of another
        layout: the earlier is named, whichever it is."""
        objs = [dict(GOOD, trace_id=f"r{k}") for k in range(100)]
        bad = dict(GOOD, counts=BAD_COUNTS[kind])
        objs[77] = bad
        objs[80] = dict(OTHER, trace_id="other")
        path = write_lines(tmp_path / "bad.jsonl", objs)
        with pytest.raises(TraceFileError) as info:
            read_traces_jsonl(path)
        assert info.value.line_number == 78
        assert str(info.value) == self.reference_message(bad, 78)
        # The other way round, the layout's line is named.
        objs[77], objs[80] = objs[80], bad
        path = write_lines(tmp_path / "bad.jsonl", objs)
        with pytest.raises(TraceFileError, match="^line 78: .* differ from line 1's") as info:
            read_traces_jsonl(path)
        assert info.value.line_number == 78

    # "default" writes each line as trace_lines does, which the reader
    # parses as byte matrices; the compact separators send every line to
    # the line-by-line path.
    @pytest.mark.parametrize(
        "separators, json_lines", [(None, 0), ((",", ":"), 200)], ids=["default", "compact"]
    )
    def test_good_file_past_several_blocks(self, tmp_path, monkeypatch, separators, json_lines):
        objs = [dict(GOOD, trace_id=f"r{k}", n_rb=220.0 * (k % 3)) for k in range(200)]
        objs[150] = dict(GOOD, trace_id="true")
        path = tmp_path / "good.jsonl"
        if separators is None:
            segments = SegmentMap(**{k: tuple(v) for k, v in GOOD["segments"].items()})
            path.write_text("".join(
                traceio.trace_lines(
                    [obj["trace_id"]], obj["n_rb"], obj["bin_s"], segments, [obj["counts"]]
                )
                for obj in objs
            ))
        else:
            write_lines(path, objs, separators)
        taken = []
        real = traceio._TableReader._read_block_lines

        def spy(self, block):
            taken.extend(i for i, _ in block)
            real(self, block)

        monkeypatch.setattr(traceio._TableReader, "_read_block_lines", spy)
        table = read_traces_jsonl(path)
        assert len(taken) == json_lines
        assert len(table) == 200
        # Past the first _FILL_BLOCK rows of the count matrix, twice grown.
        assert 200 > traceio._FILL_BLOCK * 3 // 2 * 3 // 2
        assert table.counts.shape == (200, 6)
        for k, trace in enumerate(table):
            assert_same_trace(trace, trace_from_dict(objs[k]))

    # Each case: the lines before the first trace line, and the line (of
    # the 120) that holds another layout.
    @pytest.mark.parametrize("separators", [None, (",", ":")], ids=["default", "compact"])
    @pytest.mark.parametrize(
        "blank, odd", [(0, 7), (0, 100), (2, 40)],
        ids=["same_block", "later_block", "after_blank_lines"],
    )
    def test_second_layout_is_refused(self, tmp_path, separators, blank, odd):
        """A line whose segments or bin_s differ from the first trace
        line's is refused, naming it and both layouts: in the first block or
        a later one, in the form trace_lines writes or through the line by
        line path (compact separators)."""
        # Lines 7 and 40 are in the first block, 100 in the second.
        assert 40 < traceio._FILL_BLOCK < 100
        objs = [dict(GOOD, trace_id=f"g{k}") for k in range(120)]
        objs[odd - 1] = dict(OTHER)
        # A later line that differs too, and a later bad one.
        objs[odd + 2] = dict(OTHER, bin_s=0.5)
        objs[odd + 4] = dict(GOOD, n_rb="far")
        path = tmp_path / "two.jsonl"
        path.write_text("\n" * blank + "".join(
            json.dumps(obj, separators=separators) + "\n" for obj in objs
        ))
        with pytest.raises(TraceFileError) as info:
            read_traces_jsonl(path)
        line = blank + odd
        assert info.value.line_number == line
        assert str(info.value) == (
            f"line {line}: SegmentMap(detect=(0, 2), off=(2, 3), background=(3, 4)) "
            f"and bin_s 0.01 differ from line {blank + 1}'s SegmentMap(detect=(0, 3), "
            f"off=(3, 4), background=(4, 6)) and bin_s 0.02: a traces file holds "
            f"one segment map and bin width"
        )

    @pytest.mark.parametrize("other", [
        {"bin_s": 0.04},
        {"segments": {"detect": [0, 4], "off": [4, 5], "background": [5, 6]}},
    ], ids=["bin_s", "segments"])
    def test_either_difference_is_refused(self, tmp_path, other):
        """A bin width alone or a segment map alone differing is refused."""
        objs = [dict(GOOD, trace_id=f"g{k}") for k in range(10)]
        objs[5] = dict(GOOD, **other)
        path = write_lines(tmp_path / "two.jsonl", objs)
        with pytest.raises(TraceFileError, match="^line 6: .* differ from line 1's"):
            read_traces_jsonl(path)


class TestTableRefusals:
    """TraceTable checks its own columns on construction, so a table the
    analysis would read wrongly never reaches a kernel."""

    SEG = SegmentMap(detect=(0, 2), off=(2, 3), background=(3, 4))

    def table(self, ids=("a", "b"), n_rb=(0.0, 220.0), bin_s=0.02, counts=None):
        if counts is None:
            counts = np.array([[300, 100, 0, 100], [200, 100, 0, 100]])
        return TraceTable(list(ids), n_rb, self.SEG, bin_s, counts)

    def test_campaign_with_its_background_cut_off(self):
        """A campaign's table with the background columns sliced away no
        longer fits its segment map, and is refused rather than binned into
        empty means."""
        cfg = RunConfig.from_dict({
            "grid": {"min": 0, "max": 440, "step": 220}, "traces_per_bin": 2,
        })
        t = photon.simulate_campaign(cfg)
        cut = t.counts[:, :t.segments.background[0]]
        with pytest.raises(ValueError, match=r"\(traces, 185\) matrix .* shape \(6, 175\)"):
            TraceTable(t.trace_ids, t.n_rb, t.segments, t.bin_s, cut)

    @pytest.mark.parametrize("counts", [
        np.zeros((2, 3), dtype=int),
        np.zeros((2, 5), dtype=int),
        np.zeros(4, dtype=int),
        np.zeros((2, 4, 1), dtype=int),
    ], ids=["narrower", "wider", "1-D", "3-D"])
    def test_counts_must_fit_the_segment_map(self, counts):
        with pytest.raises(ValueError, match=r"must be a \(traces, 4\) matrix"):
            self.table(counts=counts)

    def test_zero_rows(self):
        with pytest.raises(ValueError, match="at least one trace"):
            self.table(ids=(), n_rb=(), counts=np.zeros((0, 4), dtype=int))

    @pytest.mark.parametrize("ids, n_rb", [
        (("a",), (0.0, 220.0)),
        (("a", "b", "c"), (0.0, 220.0)),
        (("a", "b"), (0.0,)),
    ])
    def test_ids_and_n_rb_one_per_row(self, ids, n_rb):
        with pytest.raises(ValueError, match="for 2 rows of counts"):
            self.table(ids=ids, n_rb=n_rb)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.table(counts=np.array([[300, 100, 0, 100], [200, -1, 0, 100]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_n_rb_names_its_trace(self, value):
        with pytest.raises(ValueError, match=f"trace 'b' has a non-finite n_rb {value!r}"):
            self.table(n_rb=(0.0, value))

    @pytest.mark.parametrize("bin_s", [0.0, -0.02, math.nan, math.inf])
    def test_bin_s_finite_and_positive(self, bin_s):
        with pytest.raises(ValueError, match="bin_s must be finite and positive"):
            self.table(bin_s=bin_s)

    @pytest.mark.parametrize("counts, dtype", [
        (np.full((2, 4), 1.5), "float64"),
        (np.full((2, 4), math.nan), "float64"),
        (np.ones((2, 4), dtype=bool), "bool"),
        (np.ones((2, 4), dtype=int).astype(object), "object"),
    ], ids=["float", "nan", "bool", "object"])
    def test_counts_not_integers_are_refused(self, counts, dtype):
        """A float matrix would be rounded and a NaN one cast to garbage by
        whole_atoms; the table refuses both, naming the dtype, as it does a
        bool or object one, from the constructor and from traces alike."""
        message = f"counts must be integers, got a {dtype} matrix"
        with pytest.raises(ValueError, match=message):
            self.table(counts=counts)
        traces = [FluorescenceTrace(t, 0.0, 0.02, self.SEG, row) for t, row in zip("ab", counts)]
        with pytest.raises(ValueError, match=message):
            TraceTable.from_traces(traces)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_integer_counts_are_held_as_int64(self, dtype):
        counts = np.array([[300, 100, 0, 100], [200, 100, 0, 100]], dtype=dtype)
        table = self.table(counts=counts)
        assert table.counts.dtype == np.int64
        assert not table.counts.flags.writeable
        assert table.counts.tolist() == counts.tolist()
        # int64 input is held as it is, with no copy.
        assert (table.counts is counts) == (dtype is np.int64)

    def test_uint64_count_past_int64_is_refused(self):
        counts = np.array([[300, 100, 0, 100], [200, 2**63, 0, 100]], dtype=np.uint64)
        with pytest.raises(ValueError, match="non-negative"):
            self.table(counts=counts)

    def test_taken_rows_are_a_read_only_table_of_those_rows(self):
        table = self.table(ids=("a", "b", "c"), n_rb=(0.0, 220.0, 440.0), counts=np.array([
            [300, 100, 0, 100], [200, 100, 0, 100], [100, 100, 0, 100],
        ]))
        taken = table.take(np.array([2, 0]))
        assert taken.trace_ids == ["c", "a"]
        assert taken.n_rb.tolist() == [440.0, 0.0]
        assert taken.counts.tolist() == [[100, 100, 0, 100], [300, 100, 0, 100]]
        assert taken.counts.dtype == np.int64
        assert not (taken.counts.flags.writeable or taken.n_rb.flags.writeable)
        assert (taken.segments, taken.bin_s) == (table.segments, table.bin_s)
        with pytest.raises(ValueError, match="at least one trace"):
            table.take(np.array([], dtype=np.intp))

    @pytest.mark.parametrize("counts, message", [
        (np.array([300, 100, 0]), r"'odd' has counts of shape \(3,\), its segment map 4 bins"),
        (np.array([300, 100, 0, 100, 7]), r"trace 'odd' has counts of shape \(5,\)"),
        (np.array([[300, 100, 0, 100]]), r"trace 'odd' has counts of shape \(1, 4\)"),
        (np.array([300, -1, 0, 100]), "counts must be non-negative"),
    ], ids=["short", "long", "2-D", "negative"])
    def test_trace_rows_are_checked_by_the_table(self, counts, message):
        """A FluorescenceTrace is a plain row record: it takes any counts,
        and the table built from it refuses a row that does not fit its
        segment map, naming the trace, or holds a negative count. The
        one-trace estimate_staircase reads through that table."""
        odd = FluorescenceTrace("odd", 0.0, 0.02, self.SEG, counts)
        good = FluorescenceTrace("a", 0.0, 0.02, self.SEG, np.array([300, 100, 0, 100]))
        with pytest.raises(ValueError, match=message):
            TraceTable.from_traces([good, odd])
        with pytest.raises(ValueError, match=message):
            estimate_staircase(odd, CAL)
