"""Per-layer spans and counts, recorded from outside the program.

The tracer wraps the program's public functions after import. Most of them
are imported into other modules with ``from ... import``, so each wrapper
replaces the name in every ``motprobe`` module that holds the original
(``cli.simulate_trajectory``, ``inference.estimate_staircase``,
``gillespie.rates``, ``oracles.simulate_trajectory`` and so on), not only in
the defining module. Nothing under ``src/`` changes.

Each span records a name, a start, an end and its parent. Spans are kept in
flat arrays in memory and written out when the run ends. A span's self time
is its duration minus the time of its child spans; probe samples taken in
the middle of a span are booked as its children too, so they never count as
program time. Probe samples run in a signal handler that can interrupt a
wrapper half-way through opening a span, so they go to a list of their own
rather than into the span arrays.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "config", "gillespie", "inference", "oracles", "photon", "physics", "traceio")

TRACED = {
    "cli": ("cmd_simulate", "cmd_analyze", "cmd_fit", "cmd_oracle"),
    "gillespie": ("simulate_trajectory", "derive_seed"),
    "physics": ("rates",),
    "photon": ("synthesize_counts", "estimate_staircase", "build_histogram"),
    "inference": (
        "bin_by_nrb", "fit_loading_rate", "fit_beta",
        "propagate_systematics", "bootstrap_stat_error",
    ),
    "traceio": ("trace_to_dict", "read_traces_jsonl"),
    "oracles": ("overlap_checks", "transient_checks", "poisson_end_state_check"),
}

# Stage metrics are the stage span's time, less probe time, not self time.
STAGES = {
    "cli.cmd_simulate": "cli.simulate_s",
    "cli.cmd_analyze": "cli.analyze_s",
    "cli.cmd_fit": "cli.fit_s",
    "cli.cmd_oracle": "cli.oracle_s",
}


def _count_events(counts, args, result):
    counts["gillespie.events"] += len(result.events)


def _count_peaks(counts, args, result):
    counts["photon.build_histogram.peaks"] += len(result.peaks)


def _count_bytes_read(counts, args, result):
    counts["traceio.bytes_read"] += os.path.getsize(args[0])


COUNTERS = {
    "gillespie.simulate_trajectory": _count_events,
    "photon.build_histogram": _count_peaks,
    "traceio.read_traces_jsonl": _count_bytes_read,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.probes: list[tuple[int, float, float]] = []
        self.counts = {
            "gillespie.events": 0,
            "photon.build_histogram.peaks": 0,
            "traceio.bytes_read": 0,
        }
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        return idx

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced function in every module that refers to it."""
        modules = [importlib.import_module("motprobe")]
        modules += [importlib.import_module(f"motprobe.{m}") for m in MODULES]
        for modname, funcs in TRACED.items():
            home = importlib.import_module(f"motprobe.{modname}")
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def on_probe(self, a: float, b: float) -> None:
        """Book one probe sample as a child of the span it interrupted."""
        self.probes.append((self._stack[-1], a, b))

    def mark(self) -> tuple[int, int, dict]:
        return len(self.name_id), len(self.probes), dict(self.counts)

    def pass_metrics(self, mark: tuple[int, int, dict], factor: float) -> dict:
        """Calls, self time and stage time of the spans since ``mark``.

        Times are scaled by ``factor``, the pass's speed correction, so they
        are in the same nominal seconds as ``pass_s``.
        """
        lo, probes_lo, counts0 = mark
        hi = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        probe_below = [0.0] * (hi - lo)
        for k in range(hi - lo):
            p = self.parent[lo + k]
            if p >= lo:
                child[p - lo] += dur[k]
        for p, a, b in self.probes[probes_lo:]:
            if p >= lo:
                child[p - lo] += b - a
            while p >= lo:
                probe_below[p - lo] += b - a
                p = self.parent[p]
        out: dict[str, float] = {}
        for k in range(hi - lo):
            name = self.names[self.name_id[lo + k]]
            calls = f"{name}.calls"
            out[calls] = out.get(calls, 0) + 1
            self_s = f"{name}.self_s"
            out[self_s] = out.get(self_s, 0.0) + (dur[k] - child[k]) * factor
            if name in STAGES:
                stage = STAGES[name]
                out[stage] = out.get(stage, 0.0) + (dur[k] - probe_below[k]) * factor
        for key, value in self.counts.items():
            out[key] = value - counts0[key]
        out["trace.spans"] = hi - lo
        out["trace.probes"] = len(self.probes) - probes_lo
        return out

    def write(self, path: Path) -> None:
        """Write every span as arrays (names, name_id, parent, start, end) and
        the probe samples as (probe_parent, probe_start, probe_end)."""
        import numpy as np

        probes = np.array(self.probes, dtype=float).reshape(-1, 3)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            probe_parent=probes[:, 0].astype(np.int64),
            probe_start=probes[:, 1],
            probe_end=probes[:, 2],
        )

