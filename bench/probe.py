"""Machine-speed probe and the speed correction of timed intervals.

On a shared virtual CPU the speed of the same code drifts by tens of
percent over spells from under a second to many seconds, so a raw wall time
does not repeat. The benchmark therefore runs a fixed probe kernel inside
the timed interval itself: a real-time interval timer interrupts the work
every ``PERIOD_S`` and runs the kernel in the signal handler, on the same
CPU and in the same process. Each stretch of work between two probes is
scaled by the nominal kernel time over the locally measured kernel time,
which turns wall seconds into seconds at the machine's nominal speed.
Probe time itself is excluded from the corrected figure.

The probe never calls the program under test; if it did, a speed-up of the
program would cancel itself out. Two kernels exist because set-up is timed
from a bare interpreter, before numpy can be imported.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from dataclasses import dataclass, field

PERIOD_S = 0.075
# Probes on each side of a work stretch whose median sets its speed.
NEIGHBOURS = 2

# Kernel times at the nominal speed of the reference machine (the fast
# state of a 2-vCPU cloud VM, Python 3.11, numpy 2.4, scipy 1.17). They fix
# the unit of every corrected time; changing them rescales all results.
NOMINAL_S = {"stdlib": 0.000225, "full": 0.0031}


def _interpreter_part() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(600):
        key = (i * 7) & 63
        table[key] = table.get(key, 0) + i
        acc += (i * 13) % 11
    return acc + len(table)


_RECORDS = [[i, i * 0.25, f"t{i:04d}"] for i in range(120)]


def _json_part() -> int:
    return len(json.loads(json.dumps(_RECORDS)))


def stdlib_kernel() -> None:
    """Interpreter and JSON work only; runs before numpy is imported."""
    _interpreter_part()
    _json_part()


def make_full_kernel():
    """Kernel for timed passes; imports numpy and scipy on first use.

    Half its time goes to seeding numpy Generators and drawing scalars from
    them, half to one bounded least-squares Gaussian fit. Of the candidate
    parts tried (interpreter loop, JSON round trip, scalar draws, small
    median filter and histogram, bounded Gaussian fit), that pair tracked
    the speed of the ``campaign``, ``oracle`` and ``pairloss`` passes best;
    see README.md.
    """
    import numpy as np
    from scipy import optimize

    x = np.linspace(-1.0, 1.0, 15)
    y = 40.0 * np.exp(-(x ** 2) / 0.2)

    def gaussian(x, amp, mu, sigma):
        return amp * np.exp(-((x - mu) ** 2) / (2.0 * sigma ** 2))

    def kernel() -> None:
        for seed in range(16):
            rng = np.random.default_rng(seed)
            for _ in range(60):
                rng.exponential(0.5)
                rng.random()
        optimize.curve_fit(
            gaussian, x, y, p0=(30.0, 0.1, 0.4), bounds=([0.0, -1.0, 0.05], [np.inf, 1.0, 2.0])
        )

    return kernel


@dataclass
class Timing:
    """One timed interval with the probe samples that correct it."""

    wall_s: float
    net_s: float
    corrected_s: float
    probe_s: list[float] = field(repr=False)

    @property
    def factor(self) -> float:
        """Corrected over net time: the interval's mean relative speed."""
        return self.corrected_s / self.net_s if self.net_s > 0 else 1.0

    def to_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "net_s": self.net_s,
            "corrected_s": self.corrected_s,
            "probes": len(self.probe_s),
            "probe_median_s": statistics.median(self.probe_s),
            "probe_s": [round(p, 7) for p in self.probe_s],
        }


def correct(t0: float, t1: float, probes: list[tuple[float, float]], nominal_s: float) -> Timing:
    """Speed-correct the interval [t0, t1] from the (start, end) of its probes.

    ``probes`` must hold at least one probe before t0 and one after t1. The
    work stretches are the gaps between consecutive probes, clipped to the
    interval; each is scaled by nominal_s over the median duration of the
    NEIGHBOURS probes on either side, which damps a single probe that was
    preempted.
    """
    probes = sorted(probes)
    durations = [b - a for a, b in probes]
    corrected = 0.0
    net = 0.0
    for i in range(len(probes) - 1):
        lo = max(probes[i][1], t0)
        hi = min(probes[i + 1][0], t1)
        if hi <= lo:
            continue
        window = durations[max(0, i + 1 - NEIGHBOURS): i + 1 + NEIGHBOURS]
        net += hi - lo
        corrected += (hi - lo) * nominal_s / statistics.median(window)
    return Timing(wall_s=t1 - t0, net_s=net, corrected_s=corrected, probe_s=durations)


class Sampler:
    """Runs a callable with the probe interleaved and returns its Timing.

    ``on_probe`` is called with the (start, end) of every probe, so a tracer
    can book probe time as a child of whatever span it interrupted.
    """

    def __init__(self, kernel, nominal_s: float, on_probe=None):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.on_probe = on_probe
        self._probes: list[tuple[float, float]] = []

    def _probe(self) -> None:
        a = time.perf_counter()
        self.kernel()
        b = time.perf_counter()
        self._probes.append((a, b))
        if self.on_probe is not None:
            self.on_probe(a, b)

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def time(self, fn):
        """Run fn() under the probe; return (Timing, fn's result)."""
        self._probes = []
        for _ in range(NEIGHBOURS):
            self._probe()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(NEIGHBOURS):
            self._probe()
        return correct(t0, t1, self._probes, self.nominal_s), result
