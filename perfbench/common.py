"""Helpers shared by the workloads: statistics, digests, the clock and the
machine-speed calibration."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import time
from array import array

import numpy as np

#: The closed-form routes' default classification tolerance, restated here
#: so the benchmark labels branches from its own inputs.
TOL = 1e-10

#: The verification tolerance every contract check and gate uses.
CHECK_TOL = 1e-12

#: Candidate tail percentiles, highest first.  A tail is reported at the
#: highest one that leaves at least ``TAIL_BEYOND`` samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

#: Wall time of one `calibration_kernel` call at the reference speed: its
#: typical time on a 2-vCPU Intel Xeon VM with Python 3.11.7 and numpy
#: 2.4.6.  Timings are reported scaled to this speed (see `Record`).
REFERENCE_CAL_NS = 1_050_000

#: Windows on each side whose calibrations are pooled (by their median)
#: into the speed estimate of one window.
CAL_NEIGHBOURS = 2

now_ns = time.perf_counter_ns


def median(sorted_values) -> float:
    n = len(sorted_values)
    mid = n // 2
    if n % 2:
        return float(sorted_values[mid])
    return 0.5 * (float(sorted_values[mid - 1]) + float(sorted_values[mid]))


def tail(sorted_values):
    """(percentile, value, samples beyond) at the highest ladder rung that
    keeps ``TAIL_BEYOND`` samples above it."""
    n = len(sorted_values)
    for p in TAIL_LADDER:
        k = max(1, math.ceil(p / 100.0 * n))
        if n - k >= TAIL_BEYOND:
            return p, float(sorted_values[k - 1]), n - k
    return 50.0, median(sorted_values), n // 2


def canonical(value, out: list) -> None:
    """Append an exact, type-tagged text form of ``value`` to ``out``.

    Floats are written with ``float.hex``, so the digest changes with any
    bit of the sampled parameters and with nothing else.
    """
    if isinstance(value, dict):
        out.append("{")
        for key in sorted(value):
            out.append(repr(key))
            canonical(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        for v in value:
            canonical(v, out)
        out.append("]")
    elif isinstance(value, (bool, np.bool_)):
        out.append("b%d" % bool(value))
    elif isinstance(value, (int, np.integer)):
        out.append("i%d" % int(value))
    elif isinstance(value, (float, np.floating)):
        out.append("f" + float(value).hex())
    elif isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        out.append("c" + z.real.hex() + "," + z.imag.hex())
    else:
        out.append("s" + repr(value))


def digest(values) -> str:
    parts: list = []
    canonical(values, parts)
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:16]


_CAL = [complex(i, -i) * 1e-3 for i in range(64)]


def calibration_kernel() -> float:
    """A fixed slice of interpreter, complex-arithmetic and small-array
    work of the kind the package does, independent of the package."""
    acc = 0.0
    for _ in range(30):
        for z in _CAL:
            w = z.conjugate() * z + 1.0
            acc += math.sqrt(w.real * w.real + w.imag * w.imag)
        acc += float(np.array(_CAL[:4]).real.sum())
    return acc


class Record:
    """Timings of one measured run, and the machine's speed while they ran.

    The machine is shared: for stretches of seconds to minutes it runs
    this process up to 40 % faster or slower, which no statistic within a
    30 s run averages away.  So right after each window of work the run
    times `calibration_kernel`, and every timing of a window is scaled by
    the kernel's time then relative to `REFERENCE_CAL_NS`: a rate is
    multiplied by cal / ref, a latency by ref / cal.  Work the program
    does faster or slower still moves the scaled numbers in full; the
    machine's speed drops out.  Raw numbers are kept as well.

    ``windows`` holds (ops, busy ns, calibration ns, latencies recorded)
    per window.  ``buf`` holds per-op latencies in ns; it is allocated and
    touched up front, so the run's peak memory does not grow with its op
    count.  Ops beyond its capacity are counted in ``n`` but not recorded.
    """

    def __init__(self, capacity: int):
        self.buf = array("q", bytes(8 * capacity))
        self.n = 0
        self.windows: list = []

    def add(self, ns: int) -> None:
        if self.n < len(self.buf):
            self.buf[self.n] = ns
        self.n += 1

    def window(self, ops: int, busy_ns: int, latencies: int) -> None:
        """Close a window of ``ops`` ops that took ``busy_ns`` and added
        ``latencies`` latencies, then calibrate."""
        t0 = now_ns()
        calibration_kernel()
        self.windows.append((ops, busy_ns, now_ns() - t0, latencies))

    def slowness(self) -> np.ndarray:
        """Per window: pooled calibration time over the reference."""
        cal = np.array([w[2] for w in self.windows], dtype=float)
        k = CAL_NEIGHBOURS
        pooled = [np.median(cal[max(0, i - k):i + k + 1]) for i in range(len(cal))]
        return np.array(pooled) / REFERENCE_CAL_NS

    def rates(self, scaled: bool) -> np.ndarray:
        """Per-window ops per second of windows that did counted work."""
        w = np.array([w[:2] for w in self.windows], dtype=float).reshape(-1, 2)
        rate = w[:, 0] / (w[:, 1] * 1e-9)
        if scaled:
            rate = rate * self.slowness()
        return np.sort(rate[w[:, 0] > 0])

    def latencies(self, scaled: bool) -> np.ndarray:
        lat = np.frombuffer(self.buf, dtype=np.int64)[:self.n].astype(float)
        if scaled:
            counts = [w[3] for w in self.windows]
            per_op = np.repeat(self.slowness(), counts)
            n = min(len(lat), len(per_op))
            lat = lat[:n] / per_op[:n]
        return np.sort(lat)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env(root) -> dict:
    """This process's environment with ``root/src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
