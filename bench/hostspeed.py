"""Host speed, so that times from a shared machine can be compared.

On a shared host the same work takes up to a third longer or shorter from
one minute to the next, as neighbours load the machine; a median inside one
run cannot remove that.  The benchmark therefore times a fixed probe right
after every operation and reports operation times scaled to a reference host
speed: a time ``t`` measured while the probe takes ``c`` ms is reported as
``t * reference / c``, with ``c`` the average of the probe times around that
operation.  Raw times are printed next to the scaled ones.

The probe is a pure-Python kernel for the in-process workloads: over 150 s
of heavy drift it cut the spread of 10-second medians of in-process
operations from 0.11-0.17 to 0.05-0.09 (IQR over median).  Its average is
the mean: over eight 25-second runs of each in-process workload, the
spreads of the runs' tails were 0.02-0.11 with the mean of the probes
around each operation and 0.10-0.14 with their median.  For the CLI
workload it is a process that imports numpy, because CLI time is mostly
process start-up and imports, which neither the kernel nor a bare
interpreter start follows.  Over eight 25-second runs of CLI calls with
both probes, the spreads of the runs' ops_per_s, p50 and tail were 0.08,
0.11 and 0.07 unscaled, 0.14, 0.10 and 0.12 scaled by the kernel, and 0.03,
0.02 and 0.04 scaled by the numpy import.  Its average is the median, which
did a little better than the mean on this probe.  The probe does not depend on the
code under test, so a CLI that stops importing numpy shows as faster.  The
benchmark's set-up time, also mostly interpreter start and imports, is
scaled by the same probe timed right before each set-up.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: Probe times on the reference host (2-CPU x86-64 virtual machine, Python 3.11).
KERNEL_REFERENCE_MS = 6.5
START_REFERENCE_MS = 220.0

#: Probe times on each side of an operation that set its scale.
HALF_WINDOW = 4


def _kernel() -> complex:
    # The interpreter work chslit does: complex arithmetic, small containers,
    # dict stores and calls.
    acc = 0j
    table = {}
    for i in range(5_000):
        z = complex(i % 7, i % 5)
        acc += z * z.conjugate()
        table[frozenset((i & 7, i & 3))] = abs(acc)
    return acc


def kernel_ms() -> float:
    t0 = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t0) * 1e3


def start_ms() -> float:
    """Wall time of a process that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


def scales(probe_times: list[float], reference_ms: float, average) -> list[float]:
    """The reference over the average probe time around each position."""
    out = []
    for i in range(len(probe_times)):
        window = probe_times[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
        out.append(reference_ms / average(window))
    return out
