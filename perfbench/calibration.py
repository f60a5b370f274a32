"""A fixed pure-Python kernel that gauges how fast the host runs Python now.

The benchmark shares its host with other work, which can slow every Python
instruction by up to a factor of two for a minute at a time.  Timing this
kernel right before and right after each timed pass tells how fast the host
was during the pass, so a pass can be scaled to a host of fixed speed: one on
which one kernel run takes REFERENCE_MS.  The kernel does what the library's
hot loops do (attribute reads, float arithmetic, branches, small objects,
dict updates and a sort) and never calls the library, so no change to the
library changes it.  Its inputs are fixed, not drawn from the seed.
"""

from __future__ import annotations

import statistics
import time

# Kernel time on the reference host, in ms: this kernel's time on a 2-vCPU
# x86-64 VM running CPython 3.11 while no other load slowed it.  Scaled
# figures read as that host's figures at full speed.
REFERENCE_MS = 0.6
RUNS = 3

_PAIRS = [(((i * 37) % 101) / 202.0, ((i * 53) % 97) / 194.0) for i in range(768)]
_KEYS = [f"k{i}" for i in range(64)]


class _Point:
    __slots__ = ("mu", "nu")

    def __init__(self, mu: float, nu: float):
        self.mu = mu
        self.nu = nu


def kernel() -> float:
    points = [_Point(m, n) for m, n in _PAIRS]
    size = len(points)
    table: dict[str, float] = {}
    total = 0.0
    for i, a in enumerate(points):
        b = points[(i * 7) % size]
        s_gap = abs((a.mu - a.nu) - (b.mu - b.nu))
        h_gap = abs((a.mu + a.nu) - (b.mu + b.nu))
        ell = (1.0 - a.nu) / (2.0 - a.mu - a.nu)
        rho = h_gap / 3.0 if s_gap <= 1e-9 else (1.0 + s_gap) / 3.0
        key = _KEYS[i % 64]
        table[key] = table.get(key, 0.0) + rho * ell
        total += min(rho, ell)
    return sorted(table.items(), key=lambda kv: (kv[1], kv[0]))[0][1] + total


def gauge_ms() -> float:
    """Median wall time of RUNS kernel runs, in ms."""
    clock = time.perf_counter_ns
    times = []
    for _ in range(RUNS):
        t0 = clock()
        kernel()
        times.append(clock() - t0)
    return statistics.median(times) / 1e6
