"""Host-speed calibration: what one idle-core second is worth right now.

The benchmark runs on a few cores of a shared host.  A neighbour on the
sibling hardware thread or in the shared cache slows *everything* in this
process by 10-70 % for seconds to minutes at a time — longer than a run
of the benchmark, so no choice of estimator inside one run (minimum,
median, trimmed mean) can see past it.  Process CPU time does not help
either: the guest is running, only slower.

So every timed region is bracketed by a fixed **reference unit** — a few
milliseconds of the same three kinds of work the program under test does
(object-heavy interpreter code, a small GEMM chain, a streaming pass over
an array larger than the private caches).  The unit's time over
:data:`REFERENCE_UNIT_S`, its time on an idle core, is the *slowdown* in
force around that region, and the region's host time is reported divided
by it: seconds on an idle core.  The unit is the benchmark's own code over
NumPy and the interpreter; nothing under ``src/`` can make it faster, so
a real gain in the program still shows one for one.
"""

from __future__ import annotations

import time
from operator import itemgetter

import numpy as np

#: One reference unit on an idle core of the box the workload sizes were
#: frozen on (10th percentile of 1700 calibrations taken between runs of
#: the five workloads).  It only fixes the scale of the reported seconds;
#: parent and change share it.
REFERENCE_UNIT_S = 0.0048
#: Units per calibration: about 15 ms, 1 % of a timed region.
UNITS = 3

_GEMM = np.random.default_rng(0).standard_normal((256, 256)).astype(np.float32) / 16.0
_STREAM = np.ones(1 << 20, dtype=np.float32)  # 4 MB read + 4 MB written: past the private caches
_SCRATCH = np.empty_like(_STREAM)
_BY_TEXT = itemgetter(1)


def reference_unit() -> None:
    """Interpreter, GEMM and streaming work, about a third of the time each."""
    table = {i: (i, str(i)) for i in range(8000)}
    ordered = sorted(table.values(), key=_BY_TEXT)
    sum(row[0] for row in ordered)
    product = _GEMM
    for _ in range(8):
        product = product @ _GEMM
    for _ in range(4):
        np.multiply(_STREAM, 1.0001, out=_SCRATCH)


def slowdown(units: int = UNITS) -> float:
    """Mean reference-unit time right now over its idle-core time."""
    start = time.perf_counter()
    for _ in range(units):
        reference_unit()
    return (time.perf_counter() - start) / (units * REFERENCE_UNIT_S)
