"""Shared helpers: statistics, the calibration kernel, answer comparison.

Nothing here imports ``repro`` except :func:`table_map` (lazily), so the
calibration kernel measures the interpreter alone.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import statistics
import time
from typing import Dict, Iterable, List, Sequence


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def canonical_json(value) -> str:
    """Order- and container-independent text of a JSON-able value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Machine-speed calibration.


def kernel() -> int:
    """A fixed pure-Python workload: hashed dict updates, no imports.

    Its time tracks how fast this interpreter runs on this machine at
    this moment; dividing a pinned reference time by it converts raw
    timings into calibrated ones."""
    table: Dict[int, int] = {}
    for i in range(10000):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + i
    return len(table)


class Calibrator:
    """Collects interleaved kernel timings for one phase of a run.

    The machine's speed drifts within seconds on a shared host, so a
    sample is calibrated by the kernel times measured nearest to it, not
    by one figure for the whole phase."""

    #: Kernel samples around a moment whose median is its machine speed.
    WINDOW = 5

    def __init__(self, reference_ms: float):
        self.reference_ms = reference_ms
        self.times: List[float] = []  # perf_counter at each sample
        self.samples_ms: List[float] = []

    def sample(self, times: int = 1) -> None:
        # Collection cost grows with whatever the workload keeps alive;
        # the kernel makes no cycles, so time it with the collector off.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                started = time.perf_counter()
                kernel()
                self.times.append(started)
                self.samples_ms.append(
                    (time.perf_counter() - started) * 1000.0
                )
        finally:
            if was_enabled:
                gc.enable()

    @property
    def kernel_ms(self) -> float:
        return median(self.samples_ms)

    @property
    def factor(self) -> float:
        """Multiply a raw time by this to calibrate it (divide a rate)."""
        return self.reference_ms / self.kernel_ms

    def factor_at(self, when: float) -> float:
        """The calibration factor at ``perf_counter()`` time ``when``."""
        middle = bisect.bisect_left(self.times, when)
        high = min(len(self.times), max(0, middle - self.WINDOW // 2) + self.WINDOW)
        low = max(0, high - self.WINDOW)
        return self.reference_ms / median(self.samples_ms[low:high])


# ----------------------------------------------------------------------
# The independent reference: table-for-table agreement.


def table_map(table) -> Dict:
    """Canonical ``(indicator, calling) -> success`` map of an extension
    table — the comparison the fuzz ``lattice`` oracle makes, so engines
    that differ only in vacuous detail (must-aliasing on ground
    arguments) still compare equal."""
    from repro.analysis.patterns import canonicalize

    return {
        (indicator, canonicalize(entry.calling)): (
            None if entry.success is None else canonicalize(entry.success)
        )
        for indicator, entry in table.all_entries()
    }
