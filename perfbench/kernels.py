"""Time the two pivot-table kernels directly on fixed polls.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/kernels.py

Prints one JSON object mapping ``pivot.kernel.<path>.m<m>.eta<eta>.s`` to
the median wall time of ``pivot_table_exact`` or ``pivot_table_mc``.  This
covers m = 5, which no CLI workload reaches (the generator is m = 3 only).
"""

from __future__ import annotations

import json
import statistics
import time

from stratvote.core import Poll
from stratvote.pivot import pivot_table_exact, pivot_table_mc

POLLS = {
    3: Poll.from_scores((45, 35, 20)),
    5: Poll.from_scores((25, 70, 20, 100, 80)),
}
EXACT = ((3, 8), (3, 100), (3, 1000), (3, 4096), (5, 8), (5, 32))
MC = ((3, 10000), (5, 10000))
MC_SAMPLES = 1_000_000
# Cheap kernels repeat until this much time is spent; dear ones run once.
MIN_SECONDS = 0.2


def _median_time(call) -> float:
    times: list[float] = []
    while not times or sum(times) < MIN_SECONDS:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_times() -> dict[str, float]:
    out = {}
    for m, eta in EXACT:
        out[f"pivot.kernel.exact.m{m}.eta{eta}.s"] = _median_time(
            lambda: pivot_table_exact(POLLS[m], eta)
        )
    for m, eta in MC:
        out[f"pivot.kernel.mc.m{m}.eta{eta}.s"] = _median_time(
            lambda: pivot_table_mc(POLLS[m], eta, MC_SAMPLES, 0)
        )
    return out


if __name__ == "__main__":
    print(json.dumps(kernel_times()))
