"""A fixed loop whose time tracks how fast the machine runs right now.

On a machine shared with other tenants the same Python code runs faster
or slower by tens of percent for seconds to minutes at a time. Every
process that times the program also times this loop, outside the timed
regions, and its times are reported in reference seconds:
``seconds * REFERENCE_S / fastest()``.

The module imports nothing but ``time``, so the set-up measurement can run
it in a fresh interpreter without changing what ``treeirr`` has to import.
"""

from time import perf_counter

# The loop's usual fastest time on the 2-vCPU Intel Xeon VM on which the
# bounds in BENCHMARK.json were set.
REFERENCE_S = 1.2e-3
SAMPLES = 40


def probe() -> float:
    """Time of one allocation-free loop of 20,000 steps."""
    start = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return perf_counter() - start


def fastest(samples: int = SAMPLES) -> float:
    return min(probe() for _ in range(samples))
