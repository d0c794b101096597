"""A speed reference for the machine the benchmark runs on.

The boxes this benchmark runs on share their processor with other
tenants.  Measured on the 2-CPU box over twenty minutes, the same
repetition of ``stress_steady`` took anywhere from 0.25 s to 0.45 s, the
slow stretches lasting from milliseconds to minutes; the median over a
ten-second run moved by 11% (quartile distance) and by up to 24% within
ten consecutive runs.  No choice of repetitions or estimator removes a
neighbour that stays busy for minutes.

So every repetition is bracketed by two *blocks* of a small fixed kernel
— interpreter-bound dict, list and sort traffic, like the program — and
its timings are divided by the slowdown the blocks saw: their mean time
per quantum over ``REFERENCE_QUANTUM_S``, the kernel's time on the quiet
box.  The timings the benchmark reports are therefore *reference
seconds*: what the repetition would have taken had the machine run the
kernel at the reference speed throughout.  On the twenty-minute series
this cut the spread of ten-second medians from 11% to 5% and the worst
ten-run spread from 24% to 8%.  The slowdown of every repetition is kept
in the result file, so the measured seconds can be recovered.

The kernel belongs to the benchmark and calls nothing of ``repro``: a
change to the program cannot move the reference.
"""

from __future__ import annotations

from time import perf_counter

#: Seconds one quantum takes on the quiet 2-CPU box (Python 3.11.7).
REFERENCE_QUANTUM_S = 0.004
#: Quanta timed per block (about 65 ms at the reference speed).
QUANTA_PER_BLOCK = 16


def _quantum() -> int:
    groups = {}
    order = []
    for i in range(10_000):
        key = (i * 7919) % 1021
        group = groups.get(key)
        if group is None:
            groups[key] = [i]
        else:
            group.append(i)
            if len(group) > 8:
                group.sort(reverse=True)
                del group[4:]
        order.append((key, i))
    order.sort()
    return len(order)


def block() -> float:
    """Time one block; returns the mean seconds per quantum."""
    start = perf_counter()
    for _ in range(QUANTA_PER_BLOCK):
        _quantum()
    return (perf_counter() - start) / QUANTA_PER_BLOCK


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference the machine ran between two
    blocks (1.0 = at reference speed)."""
    return (before + after) / 2 / REFERENCE_QUANTUM_S
