"""CPU-speed probe, run as a child process of the benchmark.

The benchmark's VM runs at a speed that drifts by tens of percent over
minutes.  Between rounds the benchmark asks this process to time a fixed
piece of pure-Python work (sorting, object creation, attribute and dict
access, small-rational arithmetic) and scales each round's times by
``reference / probe``.  It is a separate process that never imports the
program under test, so nothing the program does to its own interpreter
(heap size, garbage-collector state, hooks) can change the probe.

Protocol: each input line holds a repeat count ``k``; the reply is the
median of ``k`` timed slices in seconds.  End of input ends the process.
"""

import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


_RNG = random.Random(0)
_ROWS = [(_RNG.random(), i, str(i)) for i in range(1500)]
_TABLE = {i: (i * 7) % 1000 for i in range(3000)}
_RATIONALS = [Fraction(_RNG.randint(1, 999), _RNG.randint(1, 99))
              for _ in range(60)]


def work_slice() -> float:
    """One slice of fixed work; returns its wall time."""
    start = perf_counter()
    acc = 0
    points = [_Point(row[1], row[0]) for row in sorted(_ROWS)]
    for p in points:
        acc += _TABLE.get(p.x % 3000, 0)
    total = Fraction(0)
    for r in _RATIONALS:
        total += r * r
    if acc < 0 or total < 0:  # keeps the work observable
        raise AssertionError
    return perf_counter() - start


def main() -> int:
    for line in sys.stdin:
        k = max(1, int(line))
        times = [work_slice() for _ in range(k)]
        print(repr(statistics.median(times)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
