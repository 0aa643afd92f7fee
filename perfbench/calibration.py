"""Host-speed correction for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by up to half
between phases lasting seconds to minutes, for every process alike: a
run's raw timings then depend more on when it ran than on the program.
So the benchmark times a fixed pure-Python task, the chunk, between the
program's requests, outside the timed region, and scales each request's
time by REFERENCE_CHUNK_S over the median time of the chunks run around
it.  A corrected time is what the request would have taken on a host
on which the chunk takes REFERENCE_CHUNK_S.  The chunk belongs to the
benchmark and never calls the program, so a change to the program moves
corrected times exactly as it moves raw ones.  This module does not import
the program.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# Close to the chunk's median time on the 2-vCPU container (Python 3.11.7)
# where the baseline was measured: its runs read 1.5 to 2.5 ms.
REFERENCE_CHUNK_S = 0.002
# A request's host speed is the median of this many chunks on each side of it.
WINDOW = 5

_CELLS = 3000
_ORDER = list(range(_CELLS))
random.Random(0).shuffle(_ORDER)


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _chunk() -> int:
    """Object creation, scattered attribute reads, list building and a sort.

    That is the program's own mix.  A chunk that only spun on a small,
    cache-resident dict sped up more than the program when the host got
    faster, and over-corrected by about a quarter.
    """
    cells = [_Cell(i, i * 7 % 13) for i in range(_CELLS)]
    total = 0
    for i in _ORDER:
        total += cells[i].value
    rows = [[cell.key, cell.value] for cell in cells[::3]]
    rows.sort(key=lambda row: row[1])
    return total + len(rows)


class Calibrator:
    """Chunk start times and durations, in the order the chunks were run."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.chunks: list[float] = []

    def run(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            _chunk()
            self.starts.append(started)
            self.chunks.append(time.perf_counter() - started)

    def factor(self, start: float, seconds: float) -> float:
        """Scale for a request that ran for ``seconds`` from ``start``.

        The host's speed around it is the median time of the chunks run
        within the request's own duration before or after it, and of at
        least WINDOW chunks on each side.  A long request averages over the
        host's phases by itself, so its correction must too: its two ends
        alone misjudge it.
        """
        after = bisect.bisect_left(self.starts, start)
        lo = min(bisect.bisect_left(self.starts, start - seconds), max(0, after - WINDOW))
        hi = max(bisect.bisect_right(self.starts, start + 2 * seconds), after + WINDOW)
        return REFERENCE_CHUNK_S / statistics.median(self.chunks[lo:hi])
