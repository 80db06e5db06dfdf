"""Taking the host's own speed out of the timings.

The machine the benchmark runs on shares its cores with other tenants,
and its speed drifts by a quarter over minutes: the same advise request
took 2.6–3.6 s in different runs.  Medians within a run cannot remove a
slowdown that lasts the whole run, so every run also times a fixed
reference loop (Python bytecode, dict lookups, numpy sorts and a SQLite
group-by: the mix the library itself runs) and scales its timings by
``REFERENCE_S / reference median``: a timing at the reference speed.
Raw timings are printed beside the scaled ones.

The loop runs on the benchmark's own thread: before each serve set-up
(no server alive), between serve calls, after the serve phase has closed
its server, and between advise requests (no graph or engine alive).
Between serve calls it runs only while no other Python thread is alive,
so a thread the library leaves running cannot slow the loop and be
divided out of the library's timings; the loop allocates next to
nothing, so neither can the library's heap.  The loop was tried in a
child process too: on a 2-vCPU VM its times correlated with a library
call's at 0.27 against 0.69 on the benchmark's thread, and scaling by
them made the call's times vary more, not less.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import List

import numpy as np

from stats import median

#: What the reference loop takes at the reference speed, in seconds.
#: The scaled timings read as if the loop had taken this long.
REFERENCE_S = 0.008
#: Between serve calls, the loop runs at most this often.
SAMPLE_EVERY_S = 0.5


class _ReferenceLoop:
    """A fixed amount of interpreter, dict, numpy and SQLite work, about
    8 ms.  It allocates next to nothing, so the program's own heap and
    collector do not change how long it takes."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 1 << 30, 10_000)
        self.buffer = np.empty_like(self.keys)
        self.table = {i: i for i in range(4096)}
        self.lookups = rng.integers(0, 4096, 10_000).tolist()
        self.db = sqlite3.connect(":memory:")
        self.db.execute("CREATE TABLE t (a INTEGER, b INTEGER, m REAL)")
        self.db.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            zip(*(rng.integers(0, 50, 5_000).tolist() for _ in range(3))),
        )

    def __call__(self) -> int:
        total = 0
        for i in range(40_000):
            total += i * i
        for key in self.lookups:
            total += self.table[key]
        for _ in range(10):
            np.copyto(self.buffer, self.keys)
            self.buffer.sort()
        rows = self.db.execute(
            "SELECT a, SUM(m) FROM t WHERE b < 25 GROUP BY a"
        ).fetchall()
        return total + len(rows)

    def close(self) -> None:
        self.db.close()


class HostSpeed:
    """Reference-loop samples, taken while the library is idle."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: samples :meth:`maybe_sample` left out for another thread
        self.skipped = 0
        self._last = -float("inf")
        self._loop = _ReferenceLoop()

    def sample(self, count: int) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self._loop()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)

    def maybe_sample(self) -> None:
        """Sample if :data:`SAMPLE_EVERY_S` has passed since the last
        sample and no thread but this one is alive."""
        if time.perf_counter() - self._last < SAMPLE_EVERY_S:
            return
        if threading.active_count() > 1:
            self.skipped += 1
            self._last = time.perf_counter()
            return
        self.sample(1)

    def close(self) -> None:
        self._loop.close()

    @property
    def scale(self) -> float:
        """Multiply a raw timing by this to get it at reference speed."""
        return REFERENCE_S / median(self.samples)
