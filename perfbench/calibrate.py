"""A fixed pure-Python reference task that measures how fast the host runs now.

The host's speed shifts by 20 % and more over minutes (other tenants, clock
frequency), and every item's CPU time shifts with it.  run.py times this task
between items, by the CPU time of its own thread so that waits for the CPU do
not count, and divides each item's CPU time by the task's mean time around it.  The
task does not touch oddtown, so a change to the program cannot move it.

Its mix follows the program's hot paths: loops over Python ints used as
bitsets (AND, XOR, popcount), list indexing and appends, dict lookups and
small function calls.
"""

from __future__ import annotations

import time

MASK = (1 << 64) - 1


def _parity_row(rows: list[int], i: int) -> int:
    """Bitset of the rows j whose AND with row i has odd popcount."""
    base = rows[i]
    out = 0
    for j, other in enumerate(rows):
        if (base & other).bit_count() & 1:
            out |= 1 << j
    return out


def task() -> int:
    """The reference work; returns a checksum so that nothing is optimised away."""
    rows = [(k * 0x9E3779B97F4A7C15) & MASK for k in range(1, 721)]
    seen: dict[int, int] = {}
    acc = 0
    for i in range(len(rows)):
        row = _parity_row(rows, i)
        seen[row & 0xFFFF] = seen.get(row & 0xFFFF, 0) + 1
        acc ^= row
    return acc.bit_count() + len(seen)


def sample() -> float:
    """CPU seconds of this thread for one run of the task."""
    start = time.thread_time()
    task()
    return time.thread_time() - start
