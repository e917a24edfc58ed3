"""Crash seams for the salvage and journal-recovery tests.

A seeded torn write (a crash mid-write or mid-append keeps a prefix of
the bytes) and seeded JSONL line truncation.  The same seed tears the
same byte, so a test can pin what salvage must keep.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Tuple, Union

from repro.rng import derive


def torn_write(
    path: Union[str, Path], data: bytes, seed: int, append: bool = False,
) -> int:
    """Write (or, with ``append``, append) a seeded prefix of ``data``.

    The prefix is never empty and, for two or more bytes, never the
    whole payload.  Returns the number of bytes written.
    """
    cut = len(data)
    if len(data) >= 2:
        cut = 1 + int(float(derive(seed, "tests.faults", "torn").random())
                      * (len(data) - 1))
    with open(path, "ab" if append else "wb") as f:
        f.write(data[:cut])
    return cut


def truncate_lines(
    lines: Iterable[str], seed: int, rate: float,
) -> Tuple[List[str], int]:
    """Cut each non-blank line to half its length with probability
    ``rate``; returns the lines and how many were cut."""
    stream = derive(seed, "tests.faults", "lines")
    out: List[str] = []
    n_cut = 0
    for line in lines:
        if float(stream.random()) < rate and line.strip():
            out.append(line[: max(1, len(line) // 2)])
            n_cut += 1
        else:
            out.append(line)
    return out, n_cut
