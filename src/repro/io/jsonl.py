"""Line-delimited JSON helpers used by dataset stores and benchmarks.

Writes are crash-safe: records land in a ``.tmp`` sibling which is
``os.replace``\\ d into place, so an interrupted export can never leave a
truncated file behind.  :func:`salvage_jsonl` is the lenient read that
quarantines bad lines with counts instead of aborting the whole file;
the stream journal recovers its torn tail with it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, List, Optional, Tuple, Union

from repro.errors import SchemaError

PathLike = Union[str, Path]


def write_jsonl(path: PathLike, records: Iterable[Any]) -> int:
    """Atomically write one JSON value per line; returns the record count.

    The file appears at ``path`` only after every record has been
    written and flushed — a crash mid-export leaves the previous file
    (or nothing) in place, never a truncated one.
    """
    count = 0
    with atomic_writer(path) as f:
        for record in records:
            f.write(json.dumps(record, default=_default) + "\n")
            count += 1
    return count


class atomic_writer:
    """Context manager: write to ``<path>.tmp``, replace on clean exit.

    On an exception the temporary file is removed and the destination is
    untouched.  Usable by any text export, not just JSONL.
    """

    def __init__(self, path: PathLike, encoding: str = "utf-8") -> None:
        self._path = Path(path)
        self._tmp = self._path.with_name(self._path.name + ".tmp")
        self._encoding = encoding
        self._handle = None

    def __enter__(self):
        self._handle = open(self._tmp, "w", encoding=self._encoding)
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        if exc_type is None:
            os.replace(self._tmp, self._path)
        else:
            try:
                os.unlink(self._tmp)
            except OSError:
                pass  # destination untouched; a stray .tmp is harmless
        return False


@dataclass(frozen=True)
class SalvageResult:
    """Outcome of a lenient read.

    Attributes:
        records: every record that parsed.
        n_bad: how many lines were quarantined.
        bad_lines: ``(line_no, error)`` per quarantined line.
        quarantine_path: where the raw bad lines were written (if asked).
    """

    records: Tuple[Any, ...]
    n_bad: int
    bad_lines: Tuple[Tuple[int, str], ...]
    quarantine_path: Optional[str] = None

    @property
    def clean(self) -> bool:
        return self.n_bad == 0


def salvage_jsonl(
    path: PathLike,
    quarantine: Optional[PathLike] = None,
    max_bad_fraction: float = 1.0,
    tail_only: bool = False,
) -> SalvageResult:
    """Lenient JSONL read: keep good lines, quarantine bad ones.

    The file is read as *bytes* and decoded line by line: a process
    killed mid-write can tear the final line inside a multibyte UTF-8
    character, and a text-mode read would then raise
    ``UnicodeDecodeError`` before salvage ever saw the good lines.
    Here such a line is quarantined like any other damage.

    Args:
        quarantine: optional path; raw bad lines are written there
            (atomically) for later inspection.
        max_bad_fraction: abort with SchemaError when more than this
            fraction of non-empty lines is bad — a file that is mostly
            garbage is a wrong file, not a damaged one.
        tail_only: only tolerate damage *after* the last good line.
            Append-only journals can tear exactly one way — a partial
            final write — so a bad line followed by a good one means
            the file is corrupt, not torn, and salvaging around it
            would silently drop committed records; raise SchemaError
            instead.
    """
    if not 0.0 <= max_bad_fraction <= 1.0:
        raise SchemaError("max_bad_fraction must be in [0, 1]")
    records: List[Any] = []
    bad: List[Tuple[int, str]] = []
    raw_bad: List[str] = []
    n_lines = 0
    raw = Path(path).read_bytes()
    for line_no, raw_line in enumerate(raw.split(b"\n"), 1):
        if not raw_line.strip():
            continue
        n_lines += 1
        try:
            line = raw_line.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad.append((line_no, f"undecodable bytes: {exc}"))
            raw_bad.append(raw_line.decode("utf-8", errors="replace"))
            continue
        try:
            records.append(json.loads(line.strip()))
        except ValueError as exc:
            bad.append((line_no, f"invalid JSON: {exc}"))
            raw_bad.append(line.rstrip("\n"))
            continue
        if tail_only and bad:
            raise SchemaError(
                f"{path}: line {bad[0][0]} is bad but line {line_no} "
                f"parses — mid-file corruption, not a torn tail"
            )
    if n_lines and len(bad) / n_lines > max_bad_fraction:
        raise SchemaError(
            f"{path}: {len(bad)}/{n_lines} lines are bad "
            f"(over the {max_bad_fraction:.0%} salvage ceiling)"
        )
    quarantine_path: Optional[str] = None
    if quarantine is not None and raw_bad:
        with atomic_writer(quarantine) as f:
            for line in raw_bad:
                f.write(line + "\n")
        quarantine_path = str(quarantine)
    return SalvageResult(
        records=tuple(records),
        n_bad=len(bad),
        bad_lines=tuple(bad),
        quarantine_path=quarantine_path,
    )


def _default(value: Any) -> Any:
    """JSON fallback for dates and numpy scalars."""
    iso = getattr(value, "isoformat", None)
    if callable(iso):
        return iso()
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"cannot serialise {type(value).__name__}")


#: Public name for the shared ``json.dumps(default=...)`` fallback —
#: the checkpoint layer serialises shard records with exactly the
#: conventions :func:`write_jsonl` uses.
json_default = _default
