"""Persistence and report-rendering helpers."""

from repro.io.jsonl import (
    SalvageResult,
    atomic_writer,
    salvage_jsonl,
    write_jsonl,
)
from repro.io.locks import file_lock
from repro.io.tables import format_table

__all__ = [
    "SalvageResult",
    "atomic_writer",
    "file_lock",
    "format_table",
    "salvage_jsonl",
    "write_jsonl",
]
