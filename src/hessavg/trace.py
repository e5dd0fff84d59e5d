"""Per-iteration telemetry records and their CSV persistence.

The CSV layout is versioned through a leading comment line that also
embeds the config hash and seed. Wall-clock times are kept on the records
for interactive use but never written to the CSV, so identical
(config, seed) pairs reproduce the file byte for byte.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Union, get_args, get_origin, get_type_hints

TRACE_SCHEMA = "hessavg-trace-v1"

_COLUMNS = (
    "k",
    "epoch",
    "f",
    "grad_norm",
    "x_size",
    "s_size",
    "hvp_probes",
    "eec",
    "dist_to_opt",
)


@dataclass
class TraceRecord:
    k: int
    epoch: float
    f: float
    grad_norm: Optional[float]
    x_size: int
    s_size: int
    hvp_probes: int
    eec: float
    wall_ms: float
    dist_to_opt: Optional[float] = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(cell: str, kind):
    """A CSV cell read as its :class:`TraceRecord` annotation; an empty
    ``Optional`` cell is None."""
    if get_origin(kind) is Union:
        if not cell:
            return None
        kind = next(arg for arg in get_args(kind) if arg is not type(None))
    return kind(cell)


def format_trace(records: list[TraceRecord], config_hash: str, seed: int) -> str:
    buf = io.StringIO()
    buf.write(f"# schema={TRACE_SCHEMA} config={config_hash} seed={seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for r in records:
        writer.writerow([_fmt(getattr(r, c)) for c in _COLUMNS])
    return buf.getvalue()


def parse_trace(text: str) -> tuple[dict, list[TraceRecord]]:
    """Inverse of :func:`format_trace`; returns (metadata, records)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing trace schema line")
    meta = dict(item.split("=", 1) for item in lines[0][2:].split())
    if meta.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"unsupported trace schema {meta.get('schema')!r}")
    hints = get_type_hints(TraceRecord)
    rows = csv.DictReader(lines[1:])
    return meta, [TraceRecord(wall_ms=0.0, **{c: _parse(row[c], hints[c]) for c in _COLUMNS}) for row in rows]
