"""Run artifacts: deterministic CSV tables and JSON summaries.

Every number is written with ``repr`` (shortest exact round-trip), newlines
are always ``\\n``, and JSON keys are sorted — so two runs of the same
effective configuration produce byte-identical files, and a diff between
artifact directories is a meaningful regression signal.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .profiles import PROFILE_HEADER
from .solver import RunLog

__all__ = [
    "SCHEMA_VERSION",
    "RUN_CSV",
    "PROFILE_CSV",
    "SNAPSHOT_CSV",
    "SUMMARY_JSON",
    "format_number",
    "write_run_csv",
    "write_profile_csv",
    "write_snapshot_csv",
    "write_summary",
]

#: Version of the JSON artifact layout (``summary.json``,
#: ``classification.json``, ``weight_certificates.json``); bump on any
#: backwards-incompatible change to field names or meanings.
SCHEMA_VERSION = 2

RUN_CSV = "run.csv"
PROFILE_CSV = "profile.csv"
SNAPSHOT_CSV = "snapshots.csv"
SUMMARY_JSON = "summary.json"


def format_number(value: float) -> str:
    """Shortest decimal string that round-trips to the same float
    (``nan``, ``inf`` and ``-inf`` for the non-finite ones)."""
    return repr(float(value))


#: Rows formatted and written at a time: a table's text is never held
#: whole, only one chunk of it.
_CHUNK_ROWS = 1024


def _write_table(path: Path, header: Sequence[str],
                 columns: Iterable[Iterable[float]]) -> None:
    """Write a header and the table of the given columns, each number as
    ``format_number`` gives it.  Each column is read as a float array (numpy
    columns as they are, a table kept as rows passes
    ``zip(*rows, strict=True)``), and columns of different lengths raise
    ValueError before anything is written.  The rows go out in chunks of
    ``_CHUNK_ROWS``: each chunk takes one ``.tolist()`` slice per column and
    is joined and written before the next is formatted.  No header name and
    no float ``repr`` holds a comma, quote or newline, so no field needs CSV
    quoting and the lines are joined directly."""
    columns = [np.asarray(column, dtype=float) for column in columns]
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    rows = max(lengths, default=0)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _CHUNK_ROWS):
            chunk = [map(repr, column[start:start + _CHUNK_ROWS].tolist())
                     for column in columns]
            fh.write("\n".join(map(",".join, zip(*chunk))) + "\n")


def write_run_csv(path, log: RunLog) -> None:
    """Write the observation log: t,dt,min_slope,u_inf,ux_inf,energy,mass
    plus the probes' columns (W_<i> per tracked weight, rate_cap_sup)."""
    _write_table(Path(path), log.header, zip(*log.rows, strict=True))


def write_profile_csv(path, rows: Iterable[Sequence[float]]) -> None:
    """Write ProfileAccumulator rows under ``profiles.PROFILE_HEADER``."""
    _write_table(Path(path), PROFILE_HEADER, zip(*rows, strict=True))


def write_snapshot_csv(path, grid, u_initial, u_final) -> None:
    """Write initial and terminal solution samples on the run grid."""
    _write_table(Path(path), ("x", "u_initial", "u_final"),
                 (grid.x, u_initial, u_final))


def write_summary(path, summary: Mapping) -> None:
    """Write the run summary as stable, human-diffable JSON."""
    text = json.dumps(_jsonable(summary), indent=2, sort_keys=True,
                      allow_nan=False)
    Path(path).write_text(text + "\n")


def _jsonable(value):
    """Recursively coerce numpy scalars and non-finite floats for JSON."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    return value
