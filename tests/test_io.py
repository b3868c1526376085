"""Artifact tables: the column-wise formatter writes the row-wise bytes,
one fixed-size chunk of rows at a time."""

import math
import tracemalloc

import numpy as np
import pytest

from chlab.field import Grid
from chlab.io import (_CHUNK_ROWS, _write_table, write_profile_csv,
                      write_snapshot_csv)
from chlab.profiles import PROFILE_HEADER

HEADER = ("t", "a", "b")


def row_wise_table(path, header, rows):
    """The table formatter one row at a time: the reference."""
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, map(float, row))) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-310, 0.1, -2.5e300]

TABLES = {
    "no rows": [],
    "one row": [(1.0, -0.0, math.nan)],
    "special values": [SPECIAL[i:i + 3] for i in range(len(SPECIAL) - 2)],
    "numpy scalars": [(np.float64(0.1), np.float32(0.1), np.int64(3)),
                      (np.float64(-0.0), np.float64(np.nan),
                       np.float64(-np.inf))],
    "ints and floats": [(1, 2.0, True), (-7, 1e16, 3)],
    "random": np.random.default_rng(0).standard_normal((257, 3)).tolist(),
}


@pytest.mark.parametrize("rows", TABLES.values(), ids=list(TABLES))
def test_column_wise_table_has_the_row_wise_bytes(rows, tmp_path):
    _write_table(tmp_path / "columns.csv", HEADER, zip(*rows, strict=True))
    row_wise_table(tmp_path / "rows.csv", HEADER, rows)
    assert ((tmp_path / "columns.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


def test_profile_rows_from_a_generator(tmp_path):
    rows = np.random.default_rng(1).standard_normal(
        (5, len(PROFILE_HEADER))).tolist()
    write_profile_csv(tmp_path / "gen.csv", (row for row in rows))
    row_wise_table(tmp_path / "rows.csv", PROFILE_HEADER, rows)
    assert ((tmp_path / "gen.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


def test_snapshot_table_has_the_row_wise_bytes(tmp_path):
    grid = Grid(10.0, 64)
    rng = np.random.default_rng(2)
    u0, u1 = rng.standard_normal(64), rng.standard_normal(64)
    u1[[0, 5, 9]] = [-0.0, math.inf, math.nan]
    write_snapshot_csv(tmp_path / "snap.csv", grid, u0, u1)
    row_wise_table(tmp_path / "rows.csv", ("x", "u_initial", "u_final"),
                   np.column_stack((grid.x, u0, u1)).tolist())
    assert ((tmp_path / "snap.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


def test_no_column_is_cut_short(tmp_path):
    with pytest.raises(ValueError):
        _write_table(tmp_path / "ragged.csv", HEADER,
                     [[1.0, 2.0], [3.0], [4.0, 5.0]])


@pytest.mark.parametrize("rows", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS,
                                  _CHUNK_ROWS + 1, 5 * _CHUNK_ROWS // 2])
def test_chunk_boundaries_have_the_row_wise_bytes(rows, tmp_path):
    table = np.random.default_rng(rows).standard_normal((rows, 3))
    table[::7, 1] = -0.0
    table[::11, 2] = math.nan
    _write_table(tmp_path / "columns.csv", HEADER, table.T)
    row_wise_table(tmp_path / "rows.csv", HEADER, table.tolist())
    assert ((tmp_path / "columns.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


# the short column ends inside the first chunk, at its end, or past it
@pytest.mark.parametrize("short", [1, _CHUNK_ROWS, 2 * _CHUNK_ROWS - 1])
def test_ragged_columns_raise_past_the_first_chunk(short, tmp_path):
    full = np.arange(2 * _CHUNK_ROWS, dtype=float)
    with pytest.raises(ValueError):
        _write_table(tmp_path / "ragged.csv", HEADER,
                     (full, full[:short], full))
    assert not (tmp_path / "ragged.csv").exists()


def test_snapshot_table_is_written_in_bounded_memory(tmp_path):
    # the text of this table is 0.41 MB; its lines, or its columns' strings,
    # held at once would take several times the bound
    grid = Grid(60.0, 8192)
    rng = np.random.default_rng(3)
    u0, u1 = rng.standard_normal(8192), rng.standard_normal(8192)
    write_snapshot_csv(tmp_path / "warm.csv", grid, u0, u1)
    tracemalloc.start()
    try:
        write_snapshot_csv(tmp_path / "snap.csv", grid, u0, u1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19
