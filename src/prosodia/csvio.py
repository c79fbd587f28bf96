"""The one CSV codec: loss logs, reports, scalograms and comparison tables.

A table is a header line and one line of comma-separated cells per row. Any
malformed table is one ``FormatError`` naming the file and the line.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from prosodia.errors import FormatError


def format_cell(cell, digits: int = 12) -> str:
    """A float as ``%.<digits>g``, any other cell with ``str``."""
    return format(cell, f".{digits}g") if isinstance(cell, (float, np.floating)) else str(cell)


def write_table(path, header, rows, digits: int = 12) -> None:
    lines = (",".join(format_cell(cell, digits) for cell in row) for row in [header, *rows])
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_table(path, columns) -> list[tuple]:
    """The rows at ``path`` under its header, each cell cast by its column.

    ``columns`` maps each header name, in order, to its cast; a table whose
    width varies gives a function from its header's cell count to that map.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines() or [""]
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: not UTF-8 text ({err})") from err
    header = lines[0].split(",")
    columns = columns(len(header)) if callable(columns) else columns
    if header != list(columns):
        raise FormatError(f"{path}: line 1: header {lines[0]!r}, expected {','.join(columns)!r}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise FormatError(f"{path}: line {number}: {len(cells)} cells, expected {len(columns)}")
        try:
            rows.append(tuple(cast(cell) for cast, cell in zip(columns.values(), cells)))
        except ValueError as err:  # int("1.5"), float("x")
            raise FormatError(f"{path}: line {number}: {err}") from err
    return rows
