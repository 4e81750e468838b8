"""The CSV table format of every artifact and input file: optional ``# key = value``
comment lines, a header line of column names, then one line per row with floats
as ``%.17g`` (they read back bit for bit) and labels and integers as ``str``."""

from __future__ import annotations

import itertools
from array import array

import numpy as np

from .errors import ParameterError

# write_table formats its rows in blocks of this many, one % each
_BLOCK_ROWS = 1 << 14


def write_table(path, header: str, rows, comments=()):
    """Write ``rows`` (equal-length lists, or a 2-D float array) under ``header``.

    ``comments`` holds the (key, value) pairs of the ``# key = value`` lines.
    The first row sets the column kinds for every row; one ``%`` row template,
    repeated, formats a block of rows.
    """
    with open(path, "w") as fh:
        fh.writelines(f"# {key} = {value}\n" for key, value in comments)
        fh.write(header + "\n")
        line = ",".join("%.17g" if isinstance(v, float) else "%s"
                        for v in (rows[0] if len(rows) else ())) + "\n"
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start:start + _BLOCK_ROWS]
            cells = (block.ravel().tolist() if isinstance(block, np.ndarray)
                     else itertools.chain.from_iterable(block))
            fh.write((line * len(block)) % tuple(cells))


def read_table(path, columns=None) -> tuple[dict, np.ndarray]:
    """The ``# key = value`` comments of a table file and its rows as floats.

    Blank lines are skipped; the first line that is not a comment is the
    header.  The rows hold every column, or the named ``columns`` in order.
    A missing, empty or undecodable file, a non-numeric cell, a row whose
    length differs from the header's, or a missing column raises ParameterError.
    """
    comments, header, cells = {}, None, array("d")
    try:
        with open(path) as fh:
            for line in map(str.strip, fh):
                if line.startswith("#"):
                    key, eq, value = line[1:].partition("=")
                    if eq:
                        comments[key.strip()] = value.strip()
                elif line and header is None:
                    header = line.split(",")
                elif line:
                    row = line.split(",")
                    if len(row) != len(header):
                        raise ParameterError(f"table file {path}: a row and the header "
                                             f"differ in length: {line!r}")
                    try:
                        cells.extend([float(cell) for cell in row])
                    except ValueError as exc:
                        raise ParameterError(f"table file {path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read table file {path}: {exc}") from None
    if header is None:
        raise ParameterError(f"table file {path} has no header line")
    values = np.array(cells, dtype=float).reshape(-1, len(header))
    if columns is None:
        return comments, values
    if not set(columns) <= set(header):
        raise ParameterError(f"table file {path} lacks one of the columns {columns}")
    return comments, values[:, [header.index(name) for name in columns]]
