"""The numeric CSV tables critwave reads and writes: snapshots (r,u,ut),
series.csv and d'Alembert breakpoint files (s,f0,f1). A table is a header
line of column names, then rows of `repr(float(x))` values, comma-separated,
every line ended by \\r\\n: the bytes `csv.writer` writes for such rows, as
a float's repr never needs quoting.
"""

import warnings

import numpy as np

from .errors import InvalidDataError


def format_column(column) -> list:
    """The repr text of a column's values, as floats."""
    return list(map(repr, np.asarray(column, dtype=float).tolist()))


# rows formatted and written at a time: a 2401-row snapshot is one chunk, and
# a longer table's text is held one chunk at a time
_CHUNK_ROWS = 2500


def write_columns(path, header, columns) -> None:
    """Write equal-length columns under the header names (which need no
    quoting). A column is a float array, formatted here `_CHUNK_ROWS` rows at
    a time, or a list of its text as `format_column` gives it."""
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            cells = [c[rows] if isinstance(c, list) else format_column(c[rows]) for c in columns]
            lines = list(map(",".join, zip(*cells)))
            del cells  # the chunk's text, held at most twice: as lines, then joined
            lines.append("")  # the chunk's last line end
            fh.write("\r\n".join(lines))


def read_columns(path, names) -> list:
    """The leading columns `names` of a table as float arrays, of zero or more rows.

    The header's first cells, stripped, must be `names`; later columns are
    ignored. A bad header, a non-numeric cell or a short row raises
    InvalidDataError naming the path.
    """
    with open(path, newline="") as fh:
        if [c.strip() for c in fh.readline().split(",")][: len(names)] != list(names):
            raise InvalidDataError(f"{path}: expected header {','.join(names)}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on no rows
            try:
                arr = np.loadtxt(fh, delimiter=",", usecols=range(len(names)), ndmin=2)
            except ValueError as exc:
                raise InvalidDataError(f"{path}: malformed table: {exc}") from exc
    return list(arr.T)
