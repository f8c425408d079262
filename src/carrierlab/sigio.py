"""CSV serialization for signals, spectra, polarized pairs and filter taps.

Floats are written with ``repr``, i.e. the shortest decimal that round-trips
to the identical double, so dumping and re-parsing is exact and two runs of
the same configuration produce byte-identical files.

Every artifact kind is one entry of ``SCHEMAS``: a header and the columns it
extracts from its object.  Writing, reading and comparing all go through
that table.  No table writes a column that its other columns and the run's
configuration determine (magnitude, bin energy, time), and no run writes an
artifact that another artifact of the run and ``config.txt`` determine (the
spectrum of a signal or pair it dumps); README.md gives the formulas that
rebuild them.

Reading checks the bytes (the header, at least one row, every line ended
by ``\n``, no ``\r``, no blank line), then parses them with one
``np.loadtxt``; only a file that fails is scanned row by row, to name its
first bad row.
"""

from __future__ import annotations

import io
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .polarization import PolarizedPair
from .signals import ComplexSignal
from .spectrum import Spectrum

#: rows formatted in one batch; a whole file at once holds a Python object
#: per cell and raises peak memory
BLOCK_ROWS = 256


@dataclass(frozen=True)
class Schema:
    header: str
    #: the table's name in error messages
    what: str
    #: one array per header column; integer columns are written as integers
    columns: Callable[[Any], tuple[np.ndarray, ...]]

    @property
    def names(self) -> list[str]:
        return self.header.split(",")


SCHEMAS = {
    "signal": Schema(
        "index,re,im",
        "signal",
        lambda s: (np.arange(s.n), s.samples.real, s.samples.imag),
    ),
    "spectrum": Schema(
        "freq_hz,re,im",
        "spectrum",
        lambda sp: (sp.freq_axis_hz, sp.bins.real, sp.bins.imag),
    ),
    "pair": Schema(
        "index,comp_y,comp_z",
        "polarized pair",
        lambda p: (np.arange(p.n), p.comp_y, p.comp_z),
    ),
    "taps": Schema(
        "k,tap",
        "filter taps",
        lambda taps: (np.arange(len(taps)), np.asarray(taps, dtype=np.float64)),
    ),
}


def fmt(x: float) -> str:
    """Shortest round-trip decimal representation of a double."""
    return repr(float(x))


def columns(kind: str, data: Any) -> dict[str, np.ndarray]:
    """The columns an artifact of ``kind`` holds for ``data``, by header name."""
    schema = SCHEMAS[kind]
    return dict(zip(schema.names, schema.columns(data)))


def _csv_text(kind: str, data: Any) -> str:
    schema = SCHEMAS[kind]
    cols = schema.columns(data)
    chunks = [schema.header + "\n"]
    for start in range(0, len(cols[0]), BLOCK_ROWS):
        # tolist() yields Python ints and floats, whose repr is the file format
        cells = [map(repr, col[start : start + BLOCK_ROWS].tolist()) for col in cols]
        chunks.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(chunks)


def signal_csv_text(s: ComplexSignal) -> str:
    return _csv_text("signal", s)


def spectrum_csv_text(sp: Spectrum) -> str:
    return _csv_text("spectrum", sp)


def pair_csv_text(p: PolarizedPair) -> str:
    return _csv_text("pair", p)


def taps_csv_text(taps: np.ndarray) -> str:
    return _csv_text("taps", taps)


def _fault(data: bytes, schema: Schema) -> str | None:
    """Why ``data`` is no table of ``schema``: its first bad data row,
    1-based, or what the whole file lacks; None when every row holds
    numbers.  Run only on a file already rejected."""
    header, *lines = data.split(b"\n")
    if header.removesuffix(b"\r") != schema.header.encode():
        return f"expected header {schema.header!r}"
    if header.endswith(b"\r"):
        return "carriage return in the header"
    # what follows the last "\n": empty unless the final newline is missing
    *rows, tail = lines or [b""]
    if not rows and not tail:
        return "no data rows"
    for i, row in enumerate(rows + [tail] if tail else rows, start=1):
        if b"\r" in row:
            return f"carriage return in row {i}"
        cells = row.split(b",")
        if len(cells) != len(schema.names):
            return f"row {i} has {len(cells)} columns"
        try:
            list(map(float, cells))
        except ValueError:
            return f"row {i} is not numeric"
    return "no final newline" if tail else None


def _read_table(kind: str, path: Path) -> dict[str, np.ndarray]:
    """Parse an artifact of ``kind`` into its columns, by header name."""
    schema = SCHEMAS[kind]
    data = Path(path).read_bytes()
    head = schema.header.encode() + b"\n"
    numpy_error = None
    # loadtxt skips blank lines, ends a row at "\r" and takes a last row
    # without its "\n", so the bytes are checked for those first
    framed = data.startswith(head) and len(data) > len(head) and data.endswith(b"\n")
    if framed and b"\r" not in data and b"\n\n" not in data:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
        try:
            rows = np.loadtxt(text, delimiter=",", comments=None, skiprows=1, ndmin=2, dtype=np.float64)
            if rows.shape[1] == len(schema.names):
                return dict(zip(schema.names, rows.T))
        except ValueError as exc:
            numpy_error = exc
    raise ValueError(f"malformed {schema.what} CSV: {_fault(data, schema) or numpy_error}")


def read_signal_csv(path: Path) -> dict[str, np.ndarray]:
    """Parse a signal dump into columns ``index``, ``re``, ``im``."""
    return _read_table("signal", path)


def read_spectrum_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("spectrum", path)


def read_pair_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("pair", path)


def read_taps_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("taps", path)
