"""CSV serialization for signals, spectra, polarized pairs and filter taps.

Floats are written with ``repr``, i.e. the shortest decimal that round-trips
to the identical double, so dumping and re-parsing is exact and two runs of
the same configuration produce byte-identical files.

Every artifact kind is one entry of ``SCHEMAS``: a header and the columns it
extracts from its object.  Writing, reading and comparing all go through
that table.  No table writes a column that its other columns and the run's
configuration determine (magnitude, bin energy, time); README.md gives the
formulas that rebuild them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Any

import numpy as np

from .polarization import PolarizedPair
from .signals import ComplexSignal
from .spectrum import Spectrum

#: rows formatted in one batch; a whole file at once holds a Python object
#: per cell and raises peak memory
BLOCK_ROWS = 256
#: characters parsed in one batch (about 700 spectrum rows), for the same
#: reason; cut by size, since finding every row's end costs a call per row
BLOCK_CHARS = 1 << 15


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


def _line_blocks(text: str) -> Iterator[list[str]]:
    """``text.splitlines()`` in blocks of at least ``BLOCK_CHARS``
    characters, so the whole file's line list never exists beside the text.
    Blocks end just after a ``\n``, which always ends a line, so they join
    up to the same lines as one ``splitlines()`` of the whole text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)
        yield text[start:end].splitlines()
        start = end


def _parse_block(block: list[str], first: int, width: int, what: str) -> np.ndarray:
    """Data rows ``first + 1, ...`` as a ``(len(block), width)`` array."""
    out = np.empty((len(block), width), dtype=np.float64)
    if list(map(str.count, block, repeat(","))).count(width - 1) == len(block):
        try:
            out.reshape(-1)[:] = list(map(float, ",".join(block).split(",")))
            return out
        except ValueError:
            pass
    # row-by-row parse; names the first malformed row
    for i, line in enumerate(block):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"malformed {what} CSV: row {first + i + 1} has {len(parts)} columns")
        try:
            out[i] = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"malformed {what} CSV: row {first + i + 1} is not numeric") from None
    return out


def _parse_table(text: str, header: str, what: str) -> np.ndarray:
    blocks = _line_blocks(text)
    head = next(blocks, [])
    if not head or head[0] != header:
        raise ValueError(f"malformed {what} CSV: expected header {header!r}")
    width = header.count(",") + 1
    parsed = []
    rows = 0
    for block in chain([head[1:]], blocks):
        if block:
            parsed.append(_parse_block(block, rows, width, what))
            rows += len(block)
    if rows == 0:
        raise ValueError(f"malformed {what} CSV: no data rows")
    return np.concatenate(parsed)


def _read_table(kind: str, path: Path) -> dict[str, np.ndarray]:
    """Parse an artifact of ``kind`` into its columns, by header name."""
    schema = SCHEMAS[kind]
    rows = _parse_table(Path(path).read_text(), schema.header, schema.what)
    return dict(zip(schema.names, rows.T))


def read_signal_csv(path: Path) -> dict[str, np.ndarray]:
    """Parse a signal dump into columns ``index``, ``re``, ``im``."""
    return _read_table("signal", path)


def read_spectrum_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("spectrum", path)


def read_pair_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("pair", path)


def read_taps_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("taps", path)
