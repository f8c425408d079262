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

Reading checks the bytes (the header, every line ended by ``\n``, no
``\r``, no blank line, no whitespace and no value that starts with ``+``)
and parses them with one ``np.loadtxt``; bytes that fail raise one
``ValueError``, ``malformed <kind> CSV``.  ``parse_rows`` reads a piece of
a file: its start, header included, or whole lines after it, so that
``verify`` parses a CSV's two halves in two processes; a piece may hold no
row, and a whole file read by ``read_<kind>_csv`` at least one.
"""

from __future__ import annotations

import io
from collections.abc import Callable, Iterator
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

#: the bytes that ``np.loadtxt`` strips from a value and that ``repr`` never writes
_SPACES = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"


@dataclass(frozen=True)
class Schema:
    header: str
    #: one array per header column; integer columns are written as integers
    columns: Callable[[Any], tuple[np.ndarray, ...]]

    @property
    def names(self) -> list[str]:
        return self.header.split(",")


SCHEMAS = {
    "signal": Schema("index,re,im", lambda s: (np.arange(s.n), s.samples.real, s.samples.imag)),
    "spectrum": Schema("freq_hz,re,im", lambda sp: (sp.freq_axis_hz, sp.bins.real, sp.bins.imag)),
    "pair": Schema("index,comp_y,comp_z", lambda p: (np.arange(p.n), p.comp_y, p.comp_z)),
    "taps": Schema("k,tap", lambda taps: (np.arange(len(taps)), np.asarray(taps, dtype=np.float64))),
}


def fmt(x: float) -> str:
    """Shortest round-trip decimal representation of a double."""
    return repr(float(x))


def csv_blocks(kind: str, data: Any, lo: int = 0, hi: int | None = None) -> Iterator[str]:
    """Rows ``lo`` up to ``hi`` of the artifact of ``kind`` for ``data``, the
    header first where ``lo`` is 0, then ``BLOCK_ROWS`` rows a piece, formatted
    when asked for.  Each row formats on its own, so pieces cut anywhere join."""
    schema = SCHEMAS[kind]
    cols = [col[lo:hi] for col in schema.columns(data)]
    if lo == 0:
        yield schema.header + "\n"
    for start in range(0, len(cols[0]), BLOCK_ROWS):
        # tolist() yields Python ints and floats, whose repr is the file format
        cells = [map(repr, col[start : start + BLOCK_ROWS].tolist()) for col in cols]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def csv_text(kind: str, data: Any, lo: int = 0, hi: int | None = None) -> str:
    """The pieces of ``csv_blocks`` as one text."""
    return "".join(csv_blocks(kind, data, lo, hi))


def signal_csv_text(s: ComplexSignal) -> str:
    return csv_text("signal", s)


def spectrum_csv_text(sp: Spectrum) -> str:
    return csv_text("spectrum", sp)


def pair_csv_text(p: PolarizedPair) -> str:
    return csv_text("pair", p)


def taps_csv_text(taps: np.ndarray) -> str:
    return csv_text("taps", taps)


def parse_rows(kind: str, piece: bytes, header: bool = True) -> np.ndarray:
    """The rows of ``piece`` as one float64 array, one column per header name:
    with ``header``, the bytes of an artifact of ``kind`` from its start,
    else whole lines from after its header.  A piece may hold no row.  Bytes
    that ``run`` could not have written there raise ``ValueError``."""
    schema = SCHEMAS[kind]
    head = schema.header.encode() + b"\n" if header else b""
    # loadtxt skips blank lines, ends a row at "\r", takes a last row without
    # its "\n" and strips whitespace and a leading "+" from a value, so the
    # bytes are checked for those first; only a piece holding a "+" is
    # searched for the pairs, whose "," and "\n" are frequent, and a piece
    # without a header follows a "\n".  A blank line shows as one row fewer
    # than the "\n"s after the header; a body that starts with one is
    # rejected first, as loadtxt warns on a body of blank lines alone
    first = piece[len(head) : len(head) + 1]  # of the body; b"" where it is empty
    framed = piece.startswith(head) and first != b"\n" and (piece.endswith(b"\n") or not piece)
    plus = b"+" in piece and (b",+" in piece or b"\n+" in piece or piece.startswith(b"+"))
    spelled = not any(b in piece for b in _SPACES) and not plus
    if framed and spelled and b"\r" not in piece:
        if not first:
            return np.empty((0, len(schema.names)))
        text = io.TextIOWrapper(io.BytesIO(piece), encoding="ascii")
        try:
            rows = np.loadtxt(text, delimiter=",", comments=None, skiprows=int(header), ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"malformed {kind} CSV") from exc
        if rows.shape == (piece.count(b"\n") - header, len(schema.names)):
            return rows
    raise ValueError(f"malformed {kind} CSV")


def _read_table(kind: str, path: Path) -> dict[str, np.ndarray]:
    """Parse an artifact of ``kind`` into its columns, by header name; a file
    that is no table ``run`` could write, one row at least, raises ``ValueError``."""
    rows = parse_rows(kind, Path(path).read_bytes())
    if not len(rows):
        raise ValueError(f"malformed {kind} CSV")
    return dict(zip(SCHEMAS[kind].names, rows.T))


def read_signal_csv(path: Path) -> dict[str, np.ndarray]:
    """Parse a signal dump into columns ``index``, ``re``, ``im``."""
    return _read_table("signal", path)


def read_spectrum_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("spectrum", path)


def read_pair_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("pair", path)


def read_taps_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("taps", path)
