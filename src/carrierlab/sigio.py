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
by ``\n``, no ``\r``, no blank line, no whitespace and no value that
starts with ``+``) and parses them with one ``np.loadtxt``; a file that
fails raises one ``ValueError``, ``malformed <kind> CSV``.
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


def csv_text(kind: str, data: Any, lo: int = 0, hi: int | None = None) -> str:
    """Rows ``lo`` up to ``hi`` of the artifact of ``kind`` for ``data``, the
    header first only where ``lo`` is 0.  Each row formats on its own, so
    pieces cut anywhere join to the bytes of the whole file."""
    schema = SCHEMAS[kind]
    cols = [col[lo:hi] for col in schema.columns(data)]
    chunks = [schema.header + "\n"] if lo == 0 else []
    for start in range(0, len(cols[0]), BLOCK_ROWS):
        # tolist() yields Python ints and floats, whose repr is the file format
        cells = [map(repr, col[start : start + BLOCK_ROWS].tolist()) for col in cols]
        chunks.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(chunks)


def signal_csv_text(s: ComplexSignal) -> str:
    return csv_text("signal", s)


def spectrum_csv_text(sp: Spectrum) -> str:
    return csv_text("spectrum", sp)


def pair_csv_text(p: PolarizedPair) -> str:
    return csv_text("pair", p)


def taps_csv_text(taps: np.ndarray) -> str:
    return csv_text("taps", taps)


def _read_table(kind: str, path: Path) -> dict[str, np.ndarray]:
    """Parse an artifact of ``kind`` into its columns, by header name; a file
    that is no table ``run`` could write raises ``ValueError``."""
    schema = SCHEMAS[kind]
    data = Path(path).read_bytes()
    head = schema.header.encode() + b"\n"
    # loadtxt skips blank lines, ends a row at "\r", takes a last row without
    # its "\n" and strips whitespace and a leading "+" from a value, so the
    # bytes are checked for those first; only a file holding a "+" is searched
    # for the pairs, whose "," and "\n" are frequent.  A blank line shows as
    # one row fewer than the "\n"s after the header; a body that starts with
    # one is rejected first, as loadtxt warns on a body of blank lines alone
    framed = data.startswith(head) and data[len(head) : len(head) + 1] not in (b"", b"\n") and data.endswith(b"\n")
    spelled = not any(b in data for b in _SPACES) and not (b"+" in data and (b",+" in data or b"\n+" in data))
    if framed and spelled and b"\r" not in data:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
        try:
            rows = np.loadtxt(text, delimiter=",", comments=None, skiprows=1, ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"malformed {kind} CSV") from exc
        if rows.shape == (data.count(b"\n") - 1, len(schema.names)):
            return dict(zip(schema.names, rows.T))
    raise ValueError(f"malformed {kind} CSV")


def read_signal_csv(path: Path) -> dict[str, np.ndarray]:
    """Parse a signal dump into columns ``index``, ``re``, ``im``."""
    return _read_table("signal", path)


def read_spectrum_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("spectrum", path)


def read_pair_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("pair", path)


def read_taps_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("taps", path)
