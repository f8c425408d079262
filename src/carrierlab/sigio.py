"""CSV serialization for signals, spectra, polarized pairs and filter taps.

Floats are written with ``repr``, i.e. the shortest decimal that round-trips
to the identical double, so dumping and re-parsing is exact and two runs of
the same configuration produce byte-identical files.

Every artifact kind is one entry of ``SCHEMAS``: a header and the columns it
extracts from its object.  Writing, reading and comparing all go through
that table.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Any

import numpy as np

from .polarization import PolarizedPair
from .signals import ComplexSignal
from .spectrum import Spectrum

SIGNAL_HEADER = "index,t_s,re,im"
SPECTRUM_HEADER = "freq_hz,re,im,magnitude,energy"
PAIR_HEADER = "index,t_s,comp_y,comp_z"
TAPS_HEADER = "k,tap"

#: rows formatted or parsed in one batch; a whole file at once holds a Python
#: object per cell and raises peak memory
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
        SIGNAL_HEADER,
        "signal",
        lambda s: (np.arange(s.n), s.time_axis(), s.samples.real, s.samples.imag),
    ),
    "spectrum": Schema(
        SPECTRUM_HEADER,
        "spectrum",
        lambda sp: (sp.freq_axis_hz, sp.bins.real, sp.bins.imag, np.abs(sp.bins), sp.bin_energies()),
    ),
    "pair": Schema(
        PAIR_HEADER,
        "polarized pair",
        lambda p: (np.arange(p.n), np.arange(p.n) / p.sample_rate_hz, p.comp_y, p.comp_z),
    ),
    "taps": Schema(
        TAPS_HEADER,
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


def write_signal_csv(path: Path, s: ComplexSignal) -> None:
    Path(path).write_text(signal_csv_text(s))


def write_spectrum_csv(path: Path, sp: Spectrum) -> None:
    Path(path).write_text(spectrum_csv_text(sp))


def write_pair_csv(path: Path, p: PolarizedPair) -> None:
    Path(path).write_text(pair_csv_text(p))


def write_taps_csv(path: Path, taps: np.ndarray) -> None:
    Path(path).write_text(taps_csv_text(taps))


def _parse_rows(lines: list[str], first: int, out: np.ndarray, what: str) -> None:
    """Row-by-row parse; names the first malformed row."""
    width = out.shape[1]
    for i, line in enumerate(lines, start=first):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"malformed {what} CSV: row {i + 1} has {len(parts)} columns")
        try:
            out[i] = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"malformed {what} CSV: row {i + 1} is not numeric") from None


def _parse_table(text: str, header: str, what: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"malformed {what} CSV: expected header {header!r}")
    width = header.count(",") + 1
    rows = np.empty((len(lines) - 1, width), dtype=np.float64)
    flat = rows.reshape(-1)
    for start in range(0, rows.shape[0], BLOCK_ROWS):
        block = lines[1 + start : 1 + start + BLOCK_ROWS]
        commas = list(map(str.count, block, repeat(",")))
        if commas.count(width - 1) == len(block):
            try:
                flat[start * width : (start + len(block)) * width] = list(
                    map(float, ",".join(block).split(","))
                )
                continue
            except ValueError:
                pass
        _parse_rows(block, start, rows, what)
    if rows.shape[0] == 0:
        raise ValueError(f"malformed {what} CSV: no data rows")
    return rows


def _read_table(kind: str, path: Path) -> dict[str, np.ndarray]:
    """Parse an artifact of ``kind`` into its columns, by header name."""
    schema = SCHEMAS[kind]
    rows = _parse_table(Path(path).read_text(), schema.header, schema.what)
    return dict(zip(schema.names, rows.T))


def read_signal_csv(path: Path) -> dict[str, np.ndarray]:
    """Parse a signal dump into columns ``index``, ``t_s``, ``re``, ``im``."""
    return _read_table("signal", path)


def read_spectrum_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("spectrum", path)


def read_pair_csv(path: Path) -> dict[str, np.ndarray]:
    return _read_table("pair", path)


def read_taps_csv(path: Path) -> np.ndarray:
    return _read_table("taps", path)["tap"]
