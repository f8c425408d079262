"""Tests for the CSV schemas: exact round trips and malformed-input checks."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from carrierlab import ComplexSignal, PolarizedPair, Spectrum, dft_two_sided, oscillator
from carrierlab import sigio

FS = 256.0


def _signal(seed=0, n=64):
    rng = np.random.default_rng(seed)
    return ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), FS)


class TestSignalCsv:
    def test_round_trip_is_exact(self, tmp_path):
        s = _signal()
        path = tmp_path / "signal_x.csv"
        path.write_text(sigio.signal_csv_text(s))
        cols = sigio.read_signal_csv(path)
        assert list(cols) == ["index", "re", "im"]
        np.testing.assert_array_equal(cols["index"], np.arange(s.n))
        np.testing.assert_array_equal(cols["re"], s.samples.real)
        np.testing.assert_array_equal(cols["im"], s.samples.imag)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,0,0,0\n")
        with pytest.raises(ValueError):
            sigio.read_signal_csv(path)

    def test_column_count_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(sigio.SCHEMAS["signal"].header + "\n0,1.0\n")
        with pytest.raises(ValueError):
            sigio.read_signal_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(sigio.SCHEMAS["signal"].header + "\n0,oops,0.0\n")
        with pytest.raises(ValueError):
            sigio.read_signal_csv(path)

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(sigio.SCHEMAS["signal"].header + "\n")
        with pytest.raises(ValueError):
            sigio.read_signal_csv(path)


class TestSpectrumCsv:
    def test_round_trip_values(self, tmp_path):
        sp = dft_two_sided(oscillator(16.0, 64, FS))
        path = tmp_path / "spectrum_x.csv"
        path.write_text(sigio.spectrum_csv_text(sp))
        cols = sigio.read_spectrum_csv(path)
        assert list(cols) == ["freq_hz", "re", "im"]
        np.testing.assert_array_equal(cols["freq_hz"], sp.freq_axis_hz)
        np.testing.assert_array_equal(cols["re"], sp.bins.real)
        np.testing.assert_array_equal(cols["im"], sp.bins.imag)

    def test_deterministic_bytes(self):
        sp = dft_two_sided(_signal(5))
        assert sigio.spectrum_csv_text(sp) == sigio.spectrum_csv_text(sp)


class TestPairCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        pair = PolarizedPair(rng.standard_normal(32), rng.standard_normal(32), FS)
        path = tmp_path / "pair_x.csv"
        path.write_text(sigio.pair_csv_text(pair))
        cols = sigio.read_pair_csv(path)
        assert list(cols) == ["index", "comp_y", "comp_z"]
        np.testing.assert_array_equal(cols["index"], np.arange(pair.n))
        np.testing.assert_array_equal(cols["comp_y"], pair.comp_y)
        np.testing.assert_array_equal(cols["comp_z"], pair.comp_z)


class TestTapsCsv:
    def test_round_trip(self, tmp_path):
        taps = np.array([0.25, 0.5, 0.25])
        path = tmp_path / "filter_taps.csv"
        path.write_text(sigio.taps_csv_text(taps))
        np.testing.assert_array_equal(sigio.read_taps_csv(path)["tap"], taps)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "filter_taps.csv"
        path.write_text("tap\n0.5\n")
        with pytest.raises(ValueError):
            sigio.read_taps_csv(path)


def _table(kind, n, seed):
    """An object of ``n`` rows that ``kind``'s schema formats."""
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal((2, n))
    return {
        "signal": lambda: ComplexSignal(re + 1j * im, FS),
        "spectrum": lambda: Spectrum(re + 1j * im, FS / n),
        "pair": lambda: PolarizedPair(re, im, FS),
        "taps": lambda: re,
    }[kind]()


#: row counts anywhere up to about four blocks, and beside each multiple of a block
ROWS = st.one_of(
    st.integers(1, 1100),
    st.builds(lambda k, d: max(1, k * sigio.BLOCK_ROWS + d), st.integers(1, 4), st.integers(-2, 2)),
)


class TestPieces:
    @given(st.sampled_from(sorted(sigio.SCHEMAS)), ROWS, st.integers(0, 2**32 - 1), st.data())
    def test_pieces_cut_at_any_rows_join_to_the_file(self, kind, n, seed, data):
        cuts = data.draw(st.sets(st.integers(1, n), max_size=5))
        table = _table(kind, n, seed)
        bounds = [0, *sorted(cuts), None]
        pieces = [sigio.csv_text(kind, table, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert "".join(pieces) == getattr(sigio, f"{kind}_csv_text")(table)
        header = sigio.SCHEMAS[kind].header + "\n"
        assert pieces[0].startswith(header)
        assert not any(piece.startswith(header) for piece in pieces[1:])
        assert all(piece.endswith("\n") for piece in pieces if piece)


def test_readme_lists_the_schema_headers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### File schemas\n", 1)[1].split("\n#", 1)[0]
    headers = re.findall(r"^\|[^|]*\|\s*`([^`]*)`\s*\|$", section, flags=re.MULTILINE)
    assert headers == [schema.header for schema in sigio.SCHEMAS.values()]


class TestFloatFormat:
    @pytest.mark.parametrize("x", [0.0, 1.0, -0.5, 1e-300, 0.1 + 0.2, np.pi, -1e308])
    def test_shortest_repr_round_trips(self, x):
        assert float(sigio.fmt(x)) == x


def _signal_text(n):
    return sigio.signal_csv_text(ComplexSignal(np.arange(n) + 1j, FS))


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestParser:
    @given(st.lists(finite, min_size=1, max_size=50), st.lists(finite, min_size=1, max_size=50))
    @example([-0.0, 5e-324], [2.2250738585072e-308, -1.5e-320])
    @example([1.7e308, -1.7e308], [-0.0, 0.0])
    @example([1e16, 1e22], [1e-05, -1e22])
    def test_round_trip_is_bit_exact(self, tmp_path_factory, ys, zs):
        n = min(len(ys), len(zs))
        pair = PolarizedPair(np.array(ys[:n]), np.array(zs[:n]), FS)
        path = tmp_path_factory.getbasetemp() / "pair_bits.csv"
        path.write_text(sigio.pair_csv_text(pair))
        cols = sigio.read_pair_csv(path)
        assert cols["comp_y"].tobytes() == pair.comp_y.tobytes()
        assert cols["comp_z"].tobytes() == pair.comp_z.tobytes()
        path.write_text(sigio.taps_csv_text(pair.comp_y))
        assert sigio.read_taps_csv(path)["tap"].tobytes() == pair.comp_y.tobytes()

    @pytest.mark.parametrize(
        "bad_rows, message",
        [
            ({3000: "3000,1.0"}, "row 3000 has 2 columns"),
            ({3000: "3000,oops,0.0"}, "row 3000 is not numeric"),
            ({3000: "3000,1.0,0.0,9"}, "row 3000 has 4 columns"),
            # two malformed rows
            ({2999: "2999,oops,0.0", 3000: "3000,0.0"}, "row 2999 is not numeric"),
            ({1500: "1500,1.0", 3000: "3000,x,1.0"}, "row 1500 has 2 columns"),
            # a respelled value that loadtxt reads as the number run wrote
            ({3000: "2999, 2999.0,1.0"}, r"row 3000 holds whitespace or a leading \+"),
            ({3000: "2999,2999.0\t,1.0"}, r"row 3000 holds whitespace or a leading \+"),
            ({3000: "2999,2999.0,1.0\x1f"}, r"row 3000 holds whitespace or a leading \+"),
            ({3000: "2999,+2999.0,1.0"}, r"row 3000 holds whitespace or a leading \+"),
            ({3000: "+2999,2999.0,1.0"}, r"row 3000 holds whitespace or a leading \+"),
        ],
    )
    def test_malformed_row_past_first_block_named(self, tmp_path, bad_rows, message):
        # ``message`` says what is wrong with the case; the reader raises one
        # message for every file it rejects, and verify names the line
        lines = _signal_text(4096).splitlines()
        for row, text in bad_rows.items():
            lines[row] = text
        path = tmp_path / "signal_x.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^malformed signal CSV$"):
            sigio.read_signal_csv(path)

    @pytest.mark.parametrize("kind", sorted(sigio.SCHEMAS))
    @pytest.mark.parametrize("text", ["{header}\n", "x,{header}\n1\n", ""])
    def test_header_only_or_wrong_header_rejected(self, tmp_path, kind, text):
        path = tmp_path / "bad.csv"
        path.write_text(text.format(header=sigio.SCHEMAS[kind].header))
        with pytest.raises(ValueError, match="malformed"):
            getattr(sigio, f"read_{kind}_csv")(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace("\n", "\n\n", 1), "row 1 has 1 columns"),
            (lambda text: text + "\n", "row 4097 has 1 columns"),
            (lambda text: text.replace("\n1999,", "\n1999\r,", 1), "carriage return in row 2000"),
            (lambda text: text.replace("\n", "\r\n"), "carriage return in the header"),
            (lambda text: text.removesuffix("\n"), "no final newline"),
            # a last row without its "\n" that is also malformed
            (lambda text: text.removesuffix("\n") + ",0.5", "row 4096 has 4 columns"),
            # as many rows as "\n"s after the header, one of them blank
            (lambda text: text.replace("\n1999,", "\n\n1999,", 1).removesuffix("\n"), "blank row, no final newline"),
        ],
        ids=[
            "blank-first-row",
            "blank-last-row",
            "lone-cr",
            "crlf",
            "no-final-newline",
            "bad-unterminated-row",
            "blank-row-and-no-final-newline",
        ],
    )
    def test_line_structure_checked_on_the_bytes(self, tmp_path, edit, message):
        path = tmp_path / "signal_x.csv"
        path.write_bytes(edit(_signal_text(4096)).encode())
        with pytest.raises(ValueError, match="^malformed signal CSV$"):
            sigio.read_signal_csv(path)

    def test_form_feed_inside_a_row_is_not_a_line_break(self, tmp_path):
        # rows 2500 and 2501 joined by a form feed: one row of five cells
        lines = _signal_text(4096).splitlines()
        lines[2500:2502] = [lines[2500] + "\x0c" + lines[2501]]
        path = tmp_path / "signal_x.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^malformed signal CSV$"):
            sigio.read_signal_csv(path)

    def test_value_only_numpy_rejects_gives_numpy_message(self, tmp_path):
        # float() reads "3_000" as 3000.0; loadtxt does not
        path = tmp_path / "signal_x.csv"
        path.write_text(_signal_text(4096).replace("\n3000,", "\n3_000,", 1))
        with pytest.raises(ValueError, match="^malformed signal CSV$") as caught:
            sigio.read_signal_csv(path)
        assert "'3_000'" in str(caught.value.__cause__)

    def test_long_table_round_trips(self, tmp_path):
        s = _signal(3, n=5000)
        path = tmp_path / "signal_x.csv"
        path.write_text(sigio.signal_csv_text(s))
        cols = sigio.read_signal_csv(path)
        np.testing.assert_array_equal(cols["re"], s.samples.real)
        np.testing.assert_array_equal(cols["index"], np.arange(s.n))
