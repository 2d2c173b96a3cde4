import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomattr.dataio import (
    CsvFormatError,
    TestSet,
    delta_to_raw_units,
    emit_distribution_svg,
    emit_litmus_svg,
    emit_result_json,
    load_csv,
    standardize,
)


class TestLoadCsv:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,y\n0.5,1\n")
        ts = load_csv(p)
        assert ts.dimension == 1
        assert ts.n_test == 1
        assert ts.variable_names == ["x1"]
        assert ts.x[0, 0] == 0.5 and ts.y[0] == 1.0

    def test_shapes(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ts = load_csv(p)
        assert ts.n_test == 3 and ts.dimension == 2

    def test_missing_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,1\n0.7,2\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(p)

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1,2\nfoo,3\n")
        with pytest.raises(CsvFormatError, match="row 3.*'a'"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_located(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"a,b,y\n1,2,3\n4,5,6\n7,8,{cell}\n")
        message = f"non-finite value '{cell}' at row 4, column 'y'"
        with pytest.raises(CsvFormatError, match=message):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(p)

    def test_empty_dataset_no_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n")
        ts = load_csv(p)
        assert ts.n_test == 0


class TestStandardize:
    def test_test_set_estimated(self):
        ts = TestSet(np.array([[2.0], [4.0]]), np.array([0.0, 0.0]), ["a"])
        with pytest.warns(UserWarning, match="test set"):
            out = standardize(ts)
        np.testing.assert_allclose(out.x[:, 0], [-1.0, 1.0])
        np.testing.assert_array_equal(out.standardization.mean, [3.0])
        np.testing.assert_array_equal(out.standardization.std, [1.0])

    def test_y_untouched(self):
        ts = TestSet(np.array([[2.0], [4.0]]), np.array([5.0, 7.0]), ["a"])
        with pytest.warns(UserWarning):
            out = standardize(ts)
        np.testing.assert_array_equal(out.y, ts.y)

    def test_zero_std_names_variable(self):
        ts = TestSet(np.array([[1.0, 1.0], [1.0, 2.0]]), np.zeros(2), ["cst", "ok"])
        with pytest.raises(ValueError, match="cst"):
            standardize(ts)

    def test_delta_back_to_raw_units(self):
        ts = TestSet(np.array([[2.0], [4.0]]), np.zeros(2), ["a"])
        with pytest.warns(UserWarning):
            std = standardize(ts)
        delta = np.array([0.5])
        np.testing.assert_allclose(delta_to_raw_units(delta, std),
                                   delta * std.standardization.std)

    @given(
        # width first, then rows of that width: every draw is usable
        st.integers(2, 4).flatmap(
            lambda width: st.lists(
                st.lists(st.floats(-1e6, 1e6), min_size=width, max_size=width),
                min_size=3,
                max_size=10,
            )
        )
    )
    @settings(max_examples=50)
    def test_round_trip_identity(self, rows):
        x = np.asarray(rows)
        if np.any(x.std(axis=0) <= 0):
            return
        ts = TestSet(x, np.zeros(x.shape[0]), [f"v{i}" for i in range(x.shape[1])])
        with pytest.warns(UserWarning):
            out = standardize(ts)
        back = out.x * out.standardization.std + out.standardization.mean
        # error scale per column: the cancellation floor is set by the
        # column's own magnitude, not the individual entry
        scale = np.maximum.reduce(
            [np.ones(x.shape[1]), np.abs(out.standardization.mean),
             out.standardization.std]
        )
        assert np.max(np.abs(back - ts.x) / scale) < 1e-12


class TestResultJson:
    def test_round_trip_bit_exact(self, tmp_path):
        p = tmp_path / "r.json"
        scores = np.array([0.1 + 0.2, -1.2345678901234567e-7, 3.0])
        emit_result_json({"methods": {"gpa": {"scores": scores}}}, p)
        back = json.loads(p.read_text())
        assert back["methods"]["gpa"]["scores"] == scores.tolist()
        assert back["schema_version"] == 9

    def test_deterministic_bytes(self, tmp_path):
        doc = {
            "config": {"seed": 3, "model": "sinusoidal2d"},
            "methods": {"b": {"scores": [2.0]}, "a": {"scores": [1.0]}},
        }
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_result_json(doc, p1)
        emit_result_json(doc, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_results_valid(self, tmp_path):
        # no section is added: a document holds what the command gave it
        p = tmp_path / "e.json"
        emit_result_json({}, p)
        assert json.loads(p.read_text()) == {"schema_version": 9}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_nothing_written(self, tmp_path, bad):
        p = tmp_path / "r.json"
        with pytest.raises(ValueError):
            emit_result_json({"methods": {"gpa": {"scores": np.array([0.5, bad])}}}, p)
        assert not p.exists()


class TestLitmusSvg:
    def test_conventions(self, tmp_path):
        p = tmp_path / "l.svg"
        emit_litmus_svg({"m": np.array([-1.0, 0.0, 1.0])}, p)
        text = p.read_text()
        assert 'fill="rgb(33,102,172)" fill-opacity="1"' in text
        assert 'fill-opacity="0"' in text
        assert 'fill="rgb(178,24,43)" fill-opacity="1"' in text

    def test_all_zero_row_is_white(self, tmp_path):
        p = tmp_path / "l.svg"
        emit_litmus_svg({"m": np.zeros(4)}, p)
        assert p.read_text().count('fill-opacity="0"') == 4

    def test_row_per_method(self, tmp_path):
        p = tmp_path / "l.svg"
        emit_litmus_svg(
            {"gpa": np.array([1.0, 0.5]), "lime": np.array([-2.0, 1.0])},
            p,
            ["a", "b"],
        )
        text = p.read_text()
        assert text.count("<rect") == 1 + 4  # background + 2x2 cells
        assert ">gpa</text>" in text and ">lime</text>" in text

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_litmus_svg({}, tmp_path / "x.svg")


def _symmetric_grid(reach, n):
    grid = np.linspace(-reach, reach, n)
    return 0.5 * (grid - grid[::-1])


def _flat_table(rows, n=21):
    return _symmetric_grid(1.0, n), np.full((rows, n), 1.0 / n)


class TestDistributionSvg:
    def test_one_curve_and_legend_entry_per_variable(self, tmp_path):
        p = tmp_path / "d.svg"
        emit_distribution_svg(*_flat_table(3), p, np.zeros(3), ["a", "b", "c"])
        text = p.read_text()
        assert text.count("<polyline") == 3
        assert text.count('class="legend"') == 3

    def test_flat_distribution_horizontal_line(self, tmp_path):
        p = tmp_path / "d.svg"
        emit_distribution_svg(*_flat_table(1), p, np.zeros(1))
        text = p.read_text()
        line = text.split('points="')[1].split('"')[0]
        ys = {pt.split(",")[1] for pt in line.split()}
        assert len(ys) == 1

    def test_spike_renders(self, tmp_path):
        probs = np.zeros((1, 21))
        probs[0, 10] = 1.0
        p = tmp_path / "d.svg"
        emit_distribution_svg(_symmetric_grid(1.0, 21), probs, p, np.zeros(1))
        assert "<polyline" in p.read_text()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            emit_distribution_svg(_symmetric_grid(1.0, 21), np.zeros((0, 21)),
                                  tmp_path / "x.svg", np.zeros(0))
        assert not (tmp_path / "x.svg").exists()

    def test_fixed_set_renders_known_bytes(self, tmp_path):
        # the whole document, pinned: the coordinates are computed over the
        # grid at once and must format exactly as the point-by-point version
        grid = _symmetric_grid(0.7, 7)
        p1 = np.array([1.0, 3.0, 7.0, 11.0, 5.0, 2.0, 0.5])
        p2 = np.array([0.2, 0.9, 2.0, 1.3, 3.1, 1.7, 0.8])
        probs = np.array([p1 / p1.sum(), p2 / p2.sum()])
        p = tmp_path / "d.svg"
        emit_distribution_svg(grid, probs, p, [0.25, -0.7], ["a", "c"])
        assert p.read_bytes() == _FIXED_SVG.encode()


_FIXED_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="560" height="320" font-family="sans-serif" font-size="11">
<rect width="560" height="320" fill="white"/>
<rect x="56" y="20" width="364" height="260" fill="none" stroke="#444"/>
<text x="56" y="310">-0.7</text>
<text x="420" y="310" text-anchor="end">0.7</text>
<text x="238.0" y="310" text-anchor="middle">perturbation</text>
<polyline points="56.00,256.36 116.67,209.09 177.33,114.55 238.00,20.00 298.67,161.82 359.33,232.73 420.00,268.18" fill="none" stroke="#1b6ca8" stroke-width="1.5"/>
<circle cx="298.67" cy="161.82" r="3.5" fill="#1b6ca8"/>
<rect x="430" y="25" width="12" height="12" fill="#1b6ca8"/>
<text x="447" y="34" class="legend">a</text>
<polyline points="56.00,266.05 116.67,217.25 177.33,140.55 238.00,189.35 298.67,63.85 359.33,161.46 420.00,224.22" fill="none" stroke="#c0392b" stroke-width="1.5"/>
<circle cx="56.00" cy="266.05" r="3.5" fill="#c0392b"/>
<rect x="430" y="41" width="12" height="12" fill="#c0392b"/>
<text x="447" y="50" class="legend">c</text>
</svg>
"""
