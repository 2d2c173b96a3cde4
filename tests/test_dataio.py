import json
from xml.etree import ElementTree

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
        assert back["schema_version"] == 11

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
        assert json.loads(p.read_text()) == {"schema_version": 11}

    def test_one_line_from_the_default_encoder(self, tmp_path):
        # no indentation, so CPython's C encoder writes the document: one
        # line, then the newline
        doc = {"config": {"seed": 3, "standardize": True},
               "methods": {"gpa": {"scores": np.array([0.1 + 0.2, -2.5e-7])}},
               "diagnostics": {"model_queries": np.int64(87920), "converged": np.bool_(True)}}
        p = tmp_path / "r.json"
        emit_result_json(doc, p)
        text = json.dumps({"schema_version": 11, **doc}, sort_keys=True,
                          allow_nan=False, default=lambda obj: obj.tolist())
        assert p.read_text(encoding="utf-8") == text + "\n"
        assert p.read_bytes().count(b"\n") == 1

    def test_numpy_values_reload_as_the_indented_encoder_gave_them(self, tmp_path):
        # the format of version 10 (indent=2, the pure-Python encoder)
        # parses to the same values and types as version 11
        doc = {"f64": np.float64(0.1) * 3, "f32": np.array([0.1, -1.5e-8, 3.0], np.float32),
               "i64": np.int64(-2**40), "flag": np.bool_(False)}
        p = tmp_path / "r.json"
        emit_result_json(doc, p)
        indented = json.dumps({"schema_version": 11, **doc}, sort_keys=True, indent=2,
                              allow_nan=False, default=lambda obj: obj.tolist())
        back, before = json.loads(p.read_text()), json.loads(indented)
        assert repr(back) == repr(before)  # repr tells 1 from 1.0 and from True
        assert back["f64"] == 0.30000000000000004
        assert back["f32"] == [float(v) for v in doc["f32"]]
        assert back["i64"] == -2**40 and type(back["i64"]) is int
        assert back["flag"] is False

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_refused_nothing_written(self, tmp_path, bad):
        # a NaN failed peak > 0 and was drawn as a white, zero cell
        p = tmp_path / "l.svg"
        with pytest.raises(ValueError, match=f"method 'lime' scores 'b' {bad}"):
            emit_litmus_svg({"gpa": np.array([1.0, 0.5]), "lime": np.array([0.2, bad])},
                            p, ["a", "b"])
        assert not p.exists()

    def test_method_names_escaped_as_element_text(self, tmp_path):
        p = tmp_path / "l.svg"
        emit_litmus_svg({"a<b&c": np.array([1.0, -1.0])}, p)
        svg = ElementTree.parse(p).getroot()
        labels = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert labels == ["x1", "x2", "a<b&c"]


@pytest.mark.parametrize("emit", ["litmus", "distribution"])
def test_variable_names_escaped_as_element_text(tmp_path, emit):
    # &, < and > become entities and the quotes stay, as XML element text
    # needs
    names = ["a&b", "<x\"y'>"]
    p = tmp_path / "plot.svg"
    if emit == "litmus":
        emit_litmus_svg({"m": np.array([1.0, -1.0])}, p, names)
    else:
        emit_distribution_svg(*_flat_table(2), p, np.zeros(2), names)
    text = p.read_text()
    assert ">a&amp;b</text>" in text and ">&lt;x\"y'&gt;</text>" in text
    svg = ElementTree.parse(p).getroot()
    labels = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert set(names) <= set(labels)


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

    @pytest.mark.parametrize("rows", [1, 17, 18, 30])
    def test_every_legend_entry_inside_the_image(self, tmp_path, rows):
        # legend row k sits at y = 34 + 16 k: on a fixed 320-pixel image the
        # benchmark's 30 variables would reach y = 498
        p = tmp_path / "d.svg"
        emit_distribution_svg(*_flat_table(rows), p, np.zeros(rows))
        svg = ElementTree.parse(p).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        height = float(svg.get("height"))
        background, frame = svg.findall(f"{ns}rect")[:2]
        assert float(background.get("height")) == height
        assert (height == 320) == (rows < 18)
        # the plot keeps its place when the image grows
        assert (frame.get("y"), frame.get("height")) == ("20", "260")
        labels = svg.findall(f"{ns}text[@class='legend']")
        boxes = [r for r in svg.findall(f"{ns}rect") if r.get("width") == "12"]
        assert len(labels) == len(boxes) == rows
        # a label's descenders reach about a third of the 11-pixel font below
        assert all(float(t.get("y")) + 4 <= height for t in labels)
        assert all(float(r.get("y")) + float(r.get("height")) <= height for r in boxes)

    @pytest.mark.parametrize("rows", [10, 11, 30])
    def test_every_variable_has_its_own_colour(self, tmp_path, rows):
        # a palette reused modulo its length gave x1, x11 and x21 one colour
        p = tmp_path / "d.svg"
        emit_distribution_svg(*_flat_table(rows), p, np.zeros(rows))
        svg = ElementTree.parse(p).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        boxes = [r.get("fill") for r in svg.findall(f"{ns}rect") if r.get("width") == "12"]
        curves = [c.get("stroke") for c in svg.findall(f"{ns}polyline")]
        assert boxes == curves and len(set(boxes)) == rows

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

    @pytest.mark.parametrize("grid_points, map_coordinates", [(20, 2), (21, 3), (21, 1)],
                             ids=["short grid", "long map point", "short map point"])
    def test_mismatched_shapes_rejected(self, tmp_path, grid_points, map_coordinates):
        # a table needs one row over the whole grid and one MAP coordinate
        # per row
        with pytest.raises(ValueError, match="grid points"):
            emit_distribution_svg(_symmetric_grid(1.0, grid_points), _flat_table(2)[1],
                                  tmp_path / "x.svg", np.zeros(map_coordinates))
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("grid", [
        np.zeros(5), [0.5, 0.25, 0.0, 0.25, 0.5], [0.0, np.nan, 0.5, 0.75, 1.0],
        [0.0, 0.25, 0.5, 0.75, np.inf],
    ], ids=["zeros", "equal ends", "nan inside", "infinite end"])
    def test_degenerate_grid_refused_nothing_written(self, tmp_path, grid):
        # equal ends divided 0 by 0 in every x coordinate
        p = tmp_path / "d.svg"
        with pytest.raises(ValueError, match="the grid needs two finite ends apart"):
            emit_distribution_svg(grid, np.full((1, 5), 0.2), p, np.zeros(1))
        assert not p.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probability_refused_nothing_written(self, tmp_path, bad):
        probs = np.full((2, 5), 0.2)
        probs[1, 3] = bad
        p = tmp_path / "d.svg"
        with pytest.raises(ValueError, match=f"variable 'b' at grid point 3 is {bad}"):
            emit_distribution_svg(np.linspace(-1.0, 1.0, 5), probs, p, np.zeros(2), ["a", "b"])
        assert not p.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_map_coordinate_refused_nothing_written(self, tmp_path, bad):
        # a NaN was marked at the grid's first point, where argmin over NaN
        # distances lands
        p = tmp_path / "d.svg"
        with pytest.raises(ValueError, match=f"MAP coordinate of variable 'b' is {bad}"):
            emit_distribution_svg(np.linspace(-1.0, 1.0, 5), np.full((2, 5), 0.2), p,
                                  [0.5, bad], ["a", "b"])
        assert not p.exists()

    @pytest.mark.parametrize("at, index", [(0.375, 1), (0.625, 2), (-5.0, 0), (5.0, 4)],
                             ids=["halfway low", "halfway high", "below", "above"])
    def test_marker_on_the_nearest_grid_point(self, tmp_path, at, index):
        # halfway between two grid points the lower one is marked, and
        # outside the grid the edge point; the distances here are exact
        grid = np.linspace(0.0, 1.0, 5)
        probs = np.array([[0.1, 0.2, 0.4, 0.2, 0.1]])
        p = tmp_path / "d.svg"
        emit_distribution_svg(grid, probs, p, [at])
        svg = ElementTree.parse(p).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        curve = svg.find(f"{ns}polyline").get("points").split()
        marker = svg.find(f"{ns}circle")
        assert f'{marker.get("cx")},{marker.get("cy")}' == curve[index]

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
