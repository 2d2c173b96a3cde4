"""Dataset ingestion, standardization, result serialization, and SVG plots.

Standardization uses the test set's own statistics.  The SVG plots escape
the variable names of the CSV header.

File formats:

* CSV: UTF-8, comma separated, one header row naming the columns, last column
  is the target.  No thousands separators.  Every cell is a finite number: a
  ``nan`` or ``inf`` cell is refused with its row and column.
* JSON documents, format version 11 (``schema_version``), one per command:
  ``result.json`` (explain: ``config, anomaly_scores, methods: {name:
  {scores, scores_raw_units?}}, diagnostics``), ``distributions.json``
  (dist: ``config, methods: {gpa: {scores, distribution: {grid, probs}}},
  diagnostics``, where ``probs`` holds one row over ``grid`` per variable),
  ``compare.json`` (``config, reference, scores, reports, diagnostics``) and
  ``detect.json`` (``config, noise_variance, scores, order, indices``).
  The diagnostics of explain, dist and compare carry the model's query and
  call totals over the command, ``model_queries`` and ``model_calls``, and
  the records of the gpa and lc runs, ``gpa`` and ``lc``, with the same
  keys, each run's own ``query_count`` and ``call_count`` among them.
  explain and compare run their methods in lockstep, so ``model_calls``
  counts one call per lockstep step, each carrying the rows of every
  method still running, and a run's ``call_count`` counts the steps it took
  part in: the calls of a compare are those of its method with the most
  steps, not the sum over its methods.
  ``config`` echoes the command's flags (see :mod:`anomattr.cli`).  Bytes
  are deterministic for identical inputs (sorted keys, shortest round-trip
  float formatting), and the documents are strict JSON: a NaN or infinity
  anywhere is refused and nothing is written.  Version 11 writes each
  document as one line of JSON without indentation, which CPython encodes
  in C; its parsed content is that of version 10, which was indented.
  ``python -m json.tool result.json`` pretty-prints one.
"""

from __future__ import annotations

import colorsys
import csv
import json
import warnings
from dataclasses import dataclass
from html import escape
from pathlib import Path

import numpy as np

__all__ = [
    "CsvFormatError",
    "Standardization",
    "TestSet",
    "load_csv",
    "standardize",
    "delta_to_raw_units",
    "emit_result_json",
    "emit_litmus_svg",
    "emit_distribution_svg",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 11


class CsvFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Standardization:
    """Per-variable (mean, std) estimated from the test set."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class TestSet:
    """Observed samples (x^t, y^t) to detect and explain.

    ``x`` has shape (n_test, dimension); ``standardization`` is None for raw
    data and records the applied statistics otherwise.
    """

    __test__ = False  # not a pytest class despite the name

    x: np.ndarray
    y: np.ndarray
    variable_names: list[str]
    standardization: Standardization | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 2:
            raise ValueError("x must be a 2-d array (n_test, dimension)")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("y must have one entry per sample")
        if len(self.variable_names) != self.x.shape[1]:
            raise ValueError("one variable name per column required")

    @property
    def n_test(self) -> int:
        return self.x.shape[0]

    @property
    def dimension(self) -> int:
        return self.x.shape[1]

    def select(self, indices) -> "TestSet":
        indices = list(indices)
        return TestSet(
            self.x[indices], self.y[indices], self.variable_names, self.standardization
        )


def load_csv(path) -> TestSet:
    """Parse a dataset CSV: header row, feature columns, last column target.
    A cell that is not a finite number raises :class:`CsvFormatError`."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2:
        raise CsvFormatError(f"{path}: need at least one feature column and a target")

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
        except ValueError:
            return False
        return True

    if all(_numeric(c) for c in header):
        raise CsvFormatError(f"{path}: missing header row (first row is numeric)")

    width = len(header)
    data = np.empty((len(rows) - 1, width))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: row {i} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                data[i - 2, j] = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: non-numeric value {cell!r} at row {i}, column "
                    f"{header[j]!r}"
                ) from None
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise CsvFormatError(
            f"{path}: non-finite value {rows[i + 1][j]!r} at row {i + 2}, column "
            f"{header[j]!r}"
        )
    return TestSet(data[:, :-1], data[:, -1], header[:-1])


def standardize(ts: TestSet) -> TestSet:
    """Shift/scale the x columns to zero mean, unit variance; y is untouched.

    The statistics are estimated from the test set itself (population std),
    which is the only option without training data; once they pass their
    checks, a warning says so.  The inverse transform for perturbations is
    :func:`delta_to_raw_units`.
    """
    mean = ts.x.mean(axis=0)
    std = ts.x.std(axis=0)
    bad = np.nonzero(std <= 0)[0]
    if bad.size:
        raise ValueError(
            f"zero standard deviation for variable {ts.variable_names[bad[0]]!r}"
        )
    warnings.warn(
        "standardization statistics estimated from the test set itself",
        stacklevel=2,
    )
    return TestSet(
        (ts.x - mean) / std,
        ts.y.copy(),
        ts.variable_names,
        Standardization(mean, std),
    )


def delta_to_raw_units(delta, ts: TestSet) -> np.ndarray:
    """Map a perturbation from standardized units back to raw input units."""
    delta = np.asarray(delta, dtype=float)
    if ts.standardization is None:
        return delta.copy()
    return delta * ts.standardization.std


def emit_result_json(doc: dict, path) -> None:
    """Write ``doc`` with ``schema_version`` added, in deterministic bytes.

    numpy arrays and scalars become lists and numbers.  Floats are written in
    shortest round-trip form, so a reload reproduces the scores bit-exactly.
    A NaN or infinity anywhere in ``doc`` raises ValueError before anything
    is written.
    """
    # ``default`` gets the numpy arrays and non-float numpy scalars; without
    # ``indent``, ``json`` encodes in C
    text = json.dumps({"schema_version": SCHEMA_VERSION, **doc}, sort_keys=True,
                      allow_nan=False, default=lambda obj: obj.tolist())
    Path(path).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

_NEG_COLOR = "rgb(33,102,172)"   # blue
_POS_COLOR = "rgb(178,24,43)"    # red
_PALETTE = [
    "#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910",
    "#17a589", "#884ea0", "#2e4053", "#a04000", "#5d6d7e",
]


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def emit_litmus_svg(results: dict[str, np.ndarray], path, variable_names=None) -> None:
    """Render a signed color-matrix plot: one row per method, one column per
    variable.  Each row is normalized by its max absolute score (0/0 -> 0);
    negative scores are blue, positive red, cell opacity tracks magnitude, so
    a zero score renders white.
    """
    if not results:
        raise ValueError("need at least one method")
    methods = list(results.keys())
    ncol = len(np.atleast_1d(next(iter(results.values()))))
    if ncol < 1:
        raise ValueError("need at least one variable")
    if variable_names is None:
        variable_names = [f"x{i + 1}" for i in range(ncol)]

    cell, label_w, top = 34, 90, 46
    width = label_w + ncol * cell + 10
    height = top + len(methods) * cell + 10
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j, name in enumerate(variable_names):
        out.append(
            f'<text x="{label_w + j * cell + cell / 2:.1f}" y="{top - 8}" '
            f'text-anchor="middle">{escape(name, quote=False)}</text>'
        )
    for i, method in enumerate(methods):
        scores = np.atleast_1d(np.asarray(results[method], dtype=float))
        if scores.shape[0] != ncol:
            raise ValueError(f"method {method!r} has {scores.shape[0]} scores, expected {ncol}")
        peak = np.max(np.abs(scores))
        normalized = scores / peak if peak > 0 else np.zeros_like(scores)
        y = top + i * cell
        out.append(
            f'<text x="{label_w - 6}" y="{y + cell / 2 + 4:.1f}" '
            f'text-anchor="end">{escape(method, quote=False)}</text>'
        )
        for j, v in enumerate(normalized):
            color = _NEG_COLOR if v < 0 else _POS_COLOR
            out.append(
                f'<rect x="{label_w + j * cell}" y="{y}" width="{cell}" '
                f'height="{cell}" fill="{color}" fill-opacity="{_fmt(abs(v))}" '
                f'stroke="#888" stroke-width="0.5"/>'
            )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def _colors(count: int) -> list[str]:
    """The palette while it lasts, else ``count`` evenly spaced hues."""
    hues = (colorsys.hls_to_rgb(k / count, 0.4, 0.65) for k in range(count))
    return _PALETTE if count <= len(_PALETTE) else [
        "#%02x%02x%02x" % tuple(round(255 * c) for c in rgb) for rgb in hues]


def emit_distribution_svg(grid, probs, path, map_point, variable_names=None) -> None:
    """Render the posterior table of :func:`~anomattr.gpa.score_distributions`,
    row k of ``probs`` over ``grid`` for variable k, as curves on shared
    axes, with a marker at each variable's MAP point.  The legend lists the
    variables one below the other to the right of the plot, and the image
    grows below the plot where it needs the room (from 18 variables)."""
    grid, probs = np.asarray(grid, dtype=float), np.asarray(probs, dtype=float)
    if not len(probs):
        raise ValueError("need at least one distribution")
    map_point = np.asarray(map_point, dtype=float)
    if probs.shape[1:] != grid.shape or map_point.shape != probs.shape[:1]:
        raise ValueError(f"need one row over the {grid.size} grid points and one MAP "
                         f"coordinate per row, got a table of shape {probs.shape} and "
                         f"{map_point.size} MAP coordinates")
    if variable_names is None:
        variable_names = [f"x{k + 1}" for k in range(len(probs))]
    gmin, gmax = float(grid[0]), float(grid[-1])
    pmax = float(np.max(probs))
    pmax = pmax if pmax > 0 else 1.0

    width, height, ml, mr, mt, mb = 560, 320, 56, 140, 20, 40
    pw, ph = width - ml - mr, height - mt - mb
    # legend row k has its baseline at mt + 14 + 16 k; the image reaches a
    # row below the last
    canvas = max(height, mt + 14 + 16 * len(probs))

    def sx(v):
        return ml + (v - gmin) / (gmax - gmin) * pw

    def sy(p):
        return mt + (1.0 - p / pmax) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{canvas}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{canvas}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
        f'<text x="{ml}" y="{height - 10}">{_fmt(gmin)}</text>',
        f'<text x="{ml + pw}" y="{height - 10}" text-anchor="end">{_fmt(gmax)}</text>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle">perturbation</text>',
    ]
    # every curve shares its x coordinates: one template, filled per curve
    xs = [f"{g:.2f}" for g in sx(grid).tolist()]
    points = " ".join(f"{g},%.2f" for g in xs)
    # the marker's grid point: the first of the nearest, the edge outside
    nearest = np.abs(grid - map_point[:, None]).argmin(axis=1).tolist()
    for k, (ys, color) in enumerate(zip(sy(probs).tolist(), _colors(len(probs)))):
        out.append(
            f'<polyline points="{points % tuple(ys)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<circle cx="{xs[nearest[k]]}" cy="{ys[nearest[k]]:.2f}" r="3.5" fill="{color}"/>'
        )
        ly = mt + 14 + 16 * k
        out.append(
            f'<rect x="{width - mr + 10}" y="{ly - 9}" width="12" height="12" fill="{color}"/>'
        )
        out.append(
            f'<text x="{width - mr + 27}" y="{ly}" class="legend">'
            f'{escape(variable_names[k], quote=False)}</text>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
