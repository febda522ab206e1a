"""SVG polyline writer: well-formed output, scaling, log scale."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dptco.errors import DptcoError
from dptco.svgplot import _ticks, write_svg

NS = "{http://www.w3.org/2000/svg}"


def test_output_is_well_formed_xml(tmp_path):
    p = tmp_path / "a.svg"
    x = np.linspace(0.0, 1.0, 20)
    write_svg(str(p), [("one", x, x ** 2), ("two", x, 1.0 - x)],
              title="demo", ylabel="y")
    root = ET.parse(p).getroot()
    assert root.tag == f"{NS}svg"
    polys = root.findall(f"{NS}polyline")
    assert len(polys) == 2
    labels = [t.text for t in root.findall(f"{NS}text")]
    assert "one" in labels and "two" in labels and "demo" in labels


def test_points_stay_inside_canvas(tmp_path):
    p = tmp_path / "b.svg"
    x = np.linspace(0.0, 5.0, 50)
    write_svg(str(p), [("s", x, np.sin(x) * 1e6)], title="b", ylabel="y")
    root = ET.parse(p).getroot()
    for poly in root.findall(f"{NS}polyline"):
        coords = [float(v) for pair in poly.get("points").split()
                  for v in pair.split(",")]
        assert all(0.0 <= c <= 720.0 for c in coords[0::2])
        assert all(0.0 <= c <= 460.0 for c in coords[1::2])


def test_logy_handles_zeros(tmp_path):
    p = tmp_path / "c.svg"
    y = np.array([1.0, 1e-5, 0.0, 1e-12])
    write_svg(str(p), [("z", np.arange(4.0), y)], title="c", ylabel="y")
    root = ET.parse(p).getroot()
    pts = root.find(f"{NS}polyline").get("points").split()
    assert len(pts) == 4  # zero sample clipped to the floor, not dropped


def test_nonfinite_points_dropped(tmp_path):
    p = tmp_path / "d.svg"
    y = np.array([1.0, np.nan, 3.0, np.inf, 5.0])
    write_svg(str(p), [("n", np.arange(5.0), y)], title="d", ylabel="y")
    root = ET.parse(p).getroot()
    pts = root.find(f"{NS}polyline").get("points").split()
    assert len(pts) == 3


def test_empty_series_rejected(tmp_path):
    with pytest.raises(DptcoError, match="no series to plot"):
        write_svg(str(tmp_path / "e.svg"), [], title="e", ylabel="y")


def test_ticks_cover_range():
    ticks = _ticks(0.0, 1.0)
    assert ticks[0] >= 0.0 and ticks[-1] <= 1.0 + 1e-12
    assert all(b > a for a, b in zip(ticks, ticks[1:]))
    assert 3 <= len(ticks) <= 8


def test_text_is_escaped(tmp_path):
    # &, < and > in the title, a label or the y label once left the file
    # not well-formed; each reads back unchanged
    p = tmp_path / "f.svg"
    x = np.linspace(0.0, 1.0, 5)
    write_svg(str(p), [("a < b & c", x, x), ("d > e", x, 1.0 + x)],
              title="ring <T=1> & co", ylabel="|y & z|")
    texts = [t.text for t in ET.parse(p).getroot().findall(f"{NS}text")]
    for s in ("ring <T=1> & co", "a < b & c", "d > e", "log10 |y & z|"):
        assert s in texts
