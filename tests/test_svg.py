import math
import re
import xml.etree.ElementTree as ET

import pytest

import vizscene as vz
from vizscene.encoding import Scale
from vizscene.errors import SceneError
from vizscene.scene import AuxiliaryElement
from vizscene.svgrender import fmt, render_mark

from conftest import build_diverging_bar

SVG_NS = "{http://www.w3.org/2000/svg}"

ALLOWED_TAGS = {"svg", "g", "rect", "circle", "line", "path", "text", "image"}

REQUIRED_ATTRS = {
    "rect": {"x", "y", "width", "height"},
    "circle": {"cx", "cy", "r"},
    "line": {"x1", "y1", "x2", "y2"},
    "path": {"d"},
}


def _view_matrix(view):
    """The 2x3 affine matrix (a, c, e, b, d, f) the root transform should apply:
    translate(focus) . rotate(rotation) . scale(zoom) . translate(-focus)."""
    fx, fy = view.focus
    th = math.radians(view.rotation)
    z = view.zoom
    a = z * math.cos(th)
    b = z * math.sin(th)
    return (a, -b, fx - a * fx + b * fy,
            b, a, fy - b * fx - a * fy)


def _transform_matrix(svg: str):
    """The 2x3 matrix, laid out as _view_matrix's, of the root group's
    ``transform`` attribute in rendered SVG (identity when it has none)."""
    root_group = ET.fromstring(svg).find(f"{SVG_NS}g")
    m = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for op, args in re.findall(r"(\w+)\(([^)]*)\)", root_group.get("transform", "")):
        v = [float(x) for x in args.split(",")]
        if op == "translate":
            step = [[1, 0, v[0]], [0, 1, v[1]], [0, 0, 1]]
        elif op == "scale":
            step = [[v[0], 0, 0], [0, v[-1], 0], [0, 0, 1]]
        else:
            assert op == "rotate" and len(v) == 1
            c, sn = math.cos(math.radians(v[0])), math.sin(math.radians(v[0]))
            step = [[c, -sn, 0], [sn, c, 0], [0, 0, 1]]
        m = [[sum(m[i][k] * step[k][j] for k in range(3)) for j in range(3)]
             for i in range(3)]
    return (*m[0], *m[1])


def validate_svg(svg: str):
    """Structural check: well-formed XML, known tags, required geometry."""
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("viewBox")
    for node in root.iter():
        tag = node.tag.removeprefix(SVG_NS)
        assert tag in ALLOWED_TAGS, tag
        for attr in REQUIRED_ATTRS.get(tag, ()):
            assert node.get(attr) is not None, (tag, attr)
    return root


class TestNumberFormat:
    def test_four_decimals_trimmed(self):
        assert fmt(3.14159265) == "3.1416"
        assert fmt(30.0) == "30"
        assert fmt(0.5) == "0.5"
        assert fmt(-0.00001) == "0"

    def test_strings_pass_through(self):
        assert fmt("abc") == "abc"


class TestRenderMark:
    def test_rect_exact_fragment(self):
        s = vz.create_scene()
        rect = s.create_mark("rectangle", {"x": 0, "y": 0, "width": 30,
                                           "height": 80, "fill": "#888"})
        assert render_mark(rect) == \
            '<rect fill="#888" height="80" width="30" x="0" y="0"/>'

    def test_circle_fragment(self):
        s = vz.create_scene()
        circle = s.create_mark("circle", {"x": 5, "y": 6, "radius": 15})
        assert render_mark(circle) == '<circle cx="5" cy="6" fill="#888" r="15"/>'

    def test_pie_arc_endpoint_trig_oracle(self):
        s = vz.create_scene()
        pie = s.create_mark("pie", {"x": 0, "y": 0, "radius": 10,
                                    "start_angle": 0, "angle": 120})
        d = render_mark(pie)
        m = re.search(r"A10,10 0 0 1 ([-0-9.]+),([-0-9.]+) Z", d)
        assert m, d
        x, y = float(m.group(1)), float(m.group(2))
        want = (10 * math.sin(math.radians(120)), -10 * math.cos(math.radians(120)))
        assert (x, y) == pytest.approx(want, abs=1e-4)

    def test_polyline_vertex_order(self, scene):
        line = scene.create_mark("line", {"x2": 100})
        out = vz.densify(scene, line, "survey", "age")
        d = render_mark(out)
        coords = re.findall(r"[ML]([-0-9.]+),", d)
        assert len(coords) == 4
        assert [float(c) for c in coords] == sorted(float(c) for c in coords)

    def test_text_escaped(self):
        s = vz.create_scene()
        t = s.create_mark("text", {"text": "a<b&c"})
        assert "a&lt;b&amp;c" in render_mark(t)

    def test_unresolved_channel_errors(self):
        s = vz.create_scene()
        rect = s.create_mark("rectangle")
        rect.channels["width"] = None
        with pytest.raises(SceneError, match="width"):
            render_mark(rect)


class TestRenderScene:
    def test_empty_scene(self):
        svg = vz.render(vz.create_scene(), 400, 300)
        root = validate_svg(svg)
        assert root.get("width") == "400"
        assert root.get("height") == "300"
        groups = [n for n in root.iter(f"{SVG_NS}g")]
        assert len(groups) == 1  # only the root group

    def test_fig_structure_counts(self):
        s, _ = build_diverging_bar()
        svg = vz.render(s)
        validate_svg(svg)
        assert svg.count("<rect") == 16
        assert svg.count("<text") == 16
        fills = set(re.findall(r'<rect fill="(#\w+)"', svg))
        assert len(fills) == 4

    def test_purity_byte_identical(self):
        s, _ = build_diverging_bar()
        assert vz.render(s) == vz.render(s)

    def test_identity_view_no_transform(self):
        s, _ = build_diverging_bar()
        svg_identity = vz.render(s)
        assert "transform" not in svg_identity.splitlines()[2]

    def test_rotation_matches_matrix_oracle(self):
        s, _ = build_diverging_bar()
        plain = vz.render(s)
        s.set_view("rotation", 90)
        rotated = vz.render(s)
        assert 'transform="rotate(90)"' in rotated
        assert rotated.replace('<g transform="rotate(90)">', "<g>") == plain
        assert _transform_matrix(rotated) == pytest.approx(_view_matrix(s.view), abs=1e-12)
        # focus, rotation and zoom together compose to the oracle's matrix
        s.set_view("focus", (10, 20))
        s.set_view("zoom", 2)
        s.set_view("rotation", 30)
        assert _transform_matrix(vz.render(s)) == pytest.approx(_view_matrix(s.view),
                                                                abs=1e-3)

    def test_zoom_and_focus_transform(self):
        s, _ = build_diverging_bar()
        s.set_view("zoom", 2)
        s.set_view("focus", (10, 20))
        svg = vz.render(s)
        assert 'transform="translate(10,20) scale(2) translate(-10,-20)"' in svg

    def test_groups_nest(self):
        s, parts = build_diverging_bar()
        root = validate_svg(vz.render(s))
        # outer collection group contains four row groups
        outer = root.find(f"{SVG_NS}g").find(f"{SVG_NS}g")
        inner_groups = outer.findall(f"{SVG_NS}g")
        assert len(inner_groups) == 4
        assert all(len(g.findall(f"{SVG_NS}rect")) == 4 for g in inner_groups)

    def test_geometry_matches_channels(self):
        s, parts = build_diverging_bar()
        root = validate_svg(vz.render(s))
        leaf = s.elements[s.elements[parts["rows"].members[0]].members[0]]
        rects = root.iter(f"{SVG_NS}rect")
        widths = sorted(float(r.get("width")) for r in rects)
        expected = sorted(round(e.channels["width"], 4)
                          for e in s.elements.values()
                          if e.kind == "mark" and e.type == "rectangle")
        assert widths == pytest.approx(expected, abs=1e-4)


class TestTicks:
    def test_nice_ticks_0_100(self):
        assert vz.nice_ticks(0, 100) == [0, 20, 40, 60, 80, 100]

    def test_tick_count_window(self):
        import random
        rng = random.Random(3)
        out_of_window = 0
        for _ in range(200):
            lo = rng.uniform(-1000, 1000)
            hi = lo + rng.uniform(0.1, 5000)
            ticks = vz.nice_ticks(lo, hi)
            # steps are always round; the count window can only be missed when
            # the 5->2 mantissa jump skips it, which stays a rare near-miss
            if not 4 <= len(ticks) <= 8:
                out_of_window += 1
                assert 3 <= len(ticks) <= 10
            steps = {round(b - a, 9) for a, b in zip(ticks, ticks[1:])}
            assert len(steps) == 1
            step = steps.pop()
            mantissa = step / (10 ** math.floor(math.log10(step)))
            assert round(mantissa, 6) in (1, 2, 5)
            assert lo - 1e-9 <= ticks[0] and ticks[-1] <= hi + 1e-9
        assert out_of_window <= 20

    def test_degenerate_domain(self):
        assert vz.nice_ticks(5, 5) == [5]


class TestAxisLegend:
    def test_axis_ticks_under_rule(self):
        s = vz.create_scene()
        scale = Scale("scale-ax", "linear", [0, 100], [0, 200])
        s.scales[scale.id] = scale
        aux = s.add_axis("x", scale.id, "bottom")
        frag = vz.render_axis(aux, scale, (0, 0, 200, 100))
        labels = re.findall(r">([-0-9.]+)</text>", frag)
        assert [float(l) for l in labels] == [0, 20, 40, 60, 80, 100]

    def test_band_axis_categories_in_order(self):
        s = vz.create_scene()
        scale = Scale("scale-b", "band", ["w", "x", "y", "z"], [0, 100])
        s.scales[scale.id] = scale
        aux = s.add_axis("x", scale.id, "bottom")
        frag = vz.render_axis(aux, scale, (0, 0, 100, 100))
        assert re.findall(r">(\w+)</text>", frag) == ["w", "x", "y", "z"]

    def test_legend_swatches_match_encoded_fills(self):
        s, parts = build_diverging_bar()
        scale = s.scales[parts["enc_fill"].scale]
        aux = s.add_legend("fill", scale.id, "right")
        frag = vz.render_legend(aux, scale, (0, 0, 100, 100))
        swatches = re.findall(r'<rect fill="(#\w+)"', frag)
        assert len(swatches) == 4
        leaf_fills = {e.channels["fill"] for e in s.elements.values()
                      if e.kind == "mark" and e.type == "rectangle"}
        assert set(swatches) == leaf_fills

    def test_axis_renders_into_scene(self):
        s, parts = build_diverging_bar()
        s.add_axis("x", parts["enc_width"].scale, "bottom")
        s.add_legend("fill", parts["enc_fill"].scale, "right")
        validate_svg(vz.render(s))

    def test_vertical_axis_placement(self):
        s = vz.create_scene()
        scale = Scale("scale-y", "linear", [0, 50], [0, 100])
        s.scales[scale.id] = scale
        aux = s.add_axis("y", scale.id, "left")
        frag = vz.render_axis(aux, scale, (0, 0, 200, 100))
        assert 'text-anchor="end"' in frag


class TestZOrder:
    def test_marks_emitted_in_z_order(self):
        s = vz.create_scene()
        a = s.create_mark("rectangle", {"fill": "#aaa"})
        b = s.create_mark("rectangle", {"fill": "#bbb"})
        svg_doc_order = vz.render(s)
        assert svg_doc_order.index("#aaa") < svg_doc_order.index("#bbb")
        vz.set_z_order(s, [a.id, b.id], [2, 1])
        svg_z = vz.render(s)
        assert svg_z.index("#bbb") < svg_z.index("#aaa")


class TestRenderOptions:
    def test_background_rect(self):
        s = vz.create_scene()
        svg = vz.render(s, 100, 80, background="#fafafa")
        assert '<rect fill="#fafafa" height="80" width="100" x="0" y="0"/>' in svg

    def test_field_of_view_controls_viewbox(self):
        s = vz.create_scene()
        s.set_view("field_of_view", (320, 200))
        root = validate_svg(vz.render(s, 640, 400))
        assert root.get("viewBox") == "0 0 320 200"
        assert root.get("width") == "640"

    def test_gridlines_and_annotation(self):
        s, parts = build_diverging_bar()
        s.add_gridlines(parts["enc_width"].scale, "vertical")
        s.add_annotation("peak opinion", 150, -12, {"fill": "#222"})
        svg = vz.render(s)
        validate_svg(svg)
        assert 'stroke="#ddd"' in svg
        assert "peak opinion" in svg


class TestAllMarkTypes:
    def test_every_type_renders_with_defaults(self):
        from vizscene.elements import MARK_TYPES
        s = vz.create_scene()
        for t in MARK_TYPES:
            s.create_mark(t)
        validate_svg(vz.render(s))

    def test_image_fragment(self):
        s = vz.create_scene()
        img = s.create_mark("image", {"x": 1, "y": 2, "width": 10, "height": 20,
                                      "href": "photo.png"})
        frag = render_mark(img)
        assert frag == '<image height="20" href="photo.png" width="10" x="1" y="2"/>'

    def test_polygon_with_explicit_vertices(self):
        s = vz.create_scene()
        tri = s.create_mark("polygon", {"fill": "#222",
                                        "vertices": [[0, 0], [10, 0], [5, 8]]})
        frag = render_mark(tri)
        assert frag.startswith('<path d="M0,0 L10,0 L5,8 Z"')
        assert len(tri.segments) == 3

    def test_geo_polygon_uses_preprojected_coordinates(self):
        s = vz.create_scene()
        shape = s.create_mark("geoPolygon",
                              {"vertices": [[12.5, 41.9], [13.4, 42.1], [12.9, 43.0]]})
        frag = render_mark(shape)
        assert 'd="M12.5,41.9 L13.4,42.1 L12.9,43 Z"' in frag

    def test_ring_annulus_two_subpaths(self):
        s = vz.create_scene()
        ring = s.create_mark("ring", {"x": 0, "y": 0, "inner_radius": 5,
                                      "outer_radius": 10})
        d = render_mark(ring)
        assert d.count("M") == 2  # outer and inner contours

    def test_arc_partial_annulus(self):
        s = vz.create_scene()
        arc = s.create_mark("arc", {"x": 0, "y": 0, "inner_radius": 5,
                                    "outer_radius": 10, "start_angle": 0,
                                    "angle": 90})
        d = render_mark(arc)
        # outer sweep, straight edge to the inner radius, inner sweep back
        assert re.search(r"A10,10 0 0 1 .*L.*A5,5 0 0 0 ", d)

    def test_band_renders_closed_path(self):
        s = vz.create_scene()
        band = s.create_mark("band", {"width": 40, "height": 8})
        frag = render_mark(band)
        assert frag.startswith('<path')
        assert 'Z"' in frag
