import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vizscene as vz
from vizscene.elements import MARK_TYPES, DataScope, union_scopes
from vizscene.errors import ChannelError, SceneError
from vizscene.scene import scopes_disjoint

from conftest import build_diverging_bar, build_gallery_scenes


class TestSceneBasics:
    def test_empty_scene_identity_view(self):
        s = vz.create_scene()
        assert len(s.elements) == 0
        assert s.view.zoom == 1
        assert s.view.rotation == 0
        assert s.view.focus == (0.0, 0.0)

    def test_distinct_ids(self):
        assert vz.create_scene().id != vz.create_scene().id

    def test_empty_round_trip(self):
        s = vz.create_scene()
        restored = vz.deserialize_scene(vz.serialize_scene(s))
        assert restored.id == s.id
        assert len(restored.elements) == 0
        assert restored.view.zoom == 1


class TestCreateMark:
    def test_fourteen_types(self):
        assert len(MARK_TYPES) == 14
        s = vz.create_scene()
        for t in MARK_TYPES:
            s.create_mark(t)

    def test_rectangle_vertices_segments(self):
        s = vz.create_scene()
        rect = s.create_mark("rectangle", {"width": 30, "height": 80})
        assert len(rect.vertices) == 4
        assert len(rect.segments) == 4
        corners = {(v.x, v.y) for v in rect.vertices}
        assert corners == {(0, 0), (30, 0), (30, 80), (0, 80)}

    def test_circle_has_no_vertices(self):
        s = vz.create_scene()
        circle = s.create_mark("circle", {"radius": 20})
        assert circle.vertices == []
        assert circle.channels["radius"] == 20

    def test_text_default_font_size(self):
        s = vz.create_scene()
        text = s.create_mark("text", {"text": "17"})
        assert text.channels["font_size"] == 12

    def test_smart_defaults(self):
        s = vz.create_scene()
        rect = s.create_mark("rectangle")
        assert rect.channels["width"] == 30 and rect.channels["height"] == 30
        assert rect.channels["fill"] == "#888"
        assert "stroke" not in rect.channels
        circle = s.create_mark("circle")
        assert circle.channels["radius"] == 15
        line = s.create_mark("line")
        assert line.channels["x2"] - line.channels["x"] == 40

    def test_invalid_channel_names_type(self):
        s = vz.create_scene()
        with pytest.raises(ChannelError, match="radius.*rectangle"):
            s.create_mark("rectangle", {"radius": 4})

    @pytest.mark.parametrize("props", [None, {"x": 4}])
    def test_unknown_type_refused(self, props):
        s = vz.create_scene()
        with pytest.raises(SceneError, match="unknown mark type 'hexagon'"):
            s.create_mark("hexagon", props)
        assert s.elements == {}


class TestGlyph:
    def test_two_scopeless_marks(self):
        s = vz.create_scene()
        rect = s.create_mark("rectangle")
        line = s.create_mark("line")
        glyph = s.create_glyph([rect, line])
        assert glyph.group_kind == "glyph"
        assert len(glyph.members) == 2
        assert rect.parent == glyph.id

    def test_single_mark(self):
        s = vz.create_scene()
        glyph = s.create_glyph([s.create_mark("circle")])
        assert len(glyph.members) == 1

    def test_disjoint_scopes_rejected(self, scene):
        a = scene.create_mark("rectangle")
        b = scene.create_mark("rectangle")
        a.data_scope = DataScope("survey", (0,))
        b.data_scope = DataScope("survey", (1,))
        with pytest.raises(SceneError):
            scene.create_glyph([a, b])


class TestScopeValues:
    def test_single_row_value(self):
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        bottom = s.elements[rows.members[3]]
        first = s.elements[bottom.members[0]]
        assert s.get_scope_value(first, "pct") == 17

    def test_row_group_list(self):
        s, parts = build_diverging_bar()
        bottom = s.elements[parts["rows"].members[3]]
        assert s.get_scope_value(bottom, "pct") == [17, 36, 28, 29]

    def test_aggregators(self):
        s, parts = build_diverging_bar()
        bottom = s.elements[parts["rows"].members[3]]
        assert s.get_scope_value(bottom, "pct", "max") == 36
        assert s.get_scope_value(bottom, "pct", "min") == 17

    def test_max_matches_enumeration_oracle(self):
        s, parts = build_diverging_bar()
        for member in parts["rows"].members:
            group = s.elements[member]
            dataset = s.datasets[group.data_scope.dataset]
            oracle = max(dataset.items[i]["pct"] for i in group.data_scope.indices)
            assert s.get_scope_value(group, "pct", "max") == oracle

    def test_no_scope_errors(self):
        s = vz.create_scene()
        mark = s.create_mark("rectangle")
        with pytest.raises(SceneError):
            s.get_scope_value(mark, "pct")

    def test_aggregator_on_nominal_errors(self):
        s, parts = build_diverging_bar()
        bottom = s.elements[parts["rows"].members[3]]
        with pytest.raises(vz.DataError):
            s.get_scope_value(bottom, "response", "max")


class TestChannels:
    def test_set_then_read_back(self):
        s = vz.create_scene()
        rect = s.create_mark("rectangle")
        s.set_channel(rect, "width", 55)
        assert s.get_channel(rect, "width") == 55

    def test_set_single_does_not_touch_peers(self, scene):
        rect = scene.create_mark("rectangle")
        rows = vz.repeat(scene, rect, "survey", "age")
        first, second = (scene.elements[m] for m in rows.members[:2])
        scene.set_channel(first, "height", 99)
        assert scene.get_channel(second, "height") != 99

    def test_set_channel_peers(self, scene):
        rect = scene.create_mark("rectangle")
        rows = vz.repeat(scene, rect, "survey", "age")
        scene.set_channel_peers(scene.elements[rows.members[0]], "height", 20)
        assert all(scene.get_channel(scene.elements[m], "height") == 20
                   for m in rows.members)

    def test_encoded_channel_rejects_direct_set(self):
        s, parts = build_diverging_bar()
        leaf = s.elements[s.elements[parts["rows"].members[0]].members[0]]
        with pytest.raises(ChannelError, match="remove the encoding"):
            s.set_channel(leaf, "width", 10)
        vz.remove_encoding(s, parts["enc_width"].id)
        s.set_channel(leaf, "width", 10)
        assert s.get_channel(leaf, "width") == 10

    def test_unchanged_value_runs_no_pass(self):
        s, parts = build_diverging_bar()
        row = s.elements[parts["rows"].members[1]]
        before, report = vz.serialize_scene(s), s.last_report
        s.set_channel(row, "x", s.get_channel(row, "x"))
        assert s.last_report is report
        assert not s.dirty.any()
        assert vz.serialize_scene(s) == before

    def test_rect_bbox_matches_channels(self):
        s = vz.create_scene()
        rect = s.create_mark("rectangle", {"x": 7, "y": 9, "width": 41, "height": 13})
        left, top, right, bottom = s.bbox(rect)
        assert (right - left, bottom - top) == (41, 13)

    @settings(max_examples=30, deadline=None)
    @given(w=st.floats(0.1, 500), h=st.floats(0.1, 500),
           x=st.floats(-200, 200), y=st.floats(-200, 200))
    def test_rect_bbox_property(self, w, h, x, y):
        s = vz.create_scene()
        rect = s.create_mark("rectangle", {"x": x, "y": y, "width": w, "height": h})
        left, top, right, bottom = s.bbox(rect)
        assert abs((right - left) - w) < 1e-9
        assert abs((bottom - top) - h) < 1e-9


class TestGeometrySync:
    """Only the channels a mark's derived vertices are computed from re-sync
    them."""

    @pytest.mark.parametrize("channel, value", [("fill", "#123"), ("opacity", 0.5)])
    def test_a_paint_write_leaves_the_geometry_alone(self, channel, value, monkeypatch):
        s = vz.create_scene()
        rect = s.create_mark("rectangle", {"width": 40, "height": 10})
        calls = []
        monkeypatch.setattr(s, "index_mark", calls.append)
        s.set_channel(rect, channel, value)
        assert rect.channels[channel] == value
        assert calls == []

    def test_a_width_write_moves_the_far_corner(self):
        s = vz.create_scene()
        rect = s.create_mark("rectangle", {"width": 40, "height": 10})
        s.set_channel(rect, "width", 55)
        assert (rect.vertices[2].x, rect.vertices[2].y) == (55, 10)
        assert (rect.vertices[1].x, rect.vertices[1].y) == (55, 0)

    def test_a_line_x_write_moves_its_second_endpoint(self):
        s = vz.create_scene()
        line = s.create_mark("line", {"x": 0, "y": 0, "x2": 40, "y2": 10})
        s.set_channel(line, "x", 15)
        assert (line.vertices[1].x, line.vertices[1].y) == (25, 10)


def _channel_scene():
    """A scene holding one element of each kind, keyed by the row names of
    ``CHANNEL_TABLE``."""
    s = vz.create_scene()
    rect = s.create_mark("rectangle", {"x": 5, "y": 5, "width": 10, "height": 20})
    line = s.create_mark("polyline", {"vertices": [(0, 0), (10, 4), (20, 8)]})
    glyph = s.create_glyph([s.create_mark("circle")])
    return s, {"mark": rect, "group": glyph, "vertex": line.vertices[1],
               "polyline segment": line.segments[0], "rectangle segment": rect.segments[0]}


# element kind, a channel it has and a value for it, a channel it lacks and
# how the refusal names the element
CHANNEL_TABLE = [
    ("mark", "fill", "#f00", "radius", "mark type 'rectangle'"),
    ("group", "x", 100, "fill", "a group"),
    ("vertex", "y", 9, "fill", "a vertex"),
    ("polyline segment", "x", 3, "fill", "a segment"),
    ("rectangle segment", "stroke", "#0f0", "fill", "a segment"),
]


@pytest.mark.parametrize("kind, channel, value, missing, owner", CHANNEL_TABLE)
class TestChannelTable:
    """``get_channel``, ``set_channel`` and ``apply_encoding`` agree on which
    channels each element kind has."""

    def test_set_channel_reads_back(self, kind, channel, value, missing, owner):
        s, elements = _channel_scene()
        s.set_channel(elements[kind], channel, value)
        assert s.get_channel(elements[kind], channel) == value

    def test_get_channel_refuses(self, kind, channel, value, missing, owner):
        s, elements = _channel_scene()
        with pytest.raises(ChannelError, match=re.escape(
                f"channel {missing!r} is not valid for {owner}")):
            s.get_channel(elements[kind], missing)

    @pytest.mark.parametrize("write", [
        lambda s, el, channel: s.set_channel(el, channel, 1),
        lambda s, el, channel: vz.apply_encoding(s, el, channel, "pct"),
    ], ids=["set_channel", "apply_encoding"])
    def test_refusal_leaves_the_scene_unchanged(self, kind, channel, value, missing, owner,
                                                write):
        s, elements = _channel_scene()
        before = vz.serialize_scene(s)
        with pytest.raises(ChannelError, match=re.escape(
                f"channel {missing!r} is not valid for {owner}")):
            write(s, elements[kind], missing)
        assert vz.serialize_scene(s) == before


def test_segment_positions_of_a_sized_mark_are_refused():
    s, elements = _channel_scene()
    before = vz.serialize_scene(s)
    with pytest.raises(ChannelError, match="segment positions of a rectangle derive"):
        s.set_channel(elements["rectangle segment"], "x", 3)
    assert vz.serialize_scene(s) == before


class TestPeers:
    def test_repeat_peers(self, scene):
        rect = scene.create_mark("rectangle")
        rows = vz.repeat(scene, rect, "survey", "age")
        member = scene.elements[rows.members[0]]
        assert len(scene.peers_of(member)) == 4

    def test_divide_peers(self):
        s, parts = build_diverging_bar()
        leaf = s.elements[s.elements[parts["rows"].members[0]].members[0]]
        assert len(s.peers_of(leaf)) == 16

    def test_fresh_mark_is_own_peer(self):
        s = vz.create_scene()
        mark = s.create_mark("circle")
        assert s.peers_of(mark) == [mark]

    def test_equivalence_relation(self):
        s, parts = build_diverging_bar()
        for el in list(s.elements.values()):
            peers = s.peers_of(el)
            assert el in peers  # reflexive
            for other in peers:  # symmetric + transitive via set identity
                assert {p.id for p in s.peers_of(other)} == {p.id for p in peers}


class TestGroupKind:
    def test_same_scope_marks_are_glyph(self, scene):
        marks = [scene.create_mark("rectangle") for _ in range(4)]
        for m in marks:
            m.data_scope = DataScope("survey", (0, 1))
        assert scene.classify_group_kind(marks) == "glyph"

    def test_disjoint_same_type_marks_are_collection(self, scene):
        marks = []
        for i in range(4):
            m = scene.create_mark("rectangle")
            m.data_scope = DataScope("survey", (i,))
            marks.append(m)
        assert scene.classify_group_kind(marks) == "collection"

    def test_mixed_type_scoped_marks_are_composite(self, scene):
        a = scene.create_mark("rectangle")
        a.data_scope = DataScope("survey", (0,))
        b = scene.create_mark("circle")
        b.data_scope = DataScope("survey", (1,))
        assert scene.classify_group_kind([a, b]) == "composite"

    def test_collections_over_different_fields_are_composite(self, scene):
        # a scatter-ish collection and a waffle-ish collection
        circles = []
        for i in range(3):
            c = scene.create_mark("circle")
            c.data_scope = DataScope("survey", (i,))
            circles.append(c)
        scatter = scene.group_elements(circles)
        rects = []
        for i in range(3, 6):
            r = scene.create_mark("rectangle")
            r.data_scope = DataScope("survey", (i,))
            rects.append(r)
        waffle = scene.group_elements(rects)
        assert scatter.group_kind == "collection"
        assert waffle.group_kind == "collection"
        assert scene.classify_group_kind([scatter, waffle]) == "composite"

    def test_total_function(self, scene):
        # every grouping lands in exactly one kind
        a = scene.create_mark("rectangle")
        b = scene.create_mark("rectangle")
        kinds = {scene.classify_group_kind([a, b])}
        a.data_scope = DataScope("survey", (0,))
        b.data_scope = DataScope("survey", (0,))
        kinds.add(scene.classify_group_kind([a, b]))
        b.data_scope = DataScope("survey", (1,))
        kinds.add(scene.classify_group_kind([a, b]))
        assert kinds <= {"glyph", "collection", "composite"}

    def test_collection_conditions_brute_force(self):
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        members = [s.elements[m] for m in rows.members]
        # same kind, same type signature, shared attributes, disjoint, union
        assert len({m.group_kind for m in members}) == 1
        assert len({s.type_signature(m) for m in members}) == 1
        scopes = [set(m.data_scope.indices) for m in members]
        for i in range(len(scopes)):
            for j in range(i + 1, len(scopes)):
                assert not scopes[i] & scopes[j]
        union = set()
        for sc in scopes:
            union |= sc
        assert union == set(rows.data_scope.indices)
        assert s.check_collection(rows) == []


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(
        DataScope,
        dataset=st.sampled_from(["survey", "months"]),
        indices=st.lists(st.integers(0, 6), max_size=4),
        table=st.sampled_from(["items", "links"])), max_size=6))
    def test_disjointness_agrees_with_pairwise_overlaps(self, scopes):
        pairwise = all(not scopes[i].overlaps(scopes[j])
                       for i in range(len(scopes))
                       for j in range(i + 1, len(scopes)))
        assert scopes_disjoint(scopes) == pairwise

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.none() | st.builds(
        DataScope,
        dataset=st.sampled_from(["survey", "months"]),
        indices=st.lists(st.integers(0, 6), max_size=4),
        table=st.sampled_from(["items", "links"])), max_size=6))
    def test_union_agrees_with_pairwise_fold(self, scopes):
        def pairwise(scopes):
            out = None
            for s in scopes:
                if s is None:
                    continue
                if out is not None and (s.dataset, s.table) != (out.dataset, out.table):
                    raise SceneError("cannot union data scopes over different datasets")
                out = s if out is None else DataScope(
                    s.dataset, tuple(set(out.indices) | set(s.indices)), s.table)
            return out

        try:
            expected = pairwise(scopes)
        except SceneError:
            with pytest.raises(SceneError, match="different datasets"):
                union_scopes(scopes)
        else:
            assert union_scopes(scopes) == expected

    def test_index_repeated_inside_one_scope_is_not_an_overlap(self):
        assert scopes_disjoint([DataScope("survey", (0, 0)), DataScope("survey", (1,))])
        assert not scopes_disjoint([DataScope("survey", (0, 0)),
                                    DataScope("survey", (1, 0))])

    def _four_cells(self, scene):
        marks = []
        for i in range(4):
            m = scene.create_mark("rectangle")
            m.data_scope = DataScope("survey", (i,))
            marks.append(m)
        return marks, scene.group_elements(marks)

    def test_overlapping_collection_names_every_overlapping_pair(self, scene):
        marks, col = self._four_cells(scene)
        marks[0].data_scope = DataScope("survey", (0, 1))
        marks[2].data_scope = DataScope("survey", (2, 1, 1))
        marks[3].data_scope = DataScope("survey", (0, 3))
        ids = [m.id for m in marks]
        assert scene.check_collection(col) == [
            f"member scopes overlap: {ids[0]} and {ids[1]}",
            f"member scopes overlap: {ids[0]} and {ids[2]}",
            f"member scopes overlap: {ids[0]} and {ids[3]}",
            f"member scopes overlap: {ids[1]} and {ids[2]}",
        ]

    def test_repeated_index_inside_a_member_keeps_the_collection_valid(self, scene):
        marks, col = self._four_cells(scene)
        marks[0].data_scope = DataScope("survey", (0, 0))
        marks[3].data_scope = DataScope("survey", (3, 3))
        assert scene.check_collection(col) == []


class TestDescendants:
    def test_pre_order_over_three_levels(self, scene):
        m = [scene.create_mark("rectangle") for _ in range(6)]
        inner1 = scene.group_elements([m[0], m[1]], kind="composite")
        inner2 = scene.group_elements([m[2]], kind="composite")
        mid = scene.group_elements([inner1, m[3], inner2], kind="composite")
        top = scene.group_elements([m[4], mid, m[5]], kind="composite")
        expected = [m[4], mid, inner1, m[0], m[1], m[3], inner2, m[2], m[5]]
        assert [e.id for e in scene.descendants(top)] == [e.id for e in expected]
        assert [e.id for e in scene.descendant_marks(top)] == [
            e.id for e in (m[4], m[0], m[1], m[3], m[2], m[5])]
        assert scene.descendants(m[0]) == []


class TestReplace:
    def _fresh(self, s):
        return s.adopt(vz.Mark(s.make_id("mark"), "rectangle"))

    def _assert_gone(self, s, old, subtree):
        assert old.parent is None
        for el in subtree:
            assert el.id not in s.elements
            assert el.id not in s.roots
            assert all(el.id not in ps.members for ps in s.peer_sets.values())

    def test_replace_root(self, scene):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        other = scene.create_mark("circle")
        subtree = [col] + scene.descendants(col)
        new = self._fresh(scene)
        scene.replace(col, new)
        assert scene.roots == [new.id, other.id]
        assert new.parent is None
        self._assert_gone(scene, col, subtree)

    def test_replace_nested_member(self):
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        row = s.elements[rows.members[1]]
        subtree = [row] + s.descendants(row)
        new = self._fresh(s)
        s.replace(row, new)
        assert rows.members[1] == new.id
        assert new.parent == rows.id
        assert new.id not in s.roots
        self._assert_gone(s, row, subtree)


class TestAuxAndView:
    def test_add_axis_and_legend(self):
        s, parts = build_diverging_bar()
        axis = s.add_axis("x", parts["enc_width"].scale, "bottom")
        legend = s.add_legend("fill", parts["enc_fill"].scale, "right")
        assert axis.aux_kind == "axis"
        assert legend.aux_kind == "legend"

    def test_unknown_scale_errors(self):
        s = vz.create_scene()
        with pytest.raises(SceneError):
            s.add_axis("x", "scale-99", "bottom")

    def test_set_view(self):
        s = vz.create_scene()
        s.set_view("rotation", 90)
        s.set_view("zoom", s.view.zoom * 1.2)
        assert s.view.rotation == 90
        assert s.view.zoom == pytest.approx(1.2)

    def test_zoom_must_be_positive(self):
        s = vz.create_scene()
        with pytest.raises(SceneError):
            s.set_view("zoom", 0)


class TestPartIndex:
    def test_every_indexed_part_resolves_to_its_owners_object(self):
        for chart, scene in build_gallery_scenes().items():
            for index, field in ((scene._vertex_owner, "vertices"),
                                 (scene._segment_owner, "segments")):
                for part_id, mark_id in index.items():
                    owned = getattr(scene.elements[mark_id], field)
                    assert scene.resolve(part_id) is next(
                        p for p in owned if p.id == part_id), (chart, part_id)

    def test_a_dropped_vertex_no_longer_resolves(self):
        s = vz.create_scene()
        line = s.create_mark("polyline", {"vertices": [(0, 0), (5, 5), (9, 0)]})
        dropped = line.vertices.pop()
        assert s.resolve(line.vertices[1].id) is line.vertices[1]
        with pytest.raises(SceneError, match="unknown element"):
            s.resolve(dropped.id)
