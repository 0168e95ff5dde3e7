import math

import pytest

import vizscene as vz
from vizscene.errors import LayoutError
from vizscene.layout import (compute_grid, compute_packing, compute_spiral,
                             compute_stack, owns_axis)

from conftest import build_diverging_bar


def _collection_of_rects(scene, sizes, dataset="survey", attribute="age"):
    col = vz.repeat(scene, scene.create_mark("rectangle"), dataset, attribute)
    for member_id, (w, h) in zip(col.members, sizes):
        m = scene.elements[member_id]
        m.channels["width"] = w
        m.channels["height"] = h
        scene.dirty.sized.add(member_id)
    scene.propagate()
    return col


class TestComputations:
    def test_stack_prefix_sums(self):
        # offsets for the reported bottom-row percentages
        sizes = [(17, 10), (36, 10), (28, 10), (29, 10)]
        positions = compute_stack(sizes, {"orientation": "horizontal", "gap": 0})
        assert [p[0] for p in positions] == [0, 17, 53, 81]

    def test_stack_gap_conservation(self):
        sizes = [(10, 5), (20, 5), (30, 5)]
        gap = 4
        positions = compute_stack(sizes, {"orientation": "horizontal", "gap": gap})
        total = positions[-1][0] + sizes[-1][0]
        assert total == sum(w for w, _ in sizes) + (len(sizes) - 1) * gap

    def test_grid_two_columns(self):
        sizes = [(10, 10)] * 4
        positions = compute_grid(sizes, {"num_cols": 2, "gap_x": 0, "gap_y": 0})
        assert positions == [(0, 0), (10, 0), (0, 10), (10, 10)]

    def test_grid_row_major_occupancy(self):
        sizes = [(10, 10)] * 6
        positions = compute_grid(sizes, {"num_cols": 3, "gap_x": 2, "gap_y": 2})
        cells = {(x // 12, y // 12) for x, y in positions}
        assert len(cells) == 6  # every member in a distinct cell

    def test_grid_column_major_with_num_rows(self):
        sizes = [(10, 10)] * 4
        positions = compute_grid(sizes, {"num_rows": 2, "gap_x": 0, "gap_y": 0})
        assert positions == [(0, 0), (0, 10), (10, 0), (10, 10)]

    def test_packing_no_overlap(self):
        sizes = [(20, 20)] * 12
        centers = compute_packing(sizes, {"padding": 0})
        r = math.hypot(20, 20) / 2
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                d = math.dist(centers[i], centers[j])
                assert d >= 2 * r - 1e-9

    def test_packing_mixed_sizes_no_overlap(self):
        sizes = [(10 + 3 * i, 10 + 2 * i) for i in range(15)]
        centers = compute_packing(sizes, {"padding": 1})
        radii = [math.hypot(w, h) / 2 + 1 for w, h in sizes]
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                d = math.dist(centers[i], centers[j])
                assert d >= radii[i] + radii[j] - 1e-9

    def test_packing_deterministic(self):
        sizes = [(8 + i, 12) for i in range(20)]
        assert compute_packing(sizes, {}) == compute_packing(sizes, {})

    def test_spiral_archimedean(self):
        positions = compute_spiral(5, {"start_radius": 10, "growth": 20,
                                       "angular_step": 90})
        for i, (x, y) in enumerate(positions):
            theta = i * 90
            r = 10 + 20 * theta / 360
            assert math.hypot(x, y) == pytest.approx(r)
            want = (r * math.sin(math.radians(theta)),
                    -r * math.cos(math.radians(theta)))
            assert (x, y) == pytest.approx(want)

    def test_empty_members(self):
        assert compute_grid([], {"num_cols": 1}) == []
        assert compute_stack([], {}) == []
        assert compute_packing([], {}) == []
        assert compute_spiral(0, {}) == []


class TestOwnership:
    def test_grid_single_flow(self):
        assert owns_axis({"type": "grid", "num_cols": 1}, "y")
        assert not owns_axis({"type": "grid", "num_cols": 1}, "x")
        assert owns_axis({"type": "grid", "num_rows": 1}, "x")
        assert not owns_axis({"type": "grid", "num_rows": 1}, "y")
        assert owns_axis({"type": "grid", "num_cols": 3}, "x")
        assert owns_axis({"type": "grid", "num_cols": 3}, "y")

    def test_stack_orientation(self):
        assert owns_axis({"type": "stack", "orientation": "horizontal"}, "x")
        assert not owns_axis({"type": "stack", "orientation": "horizontal"}, "y")
        assert owns_axis({"type": "stack", "orientation": "vertical"}, "y")


class TestApplyLayout:
    def test_single_row_grid(self, scene):
        col = _collection_of_rects(scene, [(10, 30)] * 4)
        vz.apply_layout(scene, col, {"type": "grid", "num_rows": 1,
                                     "gap_x": 5, "gap_y": 5})
        boxes = [scene.bbox(scene.elements[m]) for m in col.members]
        assert len({b[1] for b in boxes}) == 1  # one row
        xs = [b[0] for b in boxes]
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert all(g == pytest.approx(gaps[0]) for g in gaps)

    def test_stack_preserves_widths(self):
        s, parts = build_diverging_bar()
        row = s.elements[parts["rows"].members[0]]
        widths_before = [s.elements[m].channels["width"] for m in row.members]
        vz.update_layout_param(s, row, "gap", 2)
        assert [s.elements[m].channels["width"] for m in row.members] == widths_before
        boxes = [s.bbox(s.elements[m]) for m in row.members]
        for a, b in zip(boxes, boxes[1:]):
            assert b[0] - a[2] == pytest.approx(2)

    def test_single_member_at_origin(self, scene):
        t = vz.import_table(b"k\nonly\n", "one")
        scene.add_dataset(t)
        col = vz.repeat(scene, scene.create_mark("rectangle", {"x": 50, "y": 60}),
                        "one", "k")
        member = scene.elements[col.members[0]]
        box = scene.bbox_in_parent(member)
        assert (box[0], box[1]) == (0, 0)

    def test_position_encoding_conflict(self, scene):
        col = vz.repeat(scene, scene.create_mark("circle"), "survey", "age")
        vz.apply_layout(scene, col, {"type": "none"})
        vz.apply_encoding(scene, scene.elements[col.members[0]], "y", "pct",
                          aggregator="mean")
        with pytest.raises(LayoutError, match="bound by encoding"):
            vz.apply_layout(scene, col, {"type": "grid", "num_cols": 1})

    def test_encoding_under_owning_layout_rejected(self, scene):
        col = vz.repeat(scene, scene.create_mark("circle"), "survey", "age")
        with pytest.raises(LayoutError, match="positioned by"):
            vz.apply_encoding(scene, scene.elements[col.members[0]], "y", "pct",
                              aggregator="mean")

    def test_layout_none_detaches(self, scene):
        col = vz.repeat(scene, scene.create_mark("circle"), "survey", "age")
        vz.apply_layout(scene, col, {"type": "none"})
        assert col.layout is None

    def test_apply_layout_peers(self):
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        first = s.elements[rows.members[0]]
        vz.apply_layout_peers(s, first, {"type": "stack",
                                         "orientation": "horizontal", "gap": 3})
        assert all(s.elements[m].layout["gap"] == 3 for m in rows.members)

    @pytest.mark.parametrize("op", [
        lambda s, row: vz.apply_layout_peers(
            s, row, {"type": "stack", "orientation": "vertical"}),
        lambda s, row: vz.update_layout_param_peers(s, row, "orientation", "vertical")],
        ids=["apply_layout_peers", "update_layout_param_peers"])
    def test_peers_refused_on_a_later_peer_change_nothing(self, op):
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        # the second row's cells have their y driven by an align, which a
        # vertical stack on that row would take over
        vz.align(s, s.elements[rows.members[1]].members, "top")
        before = vz.serialize_scene(s)
        with pytest.raises(LayoutError, match="already driven"):
            op(s, s.elements[rows.members[0]])
        assert vz.serialize_scene(s) == before

    def test_unknown_param_rejected(self, scene):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        with pytest.raises(LayoutError, match="unknown parameter"):
            vz.update_layout_param(scene, col, "wobble", 3)

    @pytest.mark.parametrize("spec", [
        {"type": "stack", "gap": "wide"}, {"type": "packing", "padding": None},
        {"type": "spiral", "growth": False}, {"type": "spiral", "angular_step": "30"},
        {"type": "spiral", "start_radius": [20]}])
    def test_non_number_parameter_rejected(self, scene, spec):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        with pytest.raises(LayoutError, match="must be a number"):
            vz.apply_layout(scene, col, spec)

    @pytest.mark.parametrize("spec", ["grid", ["grid"], None])
    def test_spec_must_be_an_object(self, scene, spec):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        with pytest.raises(LayoutError, match="must be an object"):
            vz.apply_layout(scene, col, spec)


class TestUpdateLayoutParam:
    def test_element_without_a_layout_rejected(self, scene):
        mark = scene.create_mark("rectangle")
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        vz.apply_layout(scene, col, {"type": "none"})
        for el in (mark, col):
            with pytest.raises(LayoutError, match="has no layout"):
                vz.update_layout_param(scene, el, "gap", 1)

    @pytest.mark.parametrize("param, value", [
        ("num_cols", None), ("num_cols", "3"), ("num_cols", True),
        ("gap_x", [1]), ("num_rows", {})])
    def test_non_number_rejected_and_layout_kept(self, scene, param, value):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        before = dict(col.layout)
        with pytest.raises(LayoutError, match="must be a number"):
            vz.update_layout_param(scene, col, param, value)
        assert col.layout == before

    def test_row_to_column_flow(self, scene):
        col = _collection_of_rects(scene, [(10, 20)] * 4)
        vz.apply_layout(scene, col, {"type": "grid", "num_rows": 1,
                                     "gap_x": 0, "gap_y": 0})
        xs = [scene.bbox(scene.elements[m])[0] for m in col.members]
        assert len(set(xs)) == 4
        vz.update_layout_param(scene, col, "num_cols", 1)
        boxes = [scene.bbox(scene.elements[m]) for m in col.members]
        assert len({b[0] for b in boxes}) == 1  # single column
        ys = [b[1] for b in boxes]
        assert ys == sorted(ys) and len(set(ys)) == 4

    def test_stack_orientation_swap_preserves_extents(self, scene):
        col = _collection_of_rects(scene, [(11, 7), (13, 9), (17, 5), (19, 3)])
        vz.apply_layout(scene, col, {"type": "stack", "orientation": "horizontal",
                                     "gap": 0})
        sizes_before = [(scene.elements[m].channels["width"],
                         scene.elements[m].channels["height"]) for m in col.members]
        vz.update_layout_param(scene, col, "orientation", "vertical")
        sizes_after = [(scene.elements[m].channels["width"],
                        scene.elements[m].channels["height"]) for m in col.members]
        assert sizes_before == sizes_after
        boxes = [scene.bbox(scene.elements[m]) for m in col.members]
        for a, b in zip(boxes, boxes[1:]):
            assert b[1] == pytest.approx(a[3])  # y-abutting now

    def test_gap_to_same_value_is_stable(self):
        s, parts = build_diverging_bar()
        row = s.elements[parts["rows"].members[0]]
        boxes_before = [s.bbox(s.elements[m]) for m in row.members]
        vz.update_layout_param(s, row, "gap", row.layout["gap"])
        boxes_after = [s.bbox(s.elements[m]) for m in row.members]
        assert boxes_after == boxes_before


class TestDeterminism:
    def test_identical_inputs_identical_positions(self):
        a, _ = build_diverging_bar("scene-det-1")
        b, _ = build_diverging_bar("scene-det-1")
        boxes_a = sorted((e.id, tuple(a.bbox(e))) for e in a.elements.values())
        boxes_b = sorted((e.id, tuple(b.bbox(e))) for e in b.elements.values())
        assert boxes_a == boxes_b

    def test_exclusivity_invariant_after_propagation(self):
        s, parts = build_diverging_bar()
        s.propagate()
        for el in s.elements.values():
            if getattr(el, "layout", None):
                for axis in ("x", "y"):
                    if owns_axis(el.layout, axis):
                        for m in el.members:
                            assert s.channel_owner_encoding(
                                s.elements[m], axis) is None
