import random

import pytest

import vizscene as vz
from vizscene.constraints import movable_unit
from vizscene.errors import ConstraintError

from conftest import build_diverging_bar


def _light_blue_targets(s, rows):
    return s.select({"from": rows.id,
                     "where": {"attribute": "response",
                               "value": "strongly disagree"}})


class TestAlign:
    def test_rights_equal(self):
        s, parts = build_diverging_bar()
        targets = _light_blue_targets(s, parts["rows"])
        rights = [s.bbox(t)[2] for t in targets]
        assert len(targets) == 4
        assert max(rights) - min(rights) <= 1e-9

    def test_single_element_noop(self, scene):
        mark = scene.create_mark("rectangle", {"x": 13})
        vz.align(scene, [mark.id], "left")
        assert scene.bbox(mark)[0] == 13

    def test_realigned_after_widening(self):
        s, parts = build_diverging_bar()
        vz.customize_scale(s, parts["enc_width"].scale, {"range": [0, 260]})
        targets = _light_blue_targets(s, parts["rows"])
        rights = [s.bbox(t)[2] for t in targets]
        assert max(rights) - min(rights) <= 1e-9

    def test_left_align_uses_extreme(self, scene):
        a = scene.create_mark("rectangle", {"x": 10})
        b = scene.create_mark("rectangle", {"x": 50})
        vz.align(scene, [a.id, b.id], "left")
        assert scene.bbox(a)[0] == scene.bbox(b)[0] == 10

    def test_bottom_align(self, scene):
        a = scene.create_mark("rectangle", {"y": 5, "height": 30})
        b = scene.create_mark("rectangle", {"y": 0, "height": 10})
        vz.align(scene, [a.id, b.id], "bottom")
        assert s_bottom(scene, a) == s_bottom(scene, b) == 35

    def test_conflicting_alignments_rejected(self, scene):
        a = scene.create_mark("rectangle")
        b = scene.create_mark("rectangle")
        vz.align(scene, [a.id, b.id], "left")
        with pytest.raises(ConstraintError, match="already driven"):
            vz.align(scene, [a.id, b.id], "right")
        # a different axis is fine
        vz.align(scene, [a.id, b.id], "top")

    def test_targets_collapsing_to_one_unit_rejected(self, scene):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        members = [scene.elements[m] for m in col.members]
        # the 1-column grid owns y, so y-alignment would have to translate
        # the shared parent for all four targets at once
        with pytest.raises(ConstraintError):
            vz.align(scene, [m.id for m in members], "bottom")


def s_bottom(scene, el):
    return scene.bbox(el)[3]


class TestAffix:
    def test_labels_track_rect_centers(self):
        s, parts = build_diverging_bar()
        labels = [s.elements[m] for grp in parts["labels"].members
                  for m in s.elements[grp].members]
        for label in labels:
            anchor = next(e for e in s.elements.values()
                          if e.kind == "mark" and e.type == "rectangle"
                          and e.data_scope == label.data_scope)
            lb, ab = s.bbox(label), s.bbox(anchor)
            assert (lb[0] + lb[2]) / 2 == pytest.approx((ab[0] + ab[2]) / 2, abs=1e-9)
            assert (lb[1] + lb[3]) / 2 == pytest.approx((ab[1] + ab[3]) / 2, abs=1e-9)

    def test_simple_affix_at_origin(self, scene):
        anchor = scene.create_mark("rectangle", {"x": 0, "y": 0, "width": 10,
                                                 "height": 10})
        follower = scene.create_mark("circle", {"x": 99, "y": 99, "radius": 5})
        vz.affix(scene, [follower.id], [anchor.id], "nw", 0, 0)
        fb = scene.bbox(follower)
        assert (fb[0], fb[1]) == pytest.approx((0, 0))

    def test_translation_equivariance(self):
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        label = s.elements[s.elements[parts["labels"].members[0]].members[0]]
        before = s.bbox(label)
        s.translate(rows, 31, -17)
        s.propagate()
        after = s.bbox(label)
        assert after[0] - before[0] == pytest.approx(31, abs=1e-9)
        assert after[1] - before[1] == pytest.approx(-17, abs=1e-9)

    def test_offset_applied(self, scene):
        anchor = scene.create_mark("rectangle", {"width": 20, "height": 20})
        follower = scene.create_mark("text", {"text": "hi"})
        vz.affix(scene, [follower.id], [anchor.id], "n", 0, -4)
        fb = scene.bbox(follower)
        # follower's own north point sits at the anchor's north plus (0, -4)
        assert fb[1] == pytest.approx(-4)
        assert (fb[0] + fb[2]) / 2 == pytest.approx(10)

    def test_unpaired_follower_rejected(self, scene):
        from vizscene.elements import DataScope
        a = scene.create_mark("rectangle")
        a.data_scope = DataScope("survey", (0,))
        f1 = scene.create_mark("text")
        f1.data_scope = DataScope("survey", (0,))
        f2 = scene.create_mark("text")
        f2.data_scope = DataScope("survey", (5,))
        with pytest.raises(ConstraintError, match="no anchor"):
            vz.affix(scene, [f1.id, f2.id], [a.id], "center")

    def test_explicit_layout_conflict(self, scene):
        col = vz.repeat(scene, scene.create_mark("text", {"text": "x"}),
                        "survey", "age")
        vz.apply_layout(scene, col, {"type": "grid", "num_cols": 2})
        anchors = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        with pytest.raises(ConstraintError, match="owned by"):
            vz.affix(scene, col.id, anchors.id, "center")


class TestOrdering:
    def _bars(self, scene):
        return vz.repeat(scene, scene.create_mark("rectangle"), "survey", "response")

    def test_order_by_attribute(self, scene):
        col = self._bars(scene)
        vz.set_order(scene, col, "response", "descending")
        values = [scene.get_scope_value(scene.elements[m], "response")
                  for m in col.members]
        assert values == ["strongly disagree", "disagree", "agree", "strongly agree"]

    def test_grid_cells_follow_order(self, scene):
        col = self._bars(scene)
        vz.set_order(scene, col, {"attribute": "response"}, "descending")
        ys = [scene.bbox(scene.elements[m])[1] for m in col.members]
        assert ys == sorted(ys)

    def test_stability_on_reorder_by_same_key(self, scene):
        col = self._bars(scene)
        vz.set_order(scene, col, "response")
        before = list(col.members)
        vz.set_order(scene, col, "response")
        assert col.members == before

    def test_order_by_quantitative_matches_sort_oracle(self, scene):
        col = self._bars(scene)
        vz.set_order(scene, col, {"attribute": "pct", "aggregator": "max"}
                     if False else {"channel": "width"})
        # order by a channel: widths are all equal, order unchanged (stable)
        assert len(col.members) == 4
        vz.set_order(scene, col, "pct") if False else None

    def test_order_by_scope_value_sort_oracle(self):
        s = vz.create_scene()
        s.add_dataset(vz.import_table(b"k,v\na,9\nb,3\nc,7\n", "t"))
        col = vz.repeat(s, s.create_mark("rectangle"), "t", "k")
        vz.set_order(s, col, "v")
        got = [s.get_scope_value(s.elements[m], "v") for m in col.members]
        assert got == sorted([9.0, 3.0, 7.0])

    def test_unresolvable_key(self, scene):
        col = self._bars(scene)
        spec = vz.set_order(scene, col, "pct")  # mixed pct values per member
        assert any(spec.id in u for u in scene.last_report.unsatisfied)

    @pytest.mark.parametrize("key, named", [
        ("ghost", "ghost"), ({"channel": "radius"}, "radius")])
    def test_unknown_key_reported_and_layouts_still_run(self, scene, key, named):
        col = self._bars(scene)
        spec = vz.set_order(scene, col, key)
        assert spec.id in scene.constraints
        assert any(u.startswith(f"{spec.id}:") and named in u
                   for u in scene.last_report.unsatisfied)
        scene.create_mark("rectangle")
        report = scene.propagate()
        assert f"layout:{col.id}" in report.evaluated
        assert any(spec.id in u for u in report.unsatisfied)

    def test_z_order(self, scene):
        a = scene.create_mark("rectangle")
        b = scene.create_mark("rectangle")
        vz.set_z_order(scene, [a.id, b.id], [5, -1])
        assert a.z_index == 5
        assert b.z_index == -1
        svg = vz.render(scene)
        # b draws before a
        assert svg.index("<rect") < svg.rindex("<rect")


class TestPropagate:
    def test_fixpoint_idempotence(self):
        s, _ = build_diverging_bar()
        s.propagate()
        report = s.propagate()
        assert report.evaluated == []
        assert report.unsatisfied == []

    def test_clean_scene_empty_report(self, scene):
        scene.propagate()
        assert scene.propagate().as_dict() == {"evaluated": [], "unsatisfied": []}

    def test_dirty_set_is_exactly_scale_dependents(self):
        s, parts = build_diverging_bar()
        s.propagate()
        report = vz.customize_scale(
            s, parts["enc_width"].scale, {"range": [0, 150]}) and s.last_report
        evaluated = set(s.last_report.evaluated)
        assert f"scale:{parts['enc_width'].scale}" in evaluated
        assert f"encoding:{parts['enc_width'].id}" in evaluated
        # the fill encoding is independent of the width scale
        assert f"encoding:{parts['enc_fill'].id}" not in evaluated
        # downstream: row stacks re-laid, alignment and affix re-enforced
        assert any(e.startswith("layout:") for e in evaluated)
        assert any(e.startswith("constraint:") for e in evaluated)
        # full-state cross-check: a from-scratch rebuild with the same patch
        s2, parts2 = build_diverging_bar()
        vz.customize_scale(s2, parts2["enc_width"].scale, {"range": [0, 150]})
        snap = sorted((e.type, tuple(s.bbox(e)))
                      for e in s.elements.values() if e.kind == "mark")
        snap2 = sorted((e.type, tuple(s2.bbox(e)))
                       for e in s2.elements.values() if e.kind == "mark")
        for (t1, b1), (t2, b2) in zip(snap, snap2):
            assert t1 == t2
            assert b1 == pytest.approx(b2, abs=1e-9)

    def test_constraints_hold_after_random_mutations(self):
        rng = random.Random(42)
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        leaves = [s.elements[m] for r in rows.members for m in s.elements[r].members]
        for _ in range(100):
            action = rng.choice(["height", "scale_range", "scale_domain", "gap"])
            if action == "height":
                s.set_channel_peers(rng.choice(leaves), "height", rng.randint(8, 30))
            elif action == "scale_range":
                vz.customize_scale(s, parts["enc_width"].scale,
                                   {"range": [0, rng.randint(80, 250)]})
            elif action == "scale_domain":
                vz.customize_scale(s, parts["enc_width"].scale,
                                   {"domain": [0, rng.randint(40, 120)]})
            else:
                vz.update_layout_param(s, s.elements[rows.members[0]],
                                       "gap", rng.randint(0, 4))
        s.propagate()
        # every encoding equation holds
        scale = s.scales[parts["enc_width"].scale]
        for leaf in leaves:
            expected = vz.scale_apply(scale, s.get_scope_value(leaf, "pct"))
            assert s.get_channel(leaf, "width") == pytest.approx(expected, abs=1e-9)
        # alignment holds
        rights = [s.bbox(t)[2] for t in _light_blue_targets(s, rows)]
        assert max(rights) - min(rights) <= 1e-9
        # second pass re-evaluates nothing
        assert s.propagate().evaluated == []

    def test_mutation_order_confluence(self):
        def run(order):
            s, parts = build_diverging_bar()
            mutations = {
                "h": lambda: s.set_channel_peers(
                    s.elements[s.elements[parts["rows"].members[0]].members[0]],
                    "height", 26),
                "r": lambda: vz.customize_scale(s, parts["enc_width"].scale,
                                                {"range": [0, 180]}),
                "g": lambda: vz.update_layout_param(
                    s, s.elements[parts["rows"].members[0]], "gap", 2),
            }
            for key in order:
                mutations[key]()
            s.propagate()
            return sorted((e.type, tuple(round(c, 9) for c in s.bbox(e)))
                          for e in s.elements.values() if e.kind == "mark")

        assert run("hrg") == run("rgh") == run("grh")

    def test_unsatisfiable_reported_not_silent(self, scene):
        from vizscene.elements import DataScope
        anchor = scene.create_mark("rectangle")
        anchor.data_scope = DataScope("survey", (0,))
        follower = scene.create_mark("text", {"text": "x"})
        follower.data_scope = DataScope("survey", (0,))
        spec = vz.affix(scene, [follower.id], [anchor.id], "center")
        follower.data_scope = DataScope("survey", (3,))  # break the pairing
        scene.dirty.moved.add(follower.id)
        report = scene.propagate()
        assert any(spec.id in entry for entry in report.unsatisfied)


class TestOwnershipExclusivity:
    def test_align_rejects_encoded_axis(self, scene):
        col = vz.repeat(scene, scene.create_mark("circle"), "survey", "age")
        vz.apply_layout(scene, col, {"type": "none"})
        members = [scene.elements[m] for m in col.members]
        vz.apply_encoding(scene, members[0], "x", "pct", aggregator="mean")
        with pytest.raises(ConstraintError, match="bound by encoding"):
            vz.align(scene, [m.id for m in members], "left")

    def test_affix_rejects_encoded_follower(self, scene):
        from vizscene.elements import DataScope
        col = vz.repeat(scene, scene.create_mark("text", {"text": "x"}),
                        "survey", "age")
        vz.apply_layout(scene, col, {"type": "none"})
        follower = scene.elements[col.members[0]]
        anchor = scene.create_mark("rectangle")
        anchor.data_scope = follower.data_scope
        vz.apply_encoding(scene, follower, "x", "pct", aggregator="mean")
        with pytest.raises(ConstraintError, match="bound by encoding"):
            vz.affix(scene, [follower.id], [anchor.id], "center")

    def test_encoding_rejects_constrained_axis(self, scene):
        col = vz.repeat(scene, scene.create_mark("circle"), "survey", "age")
        vz.apply_layout(scene, col, {"type": "none"})
        members = [scene.elements[m] for m in col.members]
        vz.align(scene, [m.id for m in members], "left")
        with pytest.raises(vz.EncodingError, match="relational constraint"):
            vz.apply_encoding(scene, members[0], "x", "pct", aggregator="mean")
        # the other axis stays free
        vz.apply_encoding(scene, members[0], "y", "pct", aggregator="mean")


# each writes the x position of the members of ``col``, a collection of
# text marks that ``repeat`` gave a default one-column grid (it owns y only)
WRITERS = {
    "encoding": lambda s, col, anchors: vz.apply_encoding(
        s, col.members[0], "x", "v"),
    "explicit layout": lambda s, col, anchors: vz.apply_layout(
        s, col, {"type": "grid", "num_rows": 1}),
    "default layout": lambda s, col, anchors: None,
    "align": lambda s, col, anchors: vz.align(s, col.members, "left"),
    "affix": lambda s, col, anchors: vz.affix(s, col.id, anchors.id, "center"),
}

CLAIMANTS = {
    "align": lambda s, col, anchors: vz.align(s, col.members, "right"),
    "affix": lambda s, col, anchors: vz.affix(s, col.id, anchors.id, "n"),
    "encode x": lambda s, col, anchors: vz.apply_encoding(
        s, col.members[1], "x", "v"),
    "apply_layout": lambda s, col, anchors: vz.apply_layout(
        s, col, {"type": "grid", "num_cols": 3}),
    "update_layout_param": lambda s, col, anchors: vz.update_layout_param(
        s, col, "num_cols", 3),
}

# None: accepted; otherwise the error class of the refusal
OWNERSHIP = {
    ("align", "encoding"): ConstraintError,
    ("align", "explicit layout"): ConstraintError,
    ("align", "default layout"): None,
    ("align", "align"): ConstraintError,
    ("align", "affix"): ConstraintError,
    ("affix", "encoding"): ConstraintError,
    ("affix", "explicit layout"): ConstraintError,
    ("affix", "default layout"): None,
    ("affix", "align"): ConstraintError,
    ("affix", "affix"): ConstraintError,
    ("encode x", "encoding"): vz.EncodingError,
    ("encode x", "explicit layout"): vz.LayoutError,
    ("encode x", "default layout"): None,
    ("encode x", "align"): vz.EncodingError,
    ("encode x", "affix"): vz.EncodingError,
    ("apply_layout", "encoding"): vz.LayoutError,
    ("apply_layout", "explicit layout"): None,
    ("apply_layout", "default layout"): None,
    ("apply_layout", "align"): vz.LayoutError,
    ("apply_layout", "affix"): vz.LayoutError,
    ("update_layout_param", "encoding"): vz.LayoutError,
    ("update_layout_param", "explicit layout"): None,
    ("update_layout_param", "default layout"): None,
    ("update_layout_param", "align"): vz.LayoutError,
    ("update_layout_param", "affix"): vz.LayoutError,  # no layout is left
}


@pytest.mark.parametrize("claimant, writer", list(OWNERSHIP))
def test_ownership_matrix(claimant, writer):
    s = vz.create_scene()
    s.add_dataset(vz.import_table(b"k,v\na,1\nb,2\nc,3\n", "t"))
    anchors = vz.repeat(s, s.create_mark("rectangle"), "t", "k")
    col = vz.repeat(s, s.create_mark("text", {"text": "x"}), "t", "k")
    WRITERS[writer](s, col, anchors)
    before = vz.serialize_scene(s)
    expected = OWNERSHIP[claimant, writer]
    if expected is None:
        CLAIMANTS[claimant](s, col, anchors)
        assert vz.validate.passed(vz.validate_scene(s))
    else:
        with pytest.raises(expected):
            CLAIMANTS[claimant](s, col, anchors)
        # refused before the first write: a refused affix keeps the default grid
        assert vz.serialize_scene(s) == before


def _broken_align(scene):
    a = scene.create_mark("rectangle", {"x": 10})
    b = scene.create_mark("rectangle", {"x": 50})
    spec = vz.align(scene, [a.id, b.id], "left")
    scene.translate(b, 7, 0, touch=False)
    return spec


def _broken_where_align():
    s, _ = build_diverging_bar()
    spec = next(c for c in s.constraints.values() if c.kind == "align")
    target = s.select(spec.params["targets"])[0]
    s.translate(movable_unit(s, target, "x"), -12, 0, touch=False)
    return s, spec


def _broken_affix(scene):
    anchor = scene.create_mark("rectangle", {"x": 20, "y": 30})
    label = scene.create_mark("text", {"text": "a"})
    spec = vz.affix(scene, [label.id], [anchor.id], "center", 0, 0)
    scene.translate(label, 0, 4, touch=False)
    return spec


def _broken_order(scene):
    col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "response")
    spec = vz.set_order(scene, col, "response", "descending")
    col.members.reverse()
    return spec


def _broken_z_order(scene):
    a = scene.create_mark("rectangle")
    b = scene.create_mark("rectangle")
    spec = vz.set_z_order(scene, [a.id, b.id], [5, -1])
    a.z_index = 0
    return spec


def _constraint_check(scene):
    report = vz.validate_scene(scene)
    return next(c for c in report if c["check"] == "constraint-satisfaction")


class TestValidationOfConstraints:
    """validate_scene reports a constraint broken behind propagation's back
    and passes again once propagation has re-enforced it."""

    @pytest.mark.parametrize("breaker", [_broken_align, _broken_affix,
                                         _broken_order, _broken_z_order])
    def test_broken_constraint_fails_then_propagation_fixes(self, scene, breaker):
        assert _constraint_check(scene)["status"] == "pass"
        spec = breaker(scene)
        assert not scene.dirty.any()
        check = _constraint_check(scene)
        assert check["status"] == "fail"
        assert any(d.startswith(f"{spec.id}:") for d in check["details"])
        scene.dirty.constraints.add(spec.id)
        scene.propagate()
        assert _constraint_check(scene)["status"] == "pass"

    def test_where_selected_alignment(self):
        s, spec = _broken_where_align()
        check = _constraint_check(s)
        assert check["status"] == "fail"
        assert any(d.startswith(f"{spec.id}:") for d in check["details"])
        s.dirty.constraints.add(spec.id)
        s.propagate()
        assert vz.validate.passed(vz.validate_scene(s))

    def test_validation_does_not_write(self, scene):
        spec = _broken_order(scene)
        before = list(scene.elements[spec.params["group"]].members)
        _constraint_check(scene)
        assert scene.elements[spec.params["group"]].members == before
