import json
import pathlib

import vizscene as vz
from vizscene import constraints
from vizscene.constraints import evaluate_constraint, resolve_constraint
from vizscene.pipeline import execute_pipeline
from vizscene.scene import Scene

from conftest import build_diverging_bar, build_gallery_scenes

GALLERY = pathlib.Path(__file__).resolve().parent.parent / "gallery"


def _stack(scene, members, orientation):
    group = scene.group_elements(members, kind="composite")
    vz.apply_layout(scene, group, {"type": "stack", "orientation": orientation})
    return group


def _unsettled(scene):
    """Constraints a dry run would still move or flag; empty when all hold."""
    results = {cid: evaluate_constraint(scene, spec, write=False)
               for cid, spec in scene.constraints.items()}
    return {cid: r for cid, r in results.items() if r != (set(), None)}


def _layouts(report):
    return [e.split(":", 1)[1] for e in report.evaluated if e.startswith("layout:")]


class TestLayoutScheduler:
    def _nested(self):
        """r (horizontal) > a, b (vertical) > c1, c2 (horizontal) > marks,
        with groups declared in the order c1, c2, a, b, r."""
        s = vz.create_scene()
        marks = [s.create_mark("rectangle", {"width": 10, "height": 10})
                 for _ in range(4)]
        c1 = _stack(s, marks[:2], "horizontal")
        c2 = _stack(s, marks[2:], "horizontal")
        a = _stack(s, [c1], "vertical")
        b = _stack(s, [c2], "vertical")
        r = _stack(s, [a, b], "horizontal")
        s.propagate()
        return s, c1, c2, a, b, r

    def test_deepest_first_then_latest_declared(self):
        s, c1, c2, a, b, r = self._nested()
        with s.batch():
            # a is not dirty: it joins the pass when c1 grows, and r joins
            # when the first child grows; b is dirty from the start
            vz.update_layout_param(s, c1, "gap", 5)
            vz.update_layout_param(s, c2, "gap", 5)
            vz.update_layout_param(s, b, "gap", 1)
        assert _layouts(s.last_report) == [c2.id, c1.id, b.id, a.id, r.id]
        position = {el_id: i for i, el_id in enumerate(s.elements)}
        keys = [(s.depth(s.elements[g]), position[g]) for g in _layouts(s.last_report)]
        assert keys == sorted(keys, reverse=True)

    def test_ancestor_joins_only_when_a_child_resizes(self):
        s, c1, c2, a, b, r = self._nested()
        vz.update_layout_param(s, c1, "gap", 0.0)  # no size change
        assert _layouts(s.last_report) == [c1.id]
        vz.update_layout_param(s, c1, "gap", 3)
        assert _layouts(s.last_report) == [c1.id, a.id, r.id]

    def test_layouts_never_change_the_element_set(self):
        s, c1, c2, a, b, r = self._nested()
        before = list(s.elements)
        with s.batch():
            for g in (c1, c2, a, b, r):
                vz.update_layout_param(s, g, "gap", 2)
        assert list(s.elements) == before

    def test_layout_extents_equal_full_subtree_walks(self, monkeypatch):
        # the pass derives a group's extent from its members' boxes, measuring
        # again only the members its layout moved
        from vizscene import propagate
        s, c1, c2, a, b, r = self._nested()
        group_extent = propagate.group_extent
        extents = []

        def checked(group, boxes):
            extent = group_extent(group, boxes)
            extents.append(extent)
            assert extent == s.bbox_in_parent(group)
            return extent

        monkeypatch.setattr(propagate, "group_extent", checked)
        vz.update_layout_param(s, c1, "gap", 3)
        s.set_channel(s.elements[c2.members[0]], "width", 25)
        s.set_channel(s.elements[c2.members[1]], "height", 4)
        assert _layouts(s.last_report) == [c2.id, b.id, r.id]
        # a before and an after extent for each of the 3 x 3 evaluations
        assert len(extents) == 18


class TestConstraintFixpoint:
    def test_translating_a_row_evaluates_each_constraint_once(self):
        s, parts = build_diverging_bar()
        s.propagate()
        s.translate(s.elements[parts["rows"].members[1]], 7, 0)
        evaluated = [e for e in s.last_report.evaluated if e.startswith("constraint:")]
        assert evaluated
        assert len(evaluated) == len(set(evaluated))
        assert s.last_report.unsatisfied == []
        assert _unsettled(s) == {}

    def test_nested_align_targets_run_again_until_they_hold(self):
        # g carries m, so moving g and then m leaves g stretched past x
        s = vz.create_scene()
        x = s.create_mark("rectangle", {"x": 10, "y": 0, "width": 10, "height": 5})
        m = s.create_mark("rectangle", {"x": 0, "y": 10, "width": 5, "height": 5})
        n = s.create_mark("rectangle", {"x": 0, "y": 20, "width": 10, "height": 5})
        g = s.group_elements([m, n], kind="composite")
        s.propagate()
        assert g.layout is None
        con = vz.align(s, [g, m, x], "right")
        assert s.last_report.evaluated.count(f"constraint:{con.id}") >= 2
        assert s.last_report.unsatisfied == []
        assert _unsettled(s) == {}
        assert {s.bbox(e)[2] for e in (g, m, x)} == {30.0}
        checks = {c["check"]: c["status"] for c in vz.validate_scene(s)}
        assert checks["constraint-satisfaction"] == "pass"

    def test_constraints_still_hold_after_the_translate(self):
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        s.translate(s.elements[rows.members[1]], 7, 0)
        targets = s.select({"from": rows.id, "where": {
            "attribute": "response", "value": "strongly disagree"}})
        rights = [s.bbox(t)[2] for t in targets]
        assert max(rights) - min(rights) <= 1e-9
        labels = parts["labels"]
        for label in s.descendant_marks(labels):
            cell = next(m for m in s.descendant_marks(rows)
                        if m.data_scope == label.data_scope)
            lb, cb = s.bbox(label), s.bbox(cell)
            assert abs((lb[0] + lb[2]) / 2 - (cb[0] + cb[2]) / 2) <= 1e-9
            assert abs((lb[1] + lb[3]) / 2 - (cb[1] + cb[3]) / 2) <= 1e-9


class TestConstraintResolution:
    def test_translate_resolves_the_where_selector_once(self, monkeypatch):
        s, parts = build_diverging_bar()
        s.propagate()
        calls = []
        select = Scene.select

        def counting_select(scene, selection):
            if isinstance(selection, dict) and selection.get("where"):
                calls.append(selection)
            return select(scene, selection)

        monkeypatch.setattr(Scene, "select", counting_select)
        s.translate(s.elements[parts["rows"].members[1]], 7, 0)
        assert len(calls) == 1
        assert s.last_report.unsatisfied == []

    def test_follower_inside_an_anchor_glyph_settles(self):
        # moving f stretches its glyph g, which moves the centre f follows
        s = vz.create_scene()
        m = s.create_mark("rectangle", {"x": 0, "y": 0, "width": 20, "height": 20})
        f = s.create_mark("rectangle", {"x": 30, "y": 0, "width": 2, "height": 2})
        g = s.create_glyph([m, f])
        s.propagate()
        con = vz.affix(s, [f.id], [g.id], "center")
        assert resolve_constraint(s, con).nested
        assert s.last_report.evaluated.count(f"constraint:{con.id}") >= 2
        assert s.last_report.unsatisfied == []
        assert _unsettled(s) == {}
        assert s.bbox(f) == (9.0, 9.0, 11.0, 11.0)
        assert vz.validate.passed(vz.validate_scene(s))

    def test_flat_constraints_are_not_nested(self):
        s, _ = build_diverging_bar()
        assert [resolve_constraint(s, c).nested for c in s.constraints.values()
                if c.kind in ("align", "affix")] == [False, False]

    def test_a_pass_resolves_as_a_fresh_resolution_does(self, monkeypatch):
        scenes = build_gallery_scenes()
        scenes["diverging_bar_built"] = build_diverging_bar()[0]
        seen = []

        def recording_resolve(scene, spec):
            r = resolve_constraint(scene, spec)
            seen.append((scene, spec, r))
            return r

        def ids(els):
            return [e.id for e in els]

        monkeypatch.setattr(constraints, "resolve_constraint", recording_resolve)
        kinds = set()
        for scene in scenes.values():
            scene.dirty.structure = True
            scene.propagate()
            assert scene.last_report.unsatisfied == []
        monkeypatch.undo()
        for scene, spec, r in seen:
            if spec.kind not in ("align", "affix"):
                continue
            kinds.add(spec.kind)
            fresh = resolve_constraint(scene, spec)
            assert ids(r.targets) == ids(fresh.targets)
            assert ids(r.units) == ids(fresh.units)
            assert [(a.id, b.id) for a, b in r.pairs] == \
                [(a.id, b.id) for a, b in fresh.pairs]
            assert (r.reads, r.problem, r.nested) == \
                (fresh.reads, fresh.problem, fresh.nested)
        assert kinds == {"align", "affix"}

    def test_unregistered_target_is_reported(self):
        s = vz.create_scene()
        a, b, c = (s.create_mark("rectangle", {"x": x}) for x in (0, 5, 9))
        con = vz.align(s, [a.id, b.id, c.id], "left")
        s.unregister(b.id)
        s.translate(a, 3, 0)
        assert s.last_report.unsatisfied == [
            f"{con.id}: unknown element {b.id!r}"]


class TestVerboseReports:
    def _reports(self):
        manifest = json.loads((GALLERY / "manifest.json").read_text())
        steps = json.loads((GALLERY / "pipelines" / "diverging_bar.json").read_text())
        data = {name: vz.import_table((GALLERY / rel).read_bytes(), name)
                for name, rel in manifest["diverging_bar"].items()}
        return steps, execute_pipeline(steps, data, verbose=True).reports

    def test_steps_that_do_not_propagate_have_no_report(self):
        steps, reports = self._reports()
        reported = {r["step"] for r in reports}
        quiet = [i for i, step in enumerate(steps)
                 if step["op"] in ("create_mark", "add_legend")]
        assert len(quiet) == 3
        assert not reported & set(quiet)
        assert {r["op"] for r in reports} >= {"align", "affix"}

    def test_each_constraint_once_per_step(self):
        _, reports = self._reports()
        for r in reports:
            cons = [e for e in r["evaluated"] if e.startswith("constraint:")]
            assert len(cons) == len(set(cons)), r
