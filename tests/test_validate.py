import json

import vizscene as vz
from vizscene.elements import DataScope

from conftest import build_gallery_scenes


def _details(report, check):
    return next(c["details"] for c in report if c["check"] == check)


class TestMarkGeometry:
    def test_rectangle_far_from_the_origin_passes(self):
        # x + width - x differs from width by float rounding at this offset
        s = vz.create_scene()
        s.create_mark("rectangle", {"x": 1e8, "width": 0.1})
        assert vz.validate.passed(vz.validate_scene(s))

    def test_moved_far_corner_fails(self):
        s = vz.create_scene()
        rect = s.create_mark("rectangle")
        rect.vertices[2].x = 55
        assert _details(vz.validate_scene(s), "mark-geometry") == [
            f"{rect.id}: far corner (55, 30) differs from the width and height channels"]


class TestScopeValidity:
    def test_out_of_range_vertex_scope(self, scene):
        line = scene.create_mark("polyline", {"vertices": [(0, 0), (10, 5)]})
        vertex = line.vertices[1]
        vertex.data_scope = DataScope("survey", (16,))
        assert _details(vz.validate_scene(scene), "scope-validity") == [
            f"{line.id}: vertex {vertex.id}: scope index 16 out of range"]

    def test_negative_index(self, scene):
        rect = scene.create_mark("rectangle")
        rect.data_scope = DataScope("survey", (-1, 0))
        assert _details(vz.validate_scene(scene), "scope-validity") == [
            f"{rect.id}: scope index -1 out of range"]


class TestElementReferences:
    def test_detached_subtree_is_unreachable(self, scene):
        a, b = scene.create_mark("rectangle"), scene.create_mark("rectangle")
        group = scene.group_elements([a, b], kind="composite")
        scene.roots.remove(group.id)
        assert _details(vz.validate_scene(scene), "element-references") == [
            f"{a.id}: not reachable from the roots",
            f"{b.id}: not reachable from the roots",
            f"{group.id}: not reachable from the roots"]

    def test_root_listed_twice(self):
        s = vz.create_scene()
        mark = s.create_mark("circle")
        s.roots.append(mark.id)
        assert _details(vz.validate_scene(s), "element-references") == [
            f"{mark.id}: appears twice in the tree"]


class TestEncodingConsistency:
    def test_encoding_of_a_channel_its_peers_lack_is_reported(self):
        scene = build_gallery_scenes()["diverging_bar"]
        doc = json.loads(vz.serialize_scene(scene))
        enc = doc["encodings"][0]
        enc["channel"] = "ghost"
        report = vz.validate_scene(vz.deserialize_scene(json.dumps(doc)))
        details = _details(report, "encoding-consistency")
        assert details and all(d.startswith(f"{enc['id']}: ") for d in details)
        assert "ghost" in details[0]
