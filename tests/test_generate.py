import json
import random

import pytest

import vizscene as vz
from vizscene.errors import DataError, SceneError

from conftest import (brute_force_groups, build_diverging_bar, random_table,
                      scope_partition, survey_csv, tree_json)


class TestRepeat:
    def test_repeat_by_age(self, scene):
        rect = scene.create_mark("rectangle")
        rows = vz.repeat(scene, rect, "survey", "age")
        assert rows.group_kind == "collection"
        assert len(rows.members) == 4
        for m in rows.members:
            member = scene.elements[m]
            assert member.type == "rectangle"
            assert len(member.data_scope) == 4

    def test_constant_attribute(self):
        t = vz.import_table(b"k,v\nx,1\nx,2\n", "t")
        s = vz.create_scene()
        s.add_dataset(t)
        col = vz.repeat(s, s.create_mark("circle"), "t", "k")
        assert len(col.members) == 1
        assert set(s.elements[col.members[0]].data_scope.indices) == {0, 1}

    def test_repeat_glyph(self, scene):
        rect = scene.create_mark("rectangle")
        line = scene.create_mark("line")
        glyph = scene.create_glyph([rect, line])
        col = vz.repeat(scene, glyph, "survey", "age")
        assert len(col.members) == 4
        for m in col.members:
            g = scene.elements[m]
            assert g.group_kind == "glyph"
            types = {scene.elements[x].type for x in g.members}
            assert types == {"rectangle", "line"}
        # copies of one source member are peers; the two member marks are not
        first = scene.elements[col.members[0]]
        rect_copy = next(scene.elements[x] for x in first.members
                         if scene.elements[x].type == "rectangle")
        assert len(scene.peers_of(rect_copy)) == 4
        assert all(p.type == "rectangle" for p in scene.peers_of(rect_copy))

    def test_partition_matches_oracle(self, scene, survey):
        rect = scene.create_mark("rectangle")
        col = vz.repeat(scene, rect, "survey", "response")
        oracle = brute_force_groups(survey, "response")
        scopes, union = scope_partition(scene, col)
        assert sorted(map(tuple, (sorted(s) for s in scopes))) == \
            sorted(map(tuple, (sorted(v) for v in oracle.values())))
        assert union == set(range(16))

    def test_quantitative_attribute_rejected(self, scene):
        with pytest.raises(DataError, match="quantitative"):
            vz.repeat(scene, scene.create_mark("rectangle"), "survey", "pct")

    def test_copies_inherit_channels(self, scene):
        rect = scene.create_mark("rectangle", {"width": 77, "fill": "#123456"})
        col = vz.repeat(scene, rect, "survey", "age")
        for m in col.members:
            assert scene.elements[m].channels["width"] == 77
            assert scene.elements[m].channels["fill"] == "#123456"

    def test_default_layout_attached(self, scene):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        assert col.layout["type"] == "grid"
        assert col.layout["num_cols"] == 1
        # members flow down one column
        ys = [scene.bbox(scene.elements[m])[1] for m in col.members]
        assert ys == sorted(ys)
        assert len(set(ys)) == 4

    def test_scoped_element_restricts_partition(self, scene):
        rect = scene.create_mark("rectangle")
        rows = vz.repeat(scene, rect, "survey", "age")
        member = scene.elements[rows.members[0]]
        vz.repeat(scene, member, "survey", "response")
        # every age rect became a collection partitioned within its own scope
        for row_id in rows.members:
            row = scene.elements[row_id]
            assert row.group_kind == "collection"
            assert len(row.members) == 4
            for m in row.members:
                assert len(scene.elements[m].data_scope) == 1


class TestRepeatChaining:
    def test_repeat_then_divide_leaf_scopes(self, survey):
        s, parts = build_diverging_bar()
        leaves = []
        for row in parts["rows"].members:
            for leaf in s.elements[row].members:
                leaves.append(s.elements[leaf])
        assert len(leaves) == 16
        # leaf scopes equal group-by on the attribute pair
        pair_oracle = {}
        for i, item in enumerate(survey.items):
            pair_oracle.setdefault((item["age"], item["response"]), []).append(i)
        leaf_scopes = {tuple(l.data_scope.indices) for l in leaves}
        assert leaf_scopes == {tuple(v) for v in pair_oracle.values()}

    def test_nested_collection_kinds(self):
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        assert rows.group_kind == "collection"
        assert all(s.elements[m].group_kind == "collection" for m in rows.members)


class TestRepeatNetwork:
    def _net(self, links):
        nodes = sorted({e for l in links for e in l})
        doc = {"nodes": [{"id": n} for n in nodes],
               "links": [{"source": a, "target": b} for a, b in links]}
        return vz.import_network(json.dumps(doc).encode(), "net")

    def test_path(self):
        s = vz.create_scene()
        s.add_dataset(self._net([("a", "b"), ("b", "c")]))
        nodes, links = vz.repeat_network(s, s.create_mark("circle"),
                                         s.create_mark("line"), "net", "id")
        assert len(nodes.members) == 3
        assert len(links.members) == 2

    def test_star_wiring_matches_adjacency(self):
        s = vz.create_scene()
        net = self._net([("hub", "l1"), ("hub", "l2"), ("hub", "l3"), ("hub", "l4")])
        s.add_dataset(net)
        nodes, links = vz.repeat_network(s, s.create_mark("circle"),
                                         s.create_mark("line"), "net", "id")
        assert len(nodes.members) == 5
        assert len(links.members) == 4
        id_of = {}
        for m in nodes.members:
            el = s.elements[m]
            value = s.get_scope_value(el, "id")
            id_of[value] = el.id
        for m, link in zip(links.members, net.links):
            lm = s.elements[m]
            assert lm.source_node == id_of[link["source"]]
            assert lm.target_node == id_of[link["target"]]
            # geometry follows node centers
            sb = s.bbox(lm.source_node)
            assert lm.channels["x"] == pytest.approx((sb[0] + sb[2]) / 2)

    def test_duplicate_links_one_mark_each(self):
        s = vz.create_scene()
        doc = {"nodes": [{"id": "a"}, {"id": "b"}],
               "links": [{"source": "a", "target": "b"},
                         {"source": "a", "target": "b"}]}
        s.add_dataset(vz.import_network(json.dumps(doc).encode(), "net"))
        _, links = vz.repeat_network(s, s.create_mark("circle"),
                                     s.create_mark("line"), "net", "id")
        assert len(links.members) == 2

    def test_bad_link_mark_type(self):
        s = vz.create_scene()
        s.add_dataset(self._net([("a", "b")]))
        with pytest.raises(SceneError):
            vz.repeat_network(s, s.create_mark("circle"),
                              s.create_mark("rectangle"), "net", "id")


class TestDivide:
    def test_divide_rect_by_response(self):
        s, parts = build_diverging_bar()
        for row_id in parts["rows"].members:
            row = s.elements[row_id]
            assert row.group_kind == "collection"
            assert len(row.members) == 4
            # horizontal stack: children abut left to right
            boxes = [s.bbox(s.elements[m]) for m in row.members]
            for a, b in zip(boxes, boxes[1:]):
                assert b[0] == pytest.approx(a[2])

    def test_divide_circle_angular_sums_to_360(self, scene):
        t = vz.import_table(b"k\na\nb\nc\n", "t3")
        scene.add_dataset(t)
        circle = scene.create_mark("circle", {"radius": 50})
        col = vz.divide(scene, circle, "t3", "k", "angular")
        members = [scene.elements[m] for m in col.members]
        assert all(m.type == "pie" for m in members)
        assert sum(m.channels["angle"] for m in members) == pytest.approx(360, abs=1e-9)

    def test_divide_circle_radial_rings(self, scene):
        t = vz.import_table(b"k\na\nb\n", "t2")
        scene.add_dataset(t)
        col = vz.divide(scene, scene.create_mark("circle", {"radius": 40}), "t2", "k", "radial")
        members = [scene.elements[m] for m in col.members]
        assert all(m.type == "ring" for m in members)
        assert members[0].channels["inner_radius"] == 0
        assert members[0].channels["outer_radius"] == pytest.approx(20)
        assert members[1].channels["outer_radius"] == pytest.approx(40)

    def test_single_value_covers_parent(self, scene):
        t = vz.import_table(b"k\nsame\nsame\n", "t1")
        scene.add_dataset(t)
        rect = scene.create_mark("rectangle", {"x": 5, "y": 6, "width": 70, "height": 20})
        col = vz.divide(scene, rect, "t1", "k", "horizontal")
        assert len(col.members) == 1
        assert scene.bbox(scene.elements[col.members[0]]) == \
            pytest.approx((5, 6, 75, 26))

    def test_type_derivation_table(self, scene):
        t = vz.import_table(b"k\na\nb\n", "td")
        scene.add_dataset(t)
        stack = {"type": "stack", "orientation": "horizontal", "gap": 0.0}
        angular = {"type": "stack", "orientation": "angular", "gap": 0.0}
        cases = [
            ("rectangle", "horizontal", "rectangle", stack),
            ("circle", "angular", "pie", angular),
            ("circle", "radial", "ring", None),
            ("line", None, "line", None),
            ("pie", None, "arc", None),
            ("ring", None, "arc", angular),
        ]
        for in_type, orientation, out_type, layout in cases:
            col = vz.divide(scene, scene.create_mark(in_type), "td", "k", orientation)
            got = {scene.elements[m].type for m in col.members}
            assert got == {out_type}, (in_type, orientation)
            expected = vz.layout.normalize_layout(layout) if layout else None
            assert col.layout == expected, (in_type, orientation)
            assert col.layout_default == (layout is not None)

    def test_unsupported_type(self, scene):
        with pytest.raises(SceneError):
            vz.divide(scene, scene.create_mark("text"), "survey", "age")

    def test_missing_orientation(self, scene):
        with pytest.raises(SceneError, match="orientation"):
            vz.divide(scene, scene.create_mark("rectangle"), "survey", "age")


class TestDensify:
    def test_line_to_polyline(self):
        t = vz.import_table(b"k\na\nb\nc\nd\ne\n", "t5")
        s = vz.create_scene()
        s.add_dataset(t)
        line = s.create_mark("line", {"x2": 100})
        out = vz.densify(s, line, "t5", "k")
        assert out.type == "polyline"
        assert len(out.vertices) == 5
        assert all(v.data_scope is not None for v in out.vertices)
        assert len(out.segments) == 4

    def test_rect_to_area_vertex_pairs(self):
        t = vz.import_table(b"k\na\nb\nc\nd\ne\n", "t5")
        s = vz.create_scene()
        s.add_dataset(t)
        rect = s.create_mark("rectangle", {"width": 100, "height": 40})
        out = vz.densify(s, rect, "t5", "k", "horizontal")
        assert out.type == "area"
        assert len(out.vertices) == 10  # 5 per parallel border
        scoped = [v for v in out.vertices if v.data_scope is not None]
        assert len(scoped) == 5

    def test_circle_to_polygon(self):
        t = vz.import_table(b"k\na\nb\nc\n", "t3")
        s = vz.create_scene()
        s.add_dataset(t)
        out = vz.densify(s, s.create_mark("circle", {"radius": 10}), "t3", "k")
        assert out.type == "polygon"
        assert len(out.vertices) == 3
        assert len(out.segments) == 3

    def test_vertex_scopes_partition_input(self, scene, survey):
        line = scene.create_mark("line")
        out = vz.densify(scene, line, "survey", "age")
        scopes = [set(v.data_scope.indices) for v in out.vertices if v.data_scope]
        union = set()
        for sc in scopes:
            for i in sc:
                assert i not in union  # pairwise disjoint
            union |= sc
        assert union == set(range(16))

    def test_vertices_form_peer_set(self, scene):
        out = vz.densify(scene, scene.create_mark("line"), "survey", "age")
        first = out.vertices[0]
        assert len(scene.peers_of(first)) == 4

    def test_unsupported_type(self, scene):
        with pytest.raises(SceneError):
            vz.densify(scene, scene.create_mark("text"), "survey", "age")


class TestClassify:
    def _eight_rect_collection(self):
        lines = ["region,pair,value"]
        for region in ("N", "S", "E", "W"):
            for product in ("a", "b"):
                lines.append(f"{region},{region}-{product},{random.Random(0).randint(1,9)}")
        t = vz.import_table(("\n".join(lines) + "\n").encode(), "sales")
        s = vz.create_scene()
        s.add_dataset(t)
        col = vz.repeat(s, s.create_mark("rectangle"), "sales", "pair")
        return s, col

    def test_nested_collection_shape(self):
        s, col = self._eight_rect_collection()
        before = sorted(m for sub in [col.members] for m in sub)
        original_marks = [m for m in col.members]
        nested = vz.classify(s, col, "region")
        assert nested is col
        assert len(col.members) == 4
        for sub_id in col.members:
            sub = s.elements[sub_id]
            assert sub.group_kind == "collection"
            assert len(sub.members) == 2
            value = s.get_scope_value(sub, "region")
            for m in sub.members:
                assert s.get_scope_value(s.elements[m], "region") == value

    def test_membership_multiset_preserved(self):
        s, col = self._eight_rect_collection()
        original = sorted(col.members)
        vz.classify(s, col, "region")
        flattened = sorted(m for sub in col.members
                           for m in s.elements[sub].members)
        assert flattened == original

    def test_distinct_values_singletons(self):
        s, col = self._eight_rect_collection()
        vz.classify(s, col, "pair")
        assert len(col.members) == 8
        assert all(len(s.elements[m].members) == 1 for m in col.members)

    def test_mixed_member_rejected(self, scene):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        with pytest.raises(SceneError, match="mixed"):
            vz.classify(scene, col, "response")

    def test_empty_unscoped_collection_rejected(self, scene):
        col = scene.register(vz.Group(scene.make_id("col"), "collection"))
        before = vz.serialize_scene(scene)
        with pytest.raises(SceneError, match="no members"):
            vz.classify(scene, col, "age")
        assert vz.serialize_scene(scene) == before

    def test_subcollections_are_peers(self):
        s, col = self._eight_rect_collection()
        vz.classify(s, col, "region")
        subs = [s.elements[m] for m in col.members]
        assert len(s.peers_of(subs[0])) == 4


class TestRepopulate:
    def _template(self):
        lines = ["region,product,value"]
        values = {"N": (3, 5), "S": (2, 8), "E": (4, 4), "W": (6, 1)}
        for region, (a, b) in values.items():
            lines.append(f"{region},pa,{a}")
            lines.append(f"{region},pb,{b}")
        t = vz.import_table(("\n".join(lines) + "\n").encode(), "sales")
        s = vz.create_scene()
        s.add_dataset(t)
        rect = s.create_mark("rectangle", {"height": 12})
        rows = vz.repeat(s, rect, "sales", "region")
        vz.divide(s, s.elements[rows.members[0]], "sales", "product", "horizontal")
        leaf = s.elements[s.elements[rows.members[0]].members[0]]
        enc = vz.apply_encoding(s, leaf, "width", "value")
        return s, rows, enc

    def _population(self):
        lines = ["continent,country,population"]
        data = [("Asia", ["cn", "in", "id"]), ("Europe", ["de", "fr"]),
                ("Africa", ["ng", "et", "eg", "cd"])]
        pop = 10
        for continent, countries in data:
            for c in countries:
                lines.append(f"{continent},{c},{pop}")
                pop += 7
        return vz.import_table(("\n".join(lines) + "\n").encode(), "pop")

    def test_counts_follow_new_data(self):
        s, rows, _ = self._template()
        s.add_dataset(self._population())
        vz.repopulate(s, rows, "pop", [("continent", "region"), ("country", "product"),
                                       ("population", "value")])
        assert len(rows.members) == 3  # continents
        sizes = [len(s.elements[m].members) for m in rows.members]
        assert sizes == [3, 2, 4]  # countries per continent

    def test_identity_repopulate_is_structural_noop(self):
        s, rows, _ = self._template()
        before = vz.serialize_scene(s)
        vz.repopulate(s, rows, "sales", [("region", "region"), ("product", "product")])
        after = vz.serialize_scene(s)
        assert json.loads(before)["elements"] == json.loads(after)["elements"]

    def test_scopes_partition_new_dataset(self):
        s, rows, _ = self._template()
        pop = self._population()
        s.add_dataset(pop)
        vz.repopulate(s, rows, "pop", [("continent", "region"), ("country", "product"),
                                       ("population", "value")])
        oracle = brute_force_groups(pop, "continent")
        scopes, union = scope_partition(s, rows)
        assert sorted(map(tuple, (sorted(x) for x in scopes))) == \
            sorted(map(tuple, (sorted(v) for v in oracle.values())))
        assert union == set(range(len(pop.items)))

    def test_encodings_reevaluated(self):
        s, rows, enc = self._template()
        pop = self._population()
        s.add_dataset(pop)
        vz.repopulate(s, rows, "pop",
                      [("continent", "region"), ("country", "product"),
                       ("population", "value")])
        scale = s.scales[enc.scale]
        assert enc.attribute == "population"
        for row in rows.members:
            for m in s.elements[row].members:
                leaf = s.elements[m]
                expected = vz.scale_apply(scale, s.get_scope_value(leaf, "population"))
                assert s.get_channel(leaf, "width") == pytest.approx(expected)

    def test_missing_pair_attribute_errors(self):
        s, rows, _ = self._template()
        s.add_dataset(self._population())
        with pytest.raises(DataError):
            vz.repopulate(s, rows, "pop", [("nope", "region")])

    def test_renamed_columns_keep_constraints_valid(self):
        s, parts = build_diverging_bar()
        renamed = survey_csv().replace(b"age,response,pct", b"cohort,answer,share", 1)
        s.add_dataset(vz.import_table(renamed, "survey_b"))
        pairs = [("cohort", "age"), ("answer", "response"), ("share", "pct")]
        vz.repopulate(s, parts["rows"], "survey_b", pairs)
        vz.repopulate(s, parts["labels"], "survey_b", pairs)
        align = next(c for c in s.constraints.values() if c.kind == "align")
        assert align.params["targets"]["where"] == {"attribute": "answer",
                                                    "value": "strongly disagree"}
        report = vz.validate_scene(s)
        assert vz.validate.passed(report), report
        assert not s.propagate().evaluated

    def test_renamed_order_key_follows_pairs(self, scene):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "response")
        spec = vz.set_order(scene, col, "response", "descending")
        renamed = survey_csv().replace(b"age,response,pct", b"cohort,answer,share", 1)
        scene.add_dataset(vz.import_table(renamed, "survey_b"))
        vz.repopulate(scene, col, "survey_b", [("answer", "response")])
        assert spec.params["key"] == {"attribute": "answer"}
        assert not scene.last_report.unsatisfied
        values = [scene.get_scope_value(scene.elements[m], "answer") for m in col.members]
        assert values == ["strongly disagree", "disagree", "agree", "strongly agree"]

    def test_malformed_attribute_pair_rejected(self):
        s, rows, _ = self._template()
        before = vz.serialize_scene(s)
        with pytest.raises(DataError, match="pair"):
            vz.repopulate(s, rows, "sales", [("k",)])
        assert vz.serialize_scene(s) == before

    def test_without_provenance_errors(self, scene):
        a = scene.create_mark("rectangle")
        b = scene.create_mark("rectangle")
        from vizscene.elements import DataScope
        a.data_scope = DataScope("survey", (0,))
        b.data_scope = DataScope("survey", (1,))
        group = scene.group_elements([a, b])
        with pytest.raises(SceneError, match="provenance"):
            vz.repopulate(scene, group, "survey", [("age", "age")])


class TestStratify:
    def test_icicle_widths_proportional_to_leaves(self):
        s = vz.create_scene()
        s.add_dataset(vz.import_network(tree_json(), "tree"))
        rect = s.create_mark("rectangle", {"width": 300, "height": 150})
        col = vz.stratify(s, rect, "tree", "id", "vertical")
        marks = [s.elements[m] for m in col.members]
        root = marks[0]
        assert root.channels["width"] == pytest.approx(300)  # spans full width
        assert root.channels["height"] == pytest.approx(50)  # 3 levels
        # level widths proportional to leaf counts (4 leaves below root)
        level1 = [m for m in marks if m.channels["y"] == pytest.approx(50)]
        assert sorted(m.channels["width"] for m in level1) == \
            pytest.approx([150, 150])
        level2 = [m for m in marks if m.channels["y"] == pytest.approx(100)]
        assert [m.channels["width"] for m in level2] == pytest.approx([75] * 4)

    def test_sunburst_rings(self):
        s = vz.create_scene()
        s.add_dataset(vz.import_network(tree_json(), "tree"))
        col = vz.stratify(s, s.create_mark("circle", {"radius": 90}), "tree", "id")
        marks = [s.elements[m] for m in col.members]
        assert all(m.type == "arc" for m in marks)
        root = marks[0]
        assert root.channels["inner_radius"] == 0
        assert root.channels["outer_radius"] == pytest.approx(30)
        assert root.channels["angle"] == pytest.approx(360)
        leaf_ring = [m for m in marks if m.channels["inner_radius"] == pytest.approx(60)]
        assert sum(m.channels["angle"] for m in leaf_ring) == pytest.approx(360)

    def test_single_node_tree(self):
        s = vz.create_scene()
        doc = {"nodes": [{"id": "only"}], "links": []}
        s.add_dataset(vz.import_network(json.dumps(doc).encode(), "t1"))
        col = vz.stratify(s, s.create_mark("rectangle", {"width": 80, "height": 60}),
                          "t1", "id", "vertical")
        assert len(col.members) == 1
        only = s.elements[col.members[0]]
        assert s.bbox(only) == pytest.approx((0, 0, 80, 60))

    def test_parent_child_recorded(self):
        s = vz.create_scene()
        s.add_dataset(vz.import_network(tree_json(), "tree"))
        col = vz.stratify(s, s.create_mark("rectangle", {"width": 10, "height": 10}),
                          "tree", "id", "vertical")
        marks = [s.elements[m] for m in col.members]
        root = marks[0]
        assert root.tree_parent is None
        assert sum(1 for m in marks if m.tree_parent == root.id) == 2

    def test_deep_path_tree(self):
        n = 1500
        doc = {"nodes": [{"id": f"n{i}"} for i in range(n)],
               "links": [{"source": f"n{i}", "target": f"n{i + 1}"} for i in range(n - 1)]}
        s = vz.create_scene()
        s.add_dataset(vz.import_network(json.dumps(doc).encode(), "path"))
        col = vz.stratify(s, s.create_mark("rectangle", {"width": 90, "height": 3000}),
                          "path", "id", "horizontal")
        assert len(s.elements) == n + 1
        assert len(col.members) == n
        report = vz.validate_scene(s)
        assert vz.validate.passed(report), report

    def test_non_tree_rejected(self, scene):
        doc = {"nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
               "links": [{"source": "a", "target": "c"},
                         {"source": "b", "target": "c"}]}
        scene.add_dataset(vz.import_network(json.dumps(doc).encode(), "bad"))
        with pytest.raises(DataError):
            vz.stratify(scene, scene.create_mark("rectangle"), "bad", "id", "vertical")


class TestPartitionLaws:
    def test_randomized_partition_and_cardinality(self):
        rng = random.Random(20240811)
        for _ in range(60):
            table = random_table(rng, max_rows=200)
            s = vz.create_scene()
            s.add_dataset(table)
            op = rng.choice(["repeat", "divide", "densify", "classify"])
            uniques = vz.unique_values(table, "key")
            if op == "repeat":
                col = vz.repeat(s, s.create_mark("rectangle"), "rand", "key")
                scopes, union = scope_partition(s, col)
                assert len(col.members) == len(uniques)
            elif op == "divide":
                col = vz.divide(s, s.create_mark("rectangle"), "rand", "key", "horizontal")
                scopes, union = scope_partition(s, col)
                assert len(col.members) == len(uniques)
            elif op == "densify":
                mark = vz.densify(s, s.create_mark("line"), "rand", "key")
                scopes = [set(v.data_scope.indices) for v in mark.vertices if v.data_scope]
                union = set().union(*scopes)
                assert len(scopes) == len(uniques)
            else:
                col = vz.repeat(s, s.create_mark("rectangle"), "rand", "key")
                vz.classify(s, col, "key")
                scopes, union = [], set()
                for sub in col.members:
                    sub_scopes, sub_union = scope_partition(s, s.elements[sub])
                    scopes.extend(sub_scopes)
                    union |= sub_union
                assert len(col.members) == len(uniques)
            oracle = brute_force_groups(table, "key")
            assert union == set(range(len(table.items)))
            for a_i in range(len(scopes)):
                for b_i in range(a_i + 1, len(scopes)):
                    assert not scopes[a_i] & scopes[b_i]
            assert sorted(map(tuple, (sorted(x) for x in scopes))) == \
                sorted(map(tuple, (sorted(v) for v in oracle.values())))


class TestEncodingInteraction:
    def test_repeat_reapplies_encodings_to_copies(self, scene):
        from vizscene.elements import DataScope
        rect = scene.create_mark("rectangle")
        rect.data_scope = DataScope("survey", tuple(range(16)))
        enc = vz.apply_encoding(scene, rect, "width", "pct", aggregator="max")
        col = vz.repeat(scene, rect, "survey", "age")
        scale = scene.scales[enc.scale]
        for m in col.members:
            member = scene.elements[m]
            want = vz.scale_apply(scale, scene.get_scope_value(member, "pct", "max"))
            assert scene.get_channel(member, "width") == pytest.approx(want)

    def test_divide_drops_encodings_of_consumed_marks(self, scene):
        from vizscene.elements import DataScope
        rect = scene.create_mark("rectangle")
        rect.data_scope = DataScope("survey", tuple(range(16)))
        enc = vz.apply_encoding(scene, rect, "width", "pct", aggregator="max")
        width_before = scene.get_channel(rect, "width")
        col = vz.divide(scene, rect, "survey", "age", "horizontal")
        assert enc.id not in scene.encodings
        # children keep styling but split the parent extent
        total = sum(scene.elements[m].channels["width"] for m in col.members)
        assert total == pytest.approx(width_before)


class TestSparseCross:
    def test_nested_repeat_drops_missing_combinations(self):
        rows = ["a,b"]
        combos = [("x", "p"), ("x", "q"), ("y", "p")]  # (y,q) missing
        for a, b in combos:
            rows.append(f"{a},{b}")
        t = vz.import_table(("\n".join(rows) + "\n").encode(), "sparse")
        s = vz.create_scene()
        s.add_dataset(t)
        by_a = vz.repeat(s, s.create_mark("text", {"text": "."}), "sparse", "a")
        outer = vz.repeat(s, by_a, "sparse", "b")
        leaves = [s.elements[m] for g in outer.members
                  for m in s.elements[g].members]
        assert len(leaves) == 3  # only the present combinations survive
        scopes = {tuple(l.data_scope.indices) for l in leaves}
        assert scopes == {(0,), (1,), (2,)}
