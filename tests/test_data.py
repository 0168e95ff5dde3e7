import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vizscene as vz
from vizscene.errors import DataError

from conftest import brute_force_groups, survey_csv, tree_json


class TestImportTable:
    def test_survey_shape_and_kinds(self, survey):
        assert [a.name for a in survey.attributes] == ["age", "response", "pct"]
        assert survey.attribute("pct").kind == "quantitative"
        assert survey.attribute("age").kind == "nominal"
        assert len(survey.items) == 16

    def test_minimal_table(self):
        t = vz.import_table(b"only\n7\n")
        assert len(t.attributes) == 1
        assert len(t.items) == 1
        assert t.items[0]["only"] == 7.0

    def test_mixed_column_is_nominal(self):
        t = vz.import_table(b"col\n12\nabc\n")
        # independent column scan: not every cell parses as a number
        parses = [c in ("12",) for c in ("12", "abc")]
        assert not all(parses)
        assert t.attribute("col").kind == "nominal"

    def test_temporal_inference(self):
        t = vz.import_table(b"day\n2021-01-02\n2021-01-01\n")
        assert t.attribute("day").kind == "temporal"
        assert vz.unique_values(t, "day") == ["2021-01-01", "2021-01-02"]

    def test_wrong_field_count_names_line(self):
        with pytest.raises(DataError, match="line 3"):
            vz.import_table(b"a,b\n1,2\n3\n")

    def test_empty_input(self):
        with pytest.raises(DataError):
            vz.import_table(b"")

    def test_header_optional_with_names(self):
        t = vz.import_table(b"1,2\n3,4\n", header=False, names=["x", "y"])
        assert len(t.items) == 2
        assert t.items[1]["y"] == 4.0

    def test_missing_cells_are_none(self):
        t = vz.import_table(b"a,b\n1,\n2,3\n")
        assert t.items[0]["b"] is None
        assert t.attribute("b").kind == "quantitative"

    def test_kind_override_and_declared_order(self):
        t = vz.import_table(b"size\nM\nS\nL\n", kinds={"size": "ordinal"},
                            orders={"size": ["S", "M", "L"]})
        assert vz.unique_values(t, "size") == ["S", "M", "L"]

    def test_declared_order_must_cover_values(self):
        with pytest.raises(DataError, match="declared order"):
            vz.import_table(b"size\nM\nXL\n", kinds={"size": "ordinal"},
                            orders={"size": ["S", "M", "L"]})

    def test_csv_round_trip(self, survey):
        again = vz.import_table(vz.export_csv(survey).encode(), "survey")
        assert again.items == survey.items
        assert [(a.name, a.kind) for a in again.attributes] == \
               [(a.name, a.kind) for a in survey.attributes]

    def test_rfc4180_quoting(self):
        t = vz.import_table(b'name,v\n"a, b",1\n')
        assert t.items[0]["name"] == "a, b"


class TestImportNetwork:
    def test_path_network(self):
        doc = {"nodes": [{"id": 1}, {"id": 2}, {"id": 3}],
               "links": [{"source": 1, "target": 2}, {"source": 2, "target": 3}]}
        net = vz.import_network(json.dumps(doc).encode())
        assert len(net.items) == 3
        assert len(net.links) == 2

    def test_tree_validation_depth(self, tree):
        # DFS oracle over the raw JSON
        doc = json.loads(tree_json())
        children = {}
        targets = set()
        for link in doc["links"]:
            children.setdefault(link["source"], []).append(link["target"])
            targets.add(link["target"])
        root = next(n["id"] for n in doc["nodes"] if n["id"] not in targets)

        def depth(node):
            kids = children.get(node, [])
            return 1 + (max(depth(k) for k in kids) if kids else 0)

        assert tree.validate_tree() == depth(root) == 3

    def test_dangling_link(self):
        doc = {"nodes": [{"id": "a"}], "links": [{"source": "a", "target": "Z"}]}
        with pytest.raises(DataError, match="link 0"):
            vz.import_network(json.dumps(doc).encode())

    @pytest.mark.parametrize("doc, message", [
        ({"nodes": [{"id": 1}, 1], "links": []}, "network node 1 is not an object"),
        ({"nodes": ["abc"], "links": []}, "network node 0 is not an object"),
        ({"nodes": [{"id": 1}, {"name": "x"}], "links": []}, "network node 1 missing 'id'"),
        ({"nodes": [{"id": [1]}], "links": []}, "network node 0 has an unhashable 'id'"),
        ({"nodes": [{"id": 1}], "links": [[1, 1]]}, "network link 0 is not an object"),
        ({"nodes": [{"id": 1}], "links": [{"source": 1, "target": {"id": 1}}]},
         "link 0 references a node id that does not exist"),
    ])
    def test_malformed_node_or_link(self, doc, message):
        with pytest.raises(DataError, match=re.escape(message)):
            vz.import_network(json.dumps(doc).encode())

    def test_cycle_is_not_a_tree(self):
        doc = {"nodes": [{"id": "a"}, {"id": "b"}],
               "links": [{"source": "a", "target": "b"},
                         {"source": "b", "target": "a"}]}
        net = vz.import_network(json.dumps(doc).encode())
        with pytest.raises(DataError):
            net.validate_tree()


class TestGrouping:
    def test_unique_ages(self, survey):
        assert vz.unique_values(survey, "age") == \
            ["below 30", "30 - 50", "50 - 70", "above 70"]

    def test_constant_column(self):
        t = vz.import_table(b"k\nx\nx\nx\n")
        assert vz.unique_values(t, "k") == ["x"]

    def test_declared_order_stable_under_shuffle(self):
        rng = random.Random(5)
        values = ["S", "M", "L", "M", "S", "L", "L"]
        shuffled = values[:]
        rng.shuffle(shuffled)
        make = lambda vs: vz.import_table(
            ("size\n" + "\n".join(vs) + "\n").encode(),
            kinds={"size": "ordinal"}, orders={"size": ["S", "M", "L"]})
        assert vz.unique_values(make(values), "size") == \
            vz.unique_values(make(shuffled), "size") == ["S", "M", "L"]

    def test_group_by_age(self, survey):
        groups = vz.group_items(survey, "age")
        assert len(groups) == 4
        assert all(len(v) == 4 for v in groups.values())

    def test_all_distinct_keys(self):
        t = vz.import_table(b"k\na\nb\nc\n")
        groups = vz.group_items(t, "k")
        assert all(len(v) == 1 for v in groups.values())

    def test_groups_match_oracle(self, survey):
        groups = vz.group_items(survey, "response")
        assert groups == brute_force_groups(survey, "response")

    def test_unknown_attribute(self, survey):
        with pytest.raises(DataError):
            vz.unique_values(survey, "nope")
        with pytest.raises(DataError):
            vz.group_items(survey, "nope")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=60))
    def test_partition_property(self, keys):
        t = vz.import_table(("k\n" + "\n".join(keys) + "\n").encode())
        groups = vz.group_items(t, "k")
        union = [i for idxs in groups.values() for i in idxs]
        assert sorted(union) == list(range(len(keys)))
        assert len(union) == len(set(union))
        assert len(vz.unique_values(t, "k")) == len(groups)


class TestAggregate:
    def test_reported_values(self):
        assert vz.aggregate([17, 36, 28, 29], "max") == 36
        assert vz.aggregate([17, 36, 28, 29], "min") == 17

    def test_sum_singleton(self):
        assert vz.aggregate([12.5], "sum") == 12.5

    def test_mean(self):
        assert vz.aggregate([2, 4], "mean") == 3

    def test_count_includes_missing_and_non_numeric(self):
        assert vz.aggregate([1, None, "x"], "count") == 3

    def test_missing_excluded_from_numeric(self):
        assert vz.aggregate([1, None, 3], "sum") == 4

    def test_empty_errors(self):
        for agg in ("max", "min", "mean"):
            with pytest.raises(DataError):
                vz.aggregate([], agg)

    def test_nominal_rejected(self):
        with pytest.raises(DataError):
            vz.aggregate(["a", "b"], "max")
