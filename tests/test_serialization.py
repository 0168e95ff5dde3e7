import copy
import enum
import functools
import json
import math
import re
import tracemalloc
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vizscene as vz
from vizscene.elements import DataScope
from vizscene.errors import SceneFormatError
from vizscene.sceneio import dump_json
from vizscene.validate import STRUCTURAL_CHECKS

from conftest import build_diverging_bar, build_gallery_scenes


class TestSerialize:
    def test_empty_scene_document(self):
        doc = json.loads(vz.serialize_scene(vz.create_scene()))
        assert doc["version"] == "msc-scene/1"
        assert doc["elements"] == []
        assert doc["datasets"] == []
        assert doc["constraints"] == []

    def test_serialize_deterministic(self):
        s, _ = build_diverging_bar()
        assert vz.serialize_scene(s) == vz.serialize_scene(s)

    def test_document_is_json_dumps_text(self):
        s, _ = build_diverging_bar()
        text = vz.serialize_scene(s)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_datasets_inlined_and_scopes_by_index(self):
        s, parts = build_diverging_bar()
        doc = json.loads(vz.serialize_scene(s))
        assert doc["datasets"][0]["name"] == "survey"
        assert len(doc["datasets"][0]["items"]) == 16
        marks = [e for e in doc["elements"] if e["kind"] == "mark"
                 and e["type"] == "rectangle"]
        assert all(isinstance(m["scope"]["indices"][0], int) for m in marks)


class TestRoundTrip:
    def test_double_round_trip_byte_identical(self):
        s, _ = build_diverging_bar()
        first = vz.serialize_scene(s)
        second = vz.serialize_scene(vz.deserialize_scene(first))
        assert first == second

    def test_render_identical_after_round_trip(self):
        s, _ = build_diverging_bar()
        restored = vz.deserialize_scene(vz.serialize_scene(s))
        assert vz.render(restored) == vz.render(s)

    def test_no_information_loss(self):
        s, _ = build_diverging_bar()
        vz.sync_scales(s, list(s.scales)[:1])
        doc = json.loads(vz.serialize_scene(s))
        restored = vz.deserialize_scene(json.dumps(doc))
        assert set(restored.encodings) == set(s.encodings)
        assert set(restored.scales) == set(s.scales)
        assert set(restored.constraints) == set(s.constraints)
        assert set(restored.peer_sets) == set(s.peer_sets)
        assert set(restored.sync_groups) == set(s.sync_groups)
        for ps_id, ps in s.peer_sets.items():
            assert restored.peer_sets[ps_id].members == ps.members
            assert restored.peer_sets[ps_id].provenance == ps.provenance
        for cid, c in s.constraints.items():
            assert restored.constraints[cid].params == c.params

    def test_operations_continue_on_restored_scene(self):
        s, parts = build_diverging_bar()
        restored = vz.deserialize_scene(vz.serialize_scene(s))
        rows = restored.elements[parts["rows"].id]
        # the restored scene still knows how to repopulate and re-encode
        lines = ["age,response,pct"]
        for age in ("young", "old"):
            for r in ("yes", "no", "maybe"):
                lines.append(f"{age},{r},{len(lines)}")
        t = vz.import_table(("\n".join(lines) + "\n").encode(), "survey2")
        restored.add_dataset(t)
        vz.repopulate(restored, rows, "survey2",
                      [("age", "age"), ("response", "response"), ("pct", "pct")])
        assert len(rows.members) == 2
        assert all(len(restored.elements[m].members) == 3 for m in rows.members)

    def test_fresh_ids_continue_past_parsed_ones(self):
        s, _ = build_diverging_bar()
        restored = vz.deserialize_scene(vz.serialize_scene(s))
        new_mark = restored.create_mark("circle")
        assert new_mark.id not in s.elements

    @pytest.mark.parametrize("table, record", [
        ("scales", {"id": "scale-9000", "kind": "linear", "domain": [0, 1], "range": [0, 1]}),
        ("aux", {"id": "aux-9000", "kind": "annotation", "text": "note", "x": 0, "y": 0}),
    ])
    def test_fresh_ids_continue_past_a_scale_or_aux_suffix(self, table, record):
        s, _ = build_diverging_bar()
        doc = json.loads(vz.serialize_scene(s))
        doc[table].append(record)
        assert vz.deserialize_scene(json.dumps(doc)).make_id("mark") == "mark-9001"


    def test_ids_after_loading_an_id_less_document_do_not_depend_on_history(self):
        s, _ = build_diverging_bar()
        doc = json.loads(vz.serialize_scene(s))
        del doc["id"]
        text = json.dumps(doc)
        before = vz.deserialize_scene(text)
        for _ in range(50):
            vz.create_scene()
        after = vz.deserialize_scene(text)
        assert before.id == after.id == "scene-1"
        assert before.make_id("mark") == after.make_id("mark")


class TestBoundedMemory:
    """Load shares equal values; save holds one record's tree at a time."""

    @staticmethod
    def _loaded_bar():
        s, _ = build_diverging_bar()
        return vz.deserialize_scene(vz.serialize_scene(s))

    def test_member_and_parent_ids_are_the_elements_own_ids(self):
        scene = self._loaded_bar()
        groups = [el for el in scene.elements.values() if el.kind != "mark"]
        assert groups
        for group in groups:
            for member_id in group.members:
                assert member_id is scene.elements[member_id].id
        for el in scene.elements.values():
            if el.parent is not None:
                assert el.parent is scene.elements[el.parent].id

    def test_a_cell_and_its_label_share_one_scope(self):
        scene = self._loaded_bar()
        cells = {m.data_scope: m for m in scene.elements.values()
                 if m.kind == "mark" and m.type == "rectangle" and m.data_scope is not None}
        labels = [m for m in scene.elements.values() if m.kind == "mark" and m.type == "text"]
        assert len(labels) == len(cells) == 16
        for label in labels:
            assert label.data_scope is cells[label.data_scope].data_scope

    def test_a_document_passed_as_a_dict_is_left_as_it_was(self):
        s, _ = build_diverging_bar()
        doc = json.loads(vz.serialize_scene(s))
        before = copy.deepcopy(doc)
        vz.deserialize_scene(doc)
        assert doc == before

    def test_serialize_peak_memory_is_bounded_by_the_text(self):
        # the text plus one record in flight; a whole document tree and its
        # list of text pieces cost about six times the text
        s, _ = build_diverging_bar()
        text = vz.serialize_scene(s)
        tracemalloc.start()
        try:
            assert vz.serialize_scene(s) == text
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)


class TestDeserializeErrors:
    def test_unknown_version(self):
        with pytest.raises(SceneFormatError, match="version"):
            vz.deserialize_scene(json.dumps({"version": "msc-scene/99"}))

    def test_dangling_member(self):
        s, _ = build_diverging_bar()
        doc = json.loads(vz.serialize_scene(s))
        group = next(e for e in doc["elements"] if e["kind"] == "collection")
        group["members"].append("el-999")
        with pytest.raises(SceneFormatError, match="el-999"):
            vz.deserialize_scene(json.dumps(doc))

    def test_overlapping_collection_scopes_rejected(self):
        s, parts = build_diverging_bar()
        doc = json.loads(vz.serialize_scene(s))
        rects = [e for e in doc["elements"]
                 if e["kind"] == "mark" and e["type"] == "rectangle"]
        rects[1]["scope"]["indices"] = list(rects[0]["scope"]["indices"])
        with pytest.raises(SceneFormatError, match="overlap"):
            vz.deserialize_scene(json.dumps(doc))

    def test_error_carries_json_path(self):
        s, _ = build_diverging_bar()
        doc = json.loads(vz.serialize_scene(s))
        doc["elements"][0]["scope"] = {"dataset": "ghost", "indices": [0]}
        with pytest.raises(SceneFormatError) as err:
            vz.deserialize_scene(json.dumps(doc))
        assert "elements[0]" in str(err.value)

    def test_non_number_layout_parameter_carries_its_path(self):
        s, _ = build_diverging_bar()
        doc = json.loads(vz.serialize_scene(s))
        i, group = next((i, e) for i, e in enumerate(doc["elements"])
                        if (e.get("layout") or {}).get("num_cols") is not None)
        group["layout"]["num_cols"] = "x"
        with pytest.raises(SceneFormatError) as err:
            vz.deserialize_scene(json.dumps(doc))
        assert err.value.path == f"elements[{i}].layout"
        assert "num_cols" in str(err.value)

    def test_bad_channel_rejected(self):
        s = vz.create_scene()
        s.create_mark("circle")
        doc = json.loads(vz.serialize_scene(s))
        doc["elements"][0]["channels"]["width"] = 10
        with pytest.raises(SceneFormatError, match="width"):
            vz.deserialize_scene(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(SceneFormatError):
            vz.deserialize_scene(b"this is not json")


class TestDsvg:
    def test_every_mark_annotated(self):
        s, _ = build_diverging_bar()
        out = vz.export_dsvg(s)
        rect_lines = [l for l in out.splitlines() if "<rect" in l]
        assert len(rect_lines) == 16
        for line in rect_lines:
            assert 'data-id="' in line
            assert 'data-datum="' in line
            assert 'class="rectangle ' in line

    def test_datum_matches_scope_values(self):
        s, _ = build_diverging_bar()
        out = vz.export_dsvg(s)
        import re
        marks = {e.id: e for e in s.elements.values() if e.kind == "mark"}
        for line in out.splitlines():
            m = re.search(r'data-datum="([^"]*)" data-id="([^"]*)"', line)
            if not m:
                continue
            datum = json.loads(m.group(1).replace("&quot;", '"'))
            mark = marks[m.group(2)]
            for attr, value in datum.items():
                assert s.get_scope_value(mark, attr) == value

    def test_scopeless_mark_has_no_datum(self):
        s = vz.create_scene()
        s.create_mark("rectangle")
        out = vz.export_dsvg(s)
        assert "data-datum" not in out
        assert 'data-id="' in out

    def test_class_includes_group_path(self):
        s, parts = build_diverging_bar()
        out = vz.export_dsvg(s)
        rows = parts["rows"]
        first_row = rows.members[0]
        assert f'class="rectangle {rows.id}/{first_row}"' in out

    def test_stripping_annotations_recovers_plain_svg(self):
        import re
        s, _ = build_diverging_bar()
        plain = vz.render(s)
        annotated = vz.export_dsvg(s)
        stripped = re.sub(r' (?:class|data-datum|data-id)="[^"]*"', "", annotated)
        assert stripped == plain


class TestStructureGuards:
    def test_membership_cycle_rejected(self):
        s, _ = build_diverging_bar()
        doc = json.loads(vz.serialize_scene(s))
        collections = [e for e in doc["elements"] if e["kind"] == "collection"]
        outer = next(c for c in collections if c.get("parent") is None)
        inner = next(c for c in collections if c["id"] in outer["members"])
        inner["members"].append(outer["id"])
        outer["parent"] = inner["id"]
        doc["roots"].remove(outer["id"])
        with pytest.raises(SceneFormatError):
            vz.deserialize_scene(json.dumps(doc))


def _index(doc, record_id, table="elements"):
    return next(i for i, r in enumerate(doc[table]) if r["id"] == record_id)


def _add_dangling_member(doc):
    doc["elements"][_index(doc, "col-53")]["members"].append("el-999")


def _move_member_to_other_group(doc):
    doc["elements"][_index(doc, "mark-54")]["parent"] = "col-90"


def _give_root_a_parent(doc):
    doc["elements"][_index(doc, "col-10")]["parent"] = "col-220"


def _make_membership_cycle(doc):
    outer = doc["elements"][_index(doc, "col-10")]
    a, b = doc["elements"][_index(doc, "col-53")], doc["elements"][_index(doc, "col-90")]
    outer["members"] = [m for m in outer["members"] if m not in (a["id"], b["id"])]
    a["members"].append(b["id"])
    b["parent"] = a["id"]
    b["members"].append(a["id"])
    a["parent"] = b["id"]


def _unknown_vertex_dataset(doc):
    doc["elements"][_index(doc, "mark-54")]["vertices"][0]["scope"] = {
        "dataset": "ghost", "table": "items", "indices": [0]}


def _set_scope_index(value):
    def mutate(doc):
        doc["elements"][_index(doc, "mark-54")]["scope"]["indices"] = [value]
    return mutate


def _one_endpoint_segment(doc):
    segment = doc["elements"][_index(doc, "mark-54")]["segments"][0]
    segment["endpoints"] = segment["endpoints"][:1]


def _overlap_collection(doc):
    doc["elements"][_index(doc, "mark-63")]["scope"]["indices"] = [0]


def _missing_peer_member(doc):
    doc["peer_sets"][_index(doc, "peers-205", "peer_sets")]["members"].append("mark-999")


def _break_peer_back_pointer(doc):
    del doc["elements"][_index(doc, "mark-54")]["peer_set"]


def _set_element_field(record_id, *keys, value):
    def mutate(doc):
        holder = doc["elements"][_index(doc, record_id)]
        for key in keys[:-1]:
            holder = holder[key]
        holder[keys[-1]] = value
    return mutate


class TestStructuralRulesAtLoad:
    """A document loads only if it passes every structural check; the error
    names the record the first failing rule is about."""

    @pytest.mark.parametrize("mutate, record, message", [
        (_add_dangling_member, ("elements", "col-53"), "member 'el-999' missing"),
        (_move_member_to_other_group, ("elements", "col-53"),
         "member 'mark-54' does not name 'col-53' as parent"),
        (_give_root_a_parent, ("roots", 0), "root 'col-10' has parent 'col-220'"),
        (_make_membership_cycle, ("elements", "col-53"), "not reachable from the roots"),
        (_unknown_vertex_dataset, ("elements", "mark-54"), "unknown dataset 'ghost'"),
        (_set_scope_index(-1), ("elements", "mark-54"), "scope index -1 out of range"),
        (_set_scope_index(16), ("elements", "mark-54"), "scope index 16 out of range"),
        (_one_endpoint_segment, ("elements", "mark-54"), "needs two endpoints"),
        (_overlap_collection, ("elements", "col-53"),
         "member scopes overlap: mark-54 and mark-63"),
        (_missing_peer_member, ("peer_sets", "peers-205"), "member 'mark-999' missing"),
        (_break_peer_back_pointer, ("peer_sets", "peers-205"),
         "member 'mark-54' does not point back"),
        (_set_element_field("mark-54", "channels", value="ghost"),
         ("elements", "mark-54", ".channels"), "unexpected value 'ghost'"),
        (_set_element_field("mark-54", "segments", 0, "channels", value=[]),
         ("elements", "mark-54", ".segments[0].channels"), "unexpected value []"),
        (_set_element_field("col-53", "channels", value=1.5),
         ("elements", "col-53", ".channels"), "unexpected value 1.5"),
        (_set_element_field("col-53", "offset", value="ghost"),
         ("elements", "col-53", ".offset"), "unexpected value 'ghost'"),
        (_set_element_field("col-53", "offset", value=[1]),
         ("elements", "col-53", ".offset"), "unexpected value [1]"),
        (_set_element_field("col-53", "offset", value=[1, True]),
         ("elements", "col-53", ".offset"), "unexpected value [1, True]"),
    ])
    def test_invalid_document_names_its_record(self, mutate, record, message):
        s, _ = build_diverging_bar()
        doc = json.loads(vz.serialize_scene(s))
        table, key, *field = record
        mutate(doc)
        position = key if table == "roots" else _index(doc, key, table)
        with pytest.raises(SceneFormatError, match=re.escape(message)) as err:
            vz.deserialize_scene(json.dumps(doc))
        assert err.value.path == f"{table}[{position}]" + "".join(field)

    def test_glyph_with_mixed_member_scopes(self, survey):
        s = vz.create_scene()
        s.add_dataset(survey)
        marks = [s.create_mark("circle"), s.create_mark("text")]
        for m in marks:
            m.data_scope = DataScope("survey", (0,))
        glyph = s.create_glyph(marks)
        doc = json.loads(vz.serialize_scene(s))
        doc["elements"][_index(doc, marks[1].id)]["scope"]["indices"] = [1]
        with pytest.raises(SceneFormatError, match="glyph members carry different scopes") as err:
            vz.deserialize_scene(json.dumps(doc))
        assert err.value.path == f"elements[{_index(doc, glyph.id)}]"


MUTANT_VALUES = (None, -1, 10**6, "ghost", [], {}, 1.5, True)


@functools.cache
def _gallery_documents():
    return {chart: json.loads(vz.serialize_scene(scene))
            for chart, scene in build_gallery_scenes().items()}


def _field_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_mutated_gallery_document_that_loads_passes_every_structural_check(data):
    docs = _gallery_documents()
    doc = copy.deepcopy(docs[data.draw(st.sampled_from(sorted(docs)))])
    path = data.draw(st.sampled_from(list(_field_paths(doc))))
    holder = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    if data.draw(st.booleans()):
        del holder[path[-1]]
    else:
        holder[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(MUTANT_VALUES)))
    try:
        scene = vz.deserialize_scene(json.dumps(doc))
    except Exception:
        # rejected; record kinds without shape checks (scales, encodings,
        # aux, view, ...) can still fail with a raw exception
        return
    for name, check in STRUCTURAL_CHECKS:
        assert list(check(scene)) == [], name


# ------------------------------------------------------------ the emitter


class _Int(enum.IntEnum):
    TWO = 2


class _Str(str):
    pass


class _Float(float):
    def __repr__(self):
        return "not this"


class _List(list):
    pass


_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", "\x00\x1f\x7f\"\\/\n\t", "é☃😀", "\ud800 lone surrogate"])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-(2 ** 200), max_value=2 ** 200) | st.floats() | _TEXT)
_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_JSON_VALUES)
@example([{}, [], (), {"a": [[], {}]}, [[[]]]])
@example({"z": -0.0, "n": math.nan, "p": math.inf, "m": -math.inf, "b": [True, 1, False, 0]})
@example({7: "int", 2.5: "float", -0.0: "negative zero", math.nan: "nan", True: "bool",
          None: "none", "s": 10 ** 30})
def test_dump_json_is_json_dumps_with_indent(value):
    assert dump_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [_Int.TWO, {_Int.TWO: _Str("x")}, _Float(0.5), _List([1, (2,)])],
    OrderedDict([("b", 1), ("a", OrderedDict())]),
    {_Str("k"): _Float("inf"), 3: [_List(), (), _Str("\u2603")]},
], ids=["int-enum-str-float-list", "ordered-dict", "subclass-keys"])
def test_dump_json_follows_json_on_subclasses(value):
    assert dump_json(value) == json.dumps(value, indent=2)


def _circular():
    loop = {"a": [1]}
    loop["a"].append(loop)
    return loop


@pytest.mark.parametrize("value", [
    {"ok": 1, "bad": object()}, [1, {2j: "key"}], {(1, 2): "tuple key"}, _circular(),
], ids=["value", "complex-key", "tuple-key", "circular"])
def test_dump_json_raises_as_json_dumps(value):
    with pytest.raises((TypeError, ValueError)) as want:
        json.dumps(value, indent=2)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        dump_json(value)
