"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Oracles are independent of the code paths they check: brute-force
group-by over raw rows, an arbitrary-precision scale evaluator, and a
from-scratch structural checker for the group definitions.
"""

import json
import math
import pathlib
import random
import re
import time

import mpmath
import pytest

import vizscene as vz
from vizscene.pipeline import execute_pipeline, load_pipeline

from conftest import brute_force_groups, build_diverging_bar, random_table

GALLERY = pathlib.Path(__file__).resolve().parent.parent / "gallery"

mpmath.mp.dps = 50


def _load_gallery():
    manifest = json.loads((GALLERY / "manifest.json").read_text())
    out = {}
    for name, bindings in manifest.items():
        steps = load_pipeline(GALLERY / "pipelines" / f"{name}.json")
        data = {}
        for dname, rel in bindings.items():
            raw = (GALLERY / rel).read_bytes()
            if rel.endswith(".json"):
                data[dname] = vz.import_network(raw, dname)
            else:
                data[dname] = vz.import_table(raw, dname)
        out[name] = (steps, data)
    return out


def _gallery_scenes():
    return {name: execute_pipeline(steps, data, scene_id="scene-1").scene
            for name, (steps, data) in _load_gallery().items()}


def _ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_acceptance_1_diverging_bar_end_to_end():
    started = time.perf_counter()
    steps, data = _load_gallery()["diverging_bar"]
    scene = execute_pipeline(steps, data, scene_id="scene-1").scene

    rect_cols = [e for e in scene.elements.values()
                 if e.kind == "collection" and e.members
                 and all(scene.elements[m].kind == "mark"
                         and scene.elements[m].type == "rectangle"
                         for m in e.members)]
    assert len(rect_cols) == 4
    assert all(len(c.members) == 4 for c in rect_cols)
    rects = [scene.elements[m] for c in rect_cols for m in c.members]
    assert len(rects) == 16

    texts = [e for e in scene.elements.values()
             if e.kind == "mark" and e.type == "text"]
    assert len(texts) == 16
    by_scope = {r.data_scope: r for r in rects}
    for label in texts:  # affixed: centered on the same-scope rectangle
        anchor = by_scope[label.data_scope]
        lb, ab = scene.bbox(label), scene.bbox(anchor)
        assert abs((lb[0] + lb[2]) / 2 - (ab[0] + ab[2]) / 2) <= 1e-9
        assert abs((lb[1] + lb[3]) / 2 - (ab[1] + ab[3]) / 2) <= 1e-9

    ratios = [scene.get_channel(r, "width") / scene.get_scope_value(r, "pct")
              for r in rects]
    for ratio in ratios:  # widths proportional to pct within 1e-9 relative
        assert abs(ratio - ratios[0]) / ratios[0] <= 1e-9

    bottom = next(c for c in rect_cols
                  if scene.get_scope_value(c, "age") == "above 70")
    assert scene.get_scope_value(bottom, "pct", "max") == 36
    assert scene.get_scope_value(bottom, "pct", "min") == 17

    light_blue = [r for r in rects
                  if scene.get_scope_value(r, "response") == "strongly disagree"]
    rights = [scene.bbox(r)[2] for r in light_blue]
    assert len(rights) == 4
    assert max(rights) - min(rights) <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(1, f"diverging bar: 4x4 rects + 16 affixed texts, widths prop. to pct, "
           f"max/min 36/17, rights aligned ({elapsed:.3f}s)")


def test_acceptance_2_partition_and_cardinality_laws():
    started = time.perf_counter()
    rng = random.Random(20260811)
    checked = 0
    for _ in range(500):
        table = random_table(rng, max_rows=1000)
        uniques = vz.unique_values(table, "key")
        oracle = brute_force_groups(table, "key")
        s = vz.create_scene()
        s.add_dataset(table)
        op = rng.choice(["repeat", "divide", "densify", "classify"])
        if op == "repeat":
            col = vz.repeat(s, s.create_mark("rectangle"), "rand", "key")
            scopes = [set(s.elements[m].data_scope.indices) for m in col.members]
            count = len(col.members)
        elif op == "divide":
            col = vz.divide(s, s.create_mark("rectangle"), "rand", "key", "vertical")
            scopes = [set(s.elements[m].data_scope.indices) for m in col.members]
            count = len(col.members)
        elif op == "densify":
            mark = vz.densify(s, s.create_mark("line"), "rand", "key")
            scopes = [set(v.data_scope.indices) for v in mark.vertices if v.data_scope]
            count = len(scopes)
        else:
            col = vz.repeat(s, s.create_mark("rectangle"), "rand", "key")
            vz.classify(s, col, "key")
            count = len(col.members)
            scopes = []
            for sub in col.members:
                for m in s.elements[sub].members:
                    scopes.append(set(s.elements[m].data_scope.indices))
        assert count == len(uniques)  # cardinality law
        union = set()
        for sc in scopes:
            assert not union & sc  # pairwise disjoint
            union |= sc
        assert union == set(range(len(table.items)))  # union-complete
        assert sorted(map(tuple, (sorted(x) for x in scopes))) == \
            sorted(map(tuple, (sorted(v) for v in oracle.values())))
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok(2, f"{checked} randomized instances match the group-by oracle "
           f"({elapsed:.1f}s)")


# --- independent structural checker for the group definitions --------------


def _sig(scene, el):
    if el.kind == "mark":
        return ("mark", el.type)
    if el.kind == "glyph":
        bag = sorted(scene.elements[m].type for m in el.members)
        return ("glyph", tuple(bag))
    if el.kind == "collection":
        inner = {_sig(scene, scene.elements[m]) for m in el.members}
        return ("collection", tuple(sorted(inner)))
    return ("composite",)


def _check_definitions(scene):
    for el in scene.elements.values():
        if el.kind == "glyph":
            assert all(scene.elements[m].kind == "mark" for m in el.members)
            scopes = {scene.elements[m].data_scope for m in el.members}
            assert len(scopes) == 1  # marks share one data scope
            assert el.data_scope == next(iter(scopes))
        elif el.kind == "collection" and el.members:
            members = [scene.elements[m] for m in el.members]
            kinds = {m.kind for m in members}
            assert kinds <= {"mark"} or kinds <= {"glyph"} or kinds <= {"collection"}
            assert len({_sig(scene, m) for m in members}) == 1  # same type
            scopes = [m.data_scope for m in members]
            assert all(sc is not None for sc in scopes)
            assert len({(sc.dataset, sc.table) for sc in scopes}) == 1
            seen = set()
            for sc in scopes:
                indices = set(sc.indices)
                assert not seen & indices  # no overlap
                seen |= indices
            assert set(el.data_scope.indices) == seen  # union law


def test_acceptance_3_definition_conformance_over_gallery():
    scenes = _gallery_scenes()
    assert len(scenes) >= 15
    for name, scene in scenes.items():
        _check_definitions(scene)
        report = vz.validate_scene(scene)
        bad = [c for c in report if c["status"] == "fail"]
        assert not bad, (name, bad)
    _ok(3, f"definitions hold across {len(scenes)} gallery pipelines")


def test_acceptance_4_orientation_swap_chain():
    s = vz.create_scene()
    table = vz.import_table((GALLERY / "data/months.csv").read_bytes(), "months")
    s.add_dataset(table)
    bars = vz.repeat(s, s.create_mark("rectangle", {"width": 22}), "months", "month")
    vz.update_layout_param(s, bars, "num_rows", 1)
    enc_h = vz.apply_encoding(s, s.elements[bars.members[0]], "height", "value")
    members = [s.elements[m] for m in bars.members]
    argmax_before = max(members, key=lambda m: m.channels["height"]).id

    # set bar height to constant (after releasing the encoding)
    vz.remove_encoding(s, enc_h.id)
    s.set_channel_peers(members[0], "height", 20)
    # bind the attribute to width
    enc_w = vz.apply_encoding(s, members[0], "width", "value")
    # update the grid layout parameter: one column
    vz.update_layout_param(s, bars, "num_cols", 1)
    # customize the width scale
    vz.customize_scale(s, enc_w.scale, {"range": [0, 200]})

    scale = s.scales[enc_w.scale]
    heights = {m.channels["height"] for m in members}
    assert heights == {20}  # heights no longer encode anything
    for m in members:  # widths encode the attribute
        expected = vz.scale_apply(scale, s.get_scope_value(m, "value"))
        assert abs(m.channels["width"] - expected) <= 1e-9
    boxes = [s.bbox(m) for m in members]
    assert len({round(b[0], 9) for b in boxes}) == 1  # one column
    ys = [b[1] for b in boxes]
    assert ys == sorted(ys) and len(set(ys)) == len(members)
    argmax_after = max(members, key=lambda m: m.channels["width"]).id
    assert argmax_after == argmax_before
    _ok(4, "vertical-to-horizontal chain: widths encode data, one-column flow, "
           "argmax bar preserved")


def test_acceptance_5_repopulate_templating():
    s = vz.create_scene()
    sales = vz.import_table((GALLERY / "data/sales.csv").read_bytes(), "sales")
    s.add_dataset(sales)
    rows = vz.repeat(s, s.create_mark("rectangle", {"height": 14}), "sales", "region")
    vz.divide(s, s.elements[rows.members[0]], "sales", "product", "horizontal")
    leaf = s.elements[s.elements[rows.members[0]].members[0]]
    enc = vz.apply_encoding(s, leaf, "width", "value")
    assert len(rows.members) == 4
    assert all(len(s.elements[m].members) == 2 for m in rows.members)

    countries = vz.import_table((GALLERY / "data/countries.csv").read_bytes(), "countries")
    s.add_dataset(countries)
    vz.repopulate(s, rows, "countries",
                  [("continent", "region"), ("country", "product"),
                   ("population", "value")])

    # member counts track the new unique-value counts at every level
    assert len(rows.members) == len(vz.unique_values(countries, "continent")) == 3
    by_continent = brute_force_groups(countries, "continent")
    got_sizes = [len(s.elements[m].members) for m in rows.members]
    want_sizes = [len(v) for v in by_continent.values()]
    assert got_sizes == want_sizes == [3, 2, 4]

    # encodings re-evaluated: recompute widths from the new data
    scale = s.scales[enc.scale]
    populations = [row["population"] for row in countries.items]
    assert scale.domain == [0, max(populations)]
    for row_id in rows.members:
        for m in s.elements[row_id].members:
            mark = s.elements[m]
            pop = s.get_scope_value(mark, "population")
            want = pop / max(populations) * scale.range[1]
            assert abs(mark.channels["width"] - want) <= 1e-9
    _ok(5, "template repopulated: 4x2 became 3x[3,2,4], widths recomputed "
           "from the new data")


def test_acceptance_6_constraint_maintenance_under_mutation():
    rng = random.Random(20260811)
    s, parts = build_diverging_bar()
    rows = parts["rows"]
    labels = parts["labels"]
    leaves = [s.elements[m] for r in rows.members for m in s.elements[r].members]
    for _ in range(100):
        action = rng.choice(["height", "range", "domain", "gap", "font"])
        if action == "height":
            s.set_channel_peers(rng.choice(leaves), "height", rng.randint(10, 28))
        elif action == "range":
            vz.customize_scale(s, parts["enc_width"].scale,
                               {"range": [0, rng.randint(80, 240)]})
        elif action == "domain":
            vz.customize_scale(s, parts["enc_width"].scale,
                               {"domain": [0, rng.randint(40, 110)]})
        elif action == "gap":
            vz.update_layout_param(s, s.elements[rows.members[rng.randrange(4)]],
                                   "gap", rng.randint(0, 3))
        else:
            text = s.elements[s.elements[labels.members[0]].members[0]]
            s.set_channel_peers(text, "font_size", rng.randint(7, 12))
    s.propagate()

    scale = s.scales[parts["enc_width"].scale]
    for leaf in leaves:  # every encoding equation holds to 1e-9
        want = vz.scale_apply(scale, s.get_scope_value(leaf, "pct"))
        assert abs(s.get_channel(leaf, "width") - want) <= 1e-9
    align_spec = next(c for c in s.constraints.values() if c.kind == "align")
    rights = [s.bbox(t)[2]
              for t in s.select(align_spec.params["targets"])]
    assert max(rights) - min(rights) <= 1e-9
    texts = [s.elements[m] for g in labels.members for m in s.elements[g].members]
    by_scope = {r.data_scope: r for r in leaves}
    for label in texts:
        ab = s.bbox(by_scope[label.data_scope])
        lb = s.bbox(label)
        assert abs((lb[0] + lb[2]) / 2 - (ab[0] + ab[2]) / 2) <= 1e-9
        assert abs((lb[1] + lb[3]) / 2 - (ab[1] + ab[3]) / 2) <= 1e-9
    second = s.propagate()
    assert second.evaluated == []  # idempotent
    _ok(6, "100 random mutations: encodings and constraints restored, "
           "second propagation evaluates zero nodes")


def test_acceptance_7_serialization_round_trips_gallery():
    scenes = _gallery_scenes()
    for name, scene in scenes.items():
        first = vz.serialize_scene(scene)
        restored = vz.deserialize_scene(first)
        second = vz.serialize_scene(restored)
        assert first == second, name  # byte-identical double round trip
        assert vz.render(restored) == vz.render(scene), name
    _ok(7, f"double round trip byte-identical and renders equal across "
           f"{len(scenes)} scenes")


def test_acceptance_8_dsvg_annotations():
    s, _ = build_diverging_bar()
    plain = vz.render(s)
    annotated = vz.export_dsvg(s)
    mark_lines = [l for l in annotated.splitlines()
                  if "<rect" in l or "<text" in l]
    assert len(mark_lines) == 32
    marks = {e.id: e for e in s.elements.values() if e.kind == "mark"}
    for line in mark_lines:
        m = re.search(r'class="(\S+) [^"]*" data-datum="([^"]*)" data-id="([^"]*)"',
                      line)
        assert m, line
        datum = json.loads(m.group(2).replace("&quot;", '"'))
        mark = marks[m.group(3)]
        assert m.group(1) == mark.type
        for attr, value in datum.items():
            assert s.get_scope_value(mark, attr) == value
    stripped = re.sub(r' (?:class|data-datum|data-id)="[^"]*"', "", annotated)
    assert stripped == plain  # annotations are purely additive
    _ok(8, "all 32 marks carry id/class/datum; stripping them recovers the "
           "plain render byte for byte")


def test_acceptance_9_scale_laws():
    rng = random.Random(99)
    checked = 0
    for _ in range(10000):
        kind = rng.choice(["linear", "linear", "power", "log", "band",
                           "ordinal-point"])
        if kind in ("band", "ordinal-point"):
            n = rng.randint(1, 9)
            domain = [f"c{i}" for i in range(n)]
            r0 = rng.uniform(-100, 100)
            r1 = r0 + rng.uniform(1, 400)
            scale = vz.Scale("s", kind, domain, [r0, r1])
            idx = rng.randrange(n)
            got = vz.scale_apply(scale, domain[idx])
            if kind == "band":
                want = mpmath.mpf(r0) + idx * (mpmath.mpf(r1) - r0) / n
            elif n == 1:
                want = (mpmath.mpf(r0) + r1) / 2
            else:
                want = mpmath.mpf(r0) + idx * (mpmath.mpf(r1) - r0) / (n - 1)
        else:
            if kind == "log":
                d0 = rng.uniform(0.01, 10)
                d1 = d0 + rng.uniform(0.5, 1000)
            else:
                d0 = rng.uniform(-1000, 1000)
                d1 = d0 + rng.uniform(0.5, 2000)
            r0 = rng.uniform(-500, 500)
            r1 = r0 + rng.uniform(1, 1000) * rng.choice([1, -1])
            exponent = rng.choice([0.5, 0.7, 2.0])
            scale = vz.Scale("s", kind, [d0, d1], [r0, r1], exponent=exponent)
            v = rng.uniform(d0, d1)
            got = vz.scale_apply(scale, v)
            d0m, d1m = mpmath.mpf(d0), mpmath.mpf(d1)
            r0m, r1m = mpmath.mpf(r0), mpmath.mpf(r1)
            x = mpmath.mpf(v)
            if kind == "power":
                t = lambda u: mpmath.sign(u) * (abs(u) ** mpmath.mpf(exponent))
            elif kind == "log":
                t = lambda u: mpmath.log(u) / mpmath.log(10)
            else:
                t = lambda u: u
            n_ = (t(x) - t(d0m)) / (t(d1m) - t(d0m))
            want = r0m + n_ * (r1m - r0m)
        denominator = max(abs(float(want)), abs(r1 - r0))
        assert abs(got - float(want)) / denominator <= 1e-12
        checked += 1

    # synced scales: domain edits replicate, ranges stay independent
    s = vz.create_scene()
    s.add_dataset(vz.import_table(b"k,v\na,1\nb,9\n", "d1"))
    s.add_dataset(vz.import_table(b"k,v\na,4\nb,6\n", "d2"))
    c1 = vz.repeat(s, s.create_mark("rectangle"), "d1", "k")
    c2 = vz.repeat(s, s.create_mark("rectangle"), "d2", "k")
    e1 = vz.apply_encoding(s, s.elements[c1.members[0]], "height", "v")
    e2 = vz.apply_encoding(s, s.elements[c2.members[0]], "height", "v")
    s1, s2 = s.scales[e1.scale], s.scales[e2.scale]
    vz.customize_scale(s, s2, {"range": [0, 64]})
    vz.sync_scales(s, [s1.id, s2.id])
    vz.customize_scale(s, s1, {"domain": [0, 12]})
    assert s1.domain == s2.domain == [0, 12]
    assert s1.range == [0, 100] and s2.range == [0, 64]
    _ok(9, f"{checked} randomized scale evaluations within 1e-12 of the "
           f"high-precision oracle; sync semantics hold")
