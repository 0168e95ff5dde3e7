import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vizscene as vz
from vizscene.encoding import CATEGORY10, Scale, infer_scale
from vizscene.errors import EncodingError

from conftest import build_diverging_bar

mpmath.mp.dps = 50


def oracle_numeric(kind, domain, rng, v, exponent=0.5, base=10.0):
    """High-precision reference for the numeric scale kinds."""
    d0, d1 = (mpmath.mpf(x) for x in domain)
    r0, r1 = (mpmath.mpf(x) for x in rng)
    x = mpmath.mpf(v)
    x = max(min(x, d1), d0)
    if kind == "power":
        t = lambda u: mpmath.sign(u) * (abs(u) ** mpmath.mpf(exponent))
    elif kind == "log":
        t = lambda u: mpmath.log(u) / mpmath.log(mpmath.mpf(base))
    else:
        t = lambda u: u
    t0, t1 = t(d0), t(d1)
    n = mpmath.mpf(0) if t1 == t0 else (t(x) - t0) / (t1 - t0)
    return r0 + n * (r1 - r0)


class TestScaleApply:
    def test_linear_arithmetic(self):
        s = Scale("s", "linear", [0, 100], [0, 200])
        assert vz.scale_apply(s, 17) == 34

    def test_domain_min_maps_to_range_min(self):
        s = Scale("s", "linear", [3, 9], [40, 80])
        assert vz.scale_apply(s, 3) == 40

    def test_randomized_against_high_precision_oracle(self):
        rng = random.Random(7)
        for _ in range(400):
            kind = rng.choice(["linear", "power", "log"])
            if kind == "log":
                d0 = rng.uniform(0.01, 10)
                d1 = d0 + rng.uniform(0.5, 100)
            else:
                d0 = rng.uniform(-100, 100)
                d1 = d0 + rng.uniform(0.5, 200)
            r0 = rng.uniform(-300, 300)
            r1 = r0 + rng.uniform(1, 500) * rng.choice([1, -1])
            v = rng.uniform(d0, d1)
            s = Scale("s", kind, [d0, d1], [r0, r1], exponent=0.7)
            got = vz.scale_apply(s, v)
            want = oracle_numeric(kind, [d0, d1], [r0, r1], v, exponent=0.7)
            denominator = max(abs(float(want)), abs(r1 - r0))
            assert abs(got - float(want)) / denominator < 1e-12

    def test_clamping(self):
        s = Scale("s", "linear", [0, 10], [0, 100])
        assert vz.scale_apply(s, -5) == 0
        assert vz.scale_apply(s, 25) == 100

    def test_log_rejects_non_positive(self):
        s = Scale("s", "log", [1, 100], [0, 10])
        with pytest.raises(EncodingError):
            vz.scale_apply(s, 0)
        with pytest.raises(EncodingError):
            vz.scale_apply(s, -3)

    def test_band_slots(self):
        s = Scale("s", "band", ["a", "b", "c", "d"], [0, 100])
        assert vz.scale_apply(s, "a") == 0
        assert vz.scale_apply(s, "c") == 50
        assert vz.band_width(s) == 25

    def test_point_slots(self):
        s = Scale("s", "ordinal-point", ["a", "b", "c"], [0, 100])
        assert [vz.scale_apply(s, v) for v in "abc"] == [0, 50, 100]
        single = Scale("s1", "ordinal-point", ["only"], [0, 100])
        assert vz.scale_apply(single, "only") == 50

    def test_categorical_colors(self):
        s = Scale("s", "color-categorical", ["x", "y"], list(CATEGORY10))
        assert vz.scale_apply(s, "x") == "#1f77b4"
        assert vz.scale_apply(s, "y") == "#ff7f0e"

    def test_sequential_interpolation_endpoints_and_midpoint(self):
        s = Scale("s", "color-sequential", [0, 1], ["#000000", "#ff0000"])
        assert vz.scale_apply(s, 0) == "#000000"
        assert vz.scale_apply(s, 1) == "#ff0000"
        assert vz.scale_apply(s, 0.5) == "#800000"  # round(127.5) = 128

    @settings(max_examples=40, deadline=None)
    @given(d0=st.floats(-50, 50), span=st.floats(1, 100),
           vs=st.lists(st.floats(0, 1), min_size=2, max_size=6))
    def test_linear_monotone(self, d0, span, vs):
        s = Scale("s", "linear", [d0, d0 + span], [10, 110])
        values = sorted(d0 + v * span for v in vs)
        outputs = [vz.scale_apply(s, v) for v in values]
        assert all(a <= b + 1e-9 for a, b in zip(outputs, outputs[1:]))


class TestApplyEncoding:
    def test_width_by_pct_proportional(self):
        s, parts = build_diverging_bar()
        scale = s.scales[parts["enc_width"].scale]
        leaves = [s.elements[m] for row in parts["rows"].members
                  for m in s.elements[row].members]
        for leaf in leaves:
            pct = s.get_scope_value(leaf, "pct")
            assert s.get_channel(leaf, "width") == \
                pytest.approx(pct / scale.domain[1] * scale.range[1])

    def test_fill_by_response_categories(self):
        s, parts = build_diverging_bar()
        leaves = [s.elements[m] for row in parts["rows"].members
                  for m in s.elements[row].members]
        fills = {s.get_scope_value(l, "response"): s.get_channel(l, "fill")
                 for l in leaves}
        assert len(set(fills.values())) == 4
        for leaf in leaves:  # equal-value peers share the color
            assert s.get_channel(leaf, "fill") == \
                fills[s.get_scope_value(leaf, "response")]

    def test_constant_attribute_gives_equal_channels(self, scene):
        t = vz.import_table(b"k,v\na,5\nb,5\n", "const")
        scene.add_dataset(t)
        col = vz.repeat(scene, scene.create_mark("rectangle"), "const", "k")
        vz.apply_encoding(scene, scene.elements[col.members[0]], "width", "v")
        widths = {scene.get_channel(scene.elements[m], "width") for m in col.members}
        assert len(widths) == 1

    def test_duplicate_channel_encoding_rejected(self):
        s, parts = build_diverging_bar()
        leaf = s.elements[s.elements[parts["rows"].members[0]].members[0]]
        with pytest.raises(EncodingError, match="already encoded"):
            vz.apply_encoding(s, leaf, "width", "pct")

    def test_duplicate_position_encoding_rejected(self, scene):
        col = vz.repeat(scene, scene.create_mark("circle"), "survey", "age")
        vz.apply_layout(scene, col, {"type": "none"})
        member = scene.elements[col.members[0]]
        vz.apply_encoding(scene, member, "x", "pct", aggregator="mean")
        with pytest.raises(EncodingError, match="already encoded"):
            vz.apply_encoding(scene, member, "x", "pct", aggregator="mean")

    def test_attribute_missing_from_scope(self, scene):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        with pytest.raises(EncodingError):
            vz.apply_encoding(scene, scene.elements[col.members[0]], "width", "nope")

    def test_aggregator_before_scale(self, scene):
        col = vz.repeat(scene, scene.create_mark("rectangle"), "survey", "age")
        enc = vz.apply_encoding(scene, scene.elements[col.members[0]],
                                "width", "pct", aggregator="max")
        scale = scene.scales[enc.scale]
        for m in col.members:
            member = scene.elements[m]
            agg = scene.get_scope_value(member, "pct", "max")
            assert scene.get_channel(member, "width") == \
                pytest.approx(vz.scale_apply(scale, agg))

    def test_vertex_encoding(self, scene):
        line = scene.create_mark("line", {"x2": 300})
        pline = vz.densify(scene, line, "survey", "age")
        enc = vz.apply_encoding(scene, pline.vertices[0], "y", "pct",
                                aggregator="mean")
        scale = scene.scales[enc.scale]
        for v in pline.vertices:
            mean = scene.get_scope_value(v, "pct", "mean")
            assert v.y == pytest.approx(vz.scale_apply(scale, mean))

    def test_refused_encoding_leaves_no_peer_set(self):
        s = vz.create_scene()
        s.add_dataset(vz.import_table(b"k,v\na,1\nb,2\nc,3\n", "t"))
        a, b = s.create_mark("rectangle"), s.create_mark("rectangle")
        a.data_scope = vz.DataScope("t", (0, 1))
        b.data_scope = vz.DataScope("t", (2,))
        s.group_elements([a, b])
        before = vz.serialize_scene(s)
        with pytest.raises(EncodingError, match="aggregator"):
            vz.apply_encoding(s, a, "width", "v")
        assert vz.serialize_scene(s) == before

    def test_uninferable_scale_leaves_no_peer_set(self):
        s = vz.create_scene()
        s.add_dataset(vz.import_table(b"k\na\n", "t"))
        arc = s.create_mark("arc")
        arc.data_scope = vz.DataScope("t", (0,))
        before = vz.serialize_scene(s)
        with pytest.raises(EncodingError, match="cannot infer a scale"):
            vz.apply_encoding(s, arc, "start_angle", "k")
        assert vz.serialize_scene(s) == before


class TestRemoveEncoding:
    def test_remove_then_set_direct(self):
        s, parts = build_diverging_bar()
        leaf = s.elements[s.elements[parts["rows"].members[0]].members[0]]
        vz.remove_encoding(s, parts["enc_width"].id)
        s.set_channel_peers(leaf, "width", 10)
        assert s.get_channel(leaf, "width") == 10

    def test_values_retained_after_remove(self):
        s, parts = build_diverging_bar()
        leaf = s.elements[s.elements[parts["rows"].members[0]].members[0]]
        before = s.get_channel(leaf, "width")
        vz.remove_encoding(s, parts["enc_width"].id)
        assert s.get_channel(leaf, "width") == before

    def test_remove_reapply_recomputes_identically(self):
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        leaves = [s.elements[m] for r in rows.members for m in s.elements[r].members]
        before = [s.get_channel(l, "width") for l in leaves]
        vz.remove_encoding(s, parts["enc_width"].id)
        vz.apply_encoding(s, leaves[0], "width", "pct")
        after = [s.get_channel(l, "width") for l in leaves]
        assert after == before

    def test_unknown_id_errors(self, scene):
        with pytest.raises(EncodingError):
            vz.remove_encoding(scene, "enc-404")


class TestCustomizeScale:
    def test_range_rescales_proportionally_argmax_invariant(self):
        s, parts = build_diverging_bar()
        rows = parts["rows"]
        leaves = [s.elements[m] for r in rows.members for m in s.elements[r].members]
        before = [s.get_channel(l, "width") for l in leaves]
        argmax_before = before.index(max(before))
        vz.customize_scale(s, parts["enc_width"].scale, {"range": [0, 200]})
        after = [s.get_channel(l, "width") for l in leaves]
        assert after == pytest.approx([2 * w for w in before])
        assert after.index(max(after)) == argmax_before

    def test_identity_patch_changes_nothing(self):
        s, parts = build_diverging_bar()
        scale = s.scales[parts["enc_width"].scale]
        leaves = [s.elements[m] for r in parts["rows"].members
                  for m in s.elements[r].members]
        before = [s.get_channel(l, "width") for l in leaves]
        vz.customize_scale(s, scale, {"domain": list(scale.domain)})
        assert [s.get_channel(l, "width") for l in leaves] == before

    def test_domain_patch_matches_recompute_oracle(self):
        s, parts = build_diverging_bar()
        scale = s.scales[parts["enc_width"].scale]
        vz.customize_scale(s, scale, {"domain": [0, 50]})
        leaves = [s.elements[m] for r in parts["rows"].members
                  for m in s.elements[r].members]
        for leaf in leaves:
            pct = s.get_scope_value(leaf, "pct")
            want = scale.range[0] + (pct - 0) / 50 * (scale.range[1] - scale.range[0])
            assert s.get_channel(leaf, "width") == pytest.approx(want)

    def test_inconsistent_patch_rejected(self):
        s, parts = build_diverging_bar()
        with pytest.raises(EncodingError):
            vz.customize_scale(s, parts["enc_width"].scale, {"domain": [10, 1]})
        with pytest.raises(EncodingError):
            vz.customize_scale(s, parts["enc_width"].scale,
                               {"kind": "log", "domain": [0, 10]})


class TestShareAndSync:
    def _two_bar_scenes(self):
        s = vz.create_scene()
        s.add_dataset(vz.import_table(b"k,v\na,2\nb,8\n", "d1"))
        s.add_dataset(vz.import_table(b"k,v\na,5\nb,11\n", "d2"))
        col1 = vz.repeat(s, s.create_mark("rectangle"), "d1", "k")
        col2 = vz.repeat(s, s.create_mark("rectangle"), "d2", "k")
        e1 = vz.apply_encoding(s, s.elements[col1.members[0]], "height", "v")
        e2 = vz.apply_encoding(s, s.elements[col2.members[0]], "width", "v")
        return s, col1, col2, e1, e2

    def test_share_unifies_domain_and_scale(self):
        s, col1, col2, e1, e2 = self._two_bar_scenes()
        scale = vz.share_scale(s, e1, e2)
        assert e1.scale == e2.scale == scale.id
        assert scale.domain == [2, 11]  # extent over both columns
        # equal data values map to equal channel extents
        h = s.get_channel(s.elements[col1.members[1]], "height")  # v=8
        s.datasets["d2"].items[1]["v"] = 8.0
        s.dirty.encodings.add(e2.id)
        s.propagate()
        w = s.get_channel(s.elements[col2.members[1]], "width")
        assert w == pytest.approx(h)

    def test_share_with_itself_is_noop(self):
        s, _, _, e1, _ = self._two_bar_scenes()
        scale = vz.share_scale(s, e1, e1)
        assert scale.id == e1.scale

    def test_share_kind_mismatch_rejected(self):
        s, col1, col2, e1, e2 = self._two_bar_scenes()
        fill = vz.apply_encoding(s, s.elements[col1.members[0]], "fill", "k")
        with pytest.raises(EncodingError):
            vz.share_scale(s, e1, fill)

    def test_sync_unifies_domain_keeps_ranges(self):
        s, col1, col2, e1, e2 = self._two_bar_scenes()
        s1, s2 = s.scales[e1.scale], s.scales[e2.scale]
        vz.customize_scale(s, s2, {"range": [0, 50]})
        group = vz.sync_scales(s, [s1.id, s2.id])
        assert s1.domain == s2.domain
        assert s1.range != s2.range
        assert s1.sync_group == s2.sync_group == group

    def test_domain_edit_replicates_ranges_do_not(self):
        s, col1, col2, e1, e2 = self._two_bar_scenes()
        s1, s2 = s.scales[e1.scale], s.scales[e2.scale]
        vz.sync_scales(s, [s1.id, s2.id])
        vz.customize_scale(s, s1, {"domain": [0, 40]})
        assert s2.domain == [0, 40]
        vz.customize_scale(s, s1, {"range": [0, 77]})
        assert s2.range != [0, 77]

    def test_sync_single_scale(self):
        s, _, _, e1, _ = self._two_bar_scenes()
        s1 = s.scales[e1.scale]
        before = list(s1.domain)
        vz.sync_scales(s, [s1.id])
        assert s1.domain == before


class TestInference:
    def test_quantitative_size_domain_starts_at_zero(self, survey):
        scale = infer_scale("width", "quantitative", [17.0, 36.0], survey, "pct")
        assert scale.kind == "linear"
        assert scale.domain == [0, 36.0]

    def test_quantitative_position_uses_extent(self, survey):
        scale = infer_scale("x", "quantitative", [17.0, 36.0], survey, "pct")
        assert scale.domain == [17.0, 36.0]

    def test_nominal_position_is_band(self, survey):
        scale = infer_scale("x", "nominal", ["agree", "disagree"], survey, "response")
        assert scale.kind == "band"

    def test_nominal_fill_is_categorical(self, survey):
        scale = infer_scale("fill", "nominal", ["agree", "disagree"], survey, "response")
        assert scale.kind == "color-categorical"

    def test_quantitative_fill_is_sequential(self, survey):
        scale = infer_scale("fill", "quantitative", [1.0, 5.0], survey, "pct")
        assert scale.kind == "color-sequential"

    def test_text_is_identity(self, survey):
        scale = infer_scale("text", "quantitative", [1.0], survey, "pct")
        assert scale.kind == "identity"
