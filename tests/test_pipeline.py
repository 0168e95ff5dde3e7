import json
import pathlib

import pytest

import vizscene as vz
from vizscene.cli import main
from vizscene.errors import PipelineError
from vizscene.pipeline import REGISTRY, execute_pipeline, resolve_elements

GALLERY = pathlib.Path(__file__).resolve().parent.parent / "gallery"

# every operation the engine exposes must be invocable by name
EXPECTED_OPS = [
    # datasets
    "import_table", "import_network", "unique_values", "group_items", "aggregate",
    # scene
    "create_scene", "create_mark", "create_glyph", "get_scope_value",
    "set_channel", "set_channel_peers", "peers_of", "classify_group_kind",
    "add_axis", "add_legend", "add_gridlines", "add_annotation", "set_view",
    # graphics-data joins
    "repeat", "repeat_network", "divide", "densify", "classify",
    "repopulate", "stratify",
    # encodings and scales
    "apply_encoding", "remove_encoding", "customize_scale", "share_scale",
    "sync_scales", "scale_apply",
    # layouts
    "apply_layout", "apply_layout_peers", "update_layout_param",
    "update_layout_param_peers", "compute_grid", "compute_stack",
    "compute_packing", "compute_spiral",
    # constraints
    "align", "affix", "set_order", "set_z_order", "propagate",
    # serialization and rendering
    "serialize_scene", "deserialize_scene", "export_dsvg",
    "render", "render_mark", "render_axis", "render_legend", "validate",
]


def _data_args(manifest_entry):
    return [f"--data={name}={GALLERY / rel}" for name, rel in manifest_entry.items()]


@pytest.fixture(scope="module")
def manifest():
    return json.loads((GALLERY / "manifest.json").read_text())


class TestRegistry:
    def test_every_operation_invocable_by_name(self):
        missing = [op for op in EXPECTED_OPS if op not in REGISTRY]
        assert missing == []

    def test_registry_entries_are_callable(self):
        assert all(callable(fn) for fn in REGISTRY.values())


class TestExecute:
    def test_empty_pipeline(self):
        ctx = execute_pipeline([])
        assert len(ctx.scene.elements) == 0
        assert vz.render(ctx.scene).startswith("<?xml")

    def test_unknown_op_reports_step_index(self):
        with pytest.raises(PipelineError, match="step 1"):
            execute_pipeline([{"op": "create_mark", "args": {"type": "circle"}},
                              {"op": "frobnicate"}])

    def test_unknown_attribute_reports_step(self, survey):
        steps = [{"op": "create_mark", "args": {"type": "rectangle"}, "as": "m"},
                 {"op": "repeat", "target": "m",
                  "args": {"data": "survey", "attribute": "nope"}}]
        with pytest.raises(PipelineError, match="step 1"):
            execute_pipeline(steps, {"survey": survey})

    def test_handles_and_dotted_paths(self, survey):
        steps = [
            {"op": "create_mark", "args": {"type": "rectangle"}, "as": "bar"},
            {"op": "repeat", "target": "bar",
             "args": {"data": "survey", "attribute": "age"}, "as": "rows"},
            {"op": "get_scope_value", "target": "rows.3",
             "args": {"attribute": "pct", "aggregator": "max"}, "as": "peak"},
        ]
        ctx = execute_pipeline(steps, {"survey": survey})
        assert ctx.handles["peak"] == 36

    def test_selectors_resolve_through_the_scene(self, survey):
        steps = [
            {"op": "create_mark", "args": {"type": "rectangle"}, "as": "bar"},
            {"op": "repeat", "target": "bar",
             "args": {"data": "survey", "attribute": "age"}, "as": "rows"},
        ]
        ctx = execute_pipeline(steps, {"survey": survey})
        rows = ctx.handles["rows"]
        where = {"attribute": "age", "value": "30 - 50"}
        got = resolve_elements(ctx, {"from": "rows", "where": where})
        assert got == ctx.scene.select({"from": rows.id, "where": where})
        assert [e.id for e in got] == [rows.members[1]]
        members = resolve_elements(ctx, {"peer_set": got[0].peer_set})
        assert [e.id for e in members] == rows.members

    def test_deterministic_repeated_runs(self, manifest):
        steps = json.loads((GALLERY / "pipelines" / "diverging_bar.json").read_text())
        data = {"survey": vz.import_table((GALLERY / "data/survey.csv").read_bytes(),
                                          "survey")}
        a = vz.render(execute_pipeline(steps, data, scene_id="scene-1").scene)
        b = vz.render(execute_pipeline(steps, data, scene_id="scene-1").scene)
        assert a == b

    @pytest.mark.parametrize("op, scale", [("render_axis", "enc_width"),
                                           ("render_legend", "enc_fill")])
    def test_rendering_an_axis_or_legend_leaves_the_scene_unchanged(self, op, scale):
        steps = json.loads((GALLERY / "pipelines" / "diverging_bar.json").read_text())
        data = {"survey": vz.import_table((GALLERY / "data/survey.csv").read_bytes(),
                                          "survey")}
        ctx = execute_pipeline(steps + [
            {"op": "serialize_scene", "as": "before"},
            {"op": op, "args": {"scale": scale}, "as": "fragment"},
            {"op": "serialize_scene", "as": "after"}], data)
        assert ctx.handles["fragment"].startswith("<g>")
        assert len(ctx.scene.aux) == len(json.loads(ctx.handles["before"])["aux"])
        assert ctx.handles["after"] == ctx.handles["before"]


class TestCliRender:
    def test_diverging_bar_to_svg(self, tmp_path, manifest):
        out = tmp_path / "out.svg"
        code = main(["render", "--pipeline",
                     str(GALLERY / "pipelines" / "diverging_bar.json"),
                     *_data_args(manifest["diverging_bar"]),
                     "--out", str(out)])
        assert code == 0
        svg = out.read_text()
        # 16 bars + 4 legend swatches, 16 labels + 4 legend entries
        assert svg.count("<rect") == 20
        assert svg.count("<text") == 20

    def test_json_and_dsvg_formats(self, tmp_path, manifest):
        for fmt, check in (("json", '"version": "msc-scene/1"'),
                           ("dsvg", "data-datum")):
            out = tmp_path / f"out.{fmt}"
            code = main(["render", "--pipeline",
                         str(GALLERY / "pipelines" / "stacked_bar.json"),
                         *_data_args(manifest["stacked_bar"]),
                         "--format", fmt, "--out", str(out)])
            assert code == 0
            assert check in out.read_text()

    def test_empty_pipeline_ok(self, tmp_path):
        pipeline = tmp_path / "empty.json"
        pipeline.write_text("[]")
        out = tmp_path / "empty.svg"
        assert main(["render", "--pipeline", str(pipeline), "--out", str(out)]) == 0
        assert "<svg" in out.read_text()

    def test_operation_error_exit_1(self, tmp_path, capsys):
        pipeline = tmp_path / "bad.json"
        pipeline.write_text(json.dumps(
            [{"op": "create_mark", "args": {"type": "rectangle"}, "as": "m"},
             {"op": "repeat", "target": "m",
              "args": {"data": "missing", "attribute": "x"}}]))
        assert main(["render", "--pipeline", str(pipeline)]) == 1
        assert "step 1" in capsys.readouterr().err

    def test_attribute_error_in_a_step_exit_1(self, tmp_path, manifest, capsys):
        steps = json.loads((GALLERY / "pipelines" / "diverging_bar.json").read_text())
        pipeline = tmp_path / "bad.json"
        pipeline.write_text(json.dumps(
            steps[:4] + [{"op": "customize_scale",
                          "args": {"scale": "enc_width", "patch": "x"}}]))
        assert main(["render", "--pipeline", str(pipeline),
                     *_data_args(manifest["diverging_bar"])]) == 1
        err = capsys.readouterr().err
        assert "error: step 4: customize_scale" in err
        assert "Traceback" not in err

    def test_missing_pipeline_exit_2(self, tmp_path):
        assert main(["render", "--pipeline", str(tmp_path / "ghost.json")]) == 2

    def test_unparseable_pipeline_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["render", "--pipeline", str(bad)]) == 2

    @pytest.mark.parametrize("name, text", [("short_row.csv", "a,b\n1,2\n3\n"),
                                            ("no_links.json", '{"nodes": []}'),
                                            ("nodes.json", '{"nodes": [1], "links": []}')])
    def test_malformed_data_file_exit_2(self, tmp_path, capsys, name, text):
        data = tmp_path / name
        data.write_text(text)
        pipeline = tmp_path / "p.json"
        pipeline.write_text("[]")
        assert main(["render", "--pipeline", str(pipeline), f"--data=t={data}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_verbose_reports(self, tmp_path, manifest, capsys):
        out = tmp_path / "o.svg"
        code = main(["render", "--pipeline",
                     str(GALLERY / "pipelines" / "bar_vertical.json"),
                     *_data_args(manifest["bar_vertical"]),
                     "--out", str(out), "--verbose"])
        assert code == 0
        err = capsys.readouterr().err
        assert '"evaluated"' in err


TEMPLATE_STEPS = [
    {"op": "create_mark", "args": {"type": "rectangle", "props": {"height": 14}},
     "as": "bar"},
    {"op": "repeat", "target": "bar",
     "args": {"data": "sales", "attribute": "region"}, "as": "rows"},
    {"op": "divide", "target": "rows.0",
     "args": {"data": "sales", "attribute": "product", "orientation": "horizontal"}},
    {"op": "apply_encoding", "target": "rows.0.0",
     "args": {"channel": "width", "attribute": "value"}},
]


class TestCliRepopulate:
    def _template(self, tmp_path):
        pipeline = tmp_path / "template.json"
        pipeline.write_text(json.dumps(TEMPLATE_STEPS))
        scene_json = tmp_path / "scene.json"
        svg = tmp_path / "scene.svg"
        sales = str(GALLERY / "data" / "sales.csv")
        assert main(["render", "--pipeline", str(pipeline),
                     f"--data=sales={sales}", "--format", "json",
                     "--out", str(scene_json)]) == 0
        assert main(["render", "--pipeline", str(pipeline),
                     f"--data=sales={sales}", "--out", str(svg)]) == 0
        return scene_json, svg

    def test_counts_follow_new_data(self, tmp_path):
        scene_json, _ = self._template(tmp_path)
        out = tmp_path / "repop.json"
        code = main(["repopulate", "--scene", str(scene_json),
                     f"--data=countries={GALLERY / 'data' / 'countries.csv'}",
                     "--map", "continent=region", "--map", "country=product",
                     "--map", "population=value",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        collections = [e for e in doc["elements"] if e["kind"] == "collection"]
        outer = next(c for c in collections if c.get("parent") is None)
        assert len(outer["members"]) == 3
        inner_sizes = sorted(len(next(c for c in collections if c["id"] == m)["members"])
                             for m in outer["members"])
        assert inner_sizes == [2, 3, 4]

    def test_identity_repopulate_renders_identically(self, tmp_path):
        scene_json, svg = self._template(tmp_path)
        out = tmp_path / "again.svg"
        code = main(["repopulate", "--scene", str(scene_json),
                     f"--data=sales={GALLERY / 'data' / 'sales.csv'}",
                     "--map", "region=region", "--map", "product=product",
                     "--map", "value=value", "--out", str(out)])
        assert code == 0
        assert out.read_text() == svg.read_text()

    def test_bad_scene_file_exit_2(self, tmp_path):
        assert main(["repopulate", "--scene", str(tmp_path / "nope.json"),
                     f"--data=sales={GALLERY / 'data' / 'sales.csv'}"]) == 2

    def test_malformed_data_file_exit_2(self, tmp_path, capsys):
        scene_json, _ = self._template(tmp_path)
        bad = tmp_path / "short_row.csv"
        bad.write_text("region,product,value\neast,a\n")
        assert main(["repopulate", "--scene", str(scene_json), f"--data=sales={bad}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCliValidate:
    def test_valid_scene_passes(self, tmp_path, capsys):
        pipeline = tmp_path / "p.json"
        pipeline.write_text(json.dumps(TEMPLATE_STEPS))
        scene_json = tmp_path / "scene.json"
        main(["render", "--pipeline", str(pipeline),
              f"--data=sales={GALLERY / 'data' / 'sales.csv'}",
              "--format", "json", "--out", str(scene_json)])
        assert main(["validate", "--scene", str(scene_json)]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_empty_scene_passes(self, tmp_path):
        scene_json = tmp_path / "empty.json"
        scene_json.write_text(vz.serialize_scene(vz.create_scene()))
        assert main(["validate", "--scene", str(scene_json)]) == 0

    def test_overlapping_scopes_fail_named(self, tmp_path, capsys):
        pipeline = tmp_path / "p.json"
        pipeline.write_text(json.dumps(TEMPLATE_STEPS))
        scene_json = tmp_path / "scene.json"
        main(["render", "--pipeline", str(pipeline),
              f"--data=sales={GALLERY / 'data' / 'sales.csv'}",
              "--format", "json", "--out", str(scene_json)])
        doc = json.loads(scene_json.read_text())
        rects = [e for e in doc["elements"]
                 if e["kind"] == "mark" and e["type"] == "rectangle"]
        rects[1]["scope"]["indices"] = list(rects[0]["scope"]["indices"])
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert main(["validate", "--scene", str(broken)]) == 1
        assert "overlap" in capsys.readouterr().err

    def test_unreadable_exit_2(self, tmp_path):
        assert main(["validate", "--scene", str(tmp_path / "ghost.json")]) == 2


class TestCliExportDsvg:
    def test_export(self, tmp_path):
        pipeline = tmp_path / "p.json"
        pipeline.write_text(json.dumps(TEMPLATE_STEPS))
        scene_json = tmp_path / "scene.json"
        main(["render", "--pipeline", str(pipeline),
              f"--data=sales={GALLERY / 'data' / 'sales.csv'}",
              "--format", "json", "--out", str(scene_json)])
        out = tmp_path / "annotated.svg"
        assert main(["export-dsvg", "--scene", str(scene_json),
                     "--out", str(out)]) == 0
        assert "data-datum" in out.read_text()
