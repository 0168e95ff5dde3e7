"""The three workloads.

Each workload is a single-thread closed loop: the benchmark issues the next
operation only after the previous one returns. Work is grouped in rounds
that repeat the same seeded inputs, so every round does the same work and
per-round counters can be compared exactly.

An operation is (kind, run, check). `run` is the timed call into vizscene;
`check` runs untimed and returns (marks, problems), where marks is the
size of the scene the operation produced or updated.

Calls go through submodule attributes (`vz.data.import_table`, not
`vz.import_table`) so that a traced run sees them.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent

# (new column, template column), as in `vizscene repopulate --map new=current`
RENAMED_COLUMNS = ("cohort", "answer", "share")
REPOPULATE_PAIRS = [("cohort", "age"), ("answer", "response"), ("share", "pct")]


def _pipeline(root, name):
    return (root / "gallery" / "pipelines" / f"{name}.json").read_text()


def _build(vz, pipeline_text, data):
    """Pipeline JSON plus imported datasets to a propagated scene."""
    return vz.pipeline.execute_pipeline(json.loads(pipeline_text), data)


def _marks(vz, scene):
    return checks.mark_count(scene, vz.elements.Mark)


class Gallery:
    """The 20 gallery pipelines over their own data files.

    Many small scenes (10-100 marks): per-operation overhead dominates
    (selector resolution, import, serialization), and propagation does
    little. The seed only shuffles the chart order of a pass.
    """

    name = "gallery"
    tail_pct = 99        # 20 charts x 50 passes: 10 samples beyond p99 at 1,000
    min_rounds = 50
    named = [("chart_ms_p50", None, 50), ("chart_ms_tail", None, 99)]
    digests = HERE / "gallery_digests.json"

    @staticmethod
    def charts(root):
        """(chart, pipeline JSON text, [(dataset, bytes, is_network)]) by name."""
        manifest = json.loads((root / "gallery" / "manifest.json").read_text())
        return [(chart, _pipeline(root, chart),
                 [(name, (root / "gallery" / path).read_bytes(), path.endswith(".json"))
                  for name, path in manifest[chart].items()])
                for chart in sorted(manifest)]

    def setup(self, vz, root, seed):
        charts = self.charts(root)
        random.Random(seed).shuffle(charts)
        state = {"charts": charts, "digests": json.loads(self.digests.read_text())}
        for chart in charts:     # warm pass: first-call costs land in set-up
            self.chart(vz, *chart[1:])
        return state

    @staticmethod
    def chart(vz, pipeline_text, data):
        datasets = {name: (vz.data.import_network if is_net else vz.data.import_table)(raw, name)
                    for name, raw, is_net in data}
        scene = _build(vz, pipeline_text, datasets).scene
        return scene, vz.svgrender.render(scene), vz.sceneio.serialize_scene(scene)

    def ops(self, vz, state, first, call):
        for chart, pipeline_text, data in state["charts"]:
            want = state["digests"][chart]

            def check(out, chart=chart, want=want):
                scene, svg, doc = out
                problems = []
                if hashlib.sha256(svg.encode()).hexdigest() != want["svg"]:
                    problems.append(f"{chart}: SVG differs from the recorded digest")
                if hashlib.sha256(doc.encode()).hexdigest() != want["json"]:
                    problems.append(f"{chart}: scene JSON differs from the recorded digest")
                problems += checks.propagation_idle(scene)
                if first:
                    problems += checks.round_trip(vz, doc)
                return _marks(vz, scene), problems

            yield chart, (lambda p=pipeline_text, d=data: self.chart(vz, p, d)), check


class BuildLarge:
    """Gallery pipelines over seeded synthetic data at about 10^3 marks.

    The join operations and the layout scheduler do almost all the work;
    there is no render or serialize, so those layers are bypassed.
    """

    name = "build_large"
    tail_pct = 75        # 6 builds x 7 rounds: 10 samples beyond p75 at 40
    min_rounds = 7
    named = [("build_ms_p50", None, 50), ("build_ms_tail", None, 75)]
    AGES = 320           # x 4 responses x (cell + label) = 2,560 marks
    AGES_REPOPULATED = 300

    def setup(self, vz, root, seed):
        rng = random.Random(seed)
        s = {}
        s["survey"], s["survey_rows"] = inputs.survey(rng, self.AGES)
        s["tree"], s["tree_nodes"] = inputs.balanced_tree(rng, 4, 5)
        s["net"], s["net_nodes"], s["net_links"] = inputs.random_network(rng, 300, 600)
        s["series"], s["series_values"] = inputs.month_series(rng, 1000)
        s["survey_b"], s["survey_b_rows"] = inputs.survey(rng, self.AGES_REPOPULATED,
                                                          RENAMED_COLUMNS)
        s["pipelines"] = {name: _pipeline(root, name) for name in
                          ("diverging_bar", "sunburst", "icicle", "node_link", "line_chart")}
        template = self.diverging_bar(vz, s)
        s["template"] = vz.sceneio.serialize_scene(template.scene)
        s["rows_id"] = template.handles["rows"].id
        return s

    @staticmethod
    def diverging_bar(vz, s):
        return _build(vz, s["pipelines"]["diverging_bar"],
                      {"survey": vz.data.import_table(s["survey"], "survey")})

    def ops(self, vz, s, first, call):
        def laws(scene):
            problems = checks.propagation_idle(scene)
            if first:
                problems += checks.round_trip(vz, vz.sceneio.serialize_scene(scene))
            return problems

        def network(name, key):
            return lambda: _build(vz, s["pipelines"][name],
                                  {key: vz.data.import_network(s[key], key)})

        def check_bar(ctx):
            problems = checks.diverging_bar(ctx.scene, ctx.handles["rows"].id,
                                            ctx.handles["labels"].id, s["survey_rows"])
            return _marks(vz, ctx.scene), problems + laws(ctx.scene)

        def check_tree(handle):
            def check(ctx):
                problems = checks.stratify(ctx.scene, ctx.handles[handle].id, s["tree_nodes"])
                return _marks(vz, ctx.scene), problems + laws(ctx.scene)
            return check

        def check_network(ctx):
            problems = checks.node_link(ctx.scene, ctx.handles["nl"],
                                        s["net_nodes"], s["net_links"])
            return _marks(vz, ctx.scene), problems + laws(ctx.scene)

        def line_chart():
            return _build(vz, s["pipelines"]["line_chart"],
                          {"months": vz.data.import_table(s["series"], "months")})

        def check_line(ctx):
            problems = checks.line_chart(ctx.scene, ctx.handles["pline"].id,
                                         s["series_values"])
            return _marks(vz, ctx.scene), problems + laws(ctx.scene)

        def repopulate():
            scene = vz.sceneio.deserialize_scene(s["template"])
            scene.add_dataset(vz.data.import_table(s["survey_b"], "survey_b"))
            vz.generate.repopulate(scene, scene.elements[s["rows_id"]], "survey_b",
                                   REPOPULATE_PAIRS)
            return scene

        def check_repopulated(scene):
            problems, _, _ = checks.bar_rows(scene, s["rows_id"], s["survey_b_rows"])
            return _marks(vz, scene), problems + laws(scene)

        yield "diverging_bar", lambda: self.diverging_bar(vz, s), check_bar
        yield "sunburst", network("sunburst", "tree"), check_tree("rings")
        yield "icicle", network("icicle", "tree"), check_tree("layers")
        yield "node_link", network("node_link", "net"), check_network
        yield "line_chart", line_chart, check_line
        yield "repopulate", repopulate, check_repopulated


class EditSession:
    """Open a 2,560-mark diverging bar, edit it, save it.

    Few joins, many small writes and reads of a large scene. Each session
    loads the document built during set-up, applies the same seeded edits
    and ends with a save. 36 of the 40 edits are local (translate one row,
    or set one cell's height); 4 are global (the width scale's range).
    """

    name = "edit_session"
    tail_pct = 95        # 42 ops x 5 sessions: 10 samples beyond p95 at 200
    min_rounds = 5
    AGES = 320
    EDITS = 40
    GLOBAL_EDITS = 4
    LOCAL_KINDS = {"translate", "set_height"}
    named = [("load_ms_p50", {"load"}, 50),
             ("edit_local_ms_p50", LOCAL_KINDS, 50),
             ("edit_local_ms_tail", LOCAL_KINDS, 90),   # 36 x 5 local edits: p90 at 180
             ("edit_global_ms_p50", {"customize_scale"}, 50),
             ("save_ms_p50", {"save"}, 50)]

    def setup(self, vz, root, seed):
        rng = random.Random(seed)
        survey, rows = inputs.survey(rng, self.AGES)
        ctx = _build(vz, _pipeline(root, "diverging_bar"),
                     {"survey": vz.data.import_table(survey, "survey")})
        scene = ctx.scene
        row_ids = list(ctx.handles["rows"].members)
        s = {
            "doc": vz.sceneio.serialize_scene(scene),
            "survey_rows": rows,
            "rows_id": ctx.handles["rows"].id,
            "labels_id": ctx.handles["labels"].id,
            "scale_id": ctx.handles["enc_width"].scale,
            "row_ids": row_ids,
            "cell_ids": [list(scene.elements[r].members) for r in row_ids],
        }
        global_at = set(rng.sample(range(self.EDITS), self.GLOBAL_EDITS))
        edits = []
        for i in range(self.EDITS):
            if i in global_at:
                edits.append(("customize_scale", rng.uniform(120, 360)))
            elif rng.random() < 0.5:
                edits.append(("translate", rng.randrange(len(row_ids)),
                              rng.choice((-1, 1)) * rng.uniform(2, 30)))
            else:
                row = rng.randrange(len(row_ids))
                edits.append(("set_height", row, rng.randrange(len(s["cell_ids"][row])),
                              rng.uniform(10, 30)))
        s["edits"] = edits
        return s

    def ops(self, vz, s, first, call):
        session = {}

        def oracles(scene):
            return checks.diverging_bar(scene, s["rows_id"], s["labels_id"], s["survey_rows"])

        def load():
            scene = vz.sceneio.deserialize_scene(s["doc"])
            session["scene"] = scene
            return scene, vz.validate.validate_scene(scene)

        def check_load(out):
            scene, report = out
            return _marks(vz, scene), checks.validation(report) + oracles(scene)

        def edit(spec):
            scene = session["scene"]
            kind = spec[0]
            if kind == "translate":
                _, row, dx = spec
                call("scene.translate", scene.translate, scene.elements[s["row_ids"][row]], dx, 0)
            elif kind == "set_height":
                _, row, cell, height = spec
                call("scene.set_channel", scene.set_channel,
                     scene.elements[s["cell_ids"][row][cell]], "height", height)
            else:
                vz.encoding.customize_scale(scene, scene.scales[s["scale_id"]],
                                            {"range": [0, spec[1]]})
            return scene

        def check_edit(scene):
            return _marks(vz, scene), oracles(scene) + checks.propagation_idle(scene)

        def save():
            scene = session["scene"]
            return scene, vz.svgrender.render(scene), vz.sceneio.serialize_scene(scene)

        def check_save(out):
            scene, svg, doc = out
            problems = checks.round_trip(vz, doc) + checks.propagation_idle(scene)
            if svg.count("<rect") < len(s["survey_rows"]):
                problems.append("saved SVG holds fewer rectangles than cells")
            return _marks(vz, scene), problems

        yield "load", load, check_load
        for spec in s["edits"]:
            yield spec[0], (lambda spec=spec: edit(spec)), check_edit
        yield "save", save, check_save


WORKLOADS = {w.name: w for w in (Gallery(), BuildLarge(), EditSession())}
