"""Tests of the benchmark's own parts: python3 -m pytest vizbench -q"""

import json
import random
import time

import checks
import inputs
import run
import tracing

vz = run.load_program()


def test_generators_repeat_for_a_seed():
    for make in (lambda r: inputs.survey(r, 5), lambda r: inputs.balanced_tree(r, 4, 5),
                 lambda r: inputs.random_network(r, 30, 60),
                 lambda r: inputs.month_series(r, 40)):
        assert make(random.Random(3)) == make(random.Random(3))
        assert make(random.Random(3))[0] != make(random.Random(4))[0]


def test_generator_shapes():
    _, rows = inputs.survey(random.Random(1), 5)
    assert len(rows) == 20 and {r[1] for r in rows} == set(inputs.RESPONSES)
    assert inputs.balanced_tree(random.Random(1), 4, 5)[1] == 1365


def test_quantile_interpolates():
    assert run.quantile([4, 1, 3, 2], 50) == 2.5
    assert run.quantile(range(101), 99) == 99


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer._wrap("inner", lambda: time.sleep(0.02))

    def outer():
        time.sleep(0.01)
        inner()

    tracer.active = True
    tracer._wrap("outer", outer)()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.self_time["outer"] < 0.015 < 0.02 <= tracer.total["inner"]
    inner_span, outer_span = tracer.spans     # recorded as they end
    assert inner_span[1] == outer_span[0] and outer_span[1] == 0


def test_install_restores_the_program():
    original = vz.scene.Scene.propagate, vz.generate.divide
    tracer = tracing.Tracer()
    tracer.install(vz)
    assert vz.generate.divide is not original[1]
    tracer.uninstall()
    assert (vz.scene.Scene.propagate, vz.generate.divide) == original


def test_oracle_catches_a_moved_cell():
    text, rows = inputs.survey(random.Random(2), 6)
    pipeline = (run.ROOT / "gallery" / "pipelines" / "diverging_bar.json").read_text()
    ctx = vz.pipeline.execute_pipeline(
        json.loads(pipeline), {"survey": vz.data.import_table(text, "survey")})
    rows_id, labels_id = ctx.handles["rows"].id, ctx.handles["labels"].id
    assert checks.diverging_bar(ctx.scene, rows_id, labels_id, rows) == []
    ctx.scene.auto_propagate = False
    cell = ctx.scene.elements[ctx.scene.elements[ctx.handles["rows"].members[2]].members[3]]
    cell.channels["x"] += 0.5
    assert checks.diverging_bar(ctx.scene, rows_id, labels_id, rows)
