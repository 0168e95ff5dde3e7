"""Per-layer tracing from outside the program.

The tracer replaces module attributes of vizscene with wrappers that record
a span per call: name, start, end, parent span id and the id of the
benchmark operation that caused it. Nothing under src/ changes. Modules call
each other through module attributes (pipeline uses `gen.divide`,
run_propagation imports the evaluators at call time), so the wrappers see
those calls too. Scene.translate and Scene.set_channel are also called
inside layouts and constraints, so they are spanned only where the
benchmark calls them, as edits.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter

# Public operations reached through module attributes. Pure helpers that the
# evaluators call per element (scale_apply, compute_grid, ...) are left out:
# they are part of their caller's self time.
GENERATE_OPS = ("repeat", "divide", "densify", "classify", "stratify",
                "repeat_network", "repopulate")
MODULE_OPS = {
    "data": ("import_table", "import_network"),
    "pipeline": ("execute_pipeline",),
    "generate": GENERATE_OPS,
    "encoding": ("apply_encoding", "remove_encoding", "customize_scale",
                 "share_scale", "sync_scales", "evaluate_encoding"),
    "layout": ("apply_layout", "apply_layout_peers", "update_layout_param",
               "update_layout_param_peers", "evaluate_layout"),
    "constraints": ("align", "affix", "set_order", "set_z_order",
                    "evaluate_constraint", "constraint_elements"),
    "sceneio": ("serialize_scene", "deserialize_scene"),
    "svgrender": ("render",),
    "validate": ("validate_scene",),
}

MAX_SPANS = 400_000


class Tracer:
    """Records spans and per-round totals while `active` is true."""

    def __init__(self):
        self.active = False
        self.op_id = 0
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._next_span = 1
        self._restore = []
        self.reset_round()

    def reset_round(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    # ------------------------------------------------------------ spans

    def _run(self, name, fn, args, kwargs, before=None, after=None):
        h0 = perf_counter()
        token = before(args) if before else None
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_span, 0.0]
        self._next_span += 1
        self._stack.append(frame)
        ok = False
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.total[name] += t1 - t0
            self.self_time[name] += t1 - t0 - frame[1]
            self.calls[name] += 1
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[0], parent[0] if parent else 0,
                                   self.op_id, name, t0, t1))
            else:
                self.dropped += 1
            if ok and after:
                after(args, result, token)
            if parent is not None:
                # hook time is charged to the child, so the parent's self
                # time holds only the parent's own work
                parent[1] += perf_counter() - h0
        return result

    def call(self, name, fn, *args):
        """Span one call made by the benchmark itself."""
        if not self.active:
            return fn(*args)
        return self._run(name, fn, args, {})

    def _wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._run(name, fn, args, kwargs, before, after)
        return traced

    # ------------------------------------------------------- installation

    def install(self, vz):
        hooks = {
            "layout.evaluate_layout": self._layout_moved,
            "constraints.evaluate_constraint": self._constraint_moved,
            "constraints.constraint_elements": self._constraint_ids,
            "svgrender.render": self._render_bytes,
            "sceneio.serialize_scene": self._serialized_bytes,
            "validate.validate_scene": self._failed_checks,
        }
        for module_name, names in MODULE_OPS.items():
            module = getattr(vz, module_name)
            for fn_name in names:
                span = f"{module_name}.{fn_name}"
                if module_name == "generate":
                    before, after = self._elements_before, self._elements_created
                else:
                    before, after = None, hooks.get(span)
                self._patch(module, fn_name,
                            self._wrap(span, getattr(module, fn_name), before, after))
        scene_cls = vz.scene.Scene
        self._patch(scene_cls, "propagate",
                    self._wrap("propagate", scene_cls.propagate, None, self._report))

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ counters

    def _elements_before(self, args):
        return set(args[0].elements)

    def _elements_created(self, args, result, before):
        self.counts["generate.elements_created"] += len(set(args[0].elements) - before)

    def _layout_moved(self, args, moved, _):
        self.counts["layout.useful"] += bool(moved)

    def _constraint_moved(self, args, result, _):
        self.counts["constraints.useful"] += bool(result[0])

    def _constraint_ids(self, args, ids, _):
        self.counts["constraints.constraint_elements.ids"] += len(ids)

    def _report(self, args, report, _):
        self.counts["propagate.evaluated"] += len(report.evaluated)
        self.counts["propagate.unsatisfied"] += len(report.unsatisfied)

    def _render_bytes(self, args, svg, _):
        self.counts["svgrender.bytes"] += len(svg.encode())

    def _serialized_bytes(self, args, doc, _):
        self.counts["sceneio.bytes"] += len(doc.encode())

    def _failed_checks(self, args, report, _):
        self.counts["validate.failed_checks"] += sum(c["status"] != "pass" for c in report)

    # -------------------------------------------------------------- output

    def write_spans(self, path):
        """One JSON object per span: id, parent, op, name, start_s, end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span_id, parent, op, name, t0, t1 in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                      "name": name, "start_s": t0, "end_s": t1}) + "\n")


# (metric, unit, better). A name ending in .ms, .self_ms or .calls reads the
# span named by the rest; the other names are derived in round_metrics.
PER_LAYER = [
    ("data.import_table.ms", "ms", "lower"),
    ("data.import_network.ms", "ms", "lower"),
    ("pipeline.execute_pipeline.self_ms", "ms", "lower"),
    *[(f"generate.{op}.{field}", unit, "lower")
      for op in GENERATE_OPS for field, unit in (("self_ms", "ms"), ("calls", "count"))],
    ("generate.elements_created", "count", "lower"),
    ("encoding.apply_encoding.self_ms", "ms", "lower"),
    ("encoding.customize_scale.self_ms", "ms", "lower"),
    ("encoding.evaluate_encoding.ms", "ms", "lower"),
    ("encoding.evaluate_encoding.calls", "count", "lower"),
    ("layout.apply_layout.self_ms", "ms", "lower"),
    ("layout.evaluate_layout.ms", "ms", "lower"),
    ("layout.evaluate_layout.calls", "count", "lower"),
    ("layout.useful_ratio", "ratio", "higher"),
    ("constraints.align.self_ms", "ms", "lower"),
    ("constraints.affix.self_ms", "ms", "lower"),
    ("constraints.set_order.self_ms", "ms", "lower"),
    ("constraints.evaluate_constraint.ms", "ms", "lower"),
    ("constraints.evaluate_constraint.calls", "count", "lower"),
    ("constraints.useful_ratio", "ratio", "higher"),
    ("constraints.constraint_elements.ms", "ms", "lower"),
    ("constraints.constraint_elements.calls", "count", "lower"),
    ("constraints.constraint_elements.ids", "count", "lower"),
    ("propagate.ms", "ms", "lower"),
    ("propagate.self_ms", "ms", "lower"),
    ("propagate.passes", "count", "lower"),
    ("propagate.evaluated_per_pass", "count", "lower"),
    ("propagate.unsatisfied", "count", "lower"),
    ("scene.translate.self_ms", "ms", "lower"),
    ("scene.set_channel.self_ms", "ms", "lower"),
    ("svgrender.render.ms", "ms", "lower"),
    ("svgrender.bytes", "bytes", "lower"),
    ("sceneio.serialize_scene.ms", "ms", "lower"),
    ("sceneio.deserialize_scene.ms", "ms", "lower"),
    ("sceneio.bytes", "bytes", "lower"),
    ("validate.validate_scene.ms", "ms", "lower"),
    ("validate.failed_checks", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Metrics that are times; every other per-layer metric except the overhead
# is a count that must repeat exactly for the same seed.
TIMED = {name for name, unit, _ in PER_LAYER if unit == "ms"}


def _ratio(num, den):
    return num / den if den else 0.0


def round_metrics(tracer) -> dict:
    """Per-layer values of one round, read from the tracer's round totals."""
    calls, counts = tracer.calls, tracer.counts
    derived = {
        "generate.elements_created": counts["generate.elements_created"],
        "layout.useful_ratio": _ratio(counts["layout.useful"],
                                      calls["layout.evaluate_layout"]),
        "constraints.useful_ratio": _ratio(counts["constraints.useful"],
                                           calls["constraints.evaluate_constraint"]),
        "constraints.constraint_elements.ids": counts["constraints.constraint_elements.ids"],
        "propagate.passes": calls["propagate"],
        "propagate.evaluated_per_pass": _ratio(counts["propagate.evaluated"],
                                               calls["propagate"]),
        "propagate.unsatisfied": counts["propagate.unsatisfied"],
        "svgrender.bytes": counts["svgrender.bytes"],
        "sceneio.bytes": counts["sceneio.bytes"],
        "validate.failed_checks": counts["validate.failed_checks"],
    }
    out = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif field == "ms":
            out[name] = tracer.total[span] * 1e3
        elif field == "self_ms":
            out[name] = tracer.self_time[span] * 1e3
        elif field == "calls":
            out[name] = calls[span]
    return out
