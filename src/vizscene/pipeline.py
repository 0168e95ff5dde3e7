"""Declarative operation pipelines.

A pipeline is a JSON array of steps ``{"op", "target"?, "args"?, "as"?}``.
Steps run in order against one scene; ``as`` binds a step's result to a
symbolic handle that later steps reference. Element references accept a
handle/id, a dotted member path ("rows.0.3"), ``{"vertices_of", "index"?}``,
a ``{"from","where"}`` filter selecting marks by scope value,
``{"peer_set": id}``, or a list of any of these.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import constraints as cons
from . import encoding as enc
from . import generate as gen
from . import layout as lay
from .data import aggregate as _aggregate
from .data import group_items, import_network, import_table, unique_values
from .elements import Group, Mark
from .errors import PipelineError, VizSceneError
from .scene import AuxiliaryElement, Scene, create_scene
from .sceneio import deserialize_scene, export_dsvg, serialize_scene
from .svgrender import content_bbox, render, render_axis, render_legend, render_mark
from .validate import validate_scene


class Context:
    def __init__(self, scene: Scene):
        self.scene = scene
        self.handles: dict = {}
        self.reports: list = []


def _descend(ctx, obj, parts):
    for p in parts:
        members = obj.members if isinstance(obj, Group) else []
        try:
            obj = ctx.scene.elements[members[int(p)]]
        except (ValueError, IndexError):
            raise VizSceneError(f"cannot descend into member {p!r} of {obj.id}") from None
    return obj


def resolve_elements(ctx, sel) -> list:
    if isinstance(sel, (list, tuple)):
        out = []
        for s in sel:
            out.extend(resolve_elements(ctx, s))
        return out
    if isinstance(sel, dict):
        if "vertices_of" in sel:
            mark = resolve_one(ctx, sel["vertices_of"])
            data_vertices = [v for v in mark.vertices if v.data_scope is not None]
            if "index" in sel:
                return [data_vertices[sel["index"]]]
            return data_vertices
        return ctx.scene.select(_selector_to_ids(ctx, sel))
    if isinstance(sel, (Mark, Group)):
        return [sel]
    name, *path = str(sel).split(".")
    if name in ctx.handles:
        obj = ctx.handles[name]
        if isinstance(obj, (list, tuple)):
            if path:
                obj = obj[int(path[0])]
                return [_descend(ctx, obj, path[1:])]
            return list(obj)
        return [_descend(ctx, obj, path)]
    return [_descend(ctx, ctx.scene.resolve(name), path)]


def resolve_one(ctx, sel):
    els = resolve_elements(ctx, sel)
    if len(els) != 1:
        raise VizSceneError(f"selector {sel!r} matched {len(els)} elements, expected 1")
    return els[0]


def _selector_to_ids(ctx, sel):
    """Translate handles, dotted paths and ``vertices_of`` inside a selector
    into ids, leaving the grammar :meth:`Scene.select` reads, so stored
    constraints stay valid."""
    if isinstance(sel, dict) and "from" in sel:
        return {**sel, "from": _selector_to_ids(ctx, sel["from"])}
    if isinstance(sel, (list, tuple)):
        return [_selector_to_ids(ctx, s) for s in sel]
    if isinstance(sel, str) or (isinstance(sel, dict) and "vertices_of" in sel):
        return [e.id for e in resolve_elements(ctx, sel)]
    return sel


def _dataset_name(ctx, name):
    if not isinstance(name, str) or name not in ctx.scene.datasets:
        raise VizSceneError(f"unknown dataset {name!r}; bind it with --data or import it")
    return name


def _encoding_of(ctx, ref):
    obj = ctx.handles.get(ref, ref) if isinstance(ref, str) else ref
    if isinstance(obj, enc.Encoding):
        return obj
    if isinstance(obj, str) and obj in ctx.scene.encodings:
        return ctx.scene.encodings[obj]
    raise VizSceneError(f"{ref!r} does not name an encoding")


def _scale_of(ctx, ref):
    obj = ctx.handles.get(ref, ref) if isinstance(ref, str) else ref
    if isinstance(obj, enc.Scale):
        return obj
    if isinstance(obj, enc.Encoding):
        return ctx.scene.scales[obj.scale]
    if isinstance(obj, str):
        if obj in ctx.scene.scales:
            return ctx.scene.scales[obj]
        if obj in ctx.scene.encodings:
            return ctx.scene.scales[ctx.scene.encodings[obj].scale]
    raise VizSceneError(f"{ref!r} does not name a scale")


# ------------------------------------------------------------- the registry


def _op_import_table(ctx, target, args):
    source = Path(args["path"]).read_bytes() if "path" in args else args["source"]
    table = import_table(source, args.get("name", "table"),
                         delimiter=args.get("delimiter", ","),
                         header=args.get("header", True),
                         names=args.get("names"),
                         kinds=args.get("kinds"), orders=args.get("orders"))
    ctx.scene.add_dataset(table)
    return table


def _op_import_network(ctx, target, args):
    source = Path(args["path"]).read_bytes() if "path" in args else args["source"]
    net = import_network(source, args.get("name", "network"),
                         id_attribute=args.get("id_attribute", "id"))
    ctx.scene.add_dataset(net)
    return net


# default channel and placement of the axis and legend ops
_AUX_DEFAULTS = {"axis": ("x", "bottom"), "legend": ("fill", "right")}


def _aux_args(ctx, kind, args):
    """An axis or legend op's channel, scale id, placement and offset."""
    channel, placement = _AUX_DEFAULTS[kind]
    return (args.get("channel", channel), _scale_of(ctx, args["scale"]).id,
            args.get("placement", placement), args.get("offset", 20.0))


def _op_render_aux(ctx, kind, args):
    """Draw an axis or legend without adding it to the scene."""
    aux = AuxiliaryElement("", kind, *_aux_args(ctx, kind, args))
    draw = render_axis if kind == "axis" else render_legend
    return draw(aux, _scale_of(ctx, args["scale"]), content_bbox(ctx.scene))


def _op_create_scene(ctx, target, args):
    datasets = ctx.scene.datasets
    ctx.scene = create_scene(args.get("id"))
    ctx.scene.datasets.update(datasets)
    ctx.handles.clear()
    return ctx.scene


REGISTRY = {
    # data
    "import_table": _op_import_table,
    "import_network": _op_import_network,
    "unique_values": lambda ctx, t, a: unique_values(
        ctx.scene.dataset(_dataset_name(ctx, a["data"])), a["attribute"]),
    "group_items": lambda ctx, t, a: group_items(
        ctx.scene.dataset(_dataset_name(ctx, a["data"])), a["attribute"]),
    "aggregate": lambda ctx, t, a: _aggregate(
        a["values"] if "values" in a
        else ctx.scene.scope_values(resolve_one(ctx, t), a["attribute"]),
        a["aggregator"]),
    # scene
    "create_scene": _op_create_scene,
    "create_mark": lambda ctx, t, a: ctx.scene.create_mark(a["type"], a.get("props")),
    "create_glyph": lambda ctx, t, a: ctx.scene.create_glyph(
        resolve_elements(ctx, a["marks"])),
    "get_scope_value": lambda ctx, t, a: ctx.scene.get_scope_value(
        resolve_one(ctx, t), a["attribute"], a.get("aggregator")),
    "set_channel": lambda ctx, t, a: ctx.scene.set_channel(
        resolve_one(ctx, t), a["channel"], a["value"]),
    "set_channel_peers": lambda ctx, t, a: ctx.scene.set_channel_peers(
        resolve_one(ctx, t), a["channel"], a["value"]),
    "peers_of": lambda ctx, t, a: ctx.scene.peers_of(resolve_one(ctx, t)),
    "classify_group_kind": lambda ctx, t, a: ctx.scene.classify_group_kind(
        resolve_elements(ctx, a["members"])),
    "add_axis": lambda ctx, t, a: ctx.scene.add_axis(*_aux_args(ctx, "axis", a)),
    "add_legend": lambda ctx, t, a: ctx.scene.add_legend(*_aux_args(ctx, "legend", a)),
    "add_gridlines": lambda ctx, t, a: ctx.scene.add_gridlines(
        _scale_of(ctx, a["scale"]).id, a.get("orientation", "horizontal")),
    "add_annotation": lambda ctx, t, a: ctx.scene.add_annotation(
        a["text"], a.get("x", 0), a.get("y", 0), a.get("props")),
    "set_view": lambda ctx, t, a: ctx.scene.set_view(a["property"], a["value"]),
    # generative
    "repeat": lambda ctx, t, a: gen.repeat(
        ctx.scene, resolve_one(ctx, t), _dataset_name(ctx, a["data"]), a["attribute"]),
    "repeat_network": lambda ctx, t, a: gen.repeat_network(
        ctx.scene, resolve_one(ctx, a["node"]), resolve_one(ctx, a["link"]),
        _dataset_name(ctx, a["data"]), a["attribute"]),
    "divide": lambda ctx, t, a: gen.divide(
        ctx.scene, resolve_one(ctx, t), _dataset_name(ctx, a["data"]),
        a["attribute"], a.get("orientation")),
    "densify": lambda ctx, t, a: gen.densify(
        ctx.scene, resolve_one(ctx, t), _dataset_name(ctx, a["data"]),
        a["attribute"], a.get("orientation")),
    "classify": lambda ctx, t, a: gen.classify(
        ctx.scene, resolve_one(ctx, t), a["attribute"]),
    "repopulate": lambda ctx, t, a: gen.repopulate(
        ctx.scene, resolve_one(ctx, t), _dataset_name(ctx, a["data"]),
        [tuple(p) for p in a["pairs"]]),
    "stratify": lambda ctx, t, a: gen.stratify(
        ctx.scene, resolve_one(ctx, t), _dataset_name(ctx, a["data"]),
        a["attribute"], a.get("orientation")),
    # encodings and scales
    "apply_encoding": lambda ctx, t, a: enc.apply_encoding(
        ctx.scene, resolve_one(ctx, t), a["channel"], a["attribute"],
        a.get("scale"), a.get("aggregator")),
    "remove_encoding": lambda ctx, t, a: enc.remove_encoding(
        ctx.scene, _encoding_of(ctx, a["encoding"]).id),
    "customize_scale": lambda ctx, t, a: enc.customize_scale(
        ctx.scene, _scale_of(ctx, a["scale"]), a["patch"]),
    "share_scale": lambda ctx, t, a: enc.share_scale(
        ctx.scene, _encoding_of(ctx, a["a"]), _encoding_of(ctx, a["b"])),
    "sync_scales": lambda ctx, t, a: enc.sync_scales(
        ctx.scene, [_scale_of(ctx, s).id for s in a["scales"]]),
    "scale_apply": lambda ctx, t, a: enc.scale_apply(
        _scale_of(ctx, a["scale"]), a["value"]),
    # layouts
    "apply_layout": lambda ctx, t, a: lay.apply_layout(
        ctx.scene, resolve_one(ctx, t), a["spec"]),
    "apply_layout_peers": lambda ctx, t, a: lay.apply_layout_peers(
        ctx.scene, resolve_one(ctx, t), a["spec"]),
    "update_layout_param": lambda ctx, t, a: lay.update_layout_param(
        ctx.scene, resolve_one(ctx, t), a["param"], a["value"]),
    "update_layout_param_peers": lambda ctx, t, a: lay.update_layout_param_peers(
        ctx.scene, resolve_one(ctx, t), a["param"], a["value"]),
    "compute_grid": lambda ctx, t, a: lay.compute_grid(
        [tuple(s) for s in a["sizes"]], a.get("params", {})),
    "compute_stack": lambda ctx, t, a: lay.compute_stack(
        [tuple(s) for s in a["sizes"]], a.get("params", {})),
    "compute_packing": lambda ctx, t, a: lay.compute_packing(
        [tuple(s) for s in a["sizes"]], a.get("params", {})),
    "compute_spiral": lambda ctx, t, a: lay.compute_spiral(
        a["count"], a.get("params", {})),
    # constraints
    "align": lambda ctx, t, a: cons.align(
        ctx.scene, _selector_to_ids(ctx, a["targets"]), a["edge"]),
    "affix": lambda ctx, t, a: cons.affix(
        ctx.scene, _selector_to_ids(ctx, a["followers"]),
        _selector_to_ids(ctx, a["anchors"]),
        a.get("anchor_point", "center"), a.get("dx", 0.0), a.get("dy", 0.0)),
    "set_order": lambda ctx, t, a: cons.set_order(
        ctx.scene, resolve_one(ctx, t), a["key"], a.get("direction", "ascending")),
    "set_z_order": lambda ctx, t, a: cons.set_z_order(
        ctx.scene, _selector_to_ids(ctx, a["elements"]), a["z"]),
    "propagate": lambda ctx, t, a: ctx.scene.propagate().as_dict(),
    # serialization and rendering
    "serialize_scene": lambda ctx, t, a: serialize_scene(ctx.scene),
    "deserialize_scene": lambda ctx, t, a: _op_deserialize(ctx, a),
    "export_dsvg": lambda ctx, t, a: export_dsvg(
        ctx.scene, a.get("width", 640), a.get("height", 480), a.get("background")),
    "render": lambda ctx, t, a: render(
        ctx.scene, a.get("width", 640), a.get("height", 480), a.get("background")),
    "render_mark": lambda ctx, t, a: render_mark(resolve_one(ctx, t)),
    "render_axis": lambda ctx, t, a: _op_render_aux(ctx, "axis", a),
    "render_legend": lambda ctx, t, a: _op_render_aux(ctx, "legend", a),
    "validate": lambda ctx, t, a: validate_scene(ctx.scene),
}


def _op_deserialize(ctx, args):
    source = Path(args["path"]).read_text() if "path" in args else args["source"]
    ctx.scene = deserialize_scene(source)
    ctx.handles.clear()
    return ctx.scene


def execute_pipeline(steps, data: dict | None = None, scene_id: str = "scene-1",
                     verbose: bool = False) -> Context:
    """Run pipeline steps against a fresh scene; returns the final context."""
    if not isinstance(steps, list):
        raise PipelineError(0, "a pipeline must be a JSON array of steps")
    ctx = Context(create_scene(scene_id))
    for name, dataset in (data or {}).items():
        ctx.scene.add_dataset(dataset, name)
    for index, step in enumerate(steps):
        if not isinstance(step, dict) or "op" not in step:
            raise PipelineError(index, "each step needs an 'op' field")
        op = REGISTRY.get(step["op"])
        if op is None:
            raise PipelineError(index, f"unknown operation {step['op']!r}")
        ctx.scene.last_report = None  # set again only if this step propagates
        try:
            result = op(ctx, step.get("target"), step.get("args", {}))
        except PipelineError:
            raise
        except (VizSceneError, AttributeError, KeyError, TypeError, ValueError) as e:
            detail = f"missing argument {e}" if isinstance(e, KeyError) else str(e)
            raise PipelineError(index, f"{step['op']}: {detail}") from e
        if "as" in step:
            ctx.handles[step["as"]] = result
        if verbose and ctx.scene.last_report is not None:
            ctx.reports.append({"step": index, "op": step["op"],
                                **ctx.scene.last_report.as_dict()})
    ctx.scene.propagate()
    return ctx


def load_pipeline(path) -> list:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise PipelineError(0, f"pipeline file is not valid JSON: {e}") from e
