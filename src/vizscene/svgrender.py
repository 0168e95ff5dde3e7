"""Scene-to-SVG rendering, decoupled from scene manipulation.

Rendering is a pure function of the scene: marks are emitted in z-order,
groups nest as ``<g>`` elements, the view configuration becomes a root
transform, and numbers are fixed to four decimals with trailing zeros
trimmed, so identical scenes render byte-identical documents.
"""

from __future__ import annotations

import json

from .elements import Mark, arc_point
from .encoding import scale_apply
from .errors import SceneError
from .ticks import nice_ticks

FULL_TURN_EPS = 1e-9


def fmt(value) -> str:
    if isinstance(value, str):
        return value
    text = f"{float(value):.4f}".rstrip("0").rstrip(".")
    if text in ("-0", ""):
        return "0"
    return text


def esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _tag(name: str, attrs: dict, content: str | None = None) -> str:
    parts = [name]
    for key in sorted(attrs):
        value = attrs[key]
        if value is None:
            continue
        parts.append(f'{key}="{esc(value) if isinstance(value, str) else fmt(value)}"')
    head = " ".join(parts)
    if content is None:
        return f"<{head}/>"
    return f"<{head}>{content}</{name}>"


def _style_attrs(mark: Mark) -> dict:
    ch = mark.channels
    out = {}
    if "fill" in ch:
        out["fill"] = ch["fill"] if ch["fill"] is not None else "none"
    if ch.get("stroke") is not None:
        out["stroke"] = ch["stroke"]
        if ch.get("stroke_width") is not None:
            out["stroke-width"] = ch["stroke_width"]
    if ch.get("opacity", 1) != 1:
        out["opacity"] = ch["opacity"]
    return out


def _path(points, closed: bool) -> str:
    cmds = []
    for i, (x, y) in enumerate(points):
        cmds.append(f"{'M' if i == 0 else 'L'}{fmt(x)},{fmt(y)}")
    if closed:
        cmds.append("Z")
    return " ".join(cmds)


def _sector_path(cx, cy, r, start, sweep) -> str:
    if sweep >= 360 - FULL_TURN_EPS:
        top = arc_point(cx, cy, r, 0)
        bottom = arc_point(cx, cy, r, 180)
        return (f"M{fmt(top[0])},{fmt(top[1])} "
                f"A{fmt(r)},{fmt(r)} 0 1 1 {fmt(bottom[0])},{fmt(bottom[1])} "
                f"A{fmt(r)},{fmt(r)} 0 1 1 {fmt(top[0])},{fmt(top[1])} Z")
    p0 = arc_point(cx, cy, r, start)
    p1 = arc_point(cx, cy, r, start + sweep)
    large = 1 if sweep > 180 else 0
    return (f"M{fmt(cx)},{fmt(cy)} L{fmt(p0[0])},{fmt(p0[1])} "
            f"A{fmt(r)},{fmt(r)} 0 {large} 1 {fmt(p1[0])},{fmt(p1[1])} Z")


def _annulus_path(cx, cy, inner, outer, start, sweep) -> str:
    if sweep >= 360 - FULL_TURN_EPS:
        ot, ob = arc_point(cx, cy, outer, 0), arc_point(cx, cy, outer, 180)
        it, ib = arc_point(cx, cy, inner, 0), arc_point(cx, cy, inner, 180)
        d = (f"M{fmt(ot[0])},{fmt(ot[1])} "
             f"A{fmt(outer)},{fmt(outer)} 0 1 1 {fmt(ob[0])},{fmt(ob[1])} "
             f"A{fmt(outer)},{fmt(outer)} 0 1 1 {fmt(ot[0])},{fmt(ot[1])} Z")
        if inner > 0:
            d += (f" M{fmt(it[0])},{fmt(it[1])} "
                  f"A{fmt(inner)},{fmt(inner)} 0 1 0 {fmt(ib[0])},{fmt(ib[1])} "
                  f"A{fmt(inner)},{fmt(inner)} 0 1 0 {fmt(it[0])},{fmt(it[1])} Z")
        return d
    o0 = arc_point(cx, cy, outer, start)
    o1 = arc_point(cx, cy, outer, start + sweep)
    i0 = arc_point(cx, cy, inner, start)
    i1 = arc_point(cx, cy, inner, start + sweep)
    large = 1 if sweep > 180 else 0
    return (f"M{fmt(o0[0])},{fmt(o0[1])} "
            f"A{fmt(outer)},{fmt(outer)} 0 {large} 1 {fmt(o1[0])},{fmt(o1[1])} "
            f"L{fmt(i1[0])},{fmt(i1[1])} "
            f"A{fmt(inner)},{fmt(inner)} 0 {large} 0 {fmt(i0[0])},{fmt(i0[1])} Z")


def render_mark(mark: Mark, *, annotations: dict | None = None) -> str:
    """One SVG element for a mark; coordinates are the mark's own frame."""
    ch = mark.channels
    t = mark.type
    attrs = dict(annotations or {})
    style = _style_attrs(mark)
    x, y = ch.get("x", 0), ch.get("y", 0)
    if t == "rectangle":
        _need(ch, t, "width", "height")
        attrs.update(style, x=x, y=y, width=ch["width"], height=ch["height"])
        return _tag("rect", attrs)
    if t == "circle":
        _need(ch, t, "radius")
        attrs.update(style, cx=x, cy=y, r=ch["radius"])
        return _tag("circle", attrs)
    if t == "line":
        _need(ch, t, "x2", "y2")
        attrs.update(style, x1=x, y1=y, x2=ch["x2"], y2=ch["y2"])
        return _tag("line", attrs)
    if t == "text":
        attrs.update({k: v for k, v in style.items() if k != "stroke-width"})
        attrs.update({"x": x, "y": y, "font-size": ch.get("font_size", 12),
                      "text-anchor": "middle", "dominant-baseline": "central"})
        return _tag("text", attrs, esc(ch.get("text", "")))
    if t == "image":
        _need(ch, t, "width", "height")
        attrs.update(x=x, y=y, width=ch["width"], height=ch["height"],
                     href=ch.get("href", ""))
        if ch.get("opacity", 1) != 1:
            attrs["opacity"] = ch["opacity"]
        return _tag("image", attrs)
    if t == "pie":
        _need(ch, t, "radius", "start_angle", "angle")
        attrs.update(style, d=_sector_path(x, y, ch["radius"],
                                           ch["start_angle"], ch["angle"]))
        return _tag("path", attrs)
    if t == "ring":
        _need(ch, t, "inner_radius", "outer_radius")
        attrs.update(style, d=_annulus_path(x, y, ch["inner_radius"],
                                            ch["outer_radius"], 0, 360))
        return _tag("path", attrs)
    if t == "arc":
        _need(ch, t, "inner_radius", "outer_radius", "start_angle", "angle")
        attrs.update(style, d=_annulus_path(x, y, ch["inner_radius"], ch["outer_radius"],
                                            ch["start_angle"], ch["angle"]))
        return _tag("path", attrs)
    # vertex-based marks
    points = [(x + v.x, y + v.y) for v in mark.vertices]
    closed = t in ("polygon", "geoPolygon", "area", "band")
    attrs.update(style, d=_path(points, closed))
    return _tag("path", attrs)


def _need(ch: dict, mark_type: str, *names):
    for n in names:
        if ch.get(n) is None:
            raise SceneError(f"{mark_type} mark cannot render: channel {n!r} unresolved")


class _Emitter:
    def __init__(self, scene, annotate: bool):
        self.scene = scene
        self.annotate = annotate
        self.lines: list[str] = []

    def emit(self, text: str, depth: int):
        self.lines.append("  " * depth + text)

    def element(self, el, depth: int, path: tuple):
        if isinstance(el, Mark):
            annotations = None
            if self.annotate:
                annotations = {"class": " ".join([el.type, "/".join(path)]).strip(),
                               "data-id": el.id}
                datum = _datum(self.scene, el)
                if datum is not None:
                    annotations["data-datum"] = datum
            self.emit(render_mark(el, annotations=annotations), depth)
            return
        attrs = {}
        if el.tx or el.ty:
            attrs["transform"] = f"translate({fmt(el.tx)},{fmt(el.ty)})"
        if self.annotate:
            attrs["class"] = el.group_kind
            attrs["data-id"] = el.id
        if attrs:
            head = "<g " + " ".join(f'{k}="{esc(v)}"' for k, v in sorted(attrs.items())) + ">"
        else:
            head = "<g>"
        self.emit(head, depth)
        for child in _z_sorted(self.scene, el.members):
            self.element(child, depth + 1, path + (el.id,))
        self.emit("</g>", depth)


def _z_sorted(scene, member_ids):
    members = [scene.elements[m] for m in member_ids]
    return sorted(members, key=lambda e: e.z_index)


def _datum(scene, mark: Mark) -> str | None:
    scope = mark.data_scope
    if scope is None:
        return None
    dataset = scene.dataset(scope.dataset)
    record = {}
    if scope.table == "links":
        keys = sorted({k for i in scope.indices for k in dataset.links[i]})
        for k in keys:
            values = [dataset.links[i].get(k) for i in scope.indices]
            record[k] = values[0] if all(v == values[0] for v in values) else values
    else:
        for attr in dataset.attribute_names:
            value = scene.get_scope_value(mark, attr)
            record[attr] = value
    return json.dumps(record, separators=(",", ":"))


def content_bbox(scene):
    boxes = [scene.bbox(scene.elements[r]) for r in scene.roots]
    if not boxes:
        return (0.0, 0.0, 0.0, 0.0)
    return (min(b[0] for b in boxes), min(b[1] for b in boxes),
            max(b[2] for b in boxes), max(b[3] for b in boxes))


def render(scene, width: int = 640, height: int = 480,
           background: str | None = None, *, annotate: bool = False) -> str:
    """Serialize the scene to a standalone SVG 1.1 document."""
    if scene.dirty.any():
        scene.propagate()
    view_w, view_h = scene.view.field_of_view or (width, height)
    em = _Emitter(scene, annotate)
    em.emit('<?xml version="1.0" encoding="UTF-8"?>', 0)
    svg_attrs = {"xmlns": "http://www.w3.org/2000/svg", "width": width,
                 "height": height, "viewBox": f"0 0 {fmt(view_w)} {fmt(view_h)}"}
    em.emit("<svg " + " ".join(
        f'{k}="{esc(v) if isinstance(v, str) else fmt(v)}"'
        for k, v in sorted(svg_attrs.items())) + ">", 0)
    if background is not None:
        em.emit(_tag("rect", {"fill": background, "height": view_h,
                              "width": view_w, "x": 0, "y": 0}), 1)
    view = scene.view
    if view.is_identity():
        em.emit("<g>", 1)
    else:
        fx, fy = view.focus
        parts = []
        if fx or fy:
            parts.append(f"translate({fmt(fx)},{fmt(fy)})")
        if view.rotation:
            parts.append(f"rotate({fmt(view.rotation)})")
        if view.zoom != 1:
            parts.append(f"scale({fmt(view.zoom)})")
        if fx or fy:
            parts.append(f"translate({fmt(-fx)},{fmt(-fy)})")
        em.emit(f'<g transform="{" ".join(parts)}">', 1)

    box = content_bbox(scene)
    for aux in scene.aux:
        if aux.aux_kind == "gridlines":
            _render_gridlines(scene, em, aux, box)
    for root in _z_sorted(scene, scene.roots):
        em.element(root, 2, ())
    for aux in scene.aux:
        if aux.aux_kind == "axis":
            em.emit(render_axis(aux, scene.scales[aux.scale], box), 2)
        elif aux.aux_kind == "legend":
            em.emit(render_legend(aux, scene.scales[aux.scale], box), 2)
        elif aux.aux_kind == "annotation":
            attrs = {"x": aux.x, "y": aux.y, "font-size": aux.props.get("font_size", 12),
                     "fill": aux.props.get("fill", "#333"), "text-anchor": "middle",
                     "dominant-baseline": "central"}
            em.emit(_tag("text", attrs, esc(aux.text or "")), 2)
    em.emit("</g>", 1)
    em.emit("</svg>", 0)
    return "\n".join(em.lines) + "\n"


def _scale_ticks(scale):
    """(position, label) pairs for a scale's domain."""
    if scale.kind in ("linear", "power", "log"):
        values = nice_ticks(scale.domain[0], scale.domain[1])
        return [(scale_apply(scale, v), fmt(v)) for v in values]
    if scale.kind == "band":
        from .encoding import band_width
        bw = band_width(scale)
        return [(scale_apply(scale, c) + bw / 2, str(c)) for c in scale.domain]
    if scale.kind == "ordinal-point":
        return [(scale_apply(scale, c), str(c)) for c in scale.domain]
    raise SceneError(f"cannot draw an axis for a {scale.kind} scale")


def render_axis(aux, scale, box) -> str:
    """Domain line, ticks and labels for one scale."""
    ticks = _scale_ticks(scale)
    positions = [p for p, _ in ticks]
    lo, hi = min(positions), max(positions)
    parts = []
    if aux.placement in ("bottom", "top"):
        y = box[3] + aux.offset if aux.placement == "bottom" else box[1] - aux.offset
        sign = 1 if aux.placement == "bottom" else -1
        parts.append(_tag("line", {"stroke": "#333", "x1": lo, "x2": hi, "y1": y, "y2": y}))
        for p, label in ticks:
            parts.append(_tag("line", {"stroke": "#333", "x1": p, "x2": p,
                                       "y1": y, "y2": y + sign * 5}))
            parts.append(_tag("text", {"fill": "#333", "font-size": 10,
                                       "text-anchor": "middle", "x": p,
                                       "y": y + sign * 16}, esc(label)))
    else:
        x = box[0] - aux.offset if aux.placement == "left" else box[2] + aux.offset
        sign = -1 if aux.placement == "left" else 1
        parts.append(_tag("line", {"stroke": "#333", "x1": x, "x2": x, "y1": lo, "y2": hi}))
        for p, label in ticks:
            parts.append(_tag("line", {"stroke": "#333", "x1": x, "x2": x + sign * 5,
                                       "y1": p, "y2": p}))
            anchor = "end" if aux.placement == "left" else "start"
            parts.append(_tag("text", {"fill": "#333", "font-size": 10,
                                       "text-anchor": anchor, "x": x + sign * 8,
                                       "y": p}, esc(label)))
    return "<g>" + "".join(parts) + "</g>"


def render_legend(aux, scale, box) -> str:
    """Swatch-and-label rows for categorical scales, a ramp for sequential."""
    x = box[2] + aux.offset if aux.placement == "right" else box[0] - aux.offset - 80
    y = box[1]
    parts = []
    if scale.kind == "color-categorical":
        for i, category in enumerate(scale.domain):
            color = scale_apply(scale, category)
            parts.append(_tag("rect", {"fill": color, "height": 12, "width": 12,
                                       "x": x, "y": y + i * 18}))
            parts.append(_tag("text", {"fill": "#333", "font-size": 11,
                                       "text-anchor": "start", "x": x + 16,
                                       "y": y + i * 18 + 6,
                                       "dominant-baseline": "central"},
                              esc(str(category))))
    elif scale.kind == "color-sequential":
        d0, d1 = scale.domain
        steps = 10
        for i in range(steps):
            v = d0 + (d1 - d0) * (i + 0.5) / steps
            parts.append(_tag("rect", {"fill": scale_apply(scale, v), "height": 10,
                                       "width": 12, "x": x, "y": y + i * 10}))
        parts.append(_tag("text", {"fill": "#333", "font-size": 10, "text-anchor": "start",
                                   "x": x + 16, "y": y + 5}, fmt(d0)))
        parts.append(_tag("text", {"fill": "#333", "font-size": 10, "text-anchor": "start",
                                   "x": x + 16, "y": y + steps * 10}, fmt(d1)))
    else:
        raise SceneError(f"cannot draw a legend for a {scale.kind} scale")
    return "<g>" + "".join(parts) + "</g>"


def _render_gridlines(scene, em, aux, box):
    scale = scene.scales[aux.scale]
    ticks = _scale_ticks(scale)
    parts = []
    for p, _ in ticks:
        if aux.placement == "horizontal":
            parts.append(_tag("line", {"stroke": "#ddd", "x1": box[0], "x2": box[2],
                                       "y1": p, "y2": p}))
        else:
            parts.append(_tag("line", {"stroke": "#ddd", "x1": p, "x2": p,
                                       "y1": box[1], "y2": box[3]}))
    em.emit("<g>" + "".join(parts) + "</g>", 2)
