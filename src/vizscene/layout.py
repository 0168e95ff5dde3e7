"""Algorithmic layouts: grid, stack, packing, spiral.

Layouts are properties of groups. A layout computes member positions in the
group's local frame from member extents and order; it never changes sizes.
Position computations are pure and deterministic (members are processed in
group order, packing uses no randomness), so identical inputs give
bit-identical positions.
"""

from __future__ import annotations

import math

from .elements import Group
from .errors import LayoutError

LAYOUT_TYPES = ("grid", "stack", "packing", "spiral", "none")

_DEFAULTS = {
    "grid": {"num_cols": 1, "gap_x": 5.0, "gap_y": 5.0},
    "stack": {"orientation": "horizontal", "gap": 0.0},
    "packing": {"shape": "circle", "padding": 0.0},
    "spiral": {"start_radius": 20.0, "growth": 20.0, "angular_step": 30.0},
    "none": {},
}


_NUMERIC = ("num_cols", "num_rows", "gap_x", "gap_y", "gap", "padding",
            "start_radius", "growth", "angular_step")


def normalize_layout(spec: dict) -> dict:
    if not isinstance(spec, dict):
        raise LayoutError("a layout spec must be an object")
    if "type" not in spec:
        raise LayoutError("layout spec needs a 'type'")
    kind = spec["type"]
    if kind not in LAYOUT_TYPES:
        raise LayoutError(f"unknown layout type {kind!r}")
    out = dict(_DEFAULTS[kind])
    out["type"] = kind
    for key, value in spec.items():
        if key == "type":
            continue
        if key not in _DEFAULTS[kind] and not (kind == "grid" and key in ("num_cols", "num_rows")):
            raise LayoutError(f"unknown parameter {key!r} for {kind} layout")
        if key in _NUMERIC and (isinstance(value, bool)
                                or not isinstance(value, (int, float))):
            raise LayoutError(f"{kind} layout parameter {key!r} must be a number")
        if key.startswith("gap") and value < 0:
            raise LayoutError(f"{kind} layout gaps must be non-negative")
        out[key] = value
    if kind == "grid":
        if "num_rows" in spec and "num_cols" in spec:
            raise LayoutError("grid layout takes num_cols or num_rows, not both")
        if "num_rows" in spec:
            out.pop("num_cols", None)
    if kind == "stack" and out["orientation"] not in ("horizontal", "vertical", "angular"):
        raise LayoutError(f"bad stack orientation {out['orientation']!r}")
    return out


def owns_axis(layout: dict, axis: str) -> bool:
    """Whether the layout determines member positions along an axis.

    Single-flow grids (one column or one row) arrange members along the flow
    axis only; the cross axis stays adjustable by constraints.
    """
    kind = layout["type"]
    if kind == "grid":
        if layout.get("num_cols") == 1:
            return axis == "y"
        if layout.get("num_rows") == 1:
            return axis == "x"
        return True
    if kind == "stack":
        orientation = layout.get("orientation")
        if orientation == "horizontal":
            return axis == "x"
        if orientation == "vertical":
            return axis == "y"
        return False
    if kind in ("packing", "spiral"):
        return True
    return False


# ---------------------------------------------------------------- positions


def compute_grid(sizes, params: dict):
    """Cell origins for members of the given (width, height) extents.

    Cells are uniform: max member extent plus gap; flow is row-major when
    num_cols is set and column-major when num_rows is set.
    """
    if not sizes:
        return []
    cell_w = max(w for w, _ in sizes) + params.get("gap_x", 0)
    cell_h = max(h for _, h in sizes) + params.get("gap_y", 0)
    out = []
    for i in range(len(sizes)):
        if "num_rows" in params:
            rows = max(int(params["num_rows"]), 1)
            col, row = divmod(i, rows)[0], i % rows
        else:
            cols = max(int(params.get("num_cols", 1)), 1)
            col, row = i % cols, i // cols
        out.append((col * cell_w, row * cell_h))
    return out


def compute_stack(sizes, params: dict):
    """Cumulative offsets along the stack orientation; the cross axis is None."""
    gap = params.get("gap", 0)
    horizontal = params.get("orientation", "horizontal") == "horizontal"
    out = []
    offset = 0.0
    for w, h in sizes:
        out.append((offset, None) if horizontal else (None, offset))
        offset += (w if horizontal else h) + gap
    return out


def compute_angular_stack(angles, params: dict):
    gap = params.get("gap", 0)
    out = []
    offset = 0.0
    for a in angles:
        out.append(offset)
        offset += a + gap
    return out


def compute_packing(sizes, params: dict):
    """Deterministic front-chain packing over member bounding circles.

    Members are inserted in order; each new circle is placed tangent to a pair
    of circles on the front chain, scanning forward when it would overlap an
    earlier chain member. The arrangement is then shifted so its bounding box
    starts at the origin.
    """
    padding = params.get("padding", 0)
    radii = [math.hypot(w, h) / 2 + padding for w, h in sizes]
    centers = _pack_circles(radii)
    if not centers:
        return []
    min_x = min(c[0] - r for c, r in zip(centers, radii))
    min_y = min(c[1] - r for c, r in zip(centers, radii))
    return [(x - min_x, y - min_y) for x, y in centers]


class _Node:
    __slots__ = ("x", "y", "r", "next", "previous")

    def __init__(self, x, y, r):
        self.x, self.y, self.r = x, y, r
        self.next = self.previous = None


def _place(b, a, c):
    # position c tangent to a and b, on the outside of the front
    dx, dy = b.x - a.x, b.y - a.y
    d2 = dx * dx + dy * dy
    if d2:
        a2 = (a.r + c.r) ** 2
        b2 = (b.r + c.r) ** 2
        if a2 > b2:
            x = (d2 + b2 - a2) / (2 * d2)
            y = math.sqrt(max(0.0, b2 / d2 - x * x))
            c.x = b.x - x * dx - y * dy
            c.y = b.y - x * dy + y * dx
        else:
            x = (d2 + a2 - b2) / (2 * d2)
            y = math.sqrt(max(0.0, a2 / d2 - x * x))
            c.x = a.x + x * dx - y * dy
            c.y = a.y + x * dy + y * dx
    else:
        c.x = a.x + a.r + c.r
        c.y = a.y


def _intersects(a, b):
    dr = a.r + b.r - 1e-6
    return dr > 0 and dr * dr > (b.x - a.x) ** 2 + (b.y - a.y) ** 2


def _score(node):
    # squared distance of the weighted midpoint of a front pair to the origin
    a, b = node, node.next
    ab = a.r + b.r
    dx = (a.x * b.r + b.x * a.r) / ab
    dy = (a.y * b.r + b.y * a.r) / ab
    return dx * dx + dy * dy


def _pack_circles(radii):
    """Front-chain packing: each circle is placed tangent to the front pair
    closest to the centroid; conflicting front stretches are cut away."""
    n = len(radii)
    if n == 0:
        return []
    nodes = [_Node(0.0, 0.0, r) for r in radii]
    if n == 1:
        return [(0.0, 0.0)]
    a, b = nodes[0], nodes[1]
    a.x = -b.r
    b.x = a.r
    if n == 2:
        return [(c.x, c.y) for c in nodes]
    c = nodes[2]
    _place(b, a, c)
    a.next = c.previous = b
    b.next = a.previous = c
    c.next = b.previous = a
    i = 3
    while i < n:
        c = nodes[i]
        _place(a, b, c)
        # scan the front both ways for the nearest conflict
        j, k = b.next, a.previous
        sj, sk = b.r, a.r
        conflict = False
        while True:
            if sj <= sk:
                if _intersects(j, c):
                    b = j
                    a.next = b
                    b.previous = a
                    conflict = True
                    break
                sj += j.r
                j = j.next
            else:
                if _intersects(k, c):
                    a = k
                    a.next = b
                    b.previous = a
                    conflict = True
                    break
                sk += k.r
                k = k.previous
            if j is k.next:
                break
        if conflict:
            continue
        # insert c between a and b, then re-anchor at the pair nearest origin
        c.previous = a
        c.next = b
        a.next = b.previous = c
        b = c
        aa = _score(a)
        cursor = a.next
        while cursor is not b:
            ca = _score(cursor)
            if ca < aa:
                a = cursor
                aa = ca
            cursor = cursor.next
        b = a.next
        i += 1
    return [(node.x, node.y) for node in nodes]


def compute_spiral(count: int, params: dict):
    """Centers on an Archimedean spiral: radius grows linearly per turn."""
    start = params.get("start_radius", 20.0)
    growth = params.get("growth", 20.0)
    step = params.get("angular_step", 30.0)
    out = []
    for i in range(count):
        theta = i * step
        r = start + growth * theta / 360.0
        a = math.radians(theta)
        out.append((r * math.sin(a), -r * math.cos(a)))
    return out


# --------------------------------------------------------------- application


def apply_layout(scene, group, spec: dict, *, default: bool = False) -> dict:
    return _apply_layouts(scene, [(scene.resolve(group), spec)], default)[0]


def apply_layout_peers(scene, group, spec: dict) -> None:
    _apply_layouts(scene, [(peer, spec) for peer in scene.peers_of(group)])


def _apply_layouts(scene, changes, default: bool = False) -> list:
    """Give each group of the (group, spec) ``changes`` its layout. Every
    spec is normalised and every takeover checked before the first group
    changes, so a refusal leaves the scene as it was."""
    from .constraints import check_position_writers
    for group, _ in changes:
        if not isinstance(group, Group):
            raise LayoutError(f"{group.id} is not a group")
    layouts = [normalize_layout(spec) for _, spec in changes]
    laid = {g.id: (g, layout) for (g, _), layout in zip(changes, layouts)
            if layout["type"] != "none"}
    # each layout takes over the member axes it owns from their writer,
    # which may only be a layout these changes replace
    check_position_writers(
        scene, ((scene.elements[m], axis) for g, layout in laid.values()
                for axis in ("x", "y") if owns_axis(layout, axis) for m in g.members),
        f"apply a {' or '.join(sorted({l['type'] for _, l in laid.values()}))} layout",
        LayoutError, yields=lambda writer: isinstance(writer, Group) and writer.id in laid)
    for (group, _), layout in zip(changes, layouts):
        group.layout = layout if group.id in laid else None
        group.layout_default = default and group.id in laid
    scene.dirty.layouts.update(laid)
    scene.maybe_propagate()
    return layouts


def _with_param(group, param: str, value) -> tuple:
    """``group`` and its layout spec with ``param`` set to ``value``."""
    if getattr(group, "layout", None) is None:  # marks have none either
        raise LayoutError(f"{group.id} has no layout")
    if param == "type":
        raise LayoutError(f"unknown parameter 'type' for {group.layout['type']} layout")
    patch = dict(group.layout)
    if param in ("num_cols", "num_rows"):
        patch.pop("num_cols", None)
        patch.pop("num_rows", None)
    patch[param] = value
    return group, patch


def update_layout_param(scene, group, param: str, value) -> None:
    _apply_layouts(scene, [_with_param(scene.resolve(group), param, value)])


def update_layout_param_peers(scene, group, param: str, value) -> None:
    _apply_layouts(scene, [_with_param(peer, param, value)
                           for peer in scene.peers_of(group)])


def evaluate_layout(scene, group: Group, boxes):
    """Recompute member positions; returns the set of member ids that moved.
    ``boxes`` are the members' current boxes in the group's frame, in member
    order."""
    layout = group.layout
    members = [scene.elements[m] for m in group.members]
    if layout is None or not members:
        return set()
    moved = set()
    kind = layout["type"]
    if kind == "stack" and layout["orientation"] == "angular":
        angles = [m.channels.get("angle", 0) for m in members]
        starts = compute_angular_stack(angles, layout)
        for member, start in zip(members, starts):
            if scene.write_channel(member, "start_angle", start):
                moved.add(member.id)
        return moved

    sizes = [(b[2] - b[0], b[3] - b[1]) for b in boxes]
    if kind == "grid":
        targets = compute_grid(sizes, layout)
    elif kind == "stack":
        targets = compute_stack(sizes, layout)
    elif kind == "packing":
        targets = compute_packing(sizes, layout)
    elif kind == "spiral":
        centers = compute_spiral(len(members), layout)
        targets = [(cx - (b[2] - b[0]) / 2 - b[0], cy - (b[3] - b[1]) / 2 - b[1])
                   for (cx, cy), b in zip(centers, boxes)]
        for member, (dx, dy) in zip(members, targets):
            if abs(dx) > 1e-12 or abs(dy) > 1e-12:
                scene.translate(member, dx, dy, touch=False)
                moved.add(member.id)
        return moved
    else:
        return moved

    for member, box, target in zip(members, boxes, targets):
        dx = (target[0] - box[0]) if target[0] is not None else 0.0
        dy = (target[1] - box[1]) if target[1] is not None else 0.0
        if abs(dx) > 1e-12 or abs(dy) > 1e-12:
            scene.translate(member, dx, dy, touch=False)
            moved.add(member.id)
    return moved
