"""Visual elements: marks with vertices/segments, groups, and data scopes.

Coordinates are y-down (SVG convention). Angles are in degrees, 0 pointing up,
clockwise positive. Vertex coordinates are local to their mark; a mark's
``x``/``y`` channels anchor it in its parent's frame, and group offsets
translate whole subtrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ChannelError, SceneError

MARK_TYPES = ("rectangle", "circle", "line", "path", "text", "image", "band",
              "area", "ring", "pie", "polyline", "arc", "polygon", "geoPolygon")

GROUP_KINDS = ("glyph", "collection", "composite")

GROUP_ID_PREFIX = {"glyph": "glyph", "collection": "col", "composite": "comp"}

# channel inventory per mark type; this table is the package's documented
# contract for which channels each type accepts
MARK_CHANNELS = {
    "rectangle": ("x", "y", "width", "height", "fill", "stroke", "stroke_width", "opacity"),
    "image": ("x", "y", "width", "height", "href", "opacity"),
    "band": ("x", "y", "width", "height", "fill", "stroke", "stroke_width", "opacity"),
    "area": ("x", "y", "width", "height", "fill", "stroke", "stroke_width", "opacity"),
    "circle": ("x", "y", "radius", "fill", "stroke", "stroke_width", "opacity"),
    "pie": ("x", "y", "radius", "start_angle", "angle", "fill", "stroke", "stroke_width", "opacity"),
    "ring": ("x", "y", "inner_radius", "outer_radius", "fill", "stroke", "stroke_width", "opacity"),
    "arc": ("x", "y", "inner_radius", "outer_radius", "start_angle", "angle",
            "fill", "stroke", "stroke_width", "opacity"),
    "line": ("x", "y", "x2", "y2", "stroke", "stroke_width", "opacity"),
    "polyline": ("x", "y", "stroke", "stroke_width", "opacity"),
    "path": ("x", "y", "fill", "stroke", "stroke_width", "opacity"),
    "polygon": ("x", "y", "fill", "stroke", "stroke_width", "opacity"),
    "geoPolygon": ("x", "y", "fill", "stroke", "stroke_width", "opacity"),
    "text": ("x", "y", "text", "font_size", "fill", "opacity"),
}

GROUP_CHANNELS = ("x", "y", "width", "height")

SEGMENT_CHANNELS = ("x", "y", "stroke", "stroke_width")

# mark types whose vertices are data, not derived from size channels; only
# their segments' positions can be written
VERTEX_MARK_TYPES = ("polyline", "polygon", "path", "area", "geoPolygon", "line")

# smart defaults: visible at identity zoom without any encodings applied
MARK_DEFAULTS = {
    "rectangle": {"x": 0, "y": 0, "width": 30, "height": 30, "fill": "#888", "opacity": 1},
    "image": {"x": 0, "y": 0, "width": 30, "height": 30, "href": "", "opacity": 1},
    "band": {"x": 0, "y": 0, "width": 30, "height": 30, "fill": "#888", "opacity": 1},
    "area": {"x": 0, "y": 0, "width": 30, "height": 30, "fill": "#888", "opacity": 1},
    "circle": {"x": 0, "y": 0, "radius": 15, "fill": "#888", "opacity": 1},
    "pie": {"x": 0, "y": 0, "radius": 15, "start_angle": 0, "angle": 360, "fill": "#888", "opacity": 1},
    "ring": {"x": 0, "y": 0, "inner_radius": 7.5, "outer_radius": 15, "fill": "#888", "opacity": 1},
    "arc": {"x": 0, "y": 0, "inner_radius": 7.5, "outer_radius": 15, "start_angle": 0,
            "angle": 360, "fill": "#888", "opacity": 1},
    "line": {"x": 0, "y": 0, "x2": 40, "y2": 0, "stroke": "#888", "stroke_width": 1, "opacity": 1},
    "polyline": {"x": 0, "y": 0, "stroke": "#888", "stroke_width": 1, "opacity": 1},
    "path": {"x": 0, "y": 0, "stroke": "#888", "stroke_width": 1, "opacity": 1},
    "polygon": {"x": 0, "y": 0, "fill": "#888", "opacity": 1},
    "geoPolygon": {"x": 0, "y": 0, "fill": "#888", "opacity": 1},
    "text": {"x": 0, "y": 0, "text": "", "font_size": 12, "fill": "#888", "opacity": 1},
}

# channels that feed layout computations (extents), as opposed to positions
SIZE_CHANNELS = ("width", "height", "radius", "inner_radius", "outer_radius",
                 "angle", "start_angle", "font_size", "text", "x2", "y2")

POSITION_CHANNELS = ("x", "y")

# per-glyph width factor used to approximate text extent without font metrics
TEXT_WIDTH_FACTOR = 0.6


@dataclass(frozen=True, slots=True)
class DataScope:
    """The data items a visual element represents."""

    dataset: str
    indices: tuple = ()
    table: str = "items"  # "items" for rows/nodes, "links" for network links

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(self.indices)))

    def intersection(self, indices) -> "DataScope":
        return DataScope(self.dataset, tuple(set(self.indices) & set(indices)), self.table)

    def overlaps(self, other: "DataScope") -> bool:
        if other.dataset != self.dataset or other.table != self.table:
            return False
        return bool(set(self.indices) & set(other.indices))

    def __len__(self):
        return len(self.indices)


def union_scopes(scopes) -> DataScope | None:
    """Every item of the given scopes, which must share a dataset and table;
    ``None`` entries are skipped, and a lone scope is returned as it is."""
    scopes = [s for s in scopes if s is not None]
    if len(scopes) <= 1:
        return scopes[0] if scopes else None
    first = scopes[0]
    if any(s.dataset != first.dataset or s.table != first.table for s in scopes):
        raise SceneError("cannot union data scopes over different datasets")
    return DataScope(first.dataset, tuple(set().union(*(s.indices for s in scopes))),
                     first.table)


@dataclass(slots=True)
class Vertex:
    id: str
    x: float = 0.0
    y: float = 0.0
    data_scope: DataScope | None = None
    peer_set: str | None = None


@dataclass(slots=True)
class Segment:
    id: str
    endpoints: tuple  # (vertex id, vertex id)
    kind: str = "line"  # or "curve"
    channels: dict = field(default_factory=dict)
    data_scope: DataScope | None = None
    peer_set: str | None = None


@dataclass(slots=True)
class Mark:
    id: str
    type: str
    channels: dict = field(default_factory=dict)
    vertices: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    data_scope: DataScope | None = None
    peer_set: str | None = None
    parent: str | None = None
    z_index: int = 0
    # node-link wiring: ids of the node elements a link mark connects
    source_node: str | None = None
    target_node: str | None = None
    tree_parent: str | None = None

    @property
    def kind(self):
        return "mark"


@dataclass(slots=True)
class Group:
    id: str
    group_kind: str  # glyph | collection | composite
    members: list = field(default_factory=list)  # ordered element ids
    channels: dict = field(default_factory=dict)  # optional declared width/height
    tx: float = 0.0  # translation applied to the whole subtree
    ty: float = 0.0
    data_scope: DataScope | None = None
    peer_set: str | None = None
    parent: str | None = None
    z_index: int = 0
    layout: dict | None = None  # {"type": ..., params...}
    layout_default: bool = False  # attached by a generative op, yields to affix
    provenance: dict | None = None  # generative origin, drives repopulate

    @property
    def kind(self):
        return self.group_kind


_PART_CHANNELS = {Group: (GROUP_CHANNELS, "a group"), Vertex: (POSITION_CHANNELS, "a vertex"),
                  Segment: (SEGMENT_CHANNELS, "a segment")}


def check_channel(el, channel: str):
    """Raise ``ChannelError`` unless ``el`` has ``channel``: a mark, or a mark
    type name, per ``MARK_CHANNELS``; a group per ``GROUP_CHANNELS``; a vertex
    per ``POSITION_CHANNELS``; a segment per ``SEGMENT_CHANNELS``."""
    if isinstance(el, Mark):
        el = el.type
    if isinstance(el, str):
        if channel in MARK_CHANNELS[el]:
            return
        owner = f"mark type {el!r}"
    else:
        valid, owner = _PART_CHANNELS[type(el)]
        if channel in valid:
            return
    raise ChannelError(f"channel {channel!r} is not valid for {owner}")


# the channels each derived-geometry mark type's vertices are computed from;
# a write to any other channel leaves the vertices as they are
GEOMETRY_CHANNELS = {"rectangle": ("width", "height"), "band": ("width", "height"),
                     "line": ("x", "y", "x2", "y2")}


def sync_geometry(mark: Mark, make_id):
    """Keep derived vertex/segment lists consistent with the mark's channels.

    Rectangles and bands carry their four corners; lines carry both endpoints.
    Vertex ids are allocated once and reused on later size changes.
    """
    channels = GEOMETRY_CHANNELS.get(mark.type)
    if channels is None:
        return
    values = [mark.channels.get(c, 0) for c in channels]
    if mark.type == "line":
        x, y, x2, y2 = values
        _sync_ring(mark, [(0, 0), (x2 - x, y2 - y)], make_id, close=False)
    else:
        w, h = values
        _sync_ring(mark, [(0, 0), (w, 0), (w, h), (0, h)], make_id, close=True)


def _sync_ring(mark: Mark, points, make_id, close: bool):
    while len(mark.vertices) < len(points):
        mark.vertices.append(Vertex(make_id("vertex")))
    del mark.vertices[len(points):]
    for v, (px, py) in zip(mark.vertices, points):
        v.x, v.y = px, py
    n_segments = len(points) if close else len(points) - 1
    while len(mark.segments) < n_segments:
        mark.segments.append(Segment(make_id("segment"), ("", "")))
    del mark.segments[n_segments:]
    for i, seg in enumerate(mark.segments):
        seg.endpoints = (mark.vertices[i].id, mark.vertices[(i + 1) % len(points)].id)
        seg.kind = "line"


def mark_bbox(mark: Mark):
    """Bounding box in the mark's parent frame: (left, top, right, bottom)."""
    ch = mark.channels
    x, y = ch.get("x", 0), ch.get("y", 0)
    t = mark.type
    if t in ("rectangle", "image", "band", "area"):
        if t == "area" and mark.vertices:
            return _vertex_bbox(mark, x, y)
        return (x, y, x + ch.get("width", 0), y + ch.get("height", 0))
    if t == "circle":
        r = ch.get("radius", 0)
        return (x - r, y - r, x + r, y + r)
    if t in ("pie",):
        r = ch.get("radius", 0)
        return (x - r, y - r, x + r, y + r)
    if t in ("ring", "arc"):
        r = ch.get("outer_radius", 0)
        return (x - r, y - r, x + r, y + r)
    if t == "line":
        x2, y2 = ch.get("x2", 0), ch.get("y2", 0)
        return (min(x, x2), min(y, y2), max(x, x2), max(y, y2))
    if t == "text":
        half_w = TEXT_WIDTH_FACTOR * ch.get("font_size", 12) * len(str(ch.get("text", ""))) / 2
        half_h = ch.get("font_size", 12) / 2
        return (x - half_w, y - half_h, x + half_w, y + half_h)
    return _vertex_bbox(mark, x, y)


def _vertex_bbox(mark: Mark, x, y):
    if not mark.vertices:
        return (x, y, x, y)
    xs = [v.x for v in mark.vertices]
    ys = [v.y for v in mark.vertices]
    return (x + min(xs), y + min(ys), x + max(xs), y + max(ys))


def translate_mark(mark: Mark, dx: float, dy: float):
    mark.channels["x"] = mark.channels.get("x", 0) + dx
    mark.channels["y"] = mark.channels.get("y", 0) + dy
    if mark.type == "line":
        mark.channels["x2"] = mark.channels.get("x2", 0) + dx
        mark.channels["y2"] = mark.channels.get("y2", 0) + dy


def arc_point(cx: float, cy: float, r: float, angle_deg: float):
    """Point on a circle at the given angle; 0 degrees up, clockwise positive."""
    a = math.radians(angle_deg)
    return (cx + r * math.sin(a), cy - r * math.cos(a))
