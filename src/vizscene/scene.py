"""The scene: element tree, peer bookkeeping, view configuration, channels.

A scene is a single-writer structure. Mutating operations mark the affected
components dirty and (by default) immediately run the propagation pass that
re-enforces encodings, layouts and constraints; see :mod:`vizscene.propagate`.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field

from .data import Table, aggregate
from .elements import (GEOMETRY_CHANNELS, GROUP_ID_PREFIX, MARK_DEFAULTS, POSITION_CHANNELS,
                       SIZE_CHANNELS, VERTEX_MARK_TYPES, DataScope, Group, Mark, Segment,
                       Vertex, check_channel, mark_bbox, sync_geometry, translate_mark,
                       union_scopes)
from .errors import ChannelError, SceneError

_scene_ids = itertools.count(1)


@dataclass
class ViewConfig:
    focus: tuple = (0.0, 0.0)
    zoom: float = 1.0
    rotation: float = 0.0
    field_of_view: tuple | None = None

    def is_identity(self) -> bool:
        return self.focus == (0.0, 0.0) and self.zoom == 1 and self.rotation == 0


@dataclass
class PeerSet:
    id: str
    members: list = field(default_factory=list)  # element or vertex ids
    provenance: dict | None = None


@dataclass
class AuxiliaryElement:
    id: str
    aux_kind: str  # axis | legend | gridlines | annotation
    channel: str | None = None
    scale: str | None = None
    placement: str = "bottom"
    offset: float = 20.0
    text: str | None = None
    x: float = 0.0
    y: float = 0.0
    props: dict = field(default_factory=dict)


class DirtyState:
    """What changed since the last propagation pass."""

    def __init__(self):
        self.scales = set()
        self.encodings = set()
        self.sized = set()      # elements whose extent-feeding channels changed
        self.moved = set()      # elements whose position changed
        self.layouts = set()    # group ids
        self.constraints = set()
        self.structure = False

    def any(self) -> bool:
        return bool(self.scales or self.encodings or self.sized or self.moved
                    or self.layouts or self.constraints or self.structure)

    def clear(self):
        self.__init__()


class Scene:
    """Root container owning datasets, elements, encodings, scales and
    constraints."""

    def __init__(self, scene_id: str | None = None):
        self.id = scene_id or f"scene-{next(_scene_ids)}"
        self.datasets: dict[str, Table] = {}
        self.elements: dict[str, Mark | Group] = {}
        self.roots: list[str] = []
        self.peer_sets: dict[str, PeerSet] = {}
        self.encodings: dict = {}
        self.scales: dict = {}
        self.sync_groups: dict[str, list[str]] = {}
        self.constraints: dict = {}
        self.aux: list[AuxiliaryElement] = []
        self.view = ViewConfig()
        self.dirty = DirtyState()
        self.auto_propagate = True
        self.last_report = None
        self._counter = 1
        self._vertex_owner: dict[str, str] = {}
        self._segment_owner: dict[str, str] = {}
        # vertex/segment id -> position in its owner's list
        self._part_position: dict[str, int] = {}
        self._suspended = 0

    # ------------------------------------------------------------------ ids

    def make_id(self, prefix: str) -> str:
        out = f"{prefix}-{self._counter}"
        self._counter += 1
        return out

    def bump_counter(self):
        """After reconstruction, continue numbering past the largest numeric
        suffix of any id the scene holds."""
        ids = itertools.chain((self.id,), self.elements, self._vertex_owner, self._segment_owner,
                              self.peer_sets, self.scales, self.encodings, self.sync_groups,
                              self.constraints, (a.id for a in self.aux))
        tails = [i.rpartition("-")[2] for i in ids]
        top = max(map(int, filter(str.isdecimal, tails)), default=0)
        self._counter = max(self._counter, top + 1)

    # ----------------------------------------------------------- registration

    def add_dataset(self, dataset, name: str | None = None) -> str:
        name = name or dataset.name
        self.datasets[name] = dataset
        return name

    def dataset(self, name: str):
        try:
            return self.datasets[name]
        except KeyError:
            raise SceneError(f"unknown dataset {name!r}") from None

    def register(self, el, parent: str | None = None):
        self.adopt(el)
        el.parent = parent
        if parent is None:
            self.roots.append(el.id)
        return el

    def adopt(self, el):
        """Register without touching the root list; the caller wires parents."""
        if el.id in self.elements:
            raise SceneError(f"duplicate element id {el.id}")
        self.elements[el.id] = el
        if isinstance(el, Mark):
            self.index_mark(el)
        return el

    def index_mark(self, mark: Mark):
        """(Re)record which mark owns each of its vertices and segments, and
        where each sits in the mark's list."""
        for i, v in enumerate(mark.vertices):
            self._vertex_owner[v.id] = mark.id
            self._part_position[v.id] = i
        for i, seg in enumerate(mark.segments):
            self._segment_owner[seg.id] = mark.id
            self._part_position[seg.id] = i

    def unregister(self, el_id: str):
        el = self.elements.pop(el_id, None)
        if el is None:
            return
        if el_id in self.roots:
            self.roots.remove(el_id)
        if el.peer_set and el.peer_set in self.peer_sets:
            members = self.peer_sets[el.peer_set].members
            if el_id in members:
                members.remove(el_id)
        if isinstance(el, Mark):
            for v in el.vertices:
                self._vertex_owner.pop(v.id, None)
                self._part_position.pop(v.id, None)
                if v.peer_set and v.peer_set in self.peer_sets:
                    ps = self.peer_sets[v.peer_set].members
                    if v.id in ps:
                        ps.remove(v.id)
            for s in el.segments:
                self._segment_owner.pop(s.id, None)
                self._part_position.pop(s.id, None)
        if isinstance(el, Group):
            for m in list(el.members):
                self.unregister(m)

    def replace(self, old, new):
        """Put an adopted, unplaced element where an old one sat (root list or
        group members), then detach and unregister the old one's subtree."""
        slots = self.roots if old.parent is None else self.elements[old.parent].members
        slots[slots.index(old.id)] = new.id
        new.parent = old.parent
        old.parent = None
        self.unregister(old.id)

    # ------------------------------------------------------------- resolution

    def get(self, el_id: str):
        try:
            return self.elements[el_id]
        except KeyError:
            raise SceneError(f"unknown element {el_id!r}") from None

    def resolve(self, target):
        """Accept an element/vertex/segment object or any known id."""
        if isinstance(target, (Mark, Group, Vertex, Segment)):
            return target
        if target in self.elements:
            return self.elements[target]
        if target in self._vertex_owner:
            return self.vertex(target)
        if target in self._segment_owner:
            return self._indexed_part(self._segment_owner, target, "segments")
        raise SceneError(f"unknown element {target!r}")

    def vertex(self, vertex_id: str) -> Vertex:
        return self._indexed_part(self._vertex_owner, vertex_id, "vertices")

    def _indexed_part(self, index, part_id: str, field: str):
        """Look a vertex or segment up by its indexed position, without a
        scan; the position is checked, because a mark whose geometry shrinks
        drops parts the index still names."""
        parts = getattr(self.elements.get(index.get(part_id)), field, ())
        i = self._part_position.get(part_id, -1)
        if 0 <= i < len(parts) and parts[i].id == part_id:
            return parts[i]
        raise SceneError(f"unknown element {part_id!r}")

    def select(self, selection) -> list:
        """Elements named by a selector: an element, vertex or segment (or its
        id), a list of selectors, ``{"peer_set": id}``, or ``{"from":
        selector, "where": {"attribute", "value"}}``, which takes the marks
        under ``from`` and keeps those whose scope holds the value. A
        ``where`` also filters a peer set."""
        if isinstance(selection, dict):
            if "peer_set" in selection:
                ps = self.peer_sets.get(selection["peer_set"])
                out = [self.resolve(m) for m in (ps.members if ps else [])
                       if m in self.elements or m in self._vertex_owner
                       or m in self._segment_owner]
            else:
                out = []
                for root in self.select(selection["from"]):
                    out.extend(self.descendant_marks(root) or [root])
            where = selection.get("where")
            if where:
                out = [e for e in out
                       if e.data_scope is not None
                       and self.get_scope_value(e, where["attribute"]) == where["value"]]
            return out
        if isinstance(selection, (list, tuple)):
            return [el for item in selection for el in self.select(item)]
        return [self.resolve(selection)]

    def owner_mark(self, part) -> Mark:
        if isinstance(part, Vertex):
            return self.elements[self._vertex_owner[part.id]]
        if isinstance(part, Segment):
            return self.elements[self._segment_owner[part.id]]
        raise SceneError("not a vertex or segment")

    def children(self, el):
        if isinstance(el, Group):
            return [self.elements[m] for m in el.members]
        return []

    def descendants(self, el):
        """Every element under ``el``, in pre-order."""
        out = []
        stack = self.children(el)[::-1]
        while stack:
            e = stack.pop()
            out.append(e)
            stack.extend(reversed(self.children(e)))
        return out

    def descendant_marks(self, el):
        if isinstance(el, Mark):
            return [el]
        return [e for e in self.descendants(el) if isinstance(e, Mark)]

    def depth(self, el) -> int:
        d = 0
        cur = el
        while cur.parent is not None:
            cur = self.elements[cur.parent]
            d += 1
        return d

    # ------------------------------------------------------------------ dirt

    @contextmanager
    def batch(self):
        """Suspend auto-propagation for a compound mutation."""
        self._suspended += 1
        try:
            yield self
        finally:
            self._suspended -= 1
            self.maybe_propagate()

    def maybe_propagate(self):
        if self.auto_propagate and self._suspended == 0 and self.dirty.any():
            self.propagate()

    def propagate(self):
        from .propagate import run_propagation
        self.last_report = run_propagation(self)
        return self.last_report

    # ------------------------------------------------------------- geometry

    def bbox_in_parent(self, el):
        if isinstance(el, Mark):
            return mark_bbox(el)
        return group_extent(el, [self.bbox_in_parent(self.elements[m]) for m in el.members])

    def ancestor_offset(self, el):
        ox = oy = 0.0
        cur = el
        while cur.parent is not None:
            cur = self.elements[cur.parent]
            ox += cur.tx
            oy += cur.ty
        return ox, oy

    def bbox(self, el):
        """Absolute bounding box (left, top, right, bottom)."""
        el = self.resolve(el)
        if isinstance(el, Vertex):
            mark = self.owner_mark(el)
            ox, oy = self.ancestor_offset(mark)
            x = mark.channels.get("x", 0) + el.x + ox
            y = mark.channels.get("y", 0) + el.y + oy
            return (x, y, x, y)
        if isinstance(el, Segment):
            a = self.bbox(self.vertex(el.endpoints[0]))
            b = self.bbox(self.vertex(el.endpoints[1]))
            return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))
        ox, oy = self.ancestor_offset(el)
        l, t, r, b = self.bbox_in_parent(el)
        return (l + ox, t + oy, r + ox, b + oy)

    def translate(self, el, dx: float, dy: float, *, touch: bool = True):
        el = self.resolve(el)
        if isinstance(el, Mark):
            translate_mark(el, dx, dy)
        elif isinstance(el, Group):
            el.tx += dx
            el.ty += dy
        elif isinstance(el, Vertex):
            el.x += dx
            el.y += dy
        else:
            raise SceneError("cannot translate a segment directly")
        if touch:
            self.dirty.moved.add(el.id)
            self.maybe_propagate()

    # ------------------------------------------------------------- creation

    def create_mark(self, mark_type: str, props: dict | None = None) -> Mark:
        if mark_type not in MARK_DEFAULTS:
            raise SceneError(f"unknown mark type {mark_type!r}")
        props = dict(props or {})
        vertices = props.pop("vertices", None)
        for key in props:
            check_channel(mark_type, key)
        channels = dict(MARK_DEFAULTS[mark_type])
        channels.update(props)
        mark = Mark(self.make_id("mark"), mark_type, channels)
        if vertices is not None:
            for px, py in vertices:
                mark.vertices.append(Vertex(self.make_id("vertex"), px, py))
            for i in range(len(mark.vertices) - 1):
                mark.segments.append(Segment(self.make_id("segment"),
                                             (mark.vertices[i].id, mark.vertices[i + 1].id)))
            if mark_type in ("polygon", "geoPolygon") and len(mark.vertices) > 2:
                mark.segments.append(Segment(self.make_id("segment"),
                                             (mark.vertices[-1].id, mark.vertices[0].id)))
        sync_geometry(mark, self.make_id)
        self.register(mark)
        self.dirty.structure = True
        return mark

    def create_glyph(self, marks) -> Group:
        marks = [self.resolve(m) for m in marks]
        if not marks:
            raise SceneError("a glyph needs at least one mark")
        for m in marks:
            if not isinstance(m, Mark):
                raise SceneError(f"glyph members must be marks, got {m.id}")
        scopes = {m.data_scope for m in marks}
        if len(scopes) > 1:
            raise SceneError("glyph members must share one data scope")
        glyph = Group(self.make_id("glyph"), "glyph",
                      data_scope=next(iter(scopes)))
        self.register(glyph)
        for m in marks:
            if m.parent is not None:
                raise SceneError(f"mark {m.id} already belongs to a group")
            if m.id in self.roots:
                self.roots.remove(m.id)
            m.parent = glyph.id
            glyph.members.append(m.id)
        self.dirty.structure = True
        return glyph

    def group_elements(self, members, kind: str | None = None) -> Group:
        """Group arbitrary root elements; kind defaults to the classification."""
        members = [self.resolve(m) for m in members]
        kind = kind or self.classify_group_kind(members)
        group = Group(self.make_id(GROUP_ID_PREFIX[kind]), kind)
        if kind != "composite":
            group.data_scope = union_scopes(m.data_scope for m in members)
        self.register(group)
        for m in members:
            if m.id in self.roots:
                self.roots.remove(m.id)
            m.parent = group.id
            group.members.append(m.id)
        self.dirty.structure = True
        return group

    def make_peer_set(self, members, provenance: dict | None = None) -> PeerSet:
        ps = PeerSet(self.make_id("peers"), [], provenance)
        self.peer_sets[ps.id] = ps
        for m in members:
            self.add_peer(ps, m)
        return ps

    def add_peer(self, peer_set: PeerSet, member):
        member = self.resolve(member) if isinstance(member, str) else member
        peer_set.members.append(member.id)
        member.peer_set = peer_set.id

    # ------------------------------------------------------------- channels

    def channel_owner_encoding(self, el, channel: str):
        el = self.resolve(el)
        if el.peer_set is None:
            return None
        for enc in self.encodings.values():
            if enc.peer_set == el.peer_set and enc.channel == channel:
                return enc
        return None

    def get_channel(self, el, channel: str):
        el = self.resolve(el)
        check_channel(el, channel)
        return self._read_channel(el, channel)

    def _read_channel(self, el, channel: str):
        """The value of a channel ``check_channel`` accepted for ``el``."""
        if isinstance(el, Mark) or channel not in POSITION_CHANNELS:
            return el.channels.get(channel)
        if isinstance(el, Vertex):
            return getattr(el, channel)
        if isinstance(el, Segment):
            a, b = (self.vertex(v) for v in el.endpoints)
            return (getattr(a, channel) + getattr(b, channel)) / 2
        l, t, r, b = self.bbox_in_parent(el)
        return (l + r) / 2 if channel == "x" else (t + b) / 2

    def write_channel(self, el, channel: str, value) -> bool:
        """Typed raw write with geometry sync; returns True when the value
        changed. No encoding-ownership checks, no dirty marking. A segment's
        position is written to both its endpoints."""
        el = self.resolve(el)
        check_channel(el, channel)
        if isinstance(el, Mark):
            current = el.channels.get(channel)
        elif isinstance(el, Segment) and channel in POSITION_CHANNELS:
            mark = self.owner_mark(el)
            if mark.type not in VERTEX_MARK_TYPES:
                raise ChannelError(
                    f"segment positions of a {mark.type} derive from its size channels")
            return any([self.write_channel(self.vertex(v), channel, value)
                        for v in el.endpoints])
        else:
            current = self._read_channel(el, channel)
        if current == value:
            return False
        if isinstance(el, Mark):
            el.channels[channel] = value
            if channel in GEOMETRY_CHANNELS.get(el.type, ()):
                sync_geometry(el, self.make_id)
                self.index_mark(el)
        elif isinstance(el, Vertex):
            setattr(el, channel, value)
        elif channel not in POSITION_CHANNELS:
            el.channels[channel] = value
        elif channel == "x":
            el.tx += value - current
        else:
            el.ty += value - current
        return True

    def dirty_target(self, el, channel: str):
        """``(owner id, sized)``: the element a write to ``el``'s channel
        changes, and whether it changes its extent rather than its position.
        A vertex or segment write reshapes its mark."""
        if isinstance(el, (Vertex, Segment)):
            return self.owner_mark(el).id, True
        return el.id, channel in SIZE_CHANNELS

    def set_channel(self, el, channel: str, value):
        el = self.resolve(el)
        enc = self.channel_owner_encoding(el, channel)
        if enc is not None:
            raise ChannelError(
                f"channel {channel!r} is bound by encoding {enc.id}; "
                f"remove the encoding before setting it directly")
        if not self.write_channel(el, channel, value):
            return
        owner, sized = self.dirty_target(el, channel)
        (self.dirty.sized if sized else self.dirty.moved).add(owner)
        self.maybe_propagate()

    def set_channel_peers(self, el, channel: str, value):
        with self.batch():
            for peer in self.peers_of(el):
                self.set_channel(peer, channel, value)

    # ---------------------------------------------------------------- peers

    def peers_of(self, el):
        el = self.resolve(el)
        if el.peer_set is None or el.peer_set not in self.peer_sets:
            return [el]
        return [self.resolve(m) for m in self.peer_sets[el.peer_set].members]

    # ---------------------------------------------------------------- scopes

    def scope_values(self, el, attribute: str) -> list:
        el = self.resolve(el)
        scope = el.data_scope
        if scope is None:
            raise SceneError(f"element {el.id} has no data scope")
        dataset = self.dataset(scope.dataset)
        if scope.table == "links":
            return [dataset.links[i].get(attribute) for i in scope.indices]
        dataset.attribute(attribute)
        return [dataset.items[i][attribute] for i in scope.indices]

    def get_scope_value(self, el, attribute: str, aggregator: str | None = None):
        values = self.scope_values(el, attribute)
        if aggregator is not None:
            return aggregate(values, aggregator)
        if values and all(v == values[0] for v in values):
            return values[0]
        return values

    # ------------------------------------------------------ group taxonomy

    def type_signature(self, el):
        el = self.resolve(el)
        if isinstance(el, Mark):
            return ("mark", el.type)
        if el.group_kind == "glyph":
            return ("glyph", tuple(sorted(self.elements[m].type for m in el.members)))
        if el.group_kind == "collection":
            if not el.members:
                return ("collection", None)
            return ("collection", self.type_signature(self.elements[el.members[0]]))
        return ("composite", tuple(self.type_signature(self.elements[m]) for m in el.members))

    def classify_group_kind(self, members) -> str:
        members = [self.resolve(m) for m in members]
        if not members:
            return "composite"
        if all(isinstance(m, Mark) for m in members):
            scopes = {m.data_scope for m in members}
            if len(scopes) == 1:
                return "glyph"
        if next(self.collection_problems(members), None) is None:
            return "collection"
        return "composite"

    def check_collection(self, group: Group) -> list[str]:
        """Return the list of violated collection conditions (empty if valid)."""
        return list(self.collection_problems(self.children(group), group.data_scope))

    def collection_problems(self, members, scope: DataScope | None = None):
        """Yield each collection condition the member elements violate; with
        the group's ``scope``, also whether it is the union of theirs."""
        kinds = {("mark" if isinstance(m, Mark) else m.group_kind) for m in members}
        if len(kinds) > 1 or not kinds <= {"mark", "glyph", "collection"}:
            yield "members must be all marks, all glyphs, or all collections"
        if len({self.type_signature(m) for m in members}) > 1:
            yield "members must share the same type"
        scopes = [m.data_scope for m in members]
        if any(s is None for s in scopes):
            yield "every member needs a data scope"
            return
        if len({(s.dataset, s.table) for s in scopes}) > 1:
            yield "member scopes must come from one dataset"
        if not scopes_disjoint(scopes):
            for i in range(len(scopes)):
                for j in range(i + 1, len(scopes)):
                    if scopes[i].overlaps(scopes[j]):
                        yield f"member scopes overlap: {members[i].id} and {members[j].id}"
        if scope is not None and members:
            union = set()
            for s in scopes:
                union |= set(s.indices)
            if set(scope.indices) != union:
                yield "group scope must equal the union of member scopes"

    # ------------------------------------------------------------ auxiliary

    def add_axis(self, channel: str, scale_id: str, placement: str = "bottom",
                 offset: float = 20.0) -> AuxiliaryElement:
        return self._add_aux("axis", channel, scale_id, placement, offset)

    def add_legend(self, channel: str, scale_id: str, placement: str = "right",
                   offset: float = 20.0) -> AuxiliaryElement:
        return self._add_aux("legend", channel, scale_id, placement, offset)

    def add_gridlines(self, scale_id: str, orientation: str = "horizontal") -> AuxiliaryElement:
        return self._add_aux("gridlines", None, scale_id, orientation)

    def _add_aux(self, kind: str, channel, scale_id: str, placement: str,
                 offset: float = 20.0) -> AuxiliaryElement:
        if scale_id not in self.scales:
            raise SceneError(f"unknown scale {scale_id!r}")
        aux = AuxiliaryElement(self.make_id("aux"), kind, channel, scale_id, placement, offset)
        self.aux.append(aux)
        return aux

    def add_annotation(self, text: str, x: float, y: float,
                       props: dict | None = None) -> AuxiliaryElement:
        an = AuxiliaryElement(self.make_id("aux"), "annotation", text=text, x=x, y=y,
                              props=dict(props or {}))
        self.aux.append(an)
        return an

    # ----------------------------------------------------------------- view

    def set_view(self, prop: str, value):
        if prop == "zoom":
            if value <= 0:
                raise SceneError("zoom must be positive")
            self.view.zoom = value
        elif prop == "rotation":
            self.view.rotation = value
        elif prop == "focus":
            self.view.focus = (value[0], value[1])
        elif prop == "field_of_view":
            self.view.field_of_view = (value[0], value[1])
        else:
            raise SceneError(f"unknown view property {prop!r}")


def group_extent(group: Group, boxes) -> tuple:
    """A group's box in its parent's frame, from its members' boxes in its own
    frame (in member order)."""
    if not boxes:
        return (group.tx, group.ty, group.tx, group.ty)
    return (group.tx + min(b[0] for b in boxes), group.ty + min(b[1] for b in boxes),
            group.tx + max(b[2] for b in boxes), group.ty + max(b[3] for b in boxes))


def scopes_disjoint(scopes) -> bool:
    """Whether no two scopes share a data item, as pairwise
    ``DataScope.overlaps`` would decide, in time linear in their indices."""
    seen = set()
    for scope in scopes:
        for i in set(scope.indices):
            key = (scope.dataset, scope.table, i)
            if key in seen:
                return False
            seen.add(key)
    return True


def rename_selector_attributes(selection, renames: dict):
    """A copy of a selector whose ``where`` attributes, at any nesting, are
    renamed through ``renames`` (old name -> new name)."""
    if isinstance(selection, (list, tuple)):
        return [rename_selector_attributes(s, renames) for s in selection]
    if not isinstance(selection, dict):
        return selection
    out = dict(selection)
    if "from" in out:
        out["from"] = rename_selector_attributes(out["from"], renames)
    where = out.get("where")
    if where and where["attribute"] in renames:
        out["where"] = {**where, "attribute": renames[where["attribute"]]}
    return out


def create_scene(scene_id: str | None = None) -> Scene:
    return Scene(scene_id)
