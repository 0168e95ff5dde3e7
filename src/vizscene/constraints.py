"""Relational constraints: alignment, affixation, ordering and z-order.

Constraints only ever translate elements; sizes are untouched. When a
target's position along the constrained axis is computed by a layout, the
constraint translates the nearest enclosing group that is still free on that
axis, so e.g. right-aligning bars inside horizontal stacks shifts whole rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .data import canonical_order
from .elements import Group, Mark
from .errors import ConstraintError, VizSceneError
from .layout import owns_axis

EDGES = ("left", "right", "top", "bottom", "center_x", "center_y")

ANCHOR_POINTS = {
    "nw": (0.0, 0.0), "n": (0.5, 0.0), "ne": (1.0, 0.0),
    "w": (0.0, 0.5), "center": (0.5, 0.5), "e": (1.0, 0.5),
    "sw": (0.0, 1.0), "s": (0.5, 1.0), "se": (1.0, 1.0),
}

TOLERANCE = 1e-9


@dataclass
class ConstraintSpec:
    id: str
    kind: str  # align | affix | order | z_order
    params: dict = field(default_factory=dict)


def edge_axis(edge: str) -> str:
    return "x" if edge in ("left", "right", "center_x") else "y"


def edge_value(box, edge: str) -> float:
    l, t, r, b = box
    return {"left": l, "right": r, "top": t, "bottom": b,
            "center_x": (l + r) / 2, "center_y": (t + b) / 2}[edge]


def bbox_point(box, anchor: str):
    l, t, r, b = box
    fx, fy = ANCHOR_POINTS[anchor]
    return (l + fx * (r - l), t + fy * (b - t))


def movable_unit(scene, el, axis: str):
    """Climb to the first element whose position on the axis is not computed
    by an enclosing layout; translating it moves the original rigidly."""
    cur = el
    while cur.parent is not None:
        parent = scene.elements[cur.parent]
        if isinstance(parent, Group) and parent.layout and owns_axis(parent.layout, axis):
            cur = parent
            continue
        return cur
    return cur


def _expand_pairing_units(scene, elements):
    """Collections flatten to their pairing units (marks/glyphs); marks and
    glyphs pass through."""
    units = []
    for el in elements:
        stack = [el]
        while stack:
            e = stack.pop()
            if isinstance(e, Mark) or e.group_kind == "glyph":
                units.append(e)
            else:
                stack.extend(scene.elements[m] for m in reversed(e.members))
    return units


def _register(scene, kind: str, params: dict) -> ConstraintSpec:
    """Register a new constraint; propagation enforces it from then on."""
    spec = ConstraintSpec(scene.make_id("con"), kind, params)
    scene.constraints[spec.id] = spec
    scene.dirty.constraints.add(spec.id)
    scene.maybe_propagate()
    return spec


def _store_selection(scene, elements, original):
    """Prefer the declarative form (survives repopulate) over raw id lists."""
    if isinstance(original, dict):
        return original
    peer_sets = {e.peer_set for e in elements}
    if len(peer_sets) == 1 and None not in peer_sets:
        ps = peer_sets.pop()
        if set(scene.peer_sets[ps].members) == {e.id for e in elements}:
            return {"peer_set": ps}
    return [e.id for e in elements]


# --------------------------------------------------------------- resolution


@dataclass
class Resolution:
    """What one constraint reads, from ``resolve_constraint``. It stays
    valid while the element structure does: within one propagation pass,
    where layouts only move and resize and constraints only translate, or
    right after it is made. It is never kept on the scene."""
    reads: set  # ids read or written, for dirtiness tracking
    targets: list = field(default_factory=list)  # align: selected targets
    # elements the constraint translates: for an align, the movable unit of
    # each target, in target order; for an affix, the follower units
    units: list = field(default_factory=list)
    pairs: list = field(default_factory=list)  # affix: (follower, anchor)
    problem: str | None = None  # affix: why its followers do not pair
    scene: object = field(default=None, repr=False, compare=False)

    @cached_property
    def nested(self) -> bool:
        """Whether translating one unit can shift or stretch an element
        another unit carries, so one round of writes need not leave the
        constraint holding; computed on first read. An align target is
        carried by its unit, a unit by itself, and an affix anchor, which
        never moves, by none. True when one read element lies inside
        another that a different unit carries, or one element has two
        carriers."""
        carrier = {}
        # streamed, not listed: fewer live tuples, fewer garbage collections
        for el, unit_id in chain(((t, u.id) for t, u in zip(self.targets, self.units)),
                                 ((u, u.id) for u in self.units),
                                 ((a, None) for _, a in self.pairs)):
            if carrier.setdefault(el.id, unit_id) != unit_id:
                return True
        for el_id, unit_id in carrier.items():
            cur = self.scene.elements.get(el_id)
            while cur is not None and cur.parent is not None:
                if cur.parent in carrier and carrier[cur.parent] != unit_id:
                    return True
                cur = self.scene.elements[cur.parent]
        return False


def resolve_constraint(scene, spec: ConstraintSpec) -> Resolution:
    """Resolve a constraint's selectors; raises a ``VizSceneError`` when one
    names an element that is gone."""
    params = spec.params
    if spec.kind == "align":
        targets = scene.select(params["targets"])
        axis = edge_axis(params["edge"])
        units = [movable_unit(scene, el, axis) for el in targets]
        return Resolution({e.id for e in targets} | {u.id for u in units},
                          targets=targets, units=units, scene=scene)
    if spec.kind == "affix":
        followers = scene.select(params["followers"])
        anchors = scene.select(params["anchors"])
        reads = {e.id for e in followers} | {e.id for e in anchors}
        follower_units = _expand_pairing_units(scene, followers)
        anchor_units = _expand_pairing_units(scene, anchors)
        try:
            pairs = _pair(scene, follower_units, anchor_units)
        except ConstraintError as e:
            return Resolution(reads, units=follower_units, problem=str(e), scene=scene)
        return Resolution(reads, units=follower_units, pairs=pairs, scene=scene)
    if spec.kind == "order":
        group = scene.elements.get(params["group"])
        return Resolution(set() if group is None else {group.id} | set(group.members))
    if spec.kind == "z_order":
        return Resolution(set(params["elements"]))
    raise ConstraintError(f"unknown constraint kind {spec.kind!r}")


# ---------------------------------------------------------------- ownership


def position_writer(scene, el, axis: str, claims: dict):
    """What writes ``el``'s position on ``axis``: the encoding bound to that
    channel, an align or affix whose units include ``el`` (as ``claims``,
    from ``_position_claims``, records), or the parent group whose layout
    owns the axis; None when nothing does."""
    enc = scene.channel_owner_encoding(el, axis)
    if enc is not None or not isinstance(el, (Mark, Group)):
        return enc  # vertices and segments move with their mark
    parent = scene.elements.get(el.parent)
    owned = isinstance(parent, Group) and parent.layout and owns_axis(parent.layout, axis)
    return claims.get((axis, el.id), parent if owned else None)


def _position_claims(scene, axes) -> dict:
    """Maps (axis, id) to the align or affix that translates the element
    along that axis, for ``axes``. Each constraint resolves once; one whose
    selectors no longer resolve writes nothing."""
    claims = {}
    for spec in scene.constraints.values():
        if spec.kind not in ("align", "affix"):
            continue
        written = [axis for axis in axes if spec.kind == "affix"
                   or axis == edge_axis(spec.params["edge"])]
        if not written:
            continue
        try:
            units = resolve_constraint(scene, spec).units
        except VizSceneError:
            continue
        for axis in written:
            for unit in units:
                claims.setdefault((axis, unit.id), spec)
    return claims


def check_position_writers(scene, positions, action: str, error, *,
                           layout_error=None, yields=lambda writer: False) -> list:
    """Refuse an op that would be a second writer of the (element, axis)
    ``positions``, before it writes anything; writers for which ``yields``
    is true step aside instead and are returned. The refusal raises
    ``error``, or ``layout_error`` when given and a layout is the writer."""
    positions = list(positions)
    # vertices and segments are never a constraint's unit
    claims = _position_claims(scene, {axis for _, axis in positions}) if any(
        isinstance(el, (Mark, Group)) for el, _ in positions) else {}
    yielded = {}
    for el, axis in positions:
        writer = position_writer(scene, el, axis, claims)
        if writer is None:
            continue
        if yields(writer):
            yielded[writer.id] = writer
            continue
        if isinstance(writer, ConstraintSpec):
            how = f"already driven by {writer.kind} {writer.id}, a relational constraint"
        elif isinstance(writer, Group):
            how = (f"positioned by the {writer.layout['type']} layout on "
                   f"{writer.id}, and owned by it until the layout is detached")
            error = layout_error or error
        else:
            how = f"bound by encoding {writer.id}; remove the encoding first"
        raise error(f"cannot {action}: the {axis} position of {el.id} is {how}")
    return list(yielded.values())


# -------------------------------------------------------------------- align


def align(scene, targets, edge: str) -> ConstraintSpec:
    if edge not in EDGES:
        raise ConstraintError(f"unknown alignment edge {edge!r}")
    elements = scene.select(targets)
    if not elements:
        raise ConstraintError("alignment needs at least one target")
    axis = edge_axis(edge)
    units = [movable_unit(scene, el, axis) for el in elements]
    if len({u.id for u in units}) < len({e.id for e in elements}):
        raise ConstraintError(
            "alignment targets collapse onto one movable element; "
            "their positions on this axis are fully determined already")
    check_position_writers(scene, ((u, axis) for u in units), "align", ConstraintError)
    return _register(scene, "align", {
        "targets": _store_selection(scene, elements, targets),
        "edge": edge,
    })


def evaluate_align(scene, spec: ConstraintSpec, *, write: bool,
                   resolution: Resolution | None = None):
    r = resolve_constraint(scene, spec) if resolution is None else resolution
    if len(r.targets) < 2:
        return set(), None
    edge = spec.params["edge"]
    axis = edge_axis(edge)
    values = [edge_value(scene.bbox(el), edge) for el in r.targets]
    if edge in ("left", "top"):
        ref = min(values)
    elif edge in ("right", "bottom"):
        ref = max(values)
    else:
        ref = sum(values) / len(values)
    deltas = {}
    for unit, value in zip(r.units, values):
        want = ref - value
        if unit.id in deltas and abs(deltas[unit.id] - want) > TOLERANCE:
            return set(), f"alignment {spec.id} needs two translations of {unit.id}"
        deltas[unit.id] = want
    moved = set()
    for unit_id, delta in deltas.items():
        if abs(delta) > TOLERANCE:
            if write:
                scene.translate(scene.elements[unit_id], delta if axis == "x" else 0,
                                delta if axis == "y" else 0, touch=False)
            moved.add(unit_id)
    return moved, None


# -------------------------------------------------------------------- affix


def affix(scene, followers, anchors, anchor_point: str = "center",
          dx: float = 0.0, dy: float = 0.0) -> ConstraintSpec:
    if anchor_point not in ANCHOR_POINTS:
        raise ConstraintError(f"unknown anchor point {anchor_point!r}")
    follower_units = _expand_pairing_units(scene, scene.select(followers))
    anchor_units = _expand_pairing_units(scene, scene.select(anchors))
    _pair(scene, follower_units, anchor_units)  # validates now
    # followers become constraint-positioned: auto-attached layouts on their
    # groups step aside, anything else writing their position is a conflict
    for group in check_position_writers(
            scene, ((f, axis) for axis in ("x", "y") for f in follower_units),
            "affix", ConstraintError,
            yields=lambda w: isinstance(w, Group) and w.layout_default):
        group.layout = None
        group.layout_default = False
    return _register(scene, "affix", {
        "followers": _store_selection(scene, follower_units, followers),
        "anchors": _store_selection(scene, anchor_units, anchors),
        "anchor_point": anchor_point,
        "dx": dx,
        "dy": dy,
    })


def _pair(scene, follower_units, anchor_units):
    if len(follower_units) == 1 and len(anchor_units) == 1 and (
            follower_units[0].data_scope is None or anchor_units[0].data_scope is None):
        return [(follower_units[0], anchor_units[0])]
    by_scope = {}
    for a in anchor_units:
        if a.data_scope is None:
            raise ConstraintError(f"affix anchor {a.id} has no data scope to pair by")
        key = (a.data_scope.dataset, a.data_scope.table, a.data_scope.indices)
        if key in by_scope:
            raise ConstraintError(f"affix anchors {by_scope[key].id} and {a.id} share a scope")
        by_scope[key] = a
    pairs = []
    for f in follower_units:
        if f.data_scope is None:
            raise ConstraintError(f"affix follower {f.id} has no data scope to pair by")
        key = (f.data_scope.dataset, f.data_scope.table, f.data_scope.indices)
        if key not in by_scope:
            raise ConstraintError(
                f"affix follower {f.id} has no anchor with scope "
                f"{f.data_scope.dataset}[{list(f.data_scope.indices)}]")
        pairs.append((f, by_scope[key]))
    return pairs


def evaluate_affix(scene, spec: ConstraintSpec, *, write: bool,
                   resolution: Resolution | None = None):
    r = resolve_constraint(scene, spec) if resolution is None else resolution
    if r.problem:
        return set(), r.problem
    point = spec.params["anchor_point"]
    dx, dy = spec.params["dx"], spec.params["dy"]
    moved = set()
    for follower, anchor in r.pairs:
        ax, ay = bbox_point(scene.bbox(anchor), point)
        fx, fy = bbox_point(scene.bbox(follower), point)
        ddx, ddy = ax + dx - fx, ay + dy - fy
        if abs(ddx) > TOLERANCE or abs(ddy) > TOLERANCE:
            if write:
                scene.translate(follower, ddx, ddy, touch=False)
            moved.add(follower.id)
    return moved, None


# ----------------------------------------------------------------- ordering


def set_order(scene, group, key, direction: str = "ascending") -> ConstraintSpec:
    group = scene.resolve(group)
    if not isinstance(group, Group):
        raise ConstraintError("ordering applies to groups")
    if isinstance(key, str):
        key = {"attribute": key}
    if direction not in ("ascending", "descending"):
        raise ConstraintError(f"unknown ordering direction {direction!r}")
    return _register(scene, "order", {
        "group": group.id, "key": key, "direction": direction,
    })


def _order_key(scene, member, key: dict, ranks: dict):
    """``ranks`` holds, per dataset, the canonical rank of each value of a
    categorical key; the caller keeps it for one ``evaluate_order`` call."""
    if "channel" in key:
        value = scene.get_channel(member, key["channel"])
        if value is None:
            raise ConstraintError(
                f"cannot order by channel {key['channel']!r}: {member.id} has no value")
        return value
    attribute = key["attribute"]
    value = scene.get_scope_value(member, attribute)
    if isinstance(value, list):
        raise ConstraintError(
            f"cannot order {member.id} by {attribute!r}: mixed values in scope")
    dataset = scene.dataset(member.data_scope.dataset)
    if member.data_scope.table == "items" and dataset.has_attribute(attribute):
        kind = dataset.attribute(attribute).kind
        if kind in ("nominal", "ordinal", "temporal"):
            name = member.data_scope.dataset
            if name not in ranks:
                ordered = canonical_order(dataset, attribute,
                                          [row[attribute] for row in dataset.items])
                ranks[name] = {v: i for i, v in enumerate(ordered)}
            return ranks[name][value]
    return value


def evaluate_order(scene, spec: ConstraintSpec, *, write: bool):
    group = scene.elements.get(spec.params["group"])
    if group is None:
        return set(), f"ordering {spec.id} lost its group"
    members = [scene.elements[m] for m in group.members]
    ranks = {}
    try:
        keyed = [(_order_key(scene, m, spec.params["key"], ranks), i, m.id)
                 for i, m in enumerate(members)]
    except VizSceneError as e:  # e.g. a key naming an unknown attribute or channel
        return set(), str(e)
    # sort() is stable for equal keys in both directions
    keyed.sort(key=lambda t: t[0], reverse=spec.params["direction"] == "descending")
    new_order = [mid for _, _, mid in keyed]
    if new_order != group.members:
        if write:
            group.members = new_order
        return {group.id}, None
    return set(), None


def set_z_order(scene, elements, z_values) -> ConstraintSpec:
    els = scene.select(elements)
    if len(els) != len(z_values):
        raise ConstraintError("set_z_order needs one z value per element")
    return _register(scene, "z_order", {
        "elements": [e.id for e in els], "z": list(z_values),
    })


def evaluate_z_order(scene, spec: ConstraintSpec, *, write: bool):
    changed = set()
    for el_id, z in zip(spec.params["elements"], spec.params["z"]):
        el = scene.elements.get(el_id)
        if el is not None and el.z_index != z:
            if write:
                el.z_index = z
            changed.add(el_id)
    return changed, None


# --------------------------------------------------------------- evaluation


def evaluate_constraint(scene, spec: ConstraintSpec, *, write: bool,
                        resolution: Resolution | None = None):
    """Returns (moved element ids, problem or None). With ``write=False``
    nothing changes and the ids are those a real run would move, so an
    empty set with no problem means the constraint holds. An align or affix
    reads ``resolution`` when given, else resolves its selectors now."""
    if spec.kind == "align":
        return evaluate_align(scene, spec, write=write, resolution=resolution)
    if spec.kind == "affix":
        return evaluate_affix(scene, spec, write=write, resolution=resolution)
    if spec.kind == "order":
        return evaluate_order(scene, spec, write=write)
    if spec.kind == "z_order":
        return evaluate_z_order(scene, spec, write=write)
    raise ConstraintError(f"unknown constraint kind {spec.kind!r}")


def constraint_elements(scene, spec: ConstraintSpec) -> set:
    """Ids the constraint reads or writes, for dirtiness tracking outside a
    propagation pass; a constraint whose selectors no longer resolve reads
    nothing, and propagation reports it as unsatisfied."""
    try:
        return resolve_constraint(scene, spec).reads
    except VizSceneError:
        return set()
