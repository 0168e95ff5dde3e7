"""Graphics-data join operations: repeat, divide, densify, classify,
repopulate, stratify, and the network form of repeat.

These operations partition data over copies of visual elements. The common
laws: output scopes are pairwise disjoint and union to the input scope (or
the full dataset when the input had none), member count equals the number of
unique attribute values, and everything generated by one invocation is pooled
into peer sets, one per structural origin.
"""

from __future__ import annotations

from . import encoding
from .constraints import constraint_elements
from .data import Network, canonical_order, group_items
from .elements import (GROUP_ID_PREFIX, MARK_CHANNELS, DataScope, Group, Mark, Segment,
                       Vertex, arc_point, sync_geometry, union_scopes)
from .errors import DataError, SceneError
from .layout import normalize_layout
from .scene import rename_selector_attributes

DIVIDE_TYPES = {
    # input type -> {orientation (or None): output type}
    "rectangle": {"horizontal": "rectangle", "vertical": "rectangle"},
    "circle": {"angular": "pie", "radial": "ring"},
    "line": {None: "line"},
    "pie": {None: "arc"},
    "ring": {None: "arc"},
}

DENSIFY_TYPES = {"line": "polyline", "circle": "polygon", "rectangle": "area"}

LINK_MARK_TYPES = ("line", "path", "arc", "band")

_DROP = object()


# --------------------------------------------------------------- copy engine


def _restrictor(dataset_name: str, allowed):
    allowed = tuple(allowed)

    def transform(scope):
        if scope is None:
            return DataScope(dataset_name, allowed)
        if scope.dataset != dataset_name or scope.table != "items":
            return scope
        narrowed = scope.intersection(allowed)
        return narrowed if len(narrowed) else _DROP

    return transform


def _identity(scope):
    return scope


def copy_element(scene, el, transform, pairs):
    """Deep, style-preserving copy with fresh ids.

    ``transform`` maps each carried data scope into the copy's scope (or drops
    the element). Every (source, copy) pair lands in ``pairs`` for peer-set
    pooling. Returns None when the whole element restricts to nothing.
    """
    if isinstance(el, Mark):
        new = Mark(scene.make_id("mark"), el.type, dict(el.channels), z_index=el.z_index)
        id_map = {}
        dropped = False
        for v in el.vertices:
            new_scope = None
            if v.data_scope is not None:
                new_scope = transform(v.data_scope)
                if new_scope is _DROP:
                    dropped = True
                    continue
            nv = Vertex(scene.make_id("vertex"), v.x, v.y, new_scope)
            id_map[v.id] = nv.id
            new.vertices.append(nv)
            pairs.append((v, nv))
        if dropped and el.type in ("polyline", "polygon", "area", "path", "geoPolygon"):
            _rechain(scene, new, closed=el.type in ("polygon", "geoPolygon", "area"))
        else:
            for s in el.segments:
                a, b = s.endpoints
                if a in id_map and b in id_map:
                    new.segments.append(Segment(scene.make_id("segment"),
                                                (id_map[a], id_map[b]),
                                                s.kind, dict(s.channels)))
        scope = transform(el.data_scope)
        if scope is _DROP:
            return None
        new.data_scope = scope
        scene.adopt(new)
        pairs.append((el, new))
        return new

    new = Group(scene.make_id(GROUP_ID_PREFIX[el.group_kind]), el.group_kind,
                channels=dict(el.channels), tx=el.tx, ty=el.ty, z_index=el.z_index,
                layout=dict(el.layout) if el.layout else None,
                layout_default=el.layout_default,
                provenance=dict(el.provenance) if el.provenance else None)
    scene.adopt(new)
    for member_id in el.members:
        child = copy_element(scene, scene.elements[member_id], transform, pairs)
        if child is None:
            continue
        child.parent = new.id
        new.members.append(child.id)
    if el.members and not new.members:
        del scene.elements[new.id]
        return None
    scope = transform(el.data_scope)
    if scope is _DROP:
        scope = None
    if el.group_kind == "collection" and new.members:
        scope = union_scopes(m.data_scope for m in scene.children(new))
    new.data_scope = scope
    pairs.append((el, new))
    return new


def _rechain(scene, mark: Mark, closed: bool):
    mark.segments = []
    n = len(mark.vertices)
    count = n if closed and n > 2 else max(n - 1, 0)
    for i in range(count):
        mark.segments.append(Segment(scene.make_id("segment"),
                                     (mark.vertices[i].id, mark.vertices[(i + 1) % n].id)))


def _copies(scene, el, ds_name, partition, pairs):
    """One copy of ``el`` per index group, each restricted to its group."""
    for idxs in partition:
        yield copy_element(scene, el, _restrictor(ds_name, idxs), pairs)


def _collection(scene, provenance, members, layout=None, tx=0.0, ty=0.0):
    """A new collection of ``members``, scoped to the union of their scopes.

    The collection's id is allocated before ``members`` (which may be a
    generator that makes them) is consumed; ``layout`` becomes the op's
    default layout. The caller places the collection.
    """
    col = scene.adopt(Group(scene.make_id("col"), "collection", tx=tx, ty=ty,
                            provenance=dict(provenance) if provenance else None))
    for m in members:
        m.parent = col.id
        col.members.append(m.id)
    col.data_scope = union_scopes(m.data_scope for m in scene.children(col))
    if layout:
        col.layout = normalize_layout(layout)
        col.layout_default = True
        scene.dirty.layouts.add(col.id)
    return col


def _pool_peer_sets(scene, all_pairs, provenance):
    """One fresh peer set per structural origin: copies of elements that were
    peers (or of one single element) become peers of each other."""
    groups = {}
    order = []
    for src, new in all_pairs:
        key = ("ps", src.peer_set) if src.peer_set else ("self", src.id)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(new)
    mapping = {}
    for key in order:
        ps = scene.make_peer_set(groups[key], provenance)
        if key[0] == "ps":
            mapping[key[1]] = ps.id
    return mapping


def _rebind_encodings(scene, mapping):
    for enc in scene.encodings.values():
        if enc.peer_set in mapping:
            enc.peer_set = mapping[enc.peer_set]
            scene.dirty.encodings.add(enc.id)


def _drop_encodings_of(scene, peer_set_ids):
    stale = [e.id for e in scene.encodings.values() if e.peer_set in peer_set_ids]
    for eid in stale:
        encoding.remove_encoding(scene, eid)


def _prune_empty_peer_sets(scene):
    for ps_id in [k for k, v in scene.peer_sets.items() if not v.members]:
        del scene.peer_sets[ps_id]


# ---------------------------------------------------------------- utilities


def _dataset(scene, dataset):
    if isinstance(dataset, str):
        return dataset, scene.dataset(dataset)
    for name, ds in scene.datasets.items():
        if ds is dataset:
            return name, ds
    name = scene.add_dataset(dataset)
    return name, dataset


def _require_discrete(ds, attribute: str, op: str):
    kind = ds.attribute(attribute).kind
    if kind == "quantitative":
        raise DataError(f"{op} needs a nominal or ordinal attribute; "
                        f"{attribute!r} is quantitative")


def _scope_indices(el, ds_name: str, ds):
    if el.data_scope is None:
        return list(range(len(ds.items)))
    if el.data_scope.dataset != ds_name or el.data_scope.table != "items":
        raise SceneError(
            f"element {el.id} is bound to dataset {el.data_scope.dataset!r}, "
            f"cannot join it with {ds_name!r}")
    return list(el.data_scope.indices)


def _partition(el, ds_name: str, ds, attribute: str):
    groups = group_items(ds, attribute, _scope_indices(el, ds_name, ds))
    if not groups:
        raise DataError(f"no values of {attribute!r} within the element's scope")
    return groups


# ------------------------------------------------------------------- repeat


def repeat(scene, element, dataset, attribute: str):
    """One copy of the element per unique attribute value; each copy's scope
    is the rows holding that value."""
    el = scene.resolve(element)
    if not isinstance(el, (Mark, Group)) or (isinstance(el, Group) and el.group_kind == "composite"):
        raise SceneError("repeat applies to marks, glyphs and collections")
    ds_name, ds = _dataset(scene, dataset)
    _require_discrete(ds, attribute, "repeat")
    targets = scene.peers_of(el)
    provenance = {"op": "repeat", "dataset": ds_name, "attribute": attribute}
    outputs = []
    all_pairs = []
    consumed_sets = {t.peer_set for t in targets if t.peer_set}
    with scene.batch():
        for t in targets:
            groups = _partition(t, ds_name, ds, attribute)
            box = scene.bbox_in_parent(t)
            col = _collection(scene, provenance,
                              _copies(scene, t, ds_name, groups.values(), all_pairs),
                              {"type": "grid", "num_cols": 1}, tx=box[0], ty=box[1])
            scene.replace(t, col)
            outputs.append(col)
        mapping = _pool_peer_sets(scene, all_pairs, provenance)
        scene.make_peer_set(outputs, provenance)
        _rebind_encodings(scene, mapping)
        _drop_encodings_of(scene, consumed_sets - set(mapping))
        _prune_empty_peer_sets(scene)
        scene.dirty.structure = True
    return outputs[0] if len(outputs) == 1 else outputs


# ------------------------------------------------------------------- divide


def divide(scene, mark, dataset, attribute: str, orientation: str | None = None):
    """Split a mark into a collection of smaller marks tiling its extent."""
    el = scene.resolve(mark)
    if not isinstance(el, Mark):
        raise SceneError("divide applies to marks")
    if el.type not in DIVIDE_TYPES:
        raise SceneError(f"divide does not support {el.type} marks")
    table = DIVIDE_TYPES[el.type]
    if None in table:
        orientation = None
    elif orientation not in table:
        raise SceneError(
            f"divide on a {el.type} needs an orientation from {sorted(k for k in table)}")
    ds_name, ds = _dataset(scene, dataset)
    _require_discrete(ds, attribute, "divide")
    targets = scene.peers_of(el)
    provenance = {"op": "divide", "dataset": ds_name, "attribute": attribute,
                  "orientation": orientation}
    outputs = []
    all_pairs = []
    consumed_sets = {t.peer_set for t in targets if t.peer_set}
    with scene.batch():
        for t in targets:
            groups = _partition(t, ds_name, ds, attribute)
            flow = (orientation if t.type == "rectangle"
                    else "angular" if t.type == "ring" or orientation == "angular" else None)
            col = _collection(scene, provenance,
                              _divided(scene, t, groups, ds_name, orientation, all_pairs),
                              flow and {"type": "stack", "orientation": flow, "gap": 0.0},
                              tx=t.channels.get("x", 0), ty=t.channels.get("y", 0))
            scene.replace(t, col)
            outputs.append(col)
        _pool_peer_sets(scene, all_pairs, provenance)
        scene.make_peer_set(outputs, provenance)
        _drop_encodings_of(scene, consumed_sets)
        _prune_empty_peer_sets(scene)
        scene.dirty.structure = True
    return outputs[0] if len(outputs) == 1 else outputs


def _convert(mark: Mark, new_type: str, updates: dict):
    mark.type = new_type
    mark.channels = {k: v for k, v in mark.channels.items()
                     if k in MARK_CHANNELS[new_type]}
    mark.channels.update(updates)


def _divided(scene, t: Mark, groups, ds_name, orientation, pairs):
    """The divided copies of ``t``, each shaped to its slice of the extent."""
    k = len(groups)
    for i, child in enumerate(_copies(scene, t, ds_name, groups.values(), pairs)):
        _shape_divided_child(child, t, i, k, orientation)
        sync_geometry(child, scene.make_id)
        scene.index_mark(child)
        yield child


def _shape_divided_child(child: Mark, t: Mark, i: int, k: int, orientation):
    ch = t.channels
    if t.type == "rectangle":
        w, h = ch.get("width", 0), ch.get("height", 0)
        if orientation == "horizontal":
            _convert(child, "rectangle", {"x": i * (w / k), "y": 0, "width": w / k, "height": h})
        else:
            _convert(child, "rectangle", {"x": 0, "y": i * (h / k), "width": w, "height": h / k})
    elif t.type == "circle":
        r = ch.get("radius", 0)
        if orientation == "angular":
            _convert(child, "pie", {"x": 0, "y": 0, "radius": r,
                                    "start_angle": i * (360 / k), "angle": 360 / k})
        else:
            _convert(child, "ring", {"x": 0, "y": 0,
                                     "inner_radius": r * i / k, "outer_radius": r * (i + 1) / k})
    elif t.type == "line":
        dx = ch.get("x2", 0) - ch.get("x", 0)
        dy = ch.get("y2", 0) - ch.get("y", 0)
        _convert(child, "line", {"x": dx * i / k, "y": dy * i / k,
                                 "x2": dx * (i + 1) / k, "y2": dy * (i + 1) / k})
    elif t.type == "pie":
        r = ch.get("radius", 0)
        _convert(child, "arc", {"x": 0, "y": 0,
                                "inner_radius": r * i / k, "outer_radius": r * (i + 1) / k,
                                "start_angle": ch.get("start_angle", 0),
                                "angle": ch.get("angle", 360)})
    elif t.type == "ring":
        sweep = 360 / k
        _convert(child, "arc", {"x": 0, "y": 0,
                                "inner_radius": ch.get("inner_radius", 0),
                                "outer_radius": ch.get("outer_radius", 0),
                                "start_angle": i * sweep, "angle": sweep})


# ------------------------------------------------------------------ densify


def densify(scene, mark, dataset, attribute: str, orientation: str | None = None):
    """Add one data-carrying vertex per unique attribute value along a mark's
    border, deriving polyline/polygon/area marks."""
    el = scene.resolve(mark)
    if not isinstance(el, Mark) or el.type not in DENSIFY_TYPES:
        raise SceneError("densify applies to line, circle and rectangle marks")
    if el.type == "rectangle" and orientation not in ("horizontal", "vertical"):
        raise SceneError("densify on a rectangle needs a horizontal or vertical orientation")
    ds_name, ds = _dataset(scene, dataset)
    _require_discrete(ds, attribute, "densify")
    targets = scene.peers_of(el)
    provenance = {"op": "densify", "dataset": ds_name, "attribute": attribute,
                  "orientation": orientation}
    outputs = []
    data_vertices = []
    with scene.batch():
        for t in targets:
            groups = _partition(t, ds_name, ds, attribute)
            new = _densify_one(scene, t, groups, ds_name, orientation)
            data_vertices.extend(v for v in new.vertices if v.data_scope is not None)
            old_set = t.peer_set
            if old_set and old_set in scene.peer_sets:
                members = scene.peer_sets[old_set].members
                members[members.index(t.id)] = new.id
                new.peer_set = old_set
                t.peer_set = None
            scene.replace(t, new)
            outputs.append(new)
        scene.make_peer_set(data_vertices, provenance)
        _drop_invalid_encodings(scene, outputs)
        _prune_empty_peer_sets(scene)
        scene.dirty.structure = True
    return outputs[0] if len(outputs) == 1 else outputs


def _drop_invalid_encodings(scene, marks):
    stale = []
    for enc in scene.encodings.values():
        for m in marks:
            if m.peer_set == enc.peer_set and enc.channel not in MARK_CHANNELS[m.type]:
                stale.append(enc.id)
                break
    for eid in stale:
        encoding.remove_encoding(scene, eid)


def _steps(k: int):
    if k == 1:
        return [0.5]
    return [i / (k - 1) for i in range(k)]


def _densify_one(scene, t: Mark, groups, ds_name, orientation) -> Mark:
    new_type = DENSIFY_TYPES[t.type]
    channels = {c: v for c, v in t.channels.items() if c in MARK_CHANNELS[new_type]}
    new = Mark(scene.make_id("mark"), new_type, channels,
               data_scope=t.data_scope, z_index=t.z_index)
    scene.adopt(new)
    scopes = [DataScope(ds_name, idxs) for idxs in groups.values()]
    k = len(scopes)
    if t.type == "line":
        dx = t.channels.get("x2", 0) - t.channels.get("x", 0)
        dy = t.channels.get("y2", 0) - t.channels.get("y", 0)
        for step, scope in zip(_steps(k), scopes):
            new.vertices.append(Vertex(scene.make_id("vertex"), step * dx, step * dy, scope))
        _rechain(scene, new, closed=False)
    elif t.type == "circle":
        r = t.channels.get("radius", 0)
        for i, scope in enumerate(scopes):
            px, py = arc_point(0, 0, r, 360 * i / k)
            new.vertices.append(Vertex(scene.make_id("vertex"), px, py, scope))
        _rechain(scene, new, closed=True)
    else:  # rectangle -> area
        w, h = t.channels.get("width", 0), t.channels.get("height", 0)
        steps = _steps(k)
        if orientation == "horizontal":
            lead = [(s * w, 0.0) for s in steps]
            trail = [(s * w, h) for s in reversed(steps)]
        else:
            lead = [(0.0, s * h) for s in steps]
            trail = [(w, s * h) for s in reversed(steps)]
        for (px, py), scope in zip(lead, scopes):
            new.vertices.append(Vertex(scene.make_id("vertex"), px, py, scope))
        for px, py in trail:
            new.vertices.append(Vertex(scene.make_id("vertex"), px, py, None))
        _rechain(scene, new, closed=True)
    scene.index_mark(new)
    return new


# ----------------------------------------------------------------- classify


def classify(scene, collection, attribute: str):
    """Regroup a collection's members into sub-collections keyed by an
    attribute each member's scope is homogeneous for."""
    col = scene.resolve(collection)
    if not isinstance(col, Group) or col.group_kind != "collection":
        raise SceneError("classify applies to collections")
    if not col.data_scope and not col.members:
        raise SceneError(f"cannot classify {col.id}: it has no members and no data scope")
    members = [scene.elements[m] for m in col.members]
    member_values = []
    for m in members:
        value = scene.get_scope_value(m, attribute)
        if isinstance(value, list):
            raise SceneError(
                f"cannot classify: member {m.id} has mixed {attribute!r} values")
        member_values.append(value)
    ds_name = col.data_scope.dataset if col.data_scope else members[0].data_scope.dataset
    ds = scene.dataset(ds_name)
    ordered_values = canonical_order(ds, attribute, member_values)
    with scene.batch():
        subs = [_collection(scene, col.provenance,
                            (m for m, v in zip(members, member_values) if v == value))
                for value in ordered_values]
        for sub in subs:
            sub.parent = col.id
        col.members = [s.id for s in subs]
        col.provenance = {"op": "classify",
                          "dataset": ds_name, "attribute": attribute}
        scene.make_peer_set(subs, dict(col.provenance))
        scene.dirty.structure = True
    return col


# --------------------------------------------------------------- repopulate


def repopulate(scene, collection, new_dataset, attribute_pairs):
    """Re-generate a collection from a new dataset, treating the existing
    structure as a template: member counts track the new unique-value counts
    at every nesting level and encodings are re-evaluated."""
    col = scene.resolve(collection)
    if not isinstance(col, Group) or col.group_kind != "collection":
        raise SceneError("repopulate applies to collections")
    if not col.provenance or "attribute" not in col.provenance:
        raise SceneError(f"collection {col.id} has no generative provenance")
    attribute_pairs = list(attribute_pairs)
    for pair in attribute_pairs:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(isinstance(name, str) for name in pair)):
            raise DataError(f"attribute pair {pair!r} is not a (new, current) pair of names")
    ds_name, ds = _dataset(scene, new_dataset)
    mapping = {}
    for new_attr, cur_attr in attribute_pairs:
        if not ds.has_attribute(new_attr):
            raise DataError(f"attribute {new_attr!r} missing from dataset {ds_name!r}")
        mapping[cur_attr] = new_attr
    subtree = {col.id} | {e.id for e in scene.descendants(col)}
    touching = [spec for spec in scene.constraints.values()
                if constraint_elements(scene, spec) & subtree]
    with scene.batch():
        _repopulate_level(scene, col, list(range(len(ds.items))), ds_name, ds, mapping)
        _refresh_encodings(scene, col, ds_name, ds, mapping)
        _rename_constraint_attributes(touching, mapping)
        _prune_empty_peer_sets(scene)
        scene.dirty.structure = True
    return col


def _repopulate_level(scene, group: Group, allowed, ds_name, ds, mapping):
    prov = group.provenance or {}
    cur_attr = prov.get("attribute")
    if cur_attr is None:
        raise SceneError(f"collection {group.id} has no generative provenance")
    new_attr = mapping.get(cur_attr, cur_attr)
    if not ds.has_attribute(new_attr):
        raise DataError(
            f"no attribute pair covers {cur_attr!r} and dataset {ds_name!r} "
            f"has no column of that name")
    groups = group_items(ds, new_attr, allowed)
    wanted = len(groups)
    members = [scene.elements[m] for m in group.members]
    # reuse in order, clone the last for surplus, drop from the tail
    while len(members) < wanted:
        pairs = []
        clone = copy_element(scene, members[-1], _identity, pairs)
        clone.parent = group.id
        group.members.append(clone.id)
        for src, new in pairs:
            if src.peer_set and src.peer_set in scene.peer_sets:
                scene.add_peer(scene.peer_sets[src.peer_set], new)
        members.append(clone)
    while len(members) > wanted:
        victim = members.pop()
        group.members.remove(victim.id)
        scene.unregister(victim.id)
    for member, idxs in zip(members, groups.values()):
        _assign_scope(scene, member, ds_name, idxs, mapping, ds)
    group.data_scope = DataScope(ds_name, tuple(allowed))
    group.provenance = dict(prov)
    group.provenance["attribute"] = new_attr
    group.provenance["dataset"] = ds_name


def _assign_scope(scene, el, ds_name, idxs, mapping, ds):
    scope = DataScope(ds_name, tuple(idxs))
    if isinstance(el, Mark):
        el.data_scope = scope
        return
    if el.group_kind == "collection" and el.provenance and "attribute" in el.provenance:
        _repopulate_level(scene, el, list(idxs), ds_name, ds, mapping)
        return
    el.data_scope = scope
    if el.group_kind == "glyph":
        for m in el.members:
            scene.elements[m].data_scope = scope


def _refresh_encodings(scene, col: Group, ds_name, ds, mapping):
    subtree_sets = {e.peer_set for e in scene.descendants(col) if e.peer_set}
    subtree_sets |= {col.peer_set} if col.peer_set else set()
    for enc in scene.encodings.values():
        if enc.peer_set not in subtree_sets:
            continue
        if not ds.has_attribute(enc.attribute):
            if enc.attribute in mapping:
                enc.attribute = mapping[enc.attribute]
            else:
                raise DataError(
                    f"encoding {enc.id} binds {enc.attribute!r} which is missing "
                    f"from dataset {ds_name!r}; add an attribute pair for it")
        encoding.reinfer_domain(scene, scene.scales[enc.scale])
        scene.dirty.encodings.add(enc.id)
        scene.dirty.scales.add(enc.scale)


def _rename_constraint_attributes(specs, mapping):
    """Stored selectors and ordering keys follow the attribute pairs, so
    constraints on the template keep holding on the new columns."""
    for spec in specs:
        for role in ("targets", "followers", "anchors"):
            if role in spec.params:
                spec.params[role] = rename_selector_attributes(spec.params[role], mapping)
        key = spec.params.get("key") if spec.kind == "order" else None
        if key and key.get("attribute") in mapping:
            spec.params["key"] = {**key, "attribute": mapping[key["attribute"]]}


# ----------------------------------------------------------------- stratify


def stratify(scene, mark, tree, attribute: str, orientation: str | None = None):
    """Lay a tree out as an icicle (rectangle input) or sunburst (circle
    input): one output mark per tree item, extents proportional to leaf
    counts, layers indexed by depth."""
    el = scene.resolve(mark)
    if not isinstance(el, Mark) or el.type not in ("rectangle", "circle"):
        raise SceneError("stratify applies to rectangle and circle marks")
    if el.type == "rectangle" and orientation not in ("horizontal", "vertical"):
        raise SceneError("stratify on a rectangle needs a horizontal or vertical orientation")
    net_name, net = _dataset(scene, tree)
    if not isinstance(net, Network):
        raise SceneError("stratify needs a network dataset")
    levels = net.validate_tree()
    net.attribute(attribute)

    n = len(net.items)
    children = [[] for _ in range(n)]
    parent = [None] * n
    for link in net.links:
        s = net.item_index(link["source"])
        c = net.item_index(link["target"])
        children[s].append(c)
        parent[c] = s
    root = next(i for i in range(n) if parent[i] is None)

    # one pre-order walk; leaf counts bottom-up, offsets top-down
    order, depth, stack = [], [0] * n, [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for c in reversed(children[node]):
            depth[c] = depth[node] + 1
            stack.append(c)
    leaves = [1] * n
    for node in reversed(order):
        if children[node]:
            leaves[node] = sum(leaves[c] for c in children[node])
    offsets = [0] * n
    for node in order:
        start = offsets[node]
        for c in children[node]:
            offsets[c] = start
            start += leaves[c]
    total_leaves = leaves[root]

    ch = el.channels

    def strata():
        for node in order:
            new = copy_element(scene, el, _restrictor(net_name, (node,)), [])
            frac = leaves[node] / total_leaves
            off = offsets[node] / total_leaves
            if el.type == "rectangle":
                w, h = ch.get("width", 0), ch.get("height", 0)
                if orientation == "vertical":
                    _convert(new, "rectangle", {"x": off * w, "y": depth[node] * h / levels,
                                                "width": frac * w, "height": h / levels})
                else:
                    _convert(new, "rectangle", {"x": depth[node] * w / levels, "y": off * h,
                                                "width": w / levels, "height": frac * h})
                sync_geometry(new, scene.make_id)
                scene.index_mark(new)
            else:
                r = ch.get("radius", 0)
                _convert(new, "arc", {"x": 0, "y": 0,
                                      "inner_radius": r * depth[node] / levels,
                                      "outer_radius": r * (depth[node] + 1) / levels,
                                      "start_angle": 360 * off, "angle": 360 * frac})
            new.data_scope = DataScope(net_name, (node,))
            yield new

    provenance = {"op": "stratify", "dataset": net_name, "attribute": attribute,
                  "orientation": orientation}
    with scene.batch():
        col = _collection(scene, provenance, strata(), tx=ch.get("x", 0), ty=ch.get("y", 0))
        marks = scene.children(col)
        node_marks = dict(zip(order, marks))
        for node, m in node_marks.items():
            if parent[node] is not None:
                m.tree_parent = node_marks[parent[node]].id
        scene.replace(el, col)
        scene.make_peer_set(marks, provenance)
        scene.make_peer_set([col], provenance)
        _prune_empty_peer_sets(scene)
        scene.dirty.structure = True
    return col


# ----------------------------------------------------------- network repeat


def repeat_network(scene, node_element, link_mark, network, attribute: str):
    """Node element per unique attribute value, one link mark per network
    link; link marks track their endpoint node elements."""
    node_el = scene.resolve(node_element)
    link_el = scene.resolve(link_mark)
    if not isinstance(link_el, Mark) or link_el.type not in LINK_MARK_TYPES:
        raise SceneError(f"link marks must be one of {LINK_MARK_TYPES}")
    net_name, net = _dataset(scene, network)
    if not isinstance(net, Network):
        raise SceneError("repeat_network needs a network dataset")
    groups = group_items(net, attribute)
    provenance = {"op": "repeat_network", "dataset": net_name, "attribute": attribute}

    def link_copies(value_to_node):
        for i, link in enumerate(net.links):
            copy = copy_element(scene, link_el, _identity, [])
            copy.data_scope = DataScope(net_name, (i,), "links")
            copy.source_node = value_to_node[net.items[net.item_index(link["source"])][attribute]]
            copy.target_node = value_to_node[net.items[net.item_index(link["target"])][attribute]]
            yield copy

    with scene.batch():
        all_pairs = []
        node_col = _collection(scene, provenance,
                               _copies(scene, node_el, net_name, groups.values(), all_pairs),
                               {"type": "grid", "num_cols": 1})
        link_col = _collection(scene, provenance,
                               link_copies(dict(zip(groups, node_col.members))))
        scene.replace(node_el, node_col)
        scene.replace(link_el, link_col)
        mapping = _pool_peer_sets(scene, all_pairs, provenance)
        scene.make_peer_set(scene.children(link_col), provenance)
        scene.make_peer_set([node_col], provenance)
        scene.make_peer_set([link_col], provenance)
        _rebind_encodings(scene, mapping)
        _prune_empty_peer_sets(scene)
        scene.dirty.structure = True
    return node_col, link_col
