"""Checks over a live scene; the CLI ``validate`` prints one line per check.

The structural checks define a well-formed scene: ``deserialize_scene``
raises on their first problem, so a document loads if and only if it passes
them. The derived-state checks look at what propagation maintains. Each
check yields ``(owner, message)``; the owner is the id of the record at
fault, or a position in ``scene.roots``.
"""

from __future__ import annotations

from .constraints import TOLERANCE, evaluate_constraint
from .elements import MARK_CHANNELS, Group, Mark
from .encoding import encoding_peers, peer_value, scale_apply
from .errors import SceneError


def validate_scene(scene) -> list[dict]:
    if scene.dirty.any():
        scene.propagate()
    report = []
    for name, check in STRUCTURAL_CHECKS + DERIVED_CHECKS:
        details = [message if isinstance(owner, int) else f"{owner}: {message}"
                   for owner, message in check(scene)]
        report.append({"check": name, "status": "fail" if details else "pass",
                       "details": details})
    return report


def passed(report) -> bool:
    return all(c["status"] == "pass" for c in report)


def element_references(scene):
    """Members and parents name each other, roots have no parent, and the
    roots reach every element exactly once."""
    elements = scene.elements
    for el in elements.values():
        if el.parent is not None and el.parent not in elements:
            yield el.id, f"parent {el.parent!r} missing"
        if isinstance(el, Group):
            for m in el.members:
                if m not in elements:
                    yield el.id, f"member {m!r} missing"
                elif elements[m].parent != el.id:
                    yield el.id, f"member {m!r} does not name {el.id!r} as parent"
    for i, r in enumerate(scene.roots):
        if r not in elements:
            yield i, f"root {r!r} missing"
        elif elements[r].parent is not None:
            yield i, f"root {r!r} has parent {elements[r].parent!r}"
    reached = set()
    stack = [r for r in scene.roots if r in elements]
    while stack:
        el_id = stack.pop()
        if el_id in reached:
            yield el_id, "appears twice in the tree"
            continue
        reached.add(el_id)
        el = elements[el_id]
        if isinstance(el, Group):
            stack.extend(m for m in el.members if m in elements)
    for el_id in elements:
        if el_id not in reached:
            yield el_id, "not reachable from the roots"


def scope_validity(scene):
    for el in scene.elements.values():
        for message in _scope_problems(scene, el.data_scope):
            yield el.id, message
        if isinstance(el, Mark):
            for v in el.vertices:
                for message in _scope_problems(scene, v.data_scope):
                    yield el.id, f"vertex {v.id}: {message}"


def _scope_problems(scene, scope):
    if scope is None:
        return
    ds = scene.datasets.get(scope.dataset)
    if ds is None:
        yield f"unknown dataset {scope.dataset!r}"
        return
    rows = {"items": ds.items, "links": getattr(ds, "links", None)}.get(scope.table)
    if rows is None:
        yield f"unknown table {scope.table!r} in dataset {scope.dataset!r}"
        return
    for i in scope.indices:
        if not 0 <= i < len(rows):
            yield f"scope index {i} out of range"


def mark_geometry(scene):
    for el in scene.elements.values():
        if not isinstance(el, Mark):
            continue
        vertex_ids = {v.id for v in el.vertices}
        for s in el.segments:
            if len(s.endpoints) != 2:
                yield el.id, f"segment {s.id} needs two endpoints"
            elif not vertex_ids.issuperset(s.endpoints):
                yield el.id, f"segment {s.id} has dangling endpoints"
        if el.type == "rectangle":
            if len(el.vertices) != 4 or len(el.segments) != 4:
                yield el.id, "rectangle needs 4 vertices and 4 segments"
            else:
                corner = el.vertices[2]
                if (abs(corner.x - el.channels.get("width", 0)) > TOLERANCE
                        or abs(corner.y - el.channels.get("height", 0)) > TOLERANCE):
                    yield el.id, (f"far corner ({corner.x}, {corner.y}) differs from "
                                  f"the width and height channels")
        for c in el.channels:
            if c not in MARK_CHANNELS[el.type]:
                yield el.id, f"channel {c!r} invalid for {el.type}"


def glyph_scopes(scene):
    for el in scene.elements.values():
        if isinstance(el, Group) and el.group_kind == "glyph":
            scopes = {scene.elements[m].data_scope for m in el.members}
            if len(scopes) > 1:
                yield el.id, "glyph members carry different scopes"
            elif el.members and el.data_scope != next(iter(scopes)):
                yield el.id, "glyph scope differs from member scope"


def collection_structure(scene):
    for el in scene.elements.values():
        if isinstance(el, Group) and el.group_kind == "collection" and el.members:
            for p in scene.collection_problems(scene.children(el), el.data_scope):
                yield el.id, p


def peer_set_integrity(scene):
    members_of = {}
    for ps in scene.peer_sets.values():
        members_of[ps.id] = set(ps.members)
        for m in ps.members:
            try:
                member = scene.resolve(m)
            except SceneError:
                yield ps.id, f"member {m!r} missing"
                continue
            if member.peer_set != ps.id:
                yield ps.id, f"member {m!r} does not point back"
    for el in scene.elements.values():
        if el.peer_set is not None and el.id not in members_of.get(el.peer_set, ()):
            yield el.id, f"stale peer set {el.peer_set!r}"


def _encodings(scene):
    for enc in scene.encodings.values():
        scale = scene.scales.get(enc.scale)
        if scale is None:
            yield enc.id, f"scale {enc.scale!r} missing"
            continue
        for peer in encoding_peers(scene, enc):
            try:
                expected = scale_apply(scale, peer_value(scene, peer, enc.attribute,
                                                         enc.aggregator))
                actual = scene.get_channel(peer, enc.channel)
            except Exception as e:
                yield enc.id, str(e)
                continue
            if enc.channel == "text":
                continue
            if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
                if abs(expected - actual) > TOLERANCE:
                    yield enc.id, f"{peer.id}.{enc.channel} = {actual}, expected {expected}"
            elif expected != actual:
                yield enc.id, f"{peer.id}.{enc.channel} = {actual!r}, expected {expected!r}"


def _constraints(scene):
    """A constraint holds when a dry run of its evaluator, the one that
    propagation runs, would change nothing."""
    for spec in scene.constraints.values():
        try:
            moved, problem = evaluate_constraint(scene, spec, write=False)
        except Exception as e:
            yield spec.id, str(e)
            continue
        if problem:
            yield spec.id, problem
        elif moved:
            yield spec.id, (f"{spec.kind} constraint not satisfied; "
                            f"enforcing it would change {len(moved)} element(s)")


def _scale_sync(scene):
    for gid, ids in scene.sync_groups.items():
        domains = [tuple(scene.scales[s].domain) for s in ids if s in scene.scales]
        if len(set(domains)) > 1:
            yield gid, "synced scales hold different domains"


# In order: later structural checks index members, which element-references
# guarantees resolve.
STRUCTURAL_CHECKS = (
    ("element-references", element_references),
    ("scope-validity", scope_validity),
    ("mark-geometry", mark_geometry),
    ("glyph-scopes", glyph_scopes),
    ("collection-structure", collection_structure),
    ("peer-set-integrity", peer_set_integrity),
)

DERIVED_CHECKS = (
    ("encoding-consistency", _encodings),
    ("constraint-satisfaction", _constraints),
    ("scale-sync", _scale_sync),
)
