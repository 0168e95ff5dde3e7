"""Structural invariant checks over a live scene.

Each check returns pass/fail plus detail strings; the CLI ``validate``
command prints one line per check and exits nonzero on any failure.
"""

from __future__ import annotations

from .constraints import TOLERANCE, evaluate_constraint
from .elements import MARK_CHANNELS, Group, Mark
from .encoding import encoding_peers, peer_value, scale_apply


def _check(name, details):
    return {"check": name, "status": "fail" if details else "pass",
            "details": details}


def validate_scene(scene) -> list[dict]:
    if scene.dirty.any():
        scene.propagate()
    report = [
        _check("element-references", _element_references(scene)),
        _check("scope-validity", _scope_validity(scene)),
        _check("mark-geometry", _mark_geometry(scene)),
        _check("glyph-scopes", _glyph_scopes(scene)),
        _check("collection-structure", _collection_structure(scene)),
        _check("peer-set-integrity", _peer_sets(scene)),
        _check("encoding-consistency", _encodings(scene)),
        _check("constraint-satisfaction", _constraints(scene)),
        _check("scale-sync", _scale_sync(scene)),
    ]
    return report


def passed(report) -> bool:
    return all(c["status"] == "pass" for c in report)


def _element_references(scene):
    problems = []
    for el in scene.elements.values():
        if el.parent not in (None, "__detached__") and el.parent not in scene.elements:
            problems.append(f"{el.id}: parent {el.parent!r} missing")
        if isinstance(el, Group):
            for m in el.members:
                if m not in scene.elements:
                    problems.append(f"{el.id}: member {m!r} missing")
    for r in scene.roots:
        if r not in scene.elements:
            problems.append(f"root {r!r} missing")
    return problems


def _scope_validity(scene):
    problems = []
    for el in scene.elements.values():
        scope = el.data_scope
        if scope is None:
            continue
        if scope.dataset not in scene.datasets:
            problems.append(f"{el.id}: unknown dataset {scope.dataset!r}")
            continue
        ds = scene.datasets[scope.dataset]
        limit = len(ds.links) if scope.table == "links" else len(ds.items)
        for i in scope.indices:
            if i >= limit:
                problems.append(f"{el.id}: scope index {i} out of range")
    return problems


def _mark_geometry(scene):
    problems = []
    for el in scene.elements.values():
        if not isinstance(el, Mark):
            continue
        vertex_ids = {v.id for v in el.vertices}
        for s in el.segments:
            if any(e not in vertex_ids for e in s.endpoints):
                problems.append(f"{el.id}: segment {s.id} has dangling endpoints")
        if el.type == "rectangle":
            if len(el.vertices) != 4 or len(el.segments) != 4:
                problems.append(f"{el.id}: rectangle needs 4 vertices and 4 segments")
            else:
                box = scene.bbox_in_parent(el)
                if abs((box[2] - box[0]) - el.channels.get("width", 0)) > TOLERANCE:
                    problems.append(f"{el.id}: bbox width differs from width channel")
        for c in el.channels:
            if c not in MARK_CHANNELS[el.type]:
                problems.append(f"{el.id}: channel {c!r} invalid for {el.type}")
    return problems


def _glyph_scopes(scene):
    problems = []
    for el in scene.elements.values():
        if isinstance(el, Group) and el.group_kind == "glyph":
            scopes = {scene.elements[m].data_scope for m in el.members}
            if len(scopes) > 1:
                problems.append(f"{el.id}: glyph members carry different scopes")
            elif el.members and el.data_scope != next(iter(scopes)):
                problems.append(f"{el.id}: glyph scope differs from member scope")
    return problems


def _collection_structure(scene):
    problems = []
    for el in scene.elements.values():
        if isinstance(el, Group) and el.group_kind == "collection" and el.members:
            for p in scene.check_collection(el):
                problems.append(f"{el.id}: {p}")
    return problems


def _peer_sets(scene):
    problems = []
    for ps in scene.peer_sets.values():
        for m in ps.members:
            try:
                member = scene.resolve(m)
            except Exception:
                problems.append(f"{ps.id}: member {m!r} missing")
                continue
            if member.peer_set != ps.id:
                problems.append(f"{ps.id}: member {m!r} does not point back")
    for el in scene.elements.values():
        if el.peer_set is not None:
            ps = scene.peer_sets.get(el.peer_set)
            if ps is None or el.id not in ps.members:
                problems.append(f"{el.id}: stale peer set {el.peer_set!r}")
    return problems


def _encodings(scene):
    problems = []
    for enc in scene.encodings.values():
        scale = scene.scales.get(enc.scale)
        if scale is None:
            problems.append(f"{enc.id}: scale {enc.scale!r} missing")
            continue
        for peer in encoding_peers(scene, enc):
            try:
                expected = scale_apply(scale, peer_value(scene, peer, enc.attribute,
                                                         enc.aggregator))
            except Exception as e:
                problems.append(f"{enc.id}: {e}")
                continue
            actual = scene.get_channel(peer, enc.channel)
            if enc.channel == "text":
                continue
            if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
                if abs(expected - actual) > TOLERANCE:
                    problems.append(
                        f"{enc.id}: {peer.id}.{enc.channel} = {actual}, expected {expected}")
            elif expected != actual:
                problems.append(
                    f"{enc.id}: {peer.id}.{enc.channel} = {actual!r}, expected {expected!r}")
    return problems


def _constraints(scene):
    """A constraint holds when a dry run of its evaluator, the one that
    propagation runs, would change nothing."""
    problems = []
    for spec in scene.constraints.values():
        try:
            moved, problem = evaluate_constraint(scene, spec, write=False)
        except Exception as e:
            problems.append(f"{spec.id}: {e}")
            continue
        if problem:
            problems.append(f"{spec.id}: {problem}")
        elif moved:
            problems.append(f"{spec.id}: {spec.kind} constraint not satisfied; "
                            f"enforcing it would change {len(moved)} element(s)")
    return problems


def _scale_sync(scene):
    problems = []
    for gid, ids in scene.sync_groups.items():
        domains = [tuple(scene.scales[s].domain) for s in ids if s in scene.scales]
        if len(set(domains)) > 1:
            problems.append(f"{gid}: synced scales hold different domains")
    return problems
