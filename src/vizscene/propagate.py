"""One-way dataflow propagation.

After any mutation, dirty components are re-evaluated in dependency order:
scales feed encodings, channel values feed layouts (bottom-up, since a child
layout changes the extent its parent layout reads), and positions feed
relational constraints, which run to a fixpoint in declaration order.
Constraints translate; layouts read extents, never positions — so one
staged pass suffices and a second pass re-evaluates nothing.
"""

from __future__ import annotations

import heapq

from .elements import Group, Mark
from .errors import VizSceneError
from .scene import group_extent

MAX_CONSTRAINT_ROUNDS_PAD = 2


class PropagationReport:
    def __init__(self):
        self.evaluated: list[str] = []
        self.unsatisfied: list[str] = []

    def as_dict(self) -> dict:
        return {"evaluated": list(self.evaluated), "unsatisfied": list(self.unsatisfied)}

    def __repr__(self):
        return f"PropagationReport(evaluated={self.evaluated!r}, unsatisfied={self.unsatisfied!r})"


def _closure(scene, ids) -> set:
    """The changed elements plus everything that rode along: descendants of
    moved groups and ancestors whose bboxes they stretch."""
    out = set()
    for el_id in ids:
        el = scene.elements.get(el_id)
        if el is None:
            continue
        out.add(el_id)
        for d in scene.descendants(el):
            out.add(d.id)
        cur = el
        while cur.parent is not None:
            cur = scene.elements[cur.parent]
            out.add(cur.id)
    return out


def _ancestor_layouts(scene, el_id: str) -> set:
    out = set()
    el = scene.elements.get(el_id)
    if el is None:
        return out
    if isinstance(el, Group) and el.layout:
        out.add(el.id)
    cur = el
    while cur.parent is not None:
        cur = scene.elements[cur.parent]
        if isinstance(cur, Group) and cur.layout:
            out.add(cur.id)
    return out


def run_propagation(scene) -> PropagationReport:
    from .constraints import constraint_elements, evaluate_constraint, resolve_constraint
    from .encoding import evaluate_encoding
    from .layout import evaluate_layout

    report = PropagationReport()
    d = scene.dirty
    dirty_scales = set(d.scales)
    dirty_encodings = set(d.encodings)
    dirty_layouts = set(d.layouts)
    dirty_constraints = set(d.constraints)
    sized = set(d.sized)
    moved = set(d.moved)
    structure = d.structure
    d.clear()
    if not (dirty_scales or dirty_encodings or dirty_layouts or dirty_constraints
            or sized or moved or structure):
        return report

    scene._suspended += 1
    try:
        # scales: value producers for encodings
        for sid in scene.scales:
            if sid in dirty_scales:
                report.evaluated.append(f"scale:{sid}")
                for enc in scene.encodings.values():
                    if enc.scale == sid:
                        dirty_encodings.add(enc.id)

        # encodings: write channels on peers
        for eid in scene.encodings:
            if eid in dirty_encodings:
                enc_sized, enc_moved = evaluate_encoding(scene, scene.encodings[eid])
                sized |= enc_sized
                moved |= enc_moved
                report.evaluated.append(f"encoding:{eid}")

        # ordering constraints change layout input order, so they run first
        orders = [(cid, spec) for cid, spec in scene.constraints.items()
                  if spec.kind == "order"]
        changed_now = _closure(scene, sized | moved) if orders else set()
        for cid, spec in orders:
            if structure or cid in dirty_constraints or (
                    constraint_elements(scene, spec) & changed_now):
                reordered, problem = evaluate_constraint(scene, spec, write=True)
                report.evaluated.append(f"constraint:{cid}")
                dirty_constraints.discard(cid)
                if problem:
                    report.unsatisfied.append(f"{cid}: {problem}")
                for gid in reordered:
                    group = scene.elements[gid]
                    if group.layout:
                        dirty_layouts.add(gid)

        # layouts, children before parents; a child layout can change the
        # extent its parent's layout depends on
        for el_id in sized:
            dirty_layouts |= _ancestor_layouts(scene, el_id)
        if structure:
            for el in scene.elements.values():
                if isinstance(el, Group) and el.layout:
                    dirty_layouts.add(el.id)
        pending = {g for g in dirty_layouts
                   if g in scene.elements and scene.elements[g].layout}
        heap = []
        if pending:
            # deepest first, later-declared first among equals; layouts move
            # and resize elements but never add or remove them, so positions
            # and depths hold for the whole pass
            position = {el_id: i for i, el_id in enumerate(scene.elements)}

            def entry(g):
                return (-scene.depth(scene.elements[g]), -position[g], g)

            heap = [entry(g) for g in pending]
            heapq.heapify(heap)
        while heap:
            # a group is pushed only while not pending, so the heap holds one
            # entry per pending group and its top is the old max() choice
            gid = heapq.heappop(heap)[2]
            pending.discard(gid)
            group = scene.elements[gid]
            # the group's extent before and after, from its members' boxes:
            # a layout moves members, so only the moved ones are measured again
            members = [scene.elements[m] for m in group.members]
            boxes = [scene.bbox_in_parent(m) for m in members]
            before = group_extent(group, boxes)
            layout_moved = evaluate_layout(scene, group, boxes)
            report.evaluated.append(f"layout:{gid}")
            moved |= layout_moved
            after = group_extent(group, [scene.bbox_in_parent(m) if m.id in layout_moved else b
                                         for m, b in zip(members, boxes)])
            size_changed = (abs((after[2] - after[0]) - (before[2] - before[0])) > 1e-12
                            or abs((after[3] - after[1]) - (before[3] - before[1])) > 1e-12)
            if size_changed:
                for anc in _ancestor_layouts(scene, gid) - {gid}:
                    if anc not in pending:
                        pending.add(anc)
                        heapq.heappush(heap, entry(anc))

        # relational constraints to fixpoint, declaration order. From here on
        # the pass only moves and resizes elements, so each constraint's
        # selectors are resolved once and the resolutions die with the pass.
        # `changed` gathers every element a move touched, for link wiring.
        changed = _closure(scene, sized | moved)
        resolutions = {}
        pending_cons = set()
        for cid, spec in scene.constraints.items():
            if spec.kind == "order":
                continue
            try:
                resolutions[cid] = r = resolve_constraint(scene, spec)
            except VizSceneError as e:
                report.unsatisfied.append(f"{cid}: {e}")
                continue
            if structure or cid in dirty_constraints or r.reads & changed:
                pending_cons.add(cid)
        rounds = len(scene.constraints) + MAX_CONSTRAINT_ROUNDS_PAD
        for _ in range(rounds):
            if not pending_cons:
                break
            moves = []       # closure of each move made this round, in order
            read_up_to = {}  # constraint id -> how many of those moves it read
            for cid, spec in scene.constraints.items():
                if cid not in pending_cons:
                    continue
                pending_cons.discard(cid)
                r = resolutions[cid]
                cons_moved, problem = evaluate_constraint(scene, spec, write=True,
                                                          resolution=r)
                report.evaluated.append(f"constraint:{cid}")
                if problem:
                    report.unsatisfied.append(f"{cid}: {problem}")
                if cons_moved:
                    moves.append(_closure(scene, cons_moved))
                    changed |= moves[-1]
                    # translations of nested elements disturb one another, so
                    # a nested constraint that does not hold after its own
                    # moves runs again; any other holds by construction
                    if r.nested and evaluate_constraint(
                            scene, spec, write=False, resolution=r) != (set(), None):
                        pending_cons.add(cid)
                read_up_to[cid] = len(moves)
            if moves:
                # a constraint read every move made before it ran; only the
                # moves after it re-queue it
                last_move = {}
                for i, closure in enumerate(moves):
                    for el_id in closure:
                        last_move[el_id] = i
                for cid, r in resolutions.items():
                    if cid in pending_cons:
                        continue
                    unread = read_up_to.get(cid, 0)
                    if any(last_move.get(el_id, -1) >= unread for el_id in r.reads):
                        pending_cons.add(cid)
        else:
            if pending_cons:
                report.unsatisfied.append(
                    "constraint system did not settle: " + ", ".join(sorted(pending_cons)))

        # node-link wiring: link endpoints follow their node elements
        _update_links(scene, changed, structure, report)
    finally:
        scene._suspended -= 1
    scene.dirty.clear()
    return report


def _update_links(scene, changed: set, structure: bool, report: PropagationReport):
    for el in list(scene.elements.values()):
        if not isinstance(el, Mark) or el.source_node is None:
            continue
        if not structure and el.source_node not in changed \
                and el.target_node not in changed and el.id not in changed:
            continue
        src = scene.elements.get(el.source_node)
        dst = scene.elements.get(el.target_node)
        if src is None or dst is None:
            continue
        sb = scene.bbox(src)
        db = scene.bbox(dst)
        ox, oy = scene.ancestor_offset(el)
        changed_any = False
        for channel, value in (("x", (sb[0] + sb[2]) / 2 - ox),
                               ("y", (sb[1] + sb[3]) / 2 - oy),
                               ("x2", (db[0] + db[2]) / 2 - ox),
                               ("y2", (db[1] + db[3]) / 2 - oy)):
            if scene.write_channel(el, channel, value):
                changed_any = True
        if changed_any:
            report.evaluated.append(f"links:{el.id}")


__all__ = ["run_propagation", "PropagationReport"]
