"""Output checks.

Expected values come from the generator's own data (see inputs.py), never
from vizscene. Geometry is read from the scene's element records (mark
channels and group offsets) and combined here, so a wrong bounding-box
routine in the program cannot hide a wrong position.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

TOL = 1e-9


class Geometry:
    """Absolute positions computed from element records, memoised per group."""

    def __init__(self, scene):
        self.scene = scene
        self._offsets = {}

    def offset(self, el):
        parent = el.parent
        if parent in (None, "__detached__"):
            return 0.0, 0.0
        if parent not in self._offsets:
            group = self.scene.elements[parent]
            ox, oy = self.offset(group)
            self._offsets[parent] = (ox + group.tx, oy + group.ty)
        return self._offsets[parent]

    def rect(self, mark):
        ox, oy = self.offset(mark)
        ch = mark.channels
        x, y = ch["x"] + ox, ch["y"] + oy
        return x, y, x + ch["width"], y + ch["height"]

    def point(self, mark):
        ox, oy = self.offset(mark)
        return mark.channels["x"] + ox, mark.channels["y"] + oy


def descendant_marks(scene, el):
    out = []
    stack = [el]
    while stack:
        cur = stack.pop()
        members = getattr(cur, "members", None)
        if members is None:
            out.append(cur)
        else:
            stack.extend(scene.elements[m] for m in reversed(members))
    return out


def mark_count(scene, mark_type) -> int:
    return sum(1 for e in scene.elements.values() if isinstance(e, mark_type))


def close(a, b) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def bar_rows(scene, rows_id, data_rows, value_index=2):
    """The divided bar rows of a survey scene.

    Checks that row a holds one cell per response, in file order, and that
    each cell is joined to exactly the survey row with its age and response.
    `data_rows` are (age, response, value) triples in file order.
    Returns (problems, cells, geometry) with cells = [(mark, value)].
    """
    problems = []
    rows = scene.elements[rows_id]
    ages = list(dict.fromkeys(r[0] for r in data_rows))
    responses = list(dict.fromkeys(r[1] for r in data_rows))
    index = {(r[0], r[1]): i for i, r in enumerate(data_rows)}
    if len(rows.members) != len(ages):
        return [f"{len(rows.members)} rows, want {len(ages)} ages"], [], None
    geo = Geometry(scene)
    cells = []
    rights = []
    for age, row_id in zip(ages, rows.members):
        row_cells = [scene.elements[m] for m in scene.elements[row_id].members]
        if len(row_cells) != len(responses):
            problems.append(f"row {row_id} has {len(row_cells)} cells, want {len(responses)}")
            continue
        for response, cell in zip(responses, row_cells):
            want = (index[(age, response)],)
            if cell.data_scope is None or cell.data_scope.indices != want:
                problems.append(f"cell {cell.id} joined to {cell.data_scope}, want rows {want}")
            cells.append((cell, data_rows[want[0]][value_index]))
        rights.append(max(geo.rect(c)[2] for c in row_cells))
    if len(cells) != len(ages) * len(responses):
        problems.append(f"{len(cells)} cells, want {len(ages)} x {len(responses)}")
    if cells:
        w0, v0 = cells[0][0].channels["width"], cells[0][1]
        for cell, v in cells:
            if not close(cell.channels["width"] * v0, w0 * v):
                problems.append(f"cell {cell.id} width {cell.channels['width']} "
                                f"not in ratio {v}:{v0} with {w0}")
                break
    if rights and any(not close(r, rights[0]) for r in rights):
        problems.append(f"row right edges span {min(rights)}..{max(rights)}")
    return problems, cells, geo


def diverging_bar(scene, rows_id, labels_id, data_rows):
    """Cells x responses, widths in pct ratios, right edges aligned, and every
    label centred on its cell showing its pct."""
    problems, cells, geo = bar_rows(scene, rows_id, data_rows)
    if geo is None:
        return problems
    by_row = {cell.data_scope.indices: cell for cell, _ in cells}
    labels = descendant_marks(scene, scene.elements[labels_id])
    if len(labels) != len(cells):
        problems.append(f"{len(labels)} labels, want {len(cells)}")
    for label in labels:
        cell = by_row.get(label.data_scope.indices if label.data_scope else None)
        if cell is None:
            problems.append(f"label {label.id} has no cell with scope {label.data_scope}")
            continue
        l, t, r, b = geo.rect(cell)
        x, y = geo.point(label)
        if not (close(x, (l + r) / 2) and close(y, (t + b) / 2)):
            problems.append(f"label {label.id} at ({x}, {y}) is not centred on {cell.id}")
            break
        pct = data_rows[cell.data_scope.indices[0]][2]
        if label.channels.get("text") != str(pct):
            problems.append(f"label {label.id} reads {label.channels.get('text')!r}, want {pct}")
            break
    return problems


def stratify(scene, collection_id, node_count):
    n = len(descendant_marks(scene, scene.elements[collection_id]))
    return [] if n == node_count else [f"stratify made {n} marks for {node_count} tree nodes"]


def node_link(scene, collections, node_count, link_count):
    node_col, link_col = collections
    problems = []
    nodes = descendant_marks(scene, scene.elements[node_col.id])
    lines = [m for m in descendant_marks(scene, scene.elements[link_col.id])
             if m.type == "line"]
    if len(nodes) != node_count:
        problems.append(f"{len(nodes)} node marks for {node_count} nodes")
    if len(lines) != link_count:
        problems.append(f"{len(lines)} lines for {link_count} links")
    return problems


def line_chart(scene, line_id, values):
    """One data vertex per month, y placed by the pinned scale
    domain [0, 100] -> range [120, 0]."""
    line = scene.elements[line_id]
    vertices = [v for v in line.vertices if v.data_scope is not None]
    if len(vertices) != len(values):
        return [f"{len(vertices)} vertices for {len(values)} months"]
    for v, value in zip(vertices, values):
        if not close(v.y, 120 - 1.2 * value):
            return [f"vertex {v.id} at y={v.y}, want {120 - 1.2 * value}"]
    return []


def propagation_idle(scene):
    """Law: propagation is idempotent, so a second pass evaluates nothing."""
    evaluated = scene.propagate().evaluated
    return [] if not evaluated else [f"second propagate evaluated {evaluated[:5]}"]


def round_trip(vz, doc: str):
    """Law: serialize -> deserialize -> serialize is byte-identical."""
    again = vz.serialize_scene(vz.deserialize_scene(doc))
    return [] if again == doc else ["serialize -> deserialize -> serialize changed bytes"]


def validation(report):
    failed = [c["check"] for c in report if c["status"] != "pass"]
    return [f"validate_scene failed {failed}"] if failed else []
