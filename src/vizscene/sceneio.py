"""Scene JSON serialization and reconstruction, plus annotated-SVG export.

Documents are versioned ("msc-scene/1") and self-contained: datasets are
inlined and scopes reference them by row index, so a saved scene works as a
template for repopulation. Serialization is deterministic. Reconstruction
builds the scene, then runs the structural checks of :mod:`vizscene.validate`:
a document loads if and only if it passes them, and every failure names the
JSON path of its record.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .constraints import ConstraintSpec
from .data import AttributeDef, Network, Table
from .elements import GROUP_KINDS, MARK_TYPES, DataScope, Group, Mark, Segment, Vertex
from .encoding import SCALE_KINDS, Encoding, Scale
from .errors import LayoutError, SceneFormatError
from .layout import normalize_layout
from .scene import AuxiliaryElement, PeerSet, Scene, ViewConfig
from .svgrender import render
from .validate import STRUCTURAL_CHECKS

FORMAT_VERSION = "msc-scene/1"


# ---------------------------------------------------------------- serialize


def _scope_doc(scope: DataScope | None):
    if scope is None:
        return None
    return {"dataset": scope.dataset, "table": scope.table,
            "indices": list(scope.indices)}


def _dataset_doc(name: str, ds) -> dict:
    doc = {"name": name,
           "kind": "network" if isinstance(ds, Network) else "table",
           "attributes": []}
    for a in ds.attributes:
        attr = {"name": a.name, "kind": a.kind}
        if a.declared_order is not None:
            attr["declared_order"] = list(a.declared_order)
        doc["attributes"].append(attr)
    doc["items"] = [dict(row) for row in ds.items]
    if isinstance(ds, Network):
        doc["links"] = [dict(link) for link in ds.links]
        doc["id_attribute"] = ds.id_attribute
    return doc


def _element_doc(el) -> dict:
    if isinstance(el, Mark):
        doc = {"id": el.id, "kind": "mark", "type": el.type,
               "channels": dict(el.channels)}
        if el.vertices:
            doc["vertices"] = [
                {k: v for k, v in (("id", vx.id), ("x", vx.x), ("y", vx.y),
                                   ("scope", _scope_doc(vx.data_scope)),
                                   ("peer_set", vx.peer_set)) if v is not None}
                for vx in el.vertices]
        if el.segments:
            doc["segments"] = [
                {k: v for k, v in (("id", s.id), ("endpoints", list(s.endpoints)),
                                   ("kind", s.kind),
                                   ("channels", s.channels or None)) if v is not None}
                for s in el.segments]
        for key, value in (("scope", _scope_doc(el.data_scope)),
                           ("peer_set", el.peer_set), ("parent", el.parent),
                           ("source_node", el.source_node),
                           ("target_node", el.target_node),
                           ("tree_parent", el.tree_parent)):
            if value is not None:
                doc[key] = value
        if el.z_index:
            doc["z_index"] = el.z_index
        return doc
    doc = {"id": el.id, "kind": el.group_kind, "members": list(el.members),
           "offset": [el.tx, el.ty]}
    if el.channels:
        doc["channels"] = dict(el.channels)
    for key, value in (("scope", _scope_doc(el.data_scope)),
                       ("peer_set", el.peer_set), ("parent", el.parent),
                       ("layout", el.layout), ("provenance", el.provenance)):
        if value is not None:
            doc[key] = value
    if el.layout is not None and el.layout_default:
        doc["layout_default"] = True
    if el.z_index:
        doc["z_index"] = el.z_index
    return doc


def _scale_doc(s: Scale) -> dict:
    doc = {"id": s.id, "kind": s.kind, "domain": list(s.domain),
           "range": list(s.range)}
    if s.kind == "power":
        doc["exponent"] = s.exponent
    if s.kind == "log":
        doc["base"] = s.base
    if not s.clamp:
        doc["clamp"] = False
    if s.domain_explicit:
        doc["domain_explicit"] = True
    if s.sync_group is not None:
        doc["sync_group"] = s.sync_group
    return doc


def _aux_doc(a: AuxiliaryElement) -> dict:
    doc = {"id": a.id, "kind": a.aux_kind}
    for key, value in (("channel", a.channel), ("scale", a.scale),
                       ("placement", a.placement), ("offset", a.offset),
                       ("text", a.text)):
        if value is not None:
            doc[key] = value
    if a.aux_kind == "annotation":
        doc["x"] = a.x
        doc["y"] = a.y
        if a.props:
            doc["props"] = a.props
    return doc


def _view_doc(view: ViewConfig) -> dict:
    doc = {"focus": list(view.focus), "zoom": view.zoom, "rotation": view.rotation}
    if view.field_of_view is not None:
        doc["field_of_view"] = list(view.field_of_view)
    return doc


def _peer_set_doc(ps: PeerSet) -> dict:
    return {k: v for k, v in (("id", ps.id), ("members", list(ps.members)),
                              ("provenance", ps.provenance)) if v is not None}


def _encoding_doc(e: Encoding) -> dict:
    return {k: v for k, v in (("id", e.id), ("peer_set", e.peer_set),
                              ("channel", e.channel), ("attribute", e.attribute),
                              ("scale", e.scale), ("aggregator", e.aggregator))
            if v is not None}


# The document's top-level fields in order: (key, whether the value is a list
# written one record at a time, the value or records of a scene).
_DOCUMENT = (
    ("version", False, lambda scene: FORMAT_VERSION),
    ("id", False, lambda scene: scene.id),
    ("datasets", True, lambda scene: (_dataset_doc(n, d) for n, d in scene.datasets.items())),
    ("roots", True, lambda scene: scene.roots),
    ("elements", True, lambda scene: map(_element_doc, scene.elements.values())),
    ("peer_sets", True, lambda scene: map(_peer_set_doc, scene.peer_sets.values())),
    ("scales", True, lambda scene: map(_scale_doc, scene.scales.values())),
    ("encodings", True, lambda scene: map(_encoding_doc, scene.encodings.values())),
    ("sync_groups", True, lambda scene: ({"id": gid, "scales": list(ids)}
                                         for gid, ids in scene.sync_groups.items())),
    ("constraints", True, lambda scene: ({"id": c.id, "kind": c.kind, "params": c.params}
                                         for c in scene.constraints.values())),
    ("aux", True, lambda scene: map(_aux_doc, scene.aux)),
    ("view", False, lambda scene: _view_doc(scene.view)),
)


def serialize_scene(scene: Scene) -> str:
    """The scene's document as ``json.dumps(document, indent=2)`` writes it,
    plus a newline. Each record is built and turned into text before the next
    is built, so the text is never held next to a whole document tree."""
    if scene.dirty.any():
        scene.propagate()
    out = []
    sep = "{\n  "
    for key, records, value in _DOCUMENT:
        out.append(f'{sep}"{key}": ')
        sep = ",\n  "
        if not records:
            out.append(_dump(value(scene), "\n  "))
            continue
        item_sep = "[\n    "
        for record in value(scene):
            out.append(item_sep)
            out.append(_dump(record, "\n    "))
            item_sep = ",\n    "
        out.append("\n  ]" if item_sep == ",\n    " else "[]")
    out.append("\n}\n")
    return "".join(out)


# With an indent, json.dumps leaves its C encoder for a generic pure-Python
# one; this emitter writes the same text with less work. Exact str, int and
# float values take a fast path inside containers; anything else is tested in
# the order json's encoder tests types, so subclasses, non-str keys and
# unsupported values come out (or fail) as json.dumps has them.

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dump_json(value) -> str:
    """The text ``json.dumps`` returns for value with an indent of 2."""
    return _dump(value, "\n")


def _dump(value, nl) -> str:
    """dump_json's text for a value on a line that nl begins."""
    out = []
    try:
        _emit(value, out, nl)
    except RecursionError:
        if _circular(value):
            raise ValueError("Circular reference detected") from None
        raise
    return "".join(out)


def _float(value) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _emit(o, out, nl):
    """Append o's text; nl is the newline and indent of the line o is on."""
    t = type(o)
    if t is dict:
        _emit_dict(o, out, nl)
    elif t is list or t is tuple:
        _emit_list(o, out, nl)
    elif isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float(o))
    elif isinstance(o, (list, tuple)):
        _emit_list(o, out, nl)
    elif isinstance(o, dict):
        _emit_dict(o, out, nl)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _emit_dict(d, out, nl):
    if not d:
        out.append("{}")
        return
    inner = nl + "  "
    comma = "," + inner
    sep = "{" + inner
    for k, v in d.items():
        key = encode_basestring_ascii(k if type(k) is str else _key(k))
        t = type(v)
        if t is str:
            out.append(f"{sep}{key}: {encode_basestring_ascii(v)}")
        elif t is int:
            out.append(f"{sep}{key}: {v}")
        elif t is float:
            out.append(f"{sep}{key}: {_float(v)}")
        else:
            out.append(f"{sep}{key}: ")
            _emit(v, out, inner)
        sep = comma
    out.append(nl + "}")


def _emit_list(items, out, nl):
    if not items:
        out.append("[]")
        return
    inner = nl + "  "
    comma = "," + inner
    sep = "[" + inner
    for v in items:
        t = type(v)
        if t is str:
            out.append(sep + encode_basestring_ascii(v))
        elif t is int:
            out.append(f"{sep}{v}")
        elif t is float:
            out.append(sep + _float(v))
        else:
            out.append(sep)
            _emit(v, out, inner)
        sep = comma
    out.append(nl + "]")


def _key(k) -> str:
    """A non-str dict key as json coerces it, before quoting."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _circular(value) -> bool:
    """Whether a container holds itself (json raises ValueError for that)."""
    on_path, stack = set(), [(value, False)]
    while stack:
        o, leaving = stack.pop()
        if leaving:
            on_path.discard(id(o))
        elif isinstance(o, (list, tuple, dict)):
            if id(o) in on_path:
                return True
            on_path.add(id(o))
            stack.append((o, True))
            stack.extend((v, False) for v in (o.values() if isinstance(o, dict) else o))
    return False


# -------------------------------------------------------------- deserialize


# Readers for the fields the structural checks hash or compute with; a
# field's path is only formatted on an error. `memo` maps each str and scope
# key a load met to its first object, so equal values become one (see
# deserialize_scene).


def _id(doc, path) -> str:
    """A record's id, which must be a non-empty string."""
    record_id = doc.get("id") if isinstance(doc, dict) else None
    if not isinstance(record_id, str) or not record_id:
        raise SceneFormatError(f"missing or invalid id {record_id!r}", path)
    return record_id


def _ids(doc, key, memo, path="") -> list:
    value = doc.get(key, [])
    if not isinstance(value, list) or not set(map(type, value)) <= {str}:
        raise SceneFormatError("expected a list of id strings",
                               f"{path}.{key}" if path else key)
    share = memo.setdefault
    return [share(v, v) for v in value]


def _field(doc, key, path, types, default=None):
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, types):
        raise SceneFormatError(f"unexpected value {value!r}", f"{path}.{key}")
    return value


def _channels(doc, path, memo) -> dict:
    share = memo.setdefault
    return {k: share(v, v) if type(v) is str else v
            for k, v in _field(doc, "channels", path, dict, {}).items()}


_ID_OR_NONE = (str, type(None))
_NUMBER = (int, float)


def _parse_scope(record, path, memo):
    doc = record.get("scope")
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise SceneFormatError("scope must be an object", f"{path}.scope")
    name, table = doc.get("dataset"), doc.get("table", "items")
    indices = doc.get("indices", [])
    # DataScope sorts its indices; whether they name rows is a structural check
    if not (isinstance(name, str) and isinstance(table, str) and isinstance(indices, list)
            and set(map(type, indices)) <= {int}):
        raise SceneFormatError("a scope needs dataset and table names and integer indices",
                               f"{path}.scope")
    key = (name, table, tuple(indices))
    scope = memo.get(key)
    if scope is None:
        scope = memo[key] = DataScope(memo.setdefault(name, name), key[2],
                                      memo.setdefault(table, table))
    return scope


def _parse_dataset(doc, path, memo):
    attributes = [AttributeDef(a["name"], a.get("kind", "nominal"),
                               a.get("declared_order"))
                  for a in doc.get("attributes", [])]
    name = memo.setdefault(doc["name"], doc["name"])
    if doc.get("kind") == "network":
        return Network(name, attributes, list(doc.get("items", [])),
                       list(doc.get("links", [])), doc.get("id_attribute", "id"))
    return Table(name, attributes, list(doc.get("items", [])))


def deserialize_scene(source) -> Scene:
    """Rebuild a live scene from a document produced by serialize_scene.

    Equal strings among ids, dataset, table and peer-set names, kinds and
    channel values become one object, and so do equal data scopes. When
    ``source`` is text, each element record is let go once its element is
    built; a document passed as a dict is left as it is. A document without
    an id loads as ``scene-1``.

    Raises SceneFormatError on a record it cannot build, or on the first
    problem of the structural checks, with the path of the record."""
    parsed = isinstance(source, (bytes, str))
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if parsed:
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as e:
            raise SceneFormatError(f"not valid JSON: {e}") from e
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SceneFormatError("document must be a JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise SceneFormatError(
            f"unsupported format version {doc.get('version')!r}; "
            f"expected {FORMAT_VERSION!r}", "version")

    memo = {}
    share = memo.setdefault
    scene = Scene(doc.get("id") or "scene-1")
    for i, ds_doc in enumerate(doc.get("datasets", [])):
        ds = _parse_dataset(ds_doc, f"datasets[{i}]", memo)
        scene.datasets[ds.name] = ds

    el_docs = doc.get("elements", [])
    for i, el_doc in enumerate(el_docs):
        path = f"elements[{i}]"
        el_id = _id(el_doc, path)
        el_id = share(el_id, el_id)
        if el_id in scene.elements:
            raise SceneFormatError(f"duplicate element id {el_id!r}", path)
        if el_doc.get("kind") == "mark":
            el = _parse_mark(el_doc, path, el_id, memo)
        elif el_doc.get("kind") in GROUP_KINDS:
            el = _parse_group(el_doc, path, el_id, memo)
        else:
            raise SceneFormatError(f"unknown element kind {el_doc.get('kind')!r}", path)
        parent = _field(el_doc, "parent", path, _ID_OR_NONE)
        el.parent = share(parent, parent)
        peer_set = _field(el_doc, "peer_set", path, _ID_OR_NONE)
        el.peer_set = share(peer_set, peer_set)
        el.z_index = el_doc.get("z_index", 0)
        scene.adopt(el)
        if parsed:
            el_docs[i] = None
    scene.roots = _ids(doc, "roots", memo)

    for i, ps_doc in enumerate(doc.get("peer_sets", [])):
        path = f"peer_sets[{i}]"
        ps_id = _id(ps_doc, path)
        ps_id = share(ps_id, ps_id)
        if ps_id in scene.peer_sets:
            raise SceneFormatError(f"duplicate peer set id {ps_id!r}", path)
        scene.peer_sets[ps_id] = PeerSet(ps_id, _ids(ps_doc, "members", memo, path),
                                         ps_doc.get("provenance"))

    for i, s_doc in enumerate(doc.get("scales", [])):
        path = f"scales[{i}]"
        if s_doc.get("kind") not in SCALE_KINDS:
            raise SceneFormatError(f"unknown scale kind {s_doc.get('kind')!r}", path)
        scale = Scale(s_doc["id"], s_doc["kind"], list(s_doc.get("domain", [])),
                      list(s_doc.get("range", [])),
                      exponent=s_doc.get("exponent", 0.5),
                      base=s_doc.get("base", 10.0),
                      clamp=s_doc.get("clamp", True),
                      domain_explicit=s_doc.get("domain_explicit", False),
                      sync_group=s_doc.get("sync_group"))
        scene.scales[scale.id] = scale

    for i, e_doc in enumerate(doc.get("encodings", [])):
        path = f"encodings[{i}]"
        if e_doc.get("peer_set") not in scene.peer_sets:
            raise SceneFormatError(
                f"encoding references unknown peer set {e_doc.get('peer_set')!r}", path)
        if e_doc.get("scale") not in scene.scales:
            raise SceneFormatError(
                f"encoding references unknown scale {e_doc.get('scale')!r}", path)
        enc = Encoding(e_doc["id"], e_doc["peer_set"], e_doc["channel"],
                       e_doc["attribute"], e_doc["scale"], e_doc.get("aggregator"))
        scene.encodings[enc.id] = enc
        scene.scales[enc.scale].shared_by.append(enc.id)

    for g_doc in doc.get("sync_groups", []):
        scene.sync_groups[g_doc["id"]] = list(g_doc.get("scales", []))

    for c_doc in doc.get("constraints", []):
        spec = ConstraintSpec(c_doc["id"], c_doc["kind"], dict(c_doc.get("params", {})))
        scene.constraints[spec.id] = spec

    for a_doc in doc.get("aux", []):
        aux = AuxiliaryElement(a_doc["id"], a_doc["kind"],
                               channel=a_doc.get("channel"),
                               scale=a_doc.get("scale"),
                               placement=a_doc.get("placement", "bottom"),
                               offset=a_doc.get("offset", 20.0),
                               text=a_doc.get("text"),
                               x=a_doc.get("x", 0.0), y=a_doc.get("y", 0.0),
                               props=dict(a_doc.get("props", {})))
        if aux.scale is not None and aux.scale not in scene.scales:
            raise SceneFormatError(f"aux references unknown scale {aux.scale!r}")
        scene.aux.append(aux)

    view = doc.get("view", {})
    scene.view = ViewConfig(tuple(view.get("focus", (0.0, 0.0))),
                            view.get("zoom", 1.0), view.get("rotation", 0.0),
                            tuple(view["field_of_view"]) if view.get("field_of_view") else None)
    if scene.view.zoom <= 0:
        raise SceneFormatError("zoom must be positive", "view.zoom")

    for name, check in STRUCTURAL_CHECKS:
        for owner, message in check(scene):
            raise SceneFormatError(f"{name}: {message}", _record_path(scene, owner))
    scene.bump_counter()
    scene.dirty.clear()
    return scene


def _record_path(scene, owner) -> str:
    """The document path of the record a structural problem names."""
    if isinstance(owner, int):
        return f"roots[{owner}]"
    for table, records in (("elements", scene.elements), ("peer_sets", scene.peer_sets)):
        for i, record_id in enumerate(records):
            if record_id == owner:
                return f"{table}[{i}]"
    return ""


def _parse_mark(doc, path, mark_id, memo) -> Mark:
    mark_type = doc.get("type")
    if mark_type not in MARK_TYPES:
        raise SceneFormatError(f"unknown mark type {mark_type!r}", path)
    share = memo.setdefault
    channels = _channels(doc, path, memo)
    for c in ("width", "height"):
        _field(channels, c, f"{path}.channels", _NUMBER, 0)
    mark = Mark(mark_id, share(mark_type, mark_type), channels,
                source_node=doc.get("source_node"),
                target_node=doc.get("target_node"),
                tree_parent=doc.get("tree_parent"))
    mark.data_scope = _parse_scope(doc, path, memo)
    for j, v_doc in enumerate(doc.get("vertices", [])):
        v_path = f"{path}.vertices[{j}]"
        vertex_id = _id(v_doc, v_path)
        peer_set = v_doc.get("peer_set")
        vertex = Vertex(share(vertex_id, vertex_id), _field(v_doc, "x", v_path, _NUMBER, 0.0),
                        _field(v_doc, "y", v_path, _NUMBER, 0.0),
                        _parse_scope(v_doc, v_path, memo),
                        share(peer_set, peer_set) if type(peer_set) is str else peer_set)
        mark.vertices.append(vertex)
    for j, s_doc in enumerate(doc.get("segments", [])):
        s_path = f"{path}.segments[{j}]"
        kind = s_doc.get("kind", "line")
        seg = Segment(_id(s_doc, s_path), tuple(_ids(s_doc, "endpoints", memo, s_path)),
                      share(kind, kind) if type(kind) is str else kind,
                      _channels(s_doc, s_path, memo))
        mark.segments.append(seg)
    return mark


def _parse_group(doc, path, group_id, memo) -> Group:
    group = Group(group_id, memo.setdefault(doc["kind"], doc["kind"]),
                  members=_ids(doc, "members", memo, path),
                  channels=_channels(doc, path, memo),
                  layout=doc.get("layout"),
                  layout_default=doc.get("layout_default", False),
                  provenance=doc.get("provenance"))
    offset = doc.get("offset", [0.0, 0.0])
    if not (isinstance(offset, list) and len(offset) == 2
            and all(type(v) in _NUMBER for v in offset)):
        raise SceneFormatError(f"unexpected value {offset!r}", f"{path}.offset")
    group.tx, group.ty = offset
    group.data_scope = _parse_scope(doc, path, memo)
    if group.layout is not None:
        try:
            group.layout = normalize_layout(group.layout)
        except LayoutError as e:
            raise SceneFormatError(str(e), f"{path}.layout") from None
    return group


# ------------------------------------------------------------------- export


def export_dsvg(scene: Scene, width: int = 640, height: int = 480,
                background: str | None = None) -> str:
    """SVG with data annotations: every mark carries ``data-id``, a ``class``
    naming its type and group path, and ``data-datum`` holding its scope's
    attribute values as JSON."""
    return render(scene, width, height, background, annotate=True)
