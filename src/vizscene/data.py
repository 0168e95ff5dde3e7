"""Tabular and network datasets: ingestion, grouping and aggregation.

Datasets are immutable after import. Visual elements reference rows through
``(dataset id, row index)`` pairs, so row order is preserved exactly as read.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import date, datetime

from .errors import DataError

KINDS = ("nominal", "ordinal", "quantitative", "temporal")

AGGREGATORS = ("max", "min", "count", "sum", "mean")


@dataclass
class AttributeDef:
    name: str
    kind: str = "nominal"
    declared_order: list | None = None


@dataclass
class Table:
    """An ordered set of rows, each holding one value per declared attribute."""

    name: str
    attributes: list[AttributeDef] = field(default_factory=list)
    items: list[dict] = field(default_factory=list)

    def attribute(self, name: str) -> AttributeDef:
        for a in self.attributes:
            if a.name == name:
                return a
        raise DataError(f"unknown attribute {name!r} in dataset {self.name!r}")

    def has_attribute(self, name: str) -> bool:
        return any(a.name == name for a in self.attributes)

    @property
    def attribute_names(self) -> list[str]:
        return [a.name for a in self.attributes]


@dataclass
class Network(Table):
    """Items plus links between them; a tree is a network whose links form
    a single-rooted parent-child hierarchy."""

    links: list[dict] = field(default_factory=list)
    id_attribute: str = "id"

    def item_index(self, item_id):
        try:
            return self._index[item_id]
        except AttributeError:
            self._index = {row[self.id_attribute]: i for i, row in enumerate(self.items)}
            return self._index[item_id]

    def validate_tree(self) -> int:
        """Check single-rooted acyclic parent-child structure; returns the depth."""
        n = len(self.items)
        parent = [None] * n
        children = [[] for _ in range(n)]
        for k, link in enumerate(self.links):
            s = self.item_index(link["source"])
            t = self.item_index(link["target"])
            if parent[t] is not None:
                raise DataError(f"not a tree: item {self.items[t][self.id_attribute]!r} has two parents")
            parent[t] = s
            children[s].append(t)
        roots = [i for i in range(n) if parent[i] is None]
        if len(roots) != 1:
            raise DataError(f"not a tree: expected exactly one root, found {len(roots)}")
        depth = 0
        seen = set()
        stack = [(roots[0], 1)]
        while stack:
            node, d = stack.pop()
            if node in seen:
                raise DataError("not a tree: cycle detected")
            seen.add(node)
            depth = max(depth, d)
            for c in children[node]:
                stack.append((c, d + 1))
        if len(seen) != n:
            raise DataError("not a tree: disconnected items present")
        return depth


def _parse_number(text: str):
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _parse_temporal(text: str) -> bool:
    for parser in (datetime.fromisoformat, date.fromisoformat):
        try:
            parser(text)
            return True
        except ValueError:
            continue
    return False


def _infer_kind(cells: list[str]) -> str:
    # quantitative iff every non-empty cell is a finite number; temporal iff
    # every non-empty cell is ISO-8601; otherwise nominal.
    non_empty = [c for c in cells if c != ""]
    if non_empty and all(_parse_number(c) is not None for c in non_empty):
        return "quantitative"
    if non_empty and all(_parse_temporal(c) for c in non_empty):
        return "temporal"
    return "nominal"


def import_table(source, name: str = "table", *, delimiter: str = ",",
                 header: bool = True, names: list[str] | None = None,
                 kinds: dict[str, str] | None = None,
                 orders: dict[str, list] | None = None) -> Table:
    """Parse CSV bytes or text into a :class:`Table` with inferred column kinds.

    ``kinds`` overrides inference per column; ``orders`` supplies the declared
    value order for ordinal columns.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    rows = list(csv.reader(io.StringIO(source), delimiter=delimiter))
    rows = [r for r in rows if r]  # ignore fully blank lines
    if not rows:
        raise DataError("empty CSV input")
    if header:
        columns = [c.strip() for c in rows[0]]
        data_rows, first_line = rows[1:], 2
    else:
        if not names:
            raise DataError("CSV has no header row and no column names were supplied")
        columns = list(names)
        data_rows, first_line = rows, 1
    if len(set(columns)) != len(columns):
        raise DataError("duplicate column names in CSV header")
    for i, r in enumerate(data_rows):
        if len(r) != len(columns):
            raise DataError(
                f"malformed CSV row at line {first_line + i}: "
                f"expected {len(columns)} fields, got {len(r)}")

    cells = [[r[j].strip() for r in data_rows] for j in range(len(columns))]
    kinds = kinds or {}
    orders = orders or {}
    attributes = []
    for j, col in enumerate(columns):
        kind = kinds.get(col) or _infer_kind(cells[j])
        if kind not in KINDS:
            raise DataError(f"unknown attribute kind {kind!r} for column {col!r}")
        attributes.append(AttributeDef(col, kind, orders.get(col)))

    items = []
    for r in data_rows:
        row = {}
        for j, col in enumerate(columns):
            cell = r[j].strip()
            if cell == "":
                row[col] = None
            elif attributes[j].kind == "quantitative":
                row[col] = _parse_number(cell)
            else:
                row[col] = cell
        items.append(row)

    table = Table(name, attributes, items)
    for a in attributes:
        if a.kind == "ordinal" and a.declared_order is not None:
            column = {row[a.name] for row in items if row[a.name] is not None}
            missing = column - set(a.declared_order)
            if missing:
                raise DataError(
                    f"ordinal column {a.name!r} has values outside its declared order: "
                    f"{sorted(map(str, missing))}")
    return table


def export_csv(table: Table, *, delimiter: str = ",") -> str:
    """Serialize a table back to CSV; numbers print without a trailing ``.0``."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(table.attribute_names)
    for row in table.items:
        record = []
        for a in table.attributes:
            v = row[a.name]
            if v is None:
                record.append("")
            elif isinstance(v, float) and v.is_integer():
                record.append(str(int(v)))
            else:
                record.append(str(v))
        writer.writerow(record)
    return out.getvalue()


def import_network(source, name: str = "network", *, id_attribute: str = "id") -> Network:
    """Parse ``{"nodes": [...], "links": [...]}`` JSON into a :class:`Network`."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as e:
            raise DataError(f"invalid network JSON: {e}") from e
    else:
        doc = source
    if not isinstance(doc, dict) or "nodes" not in doc or "links" not in doc:
        raise DataError("network JSON must contain 'nodes' and 'links' arrays")
    nodes = doc["nodes"]
    links = doc["links"]
    if not isinstance(nodes, list) or not isinstance(links, list):
        raise DataError("network 'nodes' and 'links' must be arrays")

    columns: list[str] = []
    ids = set()
    for k, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise DataError(f"network node {k} is not an object")
        if id_attribute not in node:
            raise DataError(f"network node {k} missing {id_attribute!r}")
        try:  # raw ids, comparable with link endpoints, not coerced by inference
            ids.add(node[id_attribute])
        except TypeError:
            raise DataError(f"network node {k} has an unhashable {id_attribute!r}: "
                            f"{node[id_attribute]!r}") from None
        for key in node:
            if key not in columns:
                columns.append(key)
    items = [{c: node.get(c) for c in columns} for node in nodes]

    attributes = []
    for c in columns:
        cells = ["" if row[c] is None else str(row[c]) for row in items]
        attributes.append(AttributeDef(c, _infer_kind(cells)))
    if len(ids) != len(nodes):
        raise DataError("duplicate node ids in network")

    parsed_links = []
    for k, link in enumerate(links):
        if not isinstance(link, dict):
            raise DataError(f"network link {k} is not an object")
        if "source" not in link or "target" not in link:
            raise DataError(f"link {k} missing source/target")
        try:
            known = link["source"] in ids and link["target"] in ids
        except TypeError:  # an unhashable endpoint names no node
            known = False
        if not known:
            raise DataError(f"link {k} references a node id that does not exist")
        parsed_links.append(dict(link))

    return Network(name, attributes, items, parsed_links, id_attribute)


def _temporal_key(value):
    for parser in (datetime.fromisoformat, date.fromisoformat):
        try:
            parsed = parser(value)
            if isinstance(parsed, date) and not isinstance(parsed, datetime):
                parsed = datetime(parsed.year, parsed.month, parsed.day)
            return parsed
        except (ValueError, TypeError):
            continue
    return datetime.max


def canonical_order(dataset, attribute: str, values):
    """Order distinct values canonically: declared order for ordinal columns,
    timestamp order for temporal ones, first appearance otherwise. An
    attribute the dataset lacks counts as nominal."""
    distinct = list(dict.fromkeys(values))
    if not dataset.has_attribute(attribute):
        return distinct
    attr = dataset.attribute(attribute)
    if attr.kind == "ordinal" and attr.declared_order is not None:
        rank = {v: i for i, v in enumerate(attr.declared_order)}
        return sorted(distinct, key=lambda v: rank.get(v, len(rank)))
    if attr.kind == "temporal":
        return sorted(distinct, key=_temporal_key)
    return distinct


def unique_values(dataset, attribute: str, indices=None) -> list:
    """Distinct values of an attribute in canonical order, optionally
    restricted to the given row indices."""
    dataset.attribute(attribute)
    if indices is None:
        indices = range(len(dataset.items))
    column = [dataset.items[i][attribute] for i in indices]
    return canonical_order(dataset, attribute, column)


def group_items(dataset, attribute: str, indices=None) -> dict:
    """Partition rows by attribute value; keys follow :func:`unique_values`."""
    if indices is None:
        indices = range(len(dataset.items))
    values = unique_values(dataset, attribute, indices)
    groups = {v: [] for v in values}
    for i in indices:
        groups[dataset.items[i][attribute]].append(i)
    return groups


def aggregate(values, aggregator: str):
    """Reduce a list of values. ``count`` tolerates anything, the rest skip
    missing entries and require at least one numeric value."""
    if aggregator not in AGGREGATORS:
        raise DataError(f"unknown aggregator {aggregator!r}")
    if aggregator == "count":
        return len(values)
    numeric = [v for v in values if isinstance(v, (int, float)) and v is not None]
    if len(numeric) != len([v for v in values if v is not None]):
        raise DataError(f"aggregator {aggregator!r} requires quantitative values")
    if not numeric:
        if aggregator == "sum":
            return 0
        raise DataError(f"aggregator {aggregator!r} on an empty list")
    if aggregator == "max":
        return max(numeric)
    if aggregator == "min":
        return min(numeric)
    if aggregator == "sum":
        return sum(numeric)
    return sum(numeric) / len(numeric)
