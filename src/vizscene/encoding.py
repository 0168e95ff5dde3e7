"""Visual encodings and scales.

An encoding binds one channel of a peer set to a data attribute through a
scale. Scales map data values to channel values and may be shared by several
encodings (one scale object) or synced (same domain, independent ranges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constraints import check_position_writers
from .data import aggregate, canonical_order
from .elements import POSITION_CHANNELS, check_channel
from .errors import EncodingError, LayoutError, SceneError

SCALE_KINDS = ("linear", "power", "log", "ordinal-point", "band",
               "color-categorical", "color-sequential", "identity")

CATEGORY10 = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
              "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

SEQUENTIAL_BLUES = ("#deebf7", "#08306b")

# default output ranges when a scale is inferred rather than supplied
DEFAULT_RANGES = {
    "width": (0, 100), "height": (0, 100),
    "radius": (0, 50), "outer_radius": (0, 50), "inner_radius": (0, 50),
    "angle": (0, 360), "start_angle": (0, 360),
    "x": (0, 300), "y": (0, 300), "x2": (0, 300), "y2": (0, 300),
    "font_size": (8, 32), "opacity": (0, 1), "stroke_width": (0, 10),
}

POSITIONAL = ("x", "y", "x2", "y2")


@dataclass
class Scale:
    id: str
    kind: str
    domain: list = field(default_factory=list)
    range: list = field(default_factory=list)
    exponent: float = 0.5
    base: float = 10.0
    clamp: bool = True
    domain_explicit: bool = False
    sync_group: str | None = None
    shared_by: list = field(default_factory=list)  # encoding ids


@dataclass
class Encoding:
    id: str
    peer_set: str
    channel: str
    attribute: str
    scale: str
    aggregator: str | None = None


def parse_color(color: str):
    c = color.lstrip("#")
    if len(c) == 3:
        c = "".join(ch * 2 for ch in c)
    if len(c) != 6:
        raise EncodingError(f"cannot parse color {color!r}")
    return tuple(int(c[i:i + 2], 16) for i in (0, 2, 4))


def format_color(rgb) -> str:
    return "#%02x%02x%02x" % tuple(int(round(v)) for v in rgb)


def _transform(kind: str, v: float, exponent: float, base: float) -> float:
    if kind == "power":
        return math.copysign(abs(v) ** exponent, v)
    if kind == "log":
        if v <= 0:
            raise EncodingError("log scale applied to a non-positive value")
        return math.log(v) / math.log(base)
    return v


def scale_apply(scale: Scale, value):
    """Map one data value through a scale to a channel value."""
    kind = scale.kind
    if kind == "identity":
        return value
    if kind in ("linear", "power", "log"):
        d0, d1 = scale.domain
        if kind == "log" and value <= 0:
            raise EncodingError("log scale applied to a non-positive value")
        v = min(max(value, d0), d1) if scale.clamp else value
        t0 = _transform(kind, d0, scale.exponent, scale.base)
        t1 = _transform(kind, d1, scale.exponent, scale.base)
        tv = _transform(kind, v, scale.exponent, scale.base)
        n = 0.0 if t1 == t0 else (tv - t0) / (t1 - t0)
        r0, r1 = scale.range
        return r0 + n * (r1 - r0)
    if kind == "band":
        if value not in scale.domain:
            raise EncodingError(f"value {value!r} not in band scale domain")
        idx = scale.domain.index(value)
        r0, r1 = scale.range
        step = (r1 - r0) / len(scale.domain)
        return r0 + idx * step
    if kind == "ordinal-point":
        if value not in scale.domain:
            raise EncodingError(f"value {value!r} not in point scale domain")
        idx = scale.domain.index(value)
        r0, r1 = scale.range
        if len(scale.domain) == 1:
            return (r0 + r1) / 2
        return r0 + idx * (r1 - r0) / (len(scale.domain) - 1)
    if kind == "color-categorical":
        if value not in scale.domain:
            raise EncodingError(f"value {value!r} not in categorical scale domain")
        palette = scale.range or list(CATEGORY10)
        return palette[scale.domain.index(value) % len(palette)]
    if kind == "color-sequential":
        d0, d1 = scale.domain
        v = min(max(value, d0), d1)
        n = 0.0 if d1 == d0 else (v - d0) / (d1 - d0)
        stops = [parse_color(c) for c in (scale.range or SEQUENTIAL_BLUES)]
        pos = n * (len(stops) - 1)
        i = min(int(pos), len(stops) - 2)
        f = pos - i
        rgb = [stops[i][k] + f * (stops[i + 1][k] - stops[i][k]) for k in range(3)]
        return format_color(rgb)
    raise EncodingError(f"unknown scale kind {kind!r}")


def band_width(scale: Scale) -> float:
    if scale.kind != "band":
        raise EncodingError("band_width needs a band scale")
    r0, r1 = scale.range
    return (r1 - r0) / max(len(scale.domain), 1)


# --------------------------------------------------------------- application


def encoding_peers(scene, enc: Encoding):
    return [scene.resolve(m) for m in scene.peer_sets[enc.peer_set].members]


def peer_value(scene, peer, attribute: str, aggregator: str | None):
    values = scene.scope_values(peer, attribute)
    if aggregator is not None:
        return aggregate(values, aggregator)
    present = [v for v in values if v is not None]
    if not present:
        raise EncodingError(f"element {peer.id} has no value for {attribute!r}")
    if all(v == present[0] for v in present):
        return present[0]
    raise EncodingError(
        f"element {peer.id} holds several {attribute!r} values; pass an aggregator")


def _observed_values(scene, enc: Encoding):
    return [peer_value(scene, p, enc.attribute, enc.aggregator)
            for p in encoding_peers(scene, enc)]


def infer_scale(channel: str, attribute_kind: str, values, dataset, attribute) -> Scale:
    """Pick a scale for a channel/attribute pair, mirroring common chart
    defaults. The scale has no id yet: the caller allocates one once nothing
    else can fail."""
    if channel == "text":
        return Scale("", "identity")
    if attribute_kind == "quantitative":
        numeric = [v for v in values if v is not None]
        lo, hi = (min(numeric), max(numeric)) if numeric else (0, 1)
        if channel in ("fill", "stroke"):
            return Scale("", "color-sequential", [lo, hi], list(SEQUENTIAL_BLUES))
        domain = [lo, hi] if channel in POSITIONAL else [min(0, lo), hi]
        return Scale("", "linear", domain, list(DEFAULT_RANGES.get(channel, (0, 100))))
    # nominal / ordinal / temporal
    categories = canonical_order(dataset, attribute, values)
    if channel in ("fill", "stroke"):
        return Scale("", "color-categorical", categories, list(CATEGORY10))
    if channel in POSITIONAL:
        return Scale("", "band", categories, list(DEFAULT_RANGES[channel]))
    if channel in ("font_size", "width", "height", "radius", "opacity",
                   "angle", "stroke_width", "outer_radius", "inner_radius"):
        return Scale("", "ordinal-point", categories,
                     list(DEFAULT_RANGES.get(channel, (0, 100))))
    raise EncodingError(
        f"cannot infer a scale for channel {channel!r} with {attribute_kind} data")


def apply_encoding(scene, element, channel: str, attribute: str,
                   scale: Scale | str | None = None,
                   aggregator: str | None = None) -> Encoding:
    el = scene.resolve(element)
    peers = scene.peers_of(el)
    for peer in peers:
        check_channel(peer, channel)
        scope = peer.data_scope
        if scope is None:
            raise EncodingError(f"element {peer.id} has no data scope")
        dataset = scene.dataset(scope.dataset)
        if scope.table == "items" and not dataset.has_attribute(attribute):
            raise EncodingError(
                f"attribute {attribute!r} missing from scope of {peer.id}")
    bound = scene.channel_owner_encoding(el, channel)
    if bound is not None:
        raise EncodingError(
            f"channel {channel!r} already encoded for this peer set ({bound.id})")
    if channel in POSITION_CHANNELS:
        check_position_writers(scene, ((p, channel) for p in peers),
                               f"encode {channel}", EncodingError,
                               layout_error=LayoutError)
    scope = el.data_scope
    dataset = scene.dataset(scope.dataset)
    values = [peer_value(scene, p, attribute, aggregator) for p in peers]
    if isinstance(scale, str):
        if scale not in scene.scales:
            raise SceneError(f"unknown scale {scale!r}")
        scale = scene.scales[scale]
    inferred = scale is None
    if inferred:
        if scope.table == "items" and dataset.has_attribute(attribute):
            kind = dataset.attribute(attribute).kind
        elif all(isinstance(v, (int, float)) for v in values):
            kind = "quantitative"
        else:
            kind = "nominal"
        scale = infer_scale(channel, kind, values, dataset, attribute)
    # nothing below can fail; the peer set's id comes before an inferred scale's
    if el.peer_set is None:
        scene.make_peer_set([el])
    if inferred:
        scale.id = scene.make_id("scale")
    scene.scales.setdefault(scale.id, scale)

    enc = Encoding(scene.make_id("enc"), el.peer_set, channel, attribute,
                   scale.id, aggregator)
    scene.encodings[enc.id] = enc
    scale.shared_by.append(enc.id)
    scene.dirty.encodings.add(enc.id)
    scene.maybe_propagate()
    return enc


def remove_encoding(scene, encoding) -> None:
    enc_id = encoding.id if isinstance(encoding, Encoding) else encoding
    enc = scene.encodings.pop(enc_id, None)
    if enc is None:
        raise EncodingError(f"unknown encoding {enc_id!r}")
    scale = scene.scales.get(enc.scale)
    if scale and enc_id in scale.shared_by:
        scale.shared_by.remove(enc_id)


def evaluate_encoding(scene, enc: Encoding):
    """Recompute every peer's channel from its scope value.

    Returns (sized, moved): ids whose extent or position actually changed.
    """
    scale = scene.scales[enc.scale]
    sized, moved = set(), set()
    for peer in encoding_peers(scene, enc):
        value = peer_value(scene, peer, enc.attribute, enc.aggregator)
        out = scale_apply(scale, value)
        if enc.channel == "text":
            out = _format_text(out)
        if scene.write_channel(peer, enc.channel, out):
            owner, is_sized = scene.dirty_target(peer, enc.channel)
            (sized if is_sized else moved).add(owner)
    return sized, moved


def _format_text(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def validate_scale_patch(scale: Scale, patch: dict):
    kind = patch.get("kind", scale.kind)
    if kind not in SCALE_KINDS:
        raise EncodingError(f"unknown scale kind {kind!r}")
    domain = patch.get("domain", scale.domain)
    if kind in ("linear", "power", "log", "color-sequential"):
        if len(domain) != 2 or not all(isinstance(v, (int, float)) for v in domain):
            raise EncodingError("numeric scales need a [min, max] domain")
        if domain[0] > domain[1]:
            raise EncodingError("scale domain must have min <= max")
        if kind == "log" and (domain[0] <= 0 or domain[1] <= 0):
            raise EncodingError("log scale domain must exclude zero")
    rng = patch.get("range", scale.range)
    if kind in ("linear", "power", "log", "band", "ordinal-point"):
        if len(rng) != 2 or not all(isinstance(v, (int, float)) for v in rng):
            raise EncodingError("this scale kind needs a numeric [start, end] range")


def customize_scale(scene, scale, patch: dict) -> Scale:
    scale = scene.scales[scale] if isinstance(scale, str) else scale
    validate_scale_patch(scale, patch)
    if "kind" in patch:
        scale.kind = patch["kind"]
    if "exponent" in patch:
        scale.exponent = patch["exponent"]
    if "base" in patch:
        scale.base = patch["base"]
    if "range" in patch:
        scale.range = list(patch["range"])
    if "domain" in patch:
        scale.domain = list(patch["domain"])
        scale.domain_explicit = True
        if scale.sync_group:
            for sid in scene.sync_groups.get(scale.sync_group, []):
                other = scene.scales[sid]
                if other is not scale:
                    other.domain = list(patch["domain"])
                    other.domain_explicit = True
                    scene.dirty.scales.add(sid)
    scene.dirty.scales.add(scale.id)
    scene.maybe_propagate()
    return scale


def _kinds_compatible(kind_a: str, kind_b: str) -> bool:
    discrete = {"nominal", "ordinal"}
    if kind_a in discrete and kind_b in discrete:
        return True
    return kind_a == kind_b


def _encoding_dataset_kind(scene, enc: Encoding):
    peers = encoding_peers(scene, enc)
    scope = peers[0].data_scope
    dataset = scene.dataset(scope.dataset)
    if scope.table == "items" and dataset.has_attribute(enc.attribute):
        return dataset.attribute(enc.attribute).kind
    return "nominal"


def unify_domain(scale: Scale, value_lists):
    """Extent hull for numeric domains, ordered union for categorical ones."""
    if scale.kind in ("linear", "power", "log", "color-sequential"):
        flat = [v for vs in value_lists for v in vs if v is not None]
        if flat:
            scale.domain = [min(flat), max(flat)]
    else:
        merged = []
        for vs in value_lists:
            for v in vs:
                if v not in merged:
                    merged.append(v)
        scale.domain = merged


def share_scale(scene, encoding_a, encoding_b) -> Scale:
    enc_a = scene.encodings[encoding_a.id if isinstance(encoding_a, Encoding) else encoding_a]
    enc_b = scene.encodings[encoding_b.id if isinstance(encoding_b, Encoding) else encoding_b]
    if enc_a.scale == enc_b.scale:
        return scene.scales[enc_a.scale]
    if not _kinds_compatible(_encoding_dataset_kind(scene, enc_a),
                             _encoding_dataset_kind(scene, enc_b)):
        raise EncodingError("cannot share a scale across attribute kinds")
    scale = scene.scales[enc_a.scale]
    old = scene.scales[enc_b.scale]
    old.shared_by.remove(enc_b.id)
    if not old.shared_by:
        del scene.scales[old.id]
    enc_b.scale = scale.id
    scale.shared_by.append(enc_b.id)
    unify_domain(scale, [_observed_values(scene, enc_a), _observed_values(scene, enc_b)])
    scene.dirty.scales.add(scale.id)
    scene.maybe_propagate()
    return scale


def sync_scales(scene, scale_ids) -> str:
    scales = [scene.scales[s if isinstance(s, str) else s.id] for s in scale_ids]
    if not scales:
        raise EncodingError("sync_scales needs at least one scale")
    if len({s.kind for s in scales}) > 1:
        raise EncodingError("synced scales must have the same kind")
    group_id = scene.make_id("sync")
    scene.sync_groups[group_id] = [s.id for s in scales]
    unify_domain(scales[0], [list(s.domain) for s in scales])
    for s in scales:
        s.sync_group = group_id
        s.domain = list(scales[0].domain)
        scene.dirty.scales.add(s.id)
    scene.maybe_propagate()
    return group_id


def reinfer_domain(scene, scale: Scale):
    """Refresh an inferred domain from current data (used after repopulate)."""
    if scale.domain_explicit or scale.kind == "identity":
        return
    encs = [scene.encodings[e] for e in scale.shared_by if e in scene.encodings]
    if not encs:
        return
    if len(encs) == 1:
        enc = encs[0]
        values = _observed_values(scene, enc)
        if scale.kind in ("linear", "power", "log"):
            numeric = [v for v in values if v is not None]
            if numeric:
                lo, hi = min(numeric), max(numeric)
                scale.domain = ([lo, hi] if enc.channel in POSITIONAL
                                else [min(0, lo), hi])
        elif scale.kind == "color-sequential":
            numeric = [v for v in values if v is not None]
            if numeric:
                scale.domain = [min(numeric), max(numeric)]
        else:
            peers = encoding_peers(scene, enc)
            dataset = scene.dataset(peers[0].data_scope.dataset)
            scale.domain = canonical_order(dataset, enc.attribute, values)
    else:
        unify_domain(scale, [_observed_values(scene, e) for e in encs])
