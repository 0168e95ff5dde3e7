"""Command-line front end.

Commands: ``render`` executes a pipeline over bound data files and writes
SVG/JSON/dSVG; ``repopulate`` applies a saved scene as a template to new
data; ``validate`` checks a scene document's invariants; ``export-dsvg``
re-emits a scene document as annotated SVG.

Exit codes: 0 success, 1 operation error, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from pathlib import Path

from .data import import_network, import_table
from .elements import Group
from .errors import DataError, PipelineError, SceneFormatError, VizSceneError
from .generate import repopulate
from .pipeline import execute_pipeline, load_pipeline
from .sceneio import deserialize_scene, export_dsvg, serialize_scene
from .svgrender import render
from .validate import passed, validate_scene

EXIT_OK = 0
EXIT_OPERATION = 1
EXIT_IO = 2


def _load_dataset(name: str, path: str):
    raw = Path(path).read_bytes()
    if path.endswith(".json"):
        return import_network(raw, name)
    return import_table(raw, name)


def _parse_data_flags(pairs):
    data = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--data expects name=path, got {item!r}")
        name, path = item.split("=", 1)
        data[name] = _load_dataset(name, path)
    return data


def _write_out(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _format_scene(scene, fmt: str, args) -> str:
    if fmt == "json":
        return serialize_scene(scene)
    if fmt == "dsvg":
        return export_dsvg(scene, args.width, args.height, args.background)
    return render(scene, args.width, args.height, args.background)


def cmd_render(args) -> int:
    try:
        steps = load_pipeline(args.pipeline)
        data = _parse_data_flags(args.data)
    except (OSError, ValueError, DataError, PipelineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        ctx = execute_pipeline(steps, data, verbose=args.verbose)
    except PipelineError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_OPERATION
    if args.verbose:
        for report in ctx.reports:
            print(json.dumps(report), file=sys.stderr)
    try:
        _write_out(_format_scene(ctx.scene, args.format, args), args.out)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _template_target(scene, target: str | None):
    if target:
        el = scene.get(target)
        if not isinstance(el, Group) or el.group_kind != "collection":
            raise VizSceneError(f"{target!r} is not a collection")
        return el
    queue = deque(scene.elements[r] for r in scene.roots)
    while queue:
        el = queue.popleft()
        if isinstance(el, Group):
            if el.group_kind == "collection" and el.provenance:
                return el
            queue.extend(scene.elements[m] for m in el.members)
    raise VizSceneError("no collection with generative provenance found; pass --target")


def cmd_repopulate(args) -> int:
    try:
        source = Path(args.scene).read_text()
        data = _parse_data_flags(args.data)
        pairs = [tuple(m.split("=", 1)) for m in args.map or []]
        if any(len(p) != 2 for p in pairs):
            raise ValueError("--map expects new_attr=current_attr")
    except (OSError, ValueError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        scene = deserialize_scene(source)
        if len(data) != 1:
            raise VizSceneError("repopulate needs exactly one --data binding")
        name, dataset = next(iter(data.items()))
        scene.add_dataset(dataset, name)
        target = _template_target(scene, args.target)
        repopulate(scene, target, name, pairs)
        _write_out(_format_scene(scene, args.format, args), args.out)
    except SceneFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except VizSceneError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_OPERATION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        source = Path(args.scene).read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        scene = deserialize_scene(source)
    except SceneFormatError as e:
        print(f"invalid scene document: {e}", file=sys.stderr)
        return EXIT_OPERATION
    report = validate_scene(scene)
    for check in report:
        print(f"{check['status'].upper():4s} {check['check']}")
        if args.verbose:
            for detail in check["details"]:
                print(f"     - {detail}")
    ok = passed(report)
    print("all checks passed" if ok else "validation failed")
    return EXIT_OK if ok else EXIT_OPERATION


def cmd_export_dsvg(args) -> int:
    try:
        source = Path(args.scene).read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        scene = deserialize_scene(source)
        _write_out(export_dsvg(scene, args.width, args.height, args.background), args.out)
    except SceneFormatError as e:
        print(f"invalid scene document: {e}", file=sys.stderr)
        return EXIT_IO
    except VizSceneError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_OPERATION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _add_output_flags(p):
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.add_argument("--format", choices=("svg", "json", "dsvg"), default="svg")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--background", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vizscene",
        description="Build, template and render data-visualization scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="execute a pipeline and write the result")
    p.add_argument("--pipeline", required=True, help="pipeline JSON file")
    p.add_argument("--data", action="append", metavar="NAME=PATH",
                   help="bind a CSV/network-JSON file as a named dataset")
    p.add_argument("--verbose", action="store_true",
                   help="print per-step propagation reports to stderr")
    _add_output_flags(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("repopulate", help="apply a scene template to new data")
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--data", action="append", metavar="NAME=PATH", required=True)
    p.add_argument("--map", action="append", metavar="NEW=CURRENT",
                   help="attribute pair mapping, repeatable")
    p.add_argument("--target", help="collection element id (default: first templated one)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_repopulate)

    p = sub.add_parser("validate", help="check a scene document's invariants")
    p.add_argument("--scene", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("export-dsvg", help="emit data-annotated SVG from a scene file")
    p.add_argument("--scene", required=True)
    p.add_argument("--out")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--background", default=None)
    p.set_defaults(func=cmd_export_dsvg)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
