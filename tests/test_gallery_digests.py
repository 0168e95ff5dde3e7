"""Golden bytes: every gallery chart renders and serializes exactly as
recorded in ``vizbench/gallery_digests.json``.

Each chart is built the way the benchmark's gallery workload builds it:
network datasets from ``.json`` files, tables otherwise, then the pipeline.
The digest file is read in place; re-record it with
``python3 vizbench/capture_digests.py`` only when the output format changes
on purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

import vizscene as vz

ROOT = Path(__file__).resolve().parent.parent
GALLERY = ROOT / "gallery"
DIGESTS = ROOT / "vizbench" / "gallery_digests.json"
MANIFEST = json.loads((GALLERY / "manifest.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_chart_has_a_digest():
    assert DIGESTS.is_file(), f"missing golden digests {DIGESTS}"
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(MANIFEST)
    assert len(MANIFEST) == 20


@pytest.mark.parametrize("chart", sorted(MANIFEST))
def test_gallery_bytes_match_digests(chart):
    want = json.loads(DIGESTS.read_text())[chart]
    datasets = {}
    for name, path in MANIFEST[chart].items():
        raw = (GALLERY / path).read_bytes()
        load = vz.import_network if path.endswith(".json") else vz.import_table
        datasets[name] = load(raw, name)
    steps = json.loads((GALLERY / "pipelines" / f"{chart}.json").read_text())
    scene = vz.execute_pipeline(steps, datasets).scene
    assert _sha256(vz.render(scene)) == want["svg"]
    assert _sha256(vz.serialize_scene(scene)) == want["json"]
