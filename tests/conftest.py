import json
import pathlib
import random

import pytest

import vizscene as vz

AGES = ["below 30", "30 - 50", "50 - 70", "above 70"]
RESPONSES = ["strongly agree", "agree", "disagree", "strongly disagree"]
GALLERY = pathlib.Path(__file__).resolve().parent.parent / "gallery"
PCTS = [
    [20, 30, 30, 20],
    [25, 35, 25, 15],
    [22, 28, 30, 20],
    [17, 36, 28, 29],  # bottom row: max 36, min 17
]


def survey_csv() -> bytes:
    lines = ["age,response,pct"]
    for age, row in zip(AGES, PCTS):
        for response, pct in zip(RESPONSES, row):
            lines.append(f"{age},{response},{pct}")
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture
def survey():
    return vz.import_table(survey_csv(), "survey")


@pytest.fixture
def scene(survey):
    s = vz.create_scene()
    s.add_dataset(survey)
    return s


def tree_json() -> bytes:
    doc = {
        "nodes": [
            {"id": "root", "branch": "all"},
            {"id": "a", "branch": "a"}, {"id": "b", "branch": "b"},
            {"id": "a1", "branch": "a"}, {"id": "a2", "branch": "a"},
            {"id": "b1", "branch": "b"}, {"id": "b2", "branch": "b"},
        ],
        "links": [
            {"source": "root", "target": "a"}, {"source": "root", "target": "b"},
            {"source": "a", "target": "a1"}, {"source": "a", "target": "a2"},
            {"source": "b", "target": "b1"}, {"source": "b", "target": "b2"},
        ],
    }
    return json.dumps(doc).encode()


@pytest.fixture
def tree():
    return vz.import_network(tree_json(), "tree")


def build_diverging_bar(scene_id="scene-1"):
    """The diverging stacked bar chart: repeat by age, divide by response,
    width/fill encodings, right alignment, affixed text labels."""
    s = vz.create_scene(scene_id)
    table = vz.import_table(survey_csv(), "survey")
    s.add_dataset(table)
    bar = s.create_mark("rectangle", {"width": 30, "height": 20})
    rows = vz.repeat(s, bar, "survey", "age")
    vz.divide(s, s.elements[rows.members[0]], "survey", "response", "horizontal")
    leaf = s.elements[s.elements[rows.members[0]].members[0]]
    enc_width = vz.apply_encoding(s, leaf, "width", "pct")
    enc_fill = vz.apply_encoding(s, leaf, "fill", "response")
    vz.align(s, {"from": rows.id,
                 "where": {"attribute": "response", "value": "strongly disagree"}},
             "right")
    label = s.create_mark("text", {"text": "0", "fill": "#fff", "font_size": 9})
    by_age = vz.repeat(s, label, "survey", "age")
    labels = vz.repeat(s, by_age, "survey", "response")
    leaf_text = s.elements[s.elements[labels.members[0]].members[0]]
    vz.apply_encoding(s, leaf_text, "text", "pct")
    vz.affix(s, labels.id, rows.id, "center", 0, 0)
    return s, {"rows": rows, "labels": labels, "enc_width": enc_width,
               "enc_fill": enc_fill}


def random_table(rng: random.Random, max_rows=1000, name="rand"):
    """Small random table with one categorical and one numeric column."""
    n_rows = rng.randint(1, max_rows)
    n_cats = rng.randint(1, min(12, n_rows))
    cats = [f"c{i}" for i in range(n_cats)]
    lines = ["key,val"]
    for _ in range(n_rows):
        lines.append(f"{rng.choice(cats)},{rng.randint(0, 99)}")
    return vz.import_table(("\n".join(lines) + "\n").encode(), name)


def brute_force_groups(table, attribute):
    """Independent group-by oracle: hash rows into per-value index lists."""
    groups = {}
    for i, row in enumerate(table.items):
        groups.setdefault(row[attribute], []).append(i)
    return groups


def scope_partition(scene, collection):
    """(scopes, union) of a collection's member scopes, as index sets."""
    scopes = []
    for m in collection.members:
        scope = scene.elements[m].data_scope
        scopes.append(set(scope.indices) if scope else set())
    union = set()
    for sc in scopes:
        union |= sc
    return scopes, union


def build_gallery_scenes():
    """Every gallery chart built from its pipeline, by manifest name:
    network datasets from ``.json`` files, tables otherwise."""
    manifest = json.loads((GALLERY / "manifest.json").read_text())
    scenes = {}
    for chart, files in sorted(manifest.items()):
        datasets = {}
        for name, path in files.items():
            load = vz.import_network if path.endswith(".json") else vz.import_table
            datasets[name] = load((GALLERY / path).read_bytes(), name)
        steps = json.loads((GALLERY / "pipelines" / f"{chart}.json").read_text())
        scenes[chart] = vz.execute_pipeline(steps, datasets).scene
    return scenes
