"""Smoke test: every demo script runs to completion and writes its outputs.

Each demo writes next to itself, into ``out/``, and reads the gallery data
from ``../gallery``; so it runs from a copy in a temporary directory that
links the real gallery, and the checkout stays clean.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = {
    "01_build_a_chart.py": ["diverging_bar.svg"],
    "02_templates.py": ["sales_template.json", "population_chart.svg"],
    "03_layouts_and_propagation.py": ["waffle.svg", "bubbles.svg"],
    "04_hierarchies_and_networks.py": ["icicle.svg", "sunburst.svg", "node_link.svg"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(OUTPUTS)


@pytest.mark.parametrize("demo", sorted(OUTPUTS))
def test_demo_runs_and_writes_its_outputs(demo, tmp_path):
    (tmp_path / "gallery").symlink_to(ROOT / "gallery")
    (tmp_path / "demos").mkdir()
    shutil.copy(ROOT / "demos" / demo, tmp_path / "demos" / demo)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(tmp_path / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    out = tmp_path / "demos" / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUTS[demo])
    for name in OUTPUTS[demo]:
        text = (out / name).read_text()
        if name.endswith(".json"):
            assert json.loads(text)["version"] == "msc-scene/1"
        else:
            assert text.startswith("<?xml") and "<svg" in text and text.rstrip().endswith("</svg>")
