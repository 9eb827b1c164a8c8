"""Every demo script runs to completion against the in-tree package."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs():
    # the tour runs as written, and every value its comments state holds
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(tour, namespace)
    claims = 0
    for line in tour.splitlines():
        code, _, comment = line.partition("#")
        stated = re.match(r"\s*(\{[^}]*\}|\d+)(?!\w)", comment)
        if stated and "=" not in code:
            assert eval(code, namespace) == ast.literal_eval(stated[1]), line
            claims += 1
    assert claims >= 4
