"""Each script in demos/ and the README's "Library quick tour" block run to
completion against the package in src/."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_with_src(*args: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    done = run_with_src(str(demo))
    assert done.returncode == 0, done.stderr


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library quick tour\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert tour is not None, "README has no Library quick tour python block"
    done = run_with_src("-c", tour.group(1))
    assert done.returncode == 0, done.stderr
