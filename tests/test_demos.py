"""The demos and README's library example run to completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", ["worked_example.py", "clustering_demo.py", "benchmark_demo.py"])
def test_demo_exits_cleanly(demo):
    result = run_python([str(ROOT / "demos" / demo)])
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL).group(1)
    result = run_python(["-c", example])
    assert result.returncode == 0, result.stderr
