"""The demos and README's library example run to completion against the current API; the worked example prints a pinned walkthrough."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Demos whose whole stdout is pinned.  The worked example prints only
# rounded floats, so its text is the same on every CPU.
PINNED_STDOUT = {"worked_example.py": """\
loads: [4, 1, 15]  ideal load: 20/3 (6.667)
SSE: 12.0  L: 108.667

players (cluster, requested units):  ((0, 3), (1, 6))
resources (cluster, spare units):     ((2, 8),)
requests routed to nearest resource: {2: [(0, 3), (1, 6)]}

resource 2 cannot cover the requests -> one local game
  player 0: request 3, strategies (0, 1, 2)
  player 1: request 6, strategies (0, 1, 2, 3, 4, 5)

with selection granularity 2 the sets shrink to:
  player 0: (0, 2)
  player 1: (0, 2, 4, 5)

payoff tensor: (3, 6) joints x 2 costs (18 entries)
equilibrium: pure-nash at joint (0, 0)
units forgone: [0, 0]
units transferred (player, units): [(0, 3), (1, 6)]

reallocation accepted? False
loads afterwards: [4, 1, 15]
SSE: 12.0  L: 108.667
(the transfers would hurt compactness more than balance gains justify,
 so the engine rolled the reallocation back)
"""}


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", ["worked_example.py", "clustering_demo.py"])
def test_demo_exits_cleanly(demo):
    result = run_python([str(ROOT / "demos" / demo)])
    assert result.returncode == 0, result.stderr
    if demo in PINNED_STDOUT:
        assert result.stdout == PINNED_STDOUT[demo]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL).group(1)
    result = run_python(["-c", example])
    assert result.returncode == 0, result.stderr
