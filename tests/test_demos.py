"""Every demo script and the README's library quick start run against this checkout's package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = _run([str(demo)])
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    result = _run(["-c", blocks[0]])
    assert result.returncode == 0, result.stderr
