"""Every demo script, and every fenced ``python`` block of the README, runs
to completion without writing to stderr."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL
)


def _run_cleanly(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_demos_found():
    assert DEMOS
    assert README_BLOCKS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    _run_cleanly([str(demo)])


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"readme{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs_cleanly(block):
    _run_cleanly(["-c", block])
