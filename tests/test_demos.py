"""Each demo's standard output, byte for byte against the committed
``demos/expected/<demo>.txt``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_matches_expected(demo):
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    expected = ROOT / "demos" / "expected" / f"{demo.stem}.txt"
    assert run.stdout == expected.read_bytes()
