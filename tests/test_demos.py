"""The demos run cleanly against the package, and every exported name resolves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import natspec

SRC = Path(natspec.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    if demo.stem == "04_decomposition":
        assert "radius brackets:" in proc.stdout


def test_every_exported_name_resolves():
    missing = [name for name in natspec.__all__ if not hasattr(natspec, name)]
    assert missing == []
