"""Every script under ``examples/`` runs to completion, and prints the
same bytes whatever the interpreter's string-hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES, "no examples/*.py collected"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_zero(script, tmp_path):
    stdout = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        stdout.append(out.stdout)
    assert stdout[0] == stdout[1], "output depends on PYTHONHASHSEED"
