"""The cache key follows the code: editing any module of the package
changes ``CACHE_VERSION``, so a persistent cache misses instead of
serving a result computed by different code."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro
from repro.exec import CACHE_VERSION

#: Runs one cached spec against the package found on PYTHONPATH and
#: prints the cache version, hits and misses.
_RUN_ONE = """
import sys
from repro.exec import CACHE_VERSION, RunSpec, run_specs
from repro.exec.tasks import rng_walk_task
report = run_specs([RunSpec(rng_walk_task, {"seed": 3, "steps": 8})],
                   cache=sys.argv[1])
print(CACHE_VERSION, report.hits, report.misses)
"""


def _run(src_root: Path, cache_dir: Path):
    env = dict(os.environ, PYTHONPATH=str(src_root),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", _RUN_ONE, str(cache_dir)],
                         env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    return out[0], int(out[1]), int(out[2])


def test_version_names_package_version_and_source():
    version, _, source = CACHE_VERSION.partition("+src.")
    assert version == repro.__version__
    assert len(source) == 16


def test_editing_a_module_misses_the_cache(tmp_path):
    src_root = tmp_path / "src"
    shutil.copytree(Path(repro.__file__).resolve().parent,
                    src_root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache_dir = tmp_path / "cache"

    before, hits, misses = _run(src_root, cache_dir)
    assert (hits, misses) == (0, 1)
    assert _run(src_root, cache_dir) == (before, 1, 0)  # same code: hit

    module = src_root / "repro" / "units.py"
    module.write_text(module.read_text() + "\n# edited\n")
    after, hits, misses = _run(src_root, cache_dir)
    assert after != before
    assert (hits, misses) == (0, 1)
