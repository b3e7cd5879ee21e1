"""Run-execution engine: parallel fan-out with a deterministic cache.

Every experiment in this repository is a deterministic function of its
arguments, which makes independent runs embarrassingly parallel *and*
perfectly cacheable.  This package provides the scaling substrate the
sweep/ablation/chaos campaigns run on:

* :class:`RunSpec` — one unit of work: a module-level callable plus
  canonicalizable kwargs, content-hashed via :meth:`RunSpec.digest`;
* :func:`derive_seed` — named-stream seed derivation, so per-run seeds
  are independent of grid order and worker assignment;
* :class:`ResultCache` — content-addressed on-disk results keyed by
  spec hash + :data:`CACHE_VERSION` (package version + source hash);
* :func:`run_specs` — serial or ``ProcessPoolExecutor`` execution with
  results returned in spec order (serial and parallel runs are
  byte-identical; see :func:`results_digest`).

See ``docs/parallel.md`` for the hashing scheme, cache layout, and
determinism guarantees.
"""

import hashlib
from pathlib import Path

from .. import __version__
from .cache import ResultCache
from .engine import (
    KERNEL_KEYS,
    ExecReport,
    RunResult,
    results_digest,
    run_specs,
)
from .spec import RunSpec, canonical, derive_seed


def _source_digest() -> str:
    """sha256 over the path and bytes of every module of the package."""
    root = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


#: Version string folded into every spec digest and cache entry: the
#: package version plus a hash of the package source, computed once per
#: process.  Editing any module changes it, so a persistent cache never
#: serves a result computed by different code.
CACHE_VERSION = f"{__version__}+src.{_source_digest()[:16]}"

__all__ = [
    "CACHE_VERSION",
    "ExecReport",
    "KERNEL_KEYS",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "canonical",
    "derive_seed",
    "results_digest",
    "run_specs",
]
