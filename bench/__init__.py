"""The repo's benchmark: six workloads, end-to-end metrics, a per-layer ledger.

Everything here measures :mod:`repro` from outside — through public
functions, ``run_experiment(config, profiler=...)`` and spans recorded
by this package's own code.  See ``bench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def use_checkout_source() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The benchmark must time the code beside it, never an installed
    copy, so a checkout without ``src/repro`` is an error rather than a
    fallback to whatever ``import repro`` finds.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no simulator source at {source / 'repro'}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
