"""Locate the checkout the benchmark runs from and import its source tree.

The benchmark always measures the `icncep` package under `<checkout>/src`,
never an installed copy, and keeps every file it writes inside the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # generated inputs, removed after each run
OUT = ROOT / ".bench_out"  # span files of traced runs


def use_checkout_source() -> None:
    """Put `<checkout>/src` first on the import path, or exit non-zero."""
    if not (SRC / "icncep" / "__init__.py").is_file():
        raise SystemExit("bench: no icncep source under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import icncep

    if Path(icncep.__file__).resolve().parent != (SRC / "icncep").resolve():
        raise SystemExit("bench: imported icncep from %s, not %s" % (icncep.__file__, SRC))
