"""Entry point: ``python3 benchmarks/ledger/run.py ...`` from the repository root.

Puts the repository root (for ``benchmarks.ledger``) and ``src`` (for
``repro``) on ``sys.path``; the program itself is pure Python and needs no
build.  Without the program's sources there is nothing to measure, and the
command says so and exits non-zero.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.ledger.cli import main

    sys.exit(main())
