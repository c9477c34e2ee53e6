"""``PYTHONPATH=src python -m benchmarks.ledger`` (same as ``run.py``)."""

import sys

from benchmarks.ledger.cli import main

sys.exit(main())
