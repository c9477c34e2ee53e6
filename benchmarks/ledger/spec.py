"""``BENCHMARK.json`` is the one place metric names, units and bounds live.

The harness computes values by name; this module attaches the declared unit
and refuses to emit a set of metrics that differs from the declared one, so
the contract file and the code cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parent.parent
RESULTS_DIR = PACKAGE_DIR / "results"


def load() -> "dict[str, Any]":
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec: "dict[str, Any]") -> "list[str]":
    return [entry["name"] for entry in spec["workloads"]]


def emit(spec: "dict[str, Any]", kind: str, values: "dict[str, float]") -> "dict[str, Any]":
    """``{name: {"value": v, "unit": u}}`` for exactly the declared ``kind`` metrics."""
    declared = {entry["name"]: entry["unit"] for entry in spec[kind]}
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise ValueError(
            f"{kind} metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
        )
    return {name: {"value": values[name], "unit": declared[name]} for name in declared}
