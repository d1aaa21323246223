"""Machine-readable benchmark results: ``BENCH_<name>.json`` emission.

Every benchmark runner that measures wall clock writes its numbers
through :func:`write_bench_json`, so the perf trajectory of the
repository can be tracked across PRs by diffing (or collecting) small
JSON documents instead of scraping pytest output.

Schema (documented in README.md, "Benchmark result files"):

.. code-block:: json

    {
      "schema": 1,
      "benchmark": "fastsched",
      "created": "2026-07-28T12:00:00+00:00",
      "python": "3.11.7",
      "results": { ... benchmark-specific payload ... }
    }

``results`` is benchmark-owned; the envelope is stable.  Files land in
the repository root by default; set ``BENCH_JSON_DIR`` to redirect
them (e.g. into a CI artifact directory).  Pytest runs and
``--quick`` smoke runs set it to a temporary directory themselves
(``conftest.py``), so only a full standalone run rewrites the tracked
files.
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone

SCHEMA_VERSION = 1


def write_bench_json(name: str, results: dict) -> str:
    """Write ``BENCH_<name>.json`` and return its path."""
    directory = os.environ.get(
        "BENCH_JSON_DIR",
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    document = {
        "schema": SCHEMA_VERSION,
        "benchmark": name,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "results": results,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
