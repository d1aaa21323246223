"""Regenerate ``expected.json``: the outcome of every ``loose`` instance,
pinned as the oracle that workload checks against.

Run from the repository root, only after an intentional change of the
search's results::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    pinned = {}
    for name in ("loose",):
        workload = workloads.WORKLOADS[name](0, ROOT)
        result = workload.run_pass()
        pinned[name] = {
            op.label: {"verdict": op.verdict, "outcome": op.outcome}
            for op in sorted(result.ops, key=lambda op: op.label)}
        for op in result.ops:
            print(f"{name:<11} {op.label:<40} {op.verdict:<11} "
                  f"{op.outcome} {op.seconds:.2f}s", flush=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
