"""Re-pin ``bench/reference.json``: one untraced sample per workload on its
default seed, written only when every acceptance gate passes.

    python3 bench/pin.py

Re-pin only after a change that is meant to alter the numbers, and state
the largest relative difference against the old file with the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

from run import REFERENCE, WORK_DIR, run_child
from workloads import RUN_T, WORKLOADS, gate_failures


def main() -> int:
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="pin-", dir=WORK_DIR)
    pinned = {}
    try:
        for i, (name, wl) in enumerate(WORKLOADS.items()):
            res = run_child(name, wl["default_seed"], "plain", False, tmp, i, time.monotonic() + 170)
            problems = [res["error"]] if "error" in res else gate_failures(name, res["summary"])
            if problems:
                print(f"{name}: not pinned: {problems}", file=sys.stderr)
                return 1
            pinned[name] = {"seed": wl["default_seed"], "T": RUN_T, "summary": res["summary"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
