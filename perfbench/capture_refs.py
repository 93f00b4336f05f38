"""Write the reference reports and exit codes the benchmark checks against.

Run from the root of the checkout whose outputs are the reference::

    python3 perfbench/capture_refs.py

For every command of every workload it stores the seed-0 report (top-level
``seed`` normalised to 0, as the worker prints it) as
``perfbench/refs/<label>.json`` and the exit code in
``perfbench/refs/exit_codes.json``.  The committed references were taken
at the commit that introduced the benchmark; later changes must reproduce
them byte for byte.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import REFS, run_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    os.makedirs(REFS, exist_ok=True)
    codes = {}
    for workload in WORKLOADS:
        for cmd in run_worker(workload, 0)["commands"]:
            if "error" in cmd:
                raise SystemExit(f"{cmd['label']}: {cmd['error']}")
            with open(os.path.join(REFS, cmd["label"] + ".json"), "w", encoding="utf-8") as fh:
                fh.write(cmd["report"])
            codes[cmd["label"]] = cmd["exit"]
            print(f"{cmd['label']}: exit {cmd['exit']}")
    with open(os.path.join(REFS, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
