"""Record the reference digests the benchmark checks outputs against.

    python3 perfbench/record_reference.py [workload ...]

For each workload (default: all) and each of its program seeds plus the
held-out seed, runs one untraced child and stores the sha256 of every
output CSV, `summary.txt` and `menu.tsv` in `perfbench/reference.json`.
Re-record only when a change is meant to alter outputs, and say why in
its description.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, Runner
from workloads import HELD_OUT_SEED, WORKLOADS


def main(names) -> int:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names or WORKLOADS:
        recorded = {}
        for seed in WORKLOADS[name].seeds + (HELD_OUT_SEED,):
            report = Runner(name, seed, None).spawn()
            if report is None:
                return 1
            recorded[str(seed)] = report["digests"]
            print(f"{name} seed {seed}: {len(report['digests'])} files", flush=True)
        table[name] = recorded
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
