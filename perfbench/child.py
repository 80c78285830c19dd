"""One benchmark child: import priorlab from the checkout, build the
workload's fixed inputs, print `ready`, run the workload's dispatches and
print one JSON line with what it measured.

Usage: python3 perfbench/child.py '<json spec>' where the spec holds
`root`, `workload`, `seed`, `outdir`, `trace`, `setup_only` and `cpu`
(the CPU to pin to, or null).
The parent sets the BLAS thread variables before this process starts.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time


def main(spec: dict) -> dict:
    if spec["cpu"] is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import numpy
    import priorlab
    from priorlab import cli

    here = Path(priorlab.__file__).resolve()
    if root / "src" not in here.parents:
        raise RuntimeError(f"priorlab imported from {here}, not from {root / 'src'}")

    from spans import Tracer
    from workloads import WORKLOADS, setup

    workload = WORKLOADS[spec["workload"]]
    tracer = Tracer().install() if spec["trace"] else None
    tasks = setup(workload, spec["seed"])
    print("ready", flush=True)

    out = {"tasks": tasks, "walls": {}, "cpu_s": 0.0, "exit_codes": {}}
    if not spec["setup_only"]:
        for sub, config in workload.runs:
            if tracer is not None:
                tracer.in_window = True
            start, cpu = perf_counter(), process_time()
            code = cli.dispatch(sub, config, spec["seed"], Path(spec["outdir"]) / sub, workers=1)
            out["walls"][sub] = perf_counter() - start
            out["cpu_s"] += process_time() - cpu
            out["exit_codes"][sub] = code
            if tracer is not None:
                tracer.in_window = False
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.values()
        out["top_level_s"] = tracer.top_level_s
        out["trace_missing"] = tracer.missing
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result), flush=True)
