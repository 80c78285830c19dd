"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of `perfbench/workloads.py` through `priorlab.cli.dispatch`
in fresh child processes, one at a time, until `--seconds` is spent (at
least one round per CPU).  Every output CSV, `summary.txt` and `menu.tsv`
is checked against `perfbench/reference.json`.  With `--trace 0` it
reports the end-to-end metrics of BENCHMARK.json as medians over the
children; with `--trace 1` it alternates untraced and traced children and
reports the per-layer metrics.  The last stdout line is one JSON object; a
readable table with the environment and `failed_frac` comes before it,
and the same record is stored under `.perfbench-out/results/`.

The workload seed n selects the program seed: the held-out seed 109 is
used as is, any other n picks entry n mod 10 of the workload's seed list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, strftime

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import CHECK_SUBCOMMANDS  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench-out"
# One BLAS thread in every child: a value no higher than nproc, and it keeps
# wall time from depending on how busy the other core is.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up samples per run (full children count, set-up-only children top up)
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # no child outlives this point of the run


def program_seed(workload, seed: int) -> int:
    if seed == HELD_OUT_SEED:
        return seed
    return workload.seeds[seed % len(workload.seeds)]


def digests(outdir: Path) -> dict[str, str]:
    """sha256 of every CSV, summary.txt and menu.tsv under `outdir`;
    manifest.txt (it holds the output path) and the plot script are left out."""
    found = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and (path.suffix == ".csv" or path.name in ("summary.txt", "menu.tsv")):
            found[path.relative_to(outdir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


class Runner:
    """Starts children one at a time and keeps what each reported."""

    def __init__(self, workload: str, seed: int, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.reference = reference  # expected digests; None records instead
        self.run_start = perf_counter()
        self.tag = f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env: dict = {}
        # The host slows each CPU in phases of seconds to minutes, and the
        # CPUs vary independently.  Round k of a run pins its children to
        # CPU k mod n, so every run samples every CPU.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu: int | None = None

    def pin_round(self, k: int) -> None:
        self.cpu = self.cpus[k % len(self.cpus)]

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict | None:
        """One child; returns its report with `setup_s` and `digests` added,
        or None when it failed (counted in `failed`)."""
        self.attempted += 1
        outdir = OUT / self.tag / str(self.attempted)
        spec = {
            "root": str(ROOT), "workload": self.workload, "seed": self.seed,
            "outdir": str(outdir), "trace": trace, "setup_only": setup_only,
            "cpu": self.cpu,
        }
        env = dict(os.environ, **{k: str(BLAS_THREADS) for k in BLAS_ENV})
        limit = max(5.0, RUN_LIMIT_S - (perf_counter() - self.run_start))
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(limit, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = perf_counter()
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        try:
            report = self._check(first, rest, code, outdir, setup_only)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if report is None:
            self.failed += 1
            return None
        report["setup_s"] = ready - start
        return report

    def _check(self, first, rest, code, outdir, setup_only) -> dict | None:
        if code != 0 or first.strip() != "ready" or not rest.strip():
            return self._fail(f"child exited with code {code}")
        report = json.loads(rest.strip().splitlines()[-1])
        bad = {s: c for s, c in report["exit_codes"].items() if c != 0}
        if bad:
            return self._fail(f"dispatch exit codes {bad}")
        report["digests"] = got = digests(outdir)
        want = self.reference
        if not setup_only and want is not None and got != want:
            diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            return self._fail("outputs differ from the reference: " + ", ".join(diff))
        self.env = report["env"]
        return report

    def _fail(self, why: str) -> None:
        self.errors.append(why)
        print(f"perfbench: {self.workload} seed {self.seed}: {why}", file=sys.stderr)
        return None


def done(runner: Runner, durations: list[float], deadline: float) -> bool:
    """A run ends once every CPU had a round and another round would pass
    the deadline."""
    return len(durations) >= len(runner.cpus) and (
        perf_counter() + statistics.median(durations) > deadline
    )


def measure(runner: Runner, seconds: int) -> tuple[dict, dict]:
    """Rounds of one untraced child and two set-up-only ones (so set-up is
    sampled across the run), then set-up-only children up to SETUP_SAMPLES
    set-up times.  Returns (metrics, raw)."""
    deadline = runner.run_start + seconds
    full, setup_times, durations = [], [], []

    def setup_only(n: int) -> None:
        for _ in range(n):
            child = runner.spawn(setup_only=True)
            if child is not None:
                setup_times.append(child["setup_s"])

    while True:
        runner.pin_round(len(durations))
        t = perf_counter()
        child = runner.spawn()
        if child is not None:
            full.append(child)
            setup_times.append(child["setup_s"])
        setup_only(2)
        durations.append(perf_counter() - t)
        if done(runner, durations, deadline):
            break
    if runner.failed == 0:
        setup_only(SETUP_SAMPLES - len(setup_times))
    walls = [sum(c["walls"].values()) for c in full]
    raw = {
        "samples": f"medians of {len(full)} children; setup_s of {len(setup_times)} set-ups",
        "wall_s": walls,
        "cpu_s": [c["cpu_s"] for c in full],
        "setup_s": setup_times,
    }
    if not full:
        return {}, raw
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "tasks_per_s": statistics.median(c["tasks"] / w for c, w in zip(full, walls)),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in full),
    }
    return metrics, raw


def measure_traced(runner: Runner, seconds: int) -> tuple[dict, dict]:
    """Rounds of one untraced and one traced child; the per-layer metrics
    are medians over the traced children."""
    deadline = runner.run_start + seconds
    plain, traced, durations = [], [], []
    while True:
        runner.pin_round(len(durations))
        t = perf_counter()
        a = runner.spawn()
        b = runner.spawn(trace=True)
        durations.append(perf_counter() - t)
        if a is not None:
            plain.append(a)
        if b is not None:
            traced.append(b)
        if done(runner, durations, deadline):
            break
    raw = {
        "samples": f"medians of {len(traced)} traced children; {len(plain)} untraced for the overhead",
        "layers": [c["layers"] for c in traced],
        "missing": sorted({m for c in traced for m in c["trace_missing"]}),
    }
    if not plain or not traced:
        return {}, raw
    # median_low: every value is one child's, so counts stay whole numbers
    metrics = {
        name: statistics.median_low(c["layers"][name] for c in traced)
        for name in traced[0]["layers"]
    }
    for sub in CHECK_SUBCOMMANDS:
        metrics[f"cli.subcommand_s.{sub}"] = statistics.median_low(
            c["walls"].get(sub, 0.0) for c in traced
        )
    traced_wall = [sum(c["walls"].values()) for c in traced]
    metrics["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(
        sum(c["walls"].values()) for c in plain
    )
    metrics["trace.coverage"] = statistics.median(
        c["top_level_s"] / w for c, w in zip(traced, traced_wall)
    )
    raw["traced_wall_s"] = traced_wall
    return metrics, raw


def environment(child_env: dict) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        **child_env,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "priorlab" / "cli.py", REFERENCE]
    needed += [ROOT / path for _, path in workload.runs]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print("perfbench: not a priorlab checkout, missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = json.loads(REFERENCE.read_text())[workload.name]
    seed = program_seed(workload, args.seed)

    runner = Runner(workload.name, seed, recorded[str(seed)])
    # warm-up: byte-compiles priorlab and fills the file cache; not measured
    runner.spawn(setup_only=True)
    if args.trace:
        values, raw = measure_traced(runner, args.seconds)
        listed = spec["per_layer"]
    else:
        values, raw = measure(runner, args.seconds)
        listed = spec["end_to_end"]
    shutil.rmtree(OUT / runner.tag, ignore_errors=True)

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed if m["name"] in values
    }
    record = {
        "workload": workload.name, "seed": args.seed, "program_seed": seed,
        "seconds": args.seconds, "trace": args.trace, "time": strftime("%Y-%m-%dT%H:%M:%S%z"),
        "env": environment(runner.env),
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "errors": runner.errors, "metrics": metrics, "samples": raw,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{runner.tag}-trace{args.trace}-{strftime('%Y%m%dT%H%M%S')}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"# {workload.name}: {workload.why}")
    print("# env " + json.dumps(record["env"]))
    print(f"# {raw['samples']}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {record['failed_frac']:>16.6g} ratio "
          f"({runner.failed} of {runner.attempted} children)")
    correct = runner.failed == 0 and len(metrics) == len(listed)
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
