"""The run plan against the memory runs really take, and the list of limits.

Every shipped config and an edge grid of larger ones is dispatched in a
child process under tracemalloc.  The plan its subcommand's prepare step
returns must hold the run's traced peak, up to one slack for what no plan
names (the interpreter, numpy, small tables), and must not pass by being
huge: at most four times the peak, plus the slack.  A plan that drops its
largest array must fail the first bound on every edge config, so the
check can fail."""

import ast
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from priorlab import cli
from priorlab.cli import SCHEMAS, SUBCOMMANDS, parse_config
from priorlab.errors import Array, plan_bytes

ROOT = Path(__file__).resolve().parent.parent
SLACK = 8 << 20  # bytes a run may hold past its plan
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}
SHIPPED = {
    path.stem: (max((s for s in SCHEMAS if path.stem.startswith(s)), key=len), path.read_text())
    for root in (ROOT / "configs", ROOT / "perfbench" / "configs")
    for path in sorted(root.iterdir())
}
# each peaks at 50 MB or more in under 2 s, held mostly by one builder
PARITY_M3 = "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nreplicates = 2\n"
GRID = {
    # 64 members on 1,616 outcomes: the Yatracos sets and their float copy
    "rates-yatracos-k4": ("rates", "m = 4\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 10\nreplicates = 2\nk = 4\n"),
    # a replicate of 10^6 tasks: its words and their decoded draws
    "rates-words-1e6": ("rates", PARITY_M3 + "T_grid = 1000000\n"),
    "lowerbound-words-1e6": ("lowerbound", PARITY_M3 + "T_grid = 1000000\n"),
    # the Hölder check of C(14, <=3) = 470 concepts: the rho table's bit planes
    "smoothness-holder-m14": (
        "smoothness", "m_max = 14\nd_max = 3\nL_list = 1.0\nalpha_list = 1.0\nsigns_per_instance = 1\n"
    ),
}
# held to both bounds, though it peaks below 50 MB: a stream of 10^5 customers,
# whose greedy gains are held and planned a block at a time
EDGE = {"elicit-T-1e5": ("elicit", "T = 100000\nreplicates = 1\n")}
CASES = {**SHIPPED, **GRID, **EDGE}
CHILD = """import sys, time, tracemalloc
from pathlib import Path
from priorlab.cli import dispatch
tracemalloc.start()
start = time.perf_counter()
code = dispatch(sys.argv[1], sys.argv[2], 0, Path(sys.argv[3]))
print(code, tracemalloc.get_traced_memory()[1], time.perf_counter() - start)
"""


@pytest.fixture(scope="module")
def measured(tmp_path_factory) -> dict:
    """Each case's (exit code, traced peak bytes, wall seconds), from a
    fresh process, two processes at a time."""

    def measure(name):
        subcommand, text = CASES[name]
        tmp = tmp_path_factory.mktemp(name)
        (tmp / "c.cfg").write_text(text)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, subcommand, str(tmp / "c.cfg"), str(tmp / "out")],
            capture_output=True, text=True, env=CHILD_ENV, timeout=120, check=True,
        )
        code, peak, wall = proc.stdout.split()
        return name, (int(code), int(peak), float(wall))

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(measure, CASES))


def _plan(name: str, tmp_path: Path) -> int:
    subcommand, text = CASES[name]
    (tmp_path / "c.cfg").write_text(text)
    return plan_bytes(SUBCOMMANDS[subcommand][0](parse_config(tmp_path / "c.cfg", subcommand), 0)[0])


def _holds(peak: int, plan: int) -> bool:
    return peak <= plan + SLACK and plan <= 4 * peak + SLACK


@pytest.mark.parametrize("name", sorted(SHIPPED) + sorted(GRID) + sorted(EDGE))
def test_plan_holds_the_traced_peak(measured, tmp_path, name):
    code, peak, wall = measured[name]
    plan = _plan(name, tmp_path)
    assert code == 0
    assert _holds(peak, plan), f"peak {peak} bytes, plan {plan} bytes"
    if name in GRID:
        assert peak >= 50 << 20 and wall < 2.0, (peak, wall)


def test_a_plan_without_its_largest_array_fails(measured, tmp_path, monkeypatch):
    def drop_largest(prepare):
        def planted(config, seed):
            plan, prepared = prepare(config, seed)
            largest = max((a for a in plan if isinstance(a, Array)), key=lambda a: a.nbytes)
            return [a for a in plan if a is not largest], prepared
        return planted

    for subcommand, (prepare, command) in SUBCOMMANDS.items():
        monkeypatch.setitem(cli.SUBCOMMANDS, subcommand, (drop_largest(prepare), command))
    for name in GRID:
        assert not _holds(measured[name][1], _plan(name, tmp_path)), name


SRC = ROOT / "src" / "priorlab"
# module-level names that limit a size: every budget, and no other
BUDGETS = {("errors", "BYTE_BUDGET"), ("errors", "WORK_BUDGET"), ("elicitation", "STREAM_BUDGET")}
# named like limits, but none bounds a size: the int64 masks' points, the
# growth check's largest anchor set, and the brute-force VC check's
# largest m, a validity rule
NOT_BUDGETS = {("concepts", "MAX_POINTS"), ("outcomes", "SAUER_K_MAX"), ("concepts", "SHATTER_GUARD")}
LIMIT_WORDS = ("BUDGET", "LIMIT", "GUARD", "PAIRS", "MAX", "CAP")


def limit_constants() -> set:
    """(module, name) of every module-level assignment in src/ whose
    upper-case name says it limits something."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                name = getattr(target, "id", "")
                if name.isupper() and any(word in name.split("_") for word in LIMIT_WORDS):
                    found.add((path.stem, name))
    return found


def test_the_limits_are_the_three_budgets():
    assert limit_constants() == BUDGETS | NOT_BUDGETS
