"""The benchmark's traced run wraps priorlab entry points by name, and its
set-up builds each workload's inputs through public calls; a rename or a
signature change under `src/` would silently drop a span or break the
benchmark.  This checks every target still resolves, without installing
the tracer, and runs every workload's set-up."""

import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from spans import COUNTED, SPANS, _resolve  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402

from priorlab import ratelab  # noqa: E402


def test_every_trace_target_resolves():
    missing = [
        f"{path}.{attr}"
        for path, attr, _ in SPANS + COUNTED
        if attr not in vars(_resolve(path))
    ]
    assert not missing, missing


def test_sample_arrays_takes_T_fourth():
    # the traced run counts sampling.tasks_sampled from args[3] of the
    # wrapped ratelab.sample_arrays
    param = list(inspect.signature(ratelab.sample_arrays).parameters.values())[3]
    assert param.name == "T"
    assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


# tasks each workload simulates at program seed 0, as its set-up counts them
SETUP_TASKS = {"rates": 14_640_000, "rates-wide": 864_000, "elicit": 362_400, "checks": 220_000}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_setup_runs(name, monkeypatch):
    monkeypatch.chdir(PERFBENCH.parent)  # workload config paths are relative to the checkout
    assert setup(WORKLOADS[name], 0) == SETUP_TASKS[name]
