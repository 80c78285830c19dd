"""Every benchmark workload, dispatched at program seed 0, must write the
bytes recorded in `perfbench/reference.json`, and so must the `rates`,
`rates-wide` and `checks` workloads at the held-out seed: a change that
drifts an output fails here, not only in the benchmark.  The reference
file is read, never written."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from run import REFERENCE, digests  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

from priorlab.cli import dispatch  # noqa: E402

CASES = [(name, 0) for name in sorted(WORKLOADS)] + [
    (name, HELD_OUT_SEED) for name in ("rates", "rates-wide", "checks")
]


@pytest.mark.parametrize("name, seed", CASES, ids=[n if s == 0 else f"{n}-{s}" for n, s in CASES])
def test_workload_outputs_match_reference_digests(name, seed, tmp_path, monkeypatch):
    expected = json.loads(REFERENCE.read_text())[name][str(seed)]
    monkeypatch.chdir(PERFBENCH.parent)  # workload config paths are relative to the checkout
    for sub, config in WORKLOADS[name].runs:
        assert dispatch(sub, config, seed, tmp_path / sub, workers=1) == 0, sub
    assert digests(tmp_path) == expected
