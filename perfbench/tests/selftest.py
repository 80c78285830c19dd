"""Self-tests of the benchmark's tracer and metric tables.

    python3 -m pytest -q perfbench/tests/selftest.py

The file name keeps it out of the project's default test collection: the
traced runs take about two minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import REFERENCE, ROOT, Runner  # noqa: E402
from spans import COUNTED, LAYER_METRICS, SPANS, Tracer, _resolve  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402

SEED = 0


def _targets():
    return [(path, attr) for path, attr, _ in SPANS + COUNTED]


def test_wrappers_restore_attributes(tmp_path):
    from priorlab import cli

    before = {(p, a): _resolve(p).__dict__[a] for p, a in _targets()}
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
        assert all(_resolve(p).__dict__[a] is not before[(p, a)] for p, a in _targets())
        assert cli.dispatch("cover-info", ROOT / "configs/cover-info.cfg", SEED, tmp_path) == 0
    finally:
        tracer.uninstall()
    assert all(_resolve(p).__dict__[a] is before[(p, a)] for p, a in _targets())
    assert tracer.values()["priors.cover_priors_s"] > 0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in LAYER_METRICS.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", ["rates", "rates-wide"])
def test_rates_seeds_do_equal_work(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = WORKLOADS[name]
    tasks = {seed: setup(workload, seed) for seed in workload.seeds}
    assert len(set(tasks.values())) == 1, tasks


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced_pair(request):
    """Two traced children of one workload and seed, outputs checked
    against the reference digests."""
    reference = json.loads(REFERENCE.read_text())[request.param][str(SEED)]
    runner = Runner(request.param, SEED, reference)
    reports = [runner.spawn(trace=True), runner.spawn(trace=True)]
    assert runner.failed == 0, runner.errors
    return reports


def test_counts_repeat_exactly(traced_pair):
    a, b = (r["layers"] for r in traced_pair)
    counted = [
        name for name, (source, _) in LAYER_METRICS.items()
        if source.startswith("count:") or source.endswith(":calls")
    ]
    assert {n: a[n] for n in counted} == {n: b[n] for n in counted}


def test_coverage_at_least_ninety_percent(traced_pair):
    for report in traced_pair:
        wall = sum(report["walls"].values())
        assert report["top_level_s"] / wall >= 0.9
