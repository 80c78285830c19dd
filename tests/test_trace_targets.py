"""The benchmark's traced run wraps priorlab entry points by name, and its
set-up builds each workload's inputs through public calls; a rename or a
signature change under `src/` would silently drop a span or break the
benchmark.  This checks every target still resolves, without installing
the tracer, and runs every workload's set-up."""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from spans import COUNTED, SPANS, Tracer, _on_estimator_built, _on_serve, _resolve  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402

from priorlab import ratelab  # noqa: E402
from priorlab.cli import dispatch  # noqa: E402
from priorlab.elicitation import (  # noqa: E402
    FamilyOutcomeModel,
    ScheduleRDelta,
    presence_family,
    run_algorithm1,
)
from priorlab.estimators import DirectEstimator, SkeletonEstimator  # noqa: E402


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


def test_estimator_hook_reads_cover_size_and_support():
    # the hook reads est.cover.size and len(est.support) of a skeleton
    # estimator and tells the baseline apart by its lack of `support`
    built = ratelab.build_setup(ratelab.ExperimentConfig(m=3, d=2, T_grid=(10,), replicates=1))
    est, direct = built.estimator, built.direct
    assert isinstance(est, SkeletonEstimator) and isinstance(direct, DirectEstimator)
    assert est.cover.size == 8 and len(est.support) == 30
    assert not hasattr(direct, "support")
    tracer = Tracer()
    _on_estimator_built(tracer, (direct,), {}, None)
    assert tracer.counters == {}
    _on_estimator_built(tracer, (est,), {}, None)
    assert tracer.counters["estimators.yatracos_pairs"] == 8 * 7
    assert tracer.counters["estimators.support_size"] == 30


def test_select_from_counts_is_one_row_of_select_rows():
    # the traced estimators.select span wraps select_from_counts by name
    built = ratelab.build_setup(ratelab.ExperimentConfig(m=3, d=2, T_grid=(10,), replicates=1))
    est = built.estimator
    rng = np.random.default_rng(3)
    for T in (1, 10, 1000):
        for c in rng.multinomial(T, np.full(len(est.support), 1 / len(est.support)), size=5):
            assert est.select_from_counts(c, T) == est.select_rows(c[None], T)[0]
            assert type(est.select_from_counts(c, T)) is int


def test_serve_hook_counts_every_customer():
    # the traced run counts elicitation.customers as len(result.rows) of
    # the wrapped run_algorithm1, whose ledger is kept as columns
    _, family = presence_family(seed=0)
    schedule = ScheduleRDelta(0.1, (0, 20), (1.0, 0.0), (0.0, 0.0))
    res = run_algorithm1(
        family, FamilyOutcomeModel(family), schedule, 3, 0.2, T=60, seed=4,
        q_table=[1.0] * family.n_members,
    )
    tracer = Tracer()
    _on_serve(tracer, (), {}, res)
    assert tracer.counters == {"elicitation.customers": 60, "elicitation.fallbacks": res.fallbacks}


def test_cell_runners_are_called_once_per_cell(tmp_path):
    # the traced run counts ratelab.cells by wrapping each cell runner
    # where the run functions look it up, as a module attribute
    tracer = Tracer()
    for path, attr, _ in COUNTED:
        tracer._patch(path, attr, lambda fn, n=attr: tracer._counter(n, fn))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 10,30,60\nreplicates = 2\n")
    try:
        assert dispatch("rates", cfg, 0, tmp_path / "rates") == 0
        assert dispatch("lowerbound", cfg, 0, tmp_path / "lowerbound") == 0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    truths = len(ratelab.build_setup(ratelab.ExperimentConfig(m=3, d=2, T_grid=(10,), seed=0)).truth_ids)
    assert truths > 1
    assert tracer.counters == {"_upper_cell": 3 * truths, "_baseline_cell": truths, "_lower_cell": 3}


# tasks each workload simulates at program seed 0, as its set-up counts them
SETUP_TASKS = {"rates": 14_640_000, "rates-wide": 864_000, "elicit": 362_400, "checks": 220_000}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_setup_runs(name, monkeypatch):
    monkeypatch.chdir(PERFBENCH.parent)  # workload config paths are relative to the checkout
    assert setup(WORKLOADS[name], 0) == SETUP_TASKS[name]
