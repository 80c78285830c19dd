import csv
from dataclasses import replace

import numpy as np
import pytest

from priorlab.concepts import enumerate_concepts, uniform_distribution
from priorlab.errors import BudgetError
from priorlab.estimators import SkeletonEstimator
from priorlab.outcomes import DEFAULT_BUDGET
from priorlab.priors import CoverFamily, reference_prior, total_variation
from priorlab.ratelab import (
    BASELINE_CSV_HEADER,
    RATE_CSV_HEADER,
    ExperimentConfig,
    RateCurve,
    build_setup,
    coin_bound_table,
    counts_from_arrays_fast,
    fit_rate_exponent,
    format_cell,
    lower_bound_floor,
    run_baseline_comparison,
    run_lower_experiment,
    run_upper_experiment,
    theory_lower_exponent,
    theory_upper_exponent,
    write_csv,
)
from priorlab.sampling import sample_arrays, stream


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(T_grid=(100, 100))
    with pytest.raises(ValueError):
        ExperimentConfig(T_grid=(1000, 100))
    with pytest.raises(ValueError):
        ExperimentConfig(replicates=0)
    with pytest.raises(ValueError):
        ExperimentConfig(family="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(k=1, d=2)


def test_truth_count_is_read_by_the_parity_family_only():
    assert ExperimentConfig().truth_count == 8
    assert ExperimentConfig(m=3, d=1, family="twopoint").truth_count is None
    with pytest.raises(ValueError, match="'truth_count'"):
        ExperimentConfig(m=3, d=1, family="twopoint", truth_count=5)
    with pytest.raises(ValueError, match="'truth_count'"):
        ExperimentConfig(truth_count=-1)
    # build_setup would draw this many indices at once
    with pytest.raises(BudgetError, match="'truth_count'"):
        ExperimentConfig(truth_count=DEFAULT_BUDGET + 1)


def test_theory_exponents():
    # alpha^2 / (2 (d + 2a) (a + 2(d+1))): d=1, a=1 gives 1/(2*3*5) = 1/30
    assert theory_upper_exponent(1, 1.0) == pytest.approx(1 / 30)
    assert theory_lower_exponent(1, 1.0) == pytest.approx(1 / 4)
    assert theory_upper_exponent(2, 0.5) == pytest.approx(0.25 / (2 * 3 * 6.5))


def test_fit_rate_exponent_synthetic():
    pts = [(T, T**-0.25, 0.0) for T in (10, 100, 1000, 10000)]
    curve = RateCurve(pts, pts, 0.0, 0.0)
    fit = fit_rate_exponent(curve)
    assert fit.slope == pytest.approx(-0.25, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0)

    flat = [(T, 0.3, 0.0) for T in (10, 100, 1000)]
    fit = fit_rate_exponent(RateCurve(flat, flat, 0.0, 0.0))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(ValueError):
        fit_rate_exponent(RateCurve([(10, 0.0, 0.0), (100, 0.0, 0.0)], [], 0, 0))


def counts_from_tuples(est, xs, ys):
    """Oracle: look each task's (xs, ys) tuple up in the estimator's support."""
    index = {z: i for i, z in enumerate(est.support)}
    counts = np.zeros(len(est.support), dtype=np.int64)
    for row_x, row_y in zip(xs, ys):
        idx = index.get((tuple(int(v) for v in row_x), tuple(int(v) for v in row_y)))
        if idx is not None:
            counts[idx] += 1
    return counts, xs.shape[0]


def test_counts_fast_matches_tuple_path():
    config = ExperimentConfig(T_grid=(50,), replicates=1, seed=3)
    setup = build_setup(config)
    rng = stream(3, 1, 2)
    tasks = sample_arrays(
        setup.params_list[0], setup.space, setup.dist, 500, 2, rng
    )
    xs, ys = tasks.xs, tasks.ys
    fast, total_f = counts_from_arrays_fast(setup.estimator, 3, tasks)
    slow, total_s = counts_from_tuples(setup.estimator, xs, ys)
    assert total_f == total_s == 500
    assert np.array_equal(fast, slow)


def test_counting_rejects_other_task_widths():
    # a d=2 estimator cannot count width-3 tasks (the tuple oracle finds
    # none of them on its support); it must not read the first two columns
    setup = build_setup(ExperimentConfig(T_grid=(50,), replicates=1, seed=3))
    tasks = sample_arrays(
        setup.params_list[0], setup.space, setup.dist, 200, 3, stream(3, 1, 3)
    )
    xs, ys = tasks.xs, tasks.ys
    assert counts_from_tuples(setup.estimator, xs, ys)[0].sum() == 0
    with pytest.raises(ValueError):
        counts_from_arrays_fast(setup.estimator, 3, tasks)
    narrow = sample_arrays(
        setup.params_list[0], setup.space, setup.dist, 200, 2, stream(3, 1, 3)
    )
    with pytest.raises(ValueError):
        counts_from_arrays_fast(setup.estimator, 4, narrow)


def test_upper_experiment_twopoint_risk_decreases():
    config = ExperimentConfig(
        m=3, d=1, family="twopoint", T_grid=(10, 400), replicates=60, seed=11
    )
    res = run_upper_experiment(config)
    (t0, m0, s0), (t1, m1, s1) = res.curve.points
    assert t0 == 10 and t1 == 400
    # one-sided comparison at 95%: later mean is significantly below
    assert m1 < m0 - 1.645 * np.sqrt(s0**2 + s1**2)
    assert res.curve.theory_lower_exponent == pytest.approx(1 / 4)
    # rows carry the documented schema
    row = res.rows[0]
    assert row[0] == "rates" and len(row) == 11


def test_upper_experiment_singleton_family_zero_risk():
    # a cover with one member: nothing to estimate, risk identically 0
    sp = enumerate_concepts(2, 1)
    pi0 = reference_prior(sp)
    est = SkeletonEstimator(CoverFamily([pi0], 0.0), uniform_distribution(2), 1)
    tasks = sample_arrays(pi0, sp, uniform_distribution(2), 20, 1, stream(0))
    xs, ys = tasks.xs, tasks.ys
    sel, _ = est.select_from_counts(*est.count_outcomes(xs, ys))
    assert sel == 0


def test_upper_experiment_worker_invariance():
    config = ExperimentConfig(
        m=3, d=2, family="parity", T_grid=(30, 120), replicates=8, seed=5,
        truth_count=3,
    )
    r1 = run_upper_experiment(config, workers=1)
    r2 = run_upper_experiment(config, workers=2)
    assert r1.rows == r2.rows
    assert r1.curve.points == r2.curve.points


def test_upper_experiment_risk_nonincreasing_parity():
    config = ExperimentConfig(
        m=3, d=2, family="parity", T_grid=(100, 1000), replicates=40, seed=2,
        truth_count=4,
    )
    res = run_upper_experiment(config)
    (t0, m0, s0), (t1, m1, s1) = res.curve.points
    assert m1 <= m0 + 2 * np.sqrt(s0**2 + s1**2)


def test_lower_experiment_floor_and_events():
    config = ExperimentConfig(
        m=3, d=2, family="parity", T_grid=(50, 150), replicates=60, seed=9
    )
    res = run_lower_experiment(config)
    for T, cell in res.per_T.items():
        assert cell["pass"], (T, cell)
        assert cell["floor"] == pytest.approx(lower_bound_floor(config, T))
    # E[N_i] per task is (d!/m^d)/C(m,d) = 2/27
    assert res.ni_expected_per_task == pytest.approx(2 / 27)
    assert res.ni_within_3sigma
    assert all(len(r) == 11 for r in res.rows)


def test_lower_floor_formula_direct_substitution():
    # gamma = 0.05 at d=1, L=1, alpha=1 comes from m = 10
    config = ExperimentConfig(m=10, d=1, L=1.0, alpha=1.0, T_grid=(1000,), replicates=1)
    gamma = 0.05
    expected = gamma / 64 * np.exp(-43 * 4 * 1 * gamma**4 * 1000)
    assert lower_bound_floor(config, 1000) == pytest.approx(expected, rel=1e-12)


def test_lower_experiment_rejects_twopoint():
    config = ExperimentConfig(family="twopoint", T_grid=(10,), replicates=2, m=3, d=1)
    with pytest.raises(ValueError):
        run_lower_experiment(config)


def test_lower_experiment_rejects_k_other_than_d():
    config = ExperimentConfig(m=3, d=2, k=3, T_grid=(10,), replicates=2)
    with pytest.raises(ValueError, match="k = d"):
        run_lower_experiment(config)
    # k = d spelled out is the default testbed
    explicit = run_lower_experiment(replace(config, k=2))
    assert explicit.rows == run_lower_experiment(replace(config, k=None)).rows


def test_baseline_direct_beats_skeleton():
    config = ExperimentConfig(
        m=3, d=2, family="parity", T_grid=(200,), replicates=40, seed=13,
        truth_count=4,
    )
    res = run_baseline_comparison(config, T=200)
    assert res.ordered
    assert BASELINE_CSV_HEADER == RATE_CSV_HEADER + ("direct_id", "direct_tv_error")
    assert all(r._fields == BASELINE_CSV_HEADER for r in res.rows)
    # direct access should in fact be strictly better here, not just within slack
    assert res.direct_mean <= res.skeleton_mean


def test_coin_bound_table():
    rows = coin_bound_table([0.2, 0.5 - 1e-9], [0, 1, 10])
    assert all(r[4] for r in rows)
    g02_n0 = rows[0]
    assert g02_n0[2] == pytest.approx(0.5)
    assert g02_n0[3] == pytest.approx(1 / 32)
    with pytest.raises(ValueError):
        coin_bound_table([0.6], [1])
    with pytest.raises(ValueError):
        coin_bound_table([0.2], [-1])


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(m=3, d=2, T_grid=(10,)),
        ExperimentConfig(m=4, d=2, T_grid=(10,)),
        ExperimentConfig(m=4, d=3, T_grid=(10,)),
        ExperimentConfig(m=3, d=2, family="twopoint", T_grid=(10,)),
    ],
    ids=["parity-3-2", "parity-4-2", "parity-4-3", "twopoint"],
)
def test_setup_tv_matrix_matches_pairwise_total_variation(config):
    setup = build_setup(config)
    expected = np.array([[float(total_variation(a, b)) for b in setup.members] for a in setup.members])
    assert np.array_equal(setup.tv_matrix, expected)


def write_csv_by_row(path, header, rows):
    """The row-by-row writer: every cell through format_cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([format_cell(v) for v in row])


@pytest.mark.parametrize(
    "rows",
    [
        [
            (1, "A", 256, 0.0, -1, 0.1, True),
            (2, "Aprime", 3, 1e-17, 4, 1 / 3, False),
            (3, 'a "quoted", line\nbreak', -7, float("nan"), 0, -0.0, True),
        ],
        # mixed columns: int with float, bool with int, str with int, numpy scalars
        [(1, True, "x", np.int64(3), np.float64(0.5), np.bool_(True)),
         (2.5, 0, 7, np.int64(-1), np.float64(2.0), np.bool_(False))],
        [],
    ],
    ids=["typed-columns", "mixed-columns", "no-rows"],
)
def test_write_csv_bytes_match_row_by_row_writer(tmp_path, rows):
    header = tuple(f"c{i}" for i in range(7))
    write_csv(tmp_path / "by_column.csv", header, rows)
    write_csv_by_row(tmp_path / "by_row.csv", header, rows)
    assert (tmp_path / "by_column.csv").read_bytes() == (tmp_path / "by_row.csv").read_bytes()
