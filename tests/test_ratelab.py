import csv
import tracemalloc
from dataclasses import replace
from math import factorial, prod

import numpy as np
import pytest

from priorlab import ratelab
from priorlab.concepts import d_subsets, enumerate_concepts, uniform_distribution
from priorlab.errors import BudgetError
from priorlab.estimators import SkeletonEstimator
from priorlab.outcomes import DEFAULT_BUDGET
from priorlab.priors import CoverFamily, SmoothPriorParams, reference_prior, total_variation
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


def test_twopoint_rates_match_the_exact_risk():
    # On the two-point family the Yatracos sets cut the support into 3
    # atoms, and selection reads only the atom counts, so the risk at each
    # T is a finite sum over trinomial counts, scored by the run's own
    # selector.  Every per-truth Monte Carlo mean must lie within 4 se.
    config = ExperimentConfig(
        m=3, d=2, family="twopoint", T_grid=(2, 5, 10), replicates=400, seed=3
    )
    setup = build_setup(config)
    est = setup.estimator
    _, atom_of = np.unique(est._md.A.T, axis=0, return_inverse=True)
    assert atom_of.max() == 2
    first = [int(np.flatnonzero(atom_of == a)[0]) for a in range(3)]
    rows = run_upper_experiment(config).rows
    for truth in setup.truth_ids:
        q = np.bincount(atom_of, weights=est.truth_vectors(est.outcome_dists[truth])[0])
        for T in config.T_grid:
            exact = 0.0
            for n0 in range(T + 1):
                for n1 in range(T + 1 - n0):
                    n = (n0, n1, T - n0 - n1)
                    counts = np.zeros(len(est.support), dtype=np.int64)
                    counts[first] = n
                    selected, _ = est.select_from_counts(counts, T)
                    pmf = factorial(T) / prod(factorial(c) for c in n) * prod(q**n)
                    exact += pmf * setup.tv_matrix[truth, selected]
            errs = np.array([r.tv_error for r in rows if (r.T, r.truth_id) == (T, truth)])
            se = errs.std(ddof=1) / np.sqrt(len(errs))
            assert abs(errs.mean() - exact) <= 4 * se, (truth, T, errs.mean(), exact, se)
            if (truth, T) == (1, 10):
                # truth 1 is lost only when no task shows point 2: 0.81^10
                assert exact == pytest.approx(0.9**20)
            if truth == 0:
                assert exact == errs.mean() == 0  # ties go to member 0


def per_replicate_cells(config, T, T_idx, truth_id):
    """Oracle: the upper, baseline and lower cells as they ran one
    replicate at a time, each on its own `stream`, counted through the
    labels and selected one count vector at a time."""
    setup = build_setup(config)
    est, space, dist = setup.estimator, setup.space, setup.dist
    source = ratelab._source(setup, truth_id)
    q = est.truth_vectors(est.outcome_dists[truth_id])[0]
    upper, baseline, lower = [], [], []
    for rep in range(config.replicates):
        rng = stream(config.seed, ratelab._UPPER, T_idx, truth_id, rep)
        tasks = sample_arrays(source, space, dist, T, config.samples_per_task, rng)
        counts, _ = est.count_outcomes(tasks.xs, tasks.ys)
        selected, _ = est.select_from_counts(counts, T)
        dev = est._md.deviation(counts, T, est._md.truth_masses(q))
        upper.append((rep, selected, float(setup.tv_matrix[truth_id, selected]), dev))
        rng = stream(config.seed, ratelab._BASELINE, T_idx, truth_id, rep)
        tasks = sample_arrays(source, space, dist, T, config.samples_per_task, rng)
        sk, _ = est.select_from_counts(est.count_outcomes(tasks.xs, tasks.ys)[0], T)
        di, _ = setup.direct.select_from_counts(np.bincount(tasks.concepts, minlength=len(space)), T)
        baseline.append((rep, sk, di))
        if setup.params_list is None or config.samples_per_task != config.d:
            continue  # the lower-bound testbed runs on the parity family at k = d
        rng = stream(config.seed, ratelab._LOWER, T_idx, rep)
        b = tuple(1 if v else -1 for v in rng.integers(0, 2, size=len(setup.params_list[0].b)))
        params = SmoothPriorParams(b, config.L, config.alpha, config.m, config.d)
        tasks = sample_arrays(params, space, dist, T, config.d, rng)
        selected, _ = est.select_from_counts(est.count_outcomes(tasks.xs, tasks.ys)[0], T)
        x_masks = np.bitwise_or.reduce(1 << (tasks.xs - 1), axis=1)
        subs = np.asarray(d_subsets(config.m, config.d))
        lower.append((rep, selected, int((x_masks == subs[tasks.trace[0]]).sum())))
    return upper, baseline, lower


@pytest.mark.parametrize(
    "config",
    [
        # 64 members: scored a row at a time
        ExperimentConfig(m=4, d=2, T_grid=(7,), replicates=100, truth_count=1, seed=2),
        ExperimentConfig(m=3, d=2, T_grid=(5,), replicates=160, truth_count=1, seed=3),
        ExperimentConfig(m=3, d=2, family="twopoint", T_grid=(9,), replicates=50, seed=4),
        # k > d: 4,530 support points, one replicate per block
        ExperimentConfig(m=3, d=2, k=6, T_grid=(40,), replicates=12, truth_count=1, seed=5),
    ],
    ids=["parity-m4", "parity-m3", "twopoint", "parity-k6"],
)
def test_lock_step_cells_match_one_replicate_at_a_time(config, monkeypatch):
    setup = build_setup(config)
    T = config.T_grid[0]
    # blocks of 224 count values: 3 or 4 replicates of the m=4 family
    monkeypatch.setattr(ratelab, "_BLOCK_VALUES", 224)
    for truth_id in setup.truth_ids[:2]:
        upper, baseline, lower = per_replicate_cells(config, T, 0, truth_id)
        payload = (config.__dict__, T, 0, truth_id)
        got = [(r.report.replicate, r.rate.selected_id, r.rate.tv_error, r.report.max_yatracos_dev)
               for r in ratelab._upper_cell(payload)]
        assert got == upper
        got = [(r.replicate, r.selected_id, r.direct_id) for r in ratelab._baseline_cell(payload)]
        assert got == baseline
        if lower:
            rows = ratelab._lower_cell((config.__dict__, T, 0))
            assert [(r.rate.replicate, r.rate.selected_id, r.n_events) for r in rows] == lower


def test_cells_with_k_above_d_allocate_little():
    # k = 6 on the m=3, d=2 family: 8,748 (concept draw, points) patterns
    # and 4,530 support points, so a table over both would take 317 MB;
    # counting outcome codes needs one 46,656-entry bincount per replicate
    config = ExperimentConfig(m=3, d=2, k=6, T_grid=(50,), replicates=5, truth_count=0, seed=6)
    build_setup(config)
    tracemalloc.start()
    try:
        ratelab._upper_cell((config.__dict__, 50, 0, 0))
        ratelab._baseline_cell((config.__dict__, 50, 0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
