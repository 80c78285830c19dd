from fractions import Fraction
from math import comb

import numpy as np
import pytest

from priorlab import estimators, ratelab
from priorlab.cli import dispatch
from priorlab.concepts import enumerate_concepts, uniform_distribution
from priorlab.errors import BudgetError
from priorlab.estimators import (
    DirectEstimator,
    _MinDistance,
    SkeletonEstimator,
    _as_fraction,
    _bayes_error_ratios,
    coin_floor,
    exact_bayes_error,
    majority_rule,
    reduce_to_signs,
    yatracos_sets,
)
from priorlab.outcomes import tv
from priorlab.priors import (
    CoverFamily,
    SmoothPriorParams,
    cover_of_family,
    point_mass,
    reference_prior,
    smooth_prior,
    parity_family,
)
from priorlab.sampling import outcome_codes, sample_arrays, stream

from min_distance_reference import AllPairsMinDistance, ExactSkeleton, differences, scorer  # noqa: F401
from outcome_reference import dict_skeleton, exact_tv, fraction_law, outcome_tuple

SP32 = enumerate_concepts(3, 2)
D3 = uniform_distribution(3)


def count_tasks(est, tasks):
    """Support counts of sampled tasks, coded from their points and labels."""
    return est.count_codes(outcome_codes(tasks.xs, tasks.ys, est.dist.m))


def test_singleton_cover_returns_member_zero():
    pi0 = reference_prior(SP32)
    cover = CoverFamily([pi0], 0.0)
    est = SkeletonEstimator(cover, D3, 2)
    tasks = sample_arrays(pi0, SP32, D3, 5, 2, stream(1))
    assert est.select_from_counts(*count_tasks(est, tasks)) == 0


def test_skeleton_separated_point_masses():
    # two point masses at rho = 1 (m=2): every task distinguishes them
    sp = enumerate_concepts(2, 1)
    D = uniform_distribution(2)
    a, b = point_mass(sp, 0b01), point_mass(sp, 0b10)
    cover = CoverFamily([a, b], 0.0)
    est = SkeletonEstimator(cover, D, 1)
    correct = 0
    runs = 200
    for r in range(runs):
        tasks = sample_arrays(a, sp, D, 50, 1, stream(1000 + r))
        correct += est.select_from_counts(*count_tasks(est, tasks)) == 0
    assert correct / runs >= 0.99


def test_skeleton_guarantee_on_parity_family():
    # truth in the cover: tv(selected outcome law, truth outcome law)
    # <= 2 * max Yatracos deviation, exactly (min distance term is 0)
    params, members = parity_family(SP32, 1.0, 1.0, exact=True)
    cover = cover_of_family(members, 0.0)
    est = SkeletonEstimator(cover, D3, 2)
    oracle = ExactSkeleton(est)
    truth_idx = 5
    tasks = sample_arrays(members[truth_idx], SP32, D3, 10_000, 2, stream(77))
    counts, total = count_tasks(est, tasks)
    selected = est.select_from_counts(counts, total)
    assert selected == oracle.select(counts, total)
    truth_law = oracle.laws[truth_idx]
    dev = oracle.deviation(counts, total, truth_law)
    gap = exact_tv(oracle.laws[selected], truth_law)
    assert gap <= 2 * dev  # exact Fractions on both sides


def test_decomposition_check_exact_random_runs():
    params, members = parity_family(SP32, 1.0, 1.0, exact=True)
    cover = cover_of_family(members, 0.0)
    est = SkeletonEstimator(cover, D3, 2)
    oracle = ExactSkeleton(est)
    rng = np.random.default_rng(0)
    for r in range(20):
        truth_idx = int(rng.integers(8))
        tasks = sample_arrays(members[truth_idx], SP32, D3, 200, 2, stream(500 + r))
        counts, total = count_tasks(est, tasks)
        lhs, rhs, holds = oracle.decomposition_check(counts, total, oracle.laws[truth_idx])
        assert holds
        assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
        assert est.select_from_counts(counts, total) == oracle.select(counts, total)


def test_decomposition_check_truth_outside_cover():
    # guarantee must hold for an arbitrary truth, not only cover members
    _, members = parity_family(SP32, 1.0, 1.0, exact=True)
    cover = cover_of_family(members[:4], 0.0)
    est = SkeletonEstimator(cover, D3, 2)
    oracle = ExactSkeleton(est)
    truth = members[7]
    truth_law = fraction_law(truth, D3, 2)
    for r in range(10):
        tasks = sample_arrays(truth, SP32, D3, 300, 2, stream(900 + r))
        counts, total = count_tasks(est, tasks)
        lhs, rhs, holds = oracle.decomposition_check(counts, total, truth_law)
        assert holds


def test_float_selection_picks_the_fraction_oracles_member():
    _, members = parity_family(SP32, 1.0, 1.0, exact=True)
    est = SkeletonEstimator(cover_of_family(members, 0.0), D3, 2)
    tasks = sample_arrays(members[3], SP32, D3, 500, 2, stream(8))
    counts, total = count_tasks(est, tasks)
    assert est.select_from_counts(counts, total) == ExactSkeleton(est).select(counts, total)


def direct_select(cover, concept_idx):
    """The baseline's selection from sampled concept indices, as `rates` runs it."""
    counts = np.bincount(concept_idx, minlength=len(SP32))
    return int(DirectEstimator(cover).select_rows(counts[None], len(concept_idx))[0])


def test_direct_estimate_examples():
    _, members = parity_family(SP32, 1.0, 1.0)
    # point-mass truth inside a cover that contains it: with many direct
    # observations the empirical law converges to that member
    pm_cover = CoverFamily([point_mass(SP32, 0b011), point_mass(SP32, 0b000)], 0.0)
    idx = sample_arrays(pm_cover.members[0], SP32, D3, 50, 2, stream(42, 0)).concepts
    assert direct_select(pm_cover, idx) == 0
    assert direct_select(CoverFamily([members[0]], 0.0), idx[:1]) == 0


def test_direct_estimator_recovers_truth_from_samples():
    _, members = parity_family(SP32, 1.0, 1.0)
    cover = cover_of_family(members, 0.0)
    truth = members[6]
    concept_idx = sample_arrays(truth, SP32, D3, 20_000, 2, stream(7, 1)).concepts
    assert direct_select(cover, concept_idx) == 6


def searchsorted_counts(est, xs, ys):
    """Oracle: the binary-search counter, with points in base m then one
    bit per label, looked up in the sorted codes of the support."""
    m = est.dist.m

    def codes_of(xs, ys):
        codes = np.zeros(len(xs), dtype=np.int64)
        for j in range(xs.shape[1]):
            codes = codes * m + (xs[:, j] - 1)
        for j in range(ys.shape[1]):
            codes = (codes << 1) | (ys[:, j] > 0)
        return codes

    support = [outcome_tuple(z, m, est.d) for z in est.support]
    support_codes = codes_of(np.array([x for x, _ in support]), np.array([y for _, y in support]))
    order = np.argsort(support_codes, kind="stable")
    table = support_codes[order]
    codes = codes_of(xs, ys)
    pos = np.minimum(np.searchsorted(table, codes), len(table) - 1)
    on_support = table[pos] == codes
    return np.bincount(order[pos[on_support]], minlength=len(est.support)).astype(np.int64)


@pytest.mark.parametrize(
    "config",
    [
        ratelab.ExperimentConfig(m=3, d=2),
        ratelab.ExperimentConfig(m=4, d=2),
        ratelab.ExperimentConfig(m=5, d=2, family="twopoint"),
        ratelab.ExperimentConfig(m=3, d=2, k=3),
    ],
    ids=["parity-m3", "parity-m4", "twopoint-m5", "k3-d2"],
)
def test_count_codes_matches_searchsorted_oracle(config):
    est = ratelab.build_setup(config).estimator
    k = config.samples_per_task
    rng = np.random.default_rng(17)
    for T in (0, 1, 5000):
        xs = rng.integers(1, config.m + 1, size=(T, k))
        ys = 2 * rng.integers(0, 2, size=(T, k)) - 1
        expected = searchsorted_counts(est, xs, ys)
        counts, total = est.count_codes(outcome_codes(xs, ys, config.m))
        assert total == T
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)
    # uniform labels put some outcomes off every support here
    assert 0 < expected.sum() < T


SKELETON_SHAPES = [
    dict(m=3, d=2), dict(m=4, d=2), dict(m=4, d=3, k=3), dict(m=4, d=3, k=4), dict(m=3, d=2, k=4),
    dict(m=4, d=2, k=3), dict(m=5, d=1),
    *(dict(m=m, d=2, family="twopoint", twopoint_weight=w) for m in (5, 6) for w in (0.05, 0.0)),
]


@pytest.mark.parametrize("shape", SKELETON_SHAPES, ids=lambda s: "-".join(map(str, s.values())))
def test_skeleton_tables_are_the_dict_loops_bit_for_bit(shape):
    # the support, in ascending index order, is the sorted union of the
    # members' outcome tuples, M equals the mass table filled from their
    # dicts (label cells of at most 7 concepts), and support_index finds
    # each outcome where a tuple lookup does; a twopoint D of weight 0
    # keeps the outcomes on points 1 and 2 at mass 0
    config = ratelab.ExperimentConfig(T_grid=(10,), replicates=2, **shape)
    est = ratelab.build_setup(config).estimator
    support, M = dict_skeleton(est.cover, est.dist, est.d)
    m, k = config.m, config.samples_per_task
    assert [outcome_tuple(z, m, k) for z in est.support] == support
    assert est._md.M.tobytes() == M.tobytes()
    rng = np.random.default_rng(5)
    xs = rng.integers(1, m + 1, size=(2000, k))
    ys = 2 * rng.integers(0, 2, size=(2000, k)) - 1
    index = {z: i for i, z in enumerate(support)}
    want = [index.get((tuple(x), tuple(y)), len(support)) for x, y in zip(xs.tolist(), ys.tolist())]
    assert est.support_index(outcome_codes(xs, ys, m)).tolist() == want


def test_min_distance_checks_budget_before_allocating():
    # 1,100 members make 1,208,900 pairs; A and PA would need gigabytes
    with pytest.raises(BudgetError, match="budget"):
        _MinDistance(np.full((1100, 10), 0.1))


def _assert_matches_oracle(md, oracle, count_vectors, truths):
    """Scores, selected index and deviations equal the float all-pairs
    oracle's exactly, for a stack of two copies of each count vector."""
    for counts in count_vectors:
        assert differences(md, oracle, np.stack([counts, counts]), int(counts.sum()), truths) == []


def _skeleton_count_vectors(setup, config, seed):
    rng = stream(seed, 0)
    vectors = []
    for truth_id in setup.truth_ids:
        source = ratelab._source(setup, truth_id)
        for T in (1, 7, 100, 2000):
            tasks = sample_arrays(source, setup.space, setup.dist, T, config.d, rng)
            vectors.append(count_tasks(setup.estimator, tasks)[0])
    return vectors


def _float_setup_matches_oracle(config):
    setup = ratelab.build_setup(config)
    est = setup.estimator
    oracle = AllPairsMinDistance(est._md.M)
    truths = list(est._md.M)
    _assert_matches_oracle(est._md, oracle, _skeleton_count_vectors(setup, config, 11), truths)
    return setup


def test_distinct_sets_match_all_pairs_on_parity_m4(scorer):
    setup = _float_setup_matches_oracle(
        ratelab.ExperimentConfig(m=4, d=2, T_grid=(10,), replicates=1, truth_count=4)
    )
    md = setup.estimator._md
    assert len(md._pair_set) == 64 * 63
    assert md.A.shape == (728, 56)  # the distinct sets, and no pair of its own
    assert md.PA.shape == (64, 728)


def test_select_rows_takes_one_total_per_row(scorer):
    # a stack of count vectors of mixed task totals scores and selects
    # each row as a one-row call with that row's total does
    config = ratelab.ExperimentConfig(m=4, d=2, T_grid=(10,), replicates=1, truth_count=4)
    setup = ratelab.build_setup(config)
    md = setup.estimator._md
    stack = np.stack(_skeleton_count_vectors(setup, config, 13))
    totals = stack.sum(axis=1)
    assert len(set(totals.tolist())) > 3
    rows = [md._scores(md.empirical(c[None], int(t))) for c, t in zip(stack, totals)]
    assert md._scores(md.empirical(stack, totals)).tolist() == np.concatenate(rows).tolist()
    assert md.select_rows(stack, totals).tolist() == [
        int(md.select_rows(c[None], int(t))[0]) for c, t in zip(stack, totals)
    ]


def test_distinct_sets_match_all_pairs_on_twopoint(scorer):
    _float_setup_matches_oracle(
        ratelab.ExperimentConfig(m=4, d=1, family="twopoint", T_grid=(10,), replicates=1)
    )


def test_distinct_sets_match_all_pairs_on_parity_m3(scorer):
    # bit for bit the float all-pairs oracle, and the same member as the
    # Fraction oracle, whose deviation the float one rounds
    _, members = parity_family(SP32, 1.0, 1.0, exact=True)
    est = SkeletonEstimator(cover_of_family(members, 0.0), D3, 2)
    exact = ExactSkeleton(est)
    assert len(est._md.A) < len(exact.md.A)
    vectors = []
    for r in range(6):
        tasks = sample_arrays(members[r], SP32, D3, 3 + 97 * r, 2, stream(40 + r))
        vectors.append(count_tasks(est, tasks)[0])
    truths = list(est._md.M)
    _assert_matches_oracle(est._md, AllPairsMinDistance(est._md.M), vectors, truths)
    for counts in vectors:
        total = int(counts.sum())
        assert est.select_from_counts(counts, total) == exact.select(counts, total)
        for masses, law in zip(est._md.truth_masses(np.stack(truths)), exact.laws):
            got = est._md.deviation_rows(est._md.empirical(counts[None], total), masses)[0]
            assert got == pytest.approx(float(exact.deviation(counts, total, law)), abs=1e-12)


def test_yatracos_sets_match_the_guarded_float_rule():
    _, members = parity_family(SP32, 1.0, 1.0)
    M = SkeletonEstimator(cover_of_family(members, 0.0), D3, 2)._md.M
    # a strict ">" with a 1e-12 guard; the two added rows sit just inside
    # and just outside the guard above the first
    M = np.vstack([M, M[0] + 5e-13, M[0] + 5e-12])
    off = ~np.eye(len(M), dtype=bool)
    got = yatracos_sets(M)
    assert got.dtype == bool
    assert np.array_equal(got, (M[:, None, :] > M[None, :, :] + 1e-12)[off])


def test_distinct_sets_one_member_and_identical_members(scorer):
    pi0 = reference_prior(SP32, exact=True)
    counts = [np.arange(len(SP32), dtype=np.int64), np.eye(1, len(SP32), 4, dtype=np.int64)[0]]
    for cover in (CoverFamily([pi0], 0.0), CoverFamily([pi0, pi0, pi0], 0.0)):
        mass = np.stack([p.mass for p in cover.members])
        md = _MinDistance(mass)
        _assert_matches_oracle(
            md, AllPairsMinDistance(mass), counts, [pi0.mass, np.full(len(SP32), 0.5)]
        )
        assert not md.A.any()  # no pair, or only the empty set
        est = SkeletonEstimator(cover, D3, 2)
        exact = ExactSkeleton(est)
        c = np.arange(len(est.support), dtype=np.int64)
        total = int(c.sum())
        assert est.select_from_counts(c, total) == exact.select(c, total) == 0
        (q,) = est._md.truth_masses(est._md.M[:1])
        assert est._md.deviation_rows(est._md.empirical(c[None], total), q).tolist() == [0.0]
        assert exact.deviation(c, total, exact.laws[0]) == 0


def test_direct_estimator_distinct_sets_match_all_pairs(scorer):
    config = ratelab.ExperimentConfig(m=4, d=2, T_grid=(10,), replicates=1, truth_count=4)
    setup = ratelab.build_setup(config)
    md = setup.direct._md
    oracle = AllPairsMinDistance(np.stack([p.mass for p in setup.estimator.cover.members]))
    assert md.A.shape == (272, len(setup.space))
    rng = stream(12, 0)
    vectors = []
    for truth_id in setup.truth_ids:
        source = ratelab._source(setup, truth_id)
        for T in (1, 50, 3000):
            idx = sample_arrays(source, setup.space, setup.dist, T, 2, rng).concepts
            vectors.append(np.bincount(idx, minlength=len(setup.space)))
    _assert_matches_oracle(md, oracle, vectors, [p.mass for p in setup.members[:5]])


@pytest.mark.parametrize("m", [4, 3])
def test_rates_cli_byte_identical_to_all_pairs_selection(tmp_path, monkeypatch, m):
    # the deviation column rounds through a BLAS product; at m=3 a product
    # over the distinct sets alone changes its last bits for some truths
    cfg = tmp_path / "r.cfg"
    cfg.write_text(
        f"m = {m}\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 20,200\nreplicates = 3\ntruth_count = 3\n"
    )
    for name, cls in (("distinct", _MinDistance), ("all_pairs", AllPairsMinDistance)):
        monkeypatch.setattr(estimators, "_MinDistance", cls)
        monkeypatch.setattr(ratelab, "_SETUP_CACHE", {})
        assert dispatch("rates", cfg, 5, tmp_path / name) == 0
        (setup,) = ratelab._SETUP_CACHE.values()
        assert type(setup.estimator._md) is cls and type(setup.direct._md) is cls
    names = sorted(
        p.name for p in (tmp_path / "distinct").iterdir()
        if p.suffix == ".csv" or p.name == "summary.txt"
    )
    assert names == ["baseline.csv", "rates.csv", "skeleton_report.csv", "summary.txt"]
    for name in names:
        assert (tmp_path / "distinct" / name).read_bytes() == (
            tmp_path / "all_pairs" / name
        ).read_bytes(), name


def test_reduce_to_signs_threshold_and_recovery():
    params = SmoothPriorParams((1, -1, 1), 1.0, 1.0, 3, 2)
    pb = smooth_prior(params, SP32, exact=True)
    red = reduce_to_signs(pb, params)
    assert red.threshold == pytest.approx(1 / 12)
    assert red.b_hat == (1, -1, 1)
    g = params.gamma_m
    assert red.p_hat == tuple((1 + g * b) / 2 for b in (1, -1, 1))
    for p in red.p_hat:
        assert p in ((1 - g) / 2, (1 + g) / 2)


def test_reduce_to_signs_recovers_all_sign_vectors():
    params_list, members = parity_family(SP32, 1.0, 1.0, exact=True)
    for params, member in zip(params_list, members):
        assert reduce_to_signs(member, params).b_hat == params.b


def test_reduce_to_signs_boundary_on_reference():
    # pi0 sits exactly at the threshold on every full d-subset concept:
    # the strict ">" sends every coordinate to the else-branch
    params = SmoothPriorParams((1, 1, 1), 1.0, 1.0, 3, 2)
    pi0 = reference_prior(SP32, exact=True)
    red = reduce_to_signs(pi0, params)
    below_sign = 1 - 2 * (2 % 2)  # d = 2 is even
    assert red.b_hat == (below_sign,) * 3 == (1, 1, 1)


def test_majority_rule_examples():
    assert majority_rule([1, 1, 1], 0.2) == pytest.approx(0.6)
    assert majority_rule([0, 0, 0, 0], 0.2) == pytest.approx(0.4)
    assert majority_rule([], 0.2) == pytest.approx(0.6)  # no data: tie side
    assert majority_rule([1, 0], 0.2) == pytest.approx(0.6)  # tie to high
    with pytest.raises(ValueError):
        majority_rule([1], 0.0)


def test_exact_bayes_error_known_values():
    assert exact_bayes_error(Fraction(1, 2), 1) == Fraction(1, 4)
    assert exact_bayes_error(Fraction(1, 5), 0) == Fraction(1, 2)
    # n = 25, gamma = 0.2: exact binomial sums beat the floor
    be = exact_bayes_error(Fraction(1, 5), 25)
    assert float(be) == pytest.approx(0.1537677689757629, abs=1e-12)
    assert float(be) >= coin_floor(0.2, 25)


def majority_rule_error(g: Fraction, n: int) -> Fraction:
    """Oracle: exact average error of the tie-to-high majority rule."""
    p_hi = (1 + g) / 2
    p_lo = (1 - g) / 2
    err = Fraction(0)
    for x in range(n + 1):
        c = comb(n, x)
        says_high = n == 0 or Fraction(x, n) >= Fraction(1, 2)
        if says_high:
            err += c * p_lo**x * (1 - p_lo) ** (n - x)  # said high, truth low
        else:
            err += c * p_hi**x * (1 - p_hi) ** (n - x)  # said low, truth high
    return err / 2


def test_majority_rule_attains_bayes_error():
    for gamma in (Fraction(1, 20), Fraction(1, 4), Fraction(9, 20)):
        for n in (0, 1, 2, 5, 10, 25):
            assert majority_rule_error(gamma, n) == exact_bayes_error(gamma, n)


def min_form_bayes_error(g: Fraction, n: int) -> Fraction:
    """Oracle: (1/2) sum_x min(pmf_high(x), pmf_low(x)) term by term, in
    integer numerators over (2q)^n."""
    a, b = g.denominator + g.numerator, g.denominator - g.numerator
    total = sum(comb(n, x) * min(a**x * b ** (n - x), b**x * a ** (n - x)) for x in range(n + 1))
    return Fraction(total, 2 * (2 * g.denominator) ** n)


def test_exact_bayes_error_matches_min_form_on_shipped_grid():
    # the 2,010 (gamma, n) pairs of configs/coinbound.cfg
    for g100 in range(5, 55, 5):
        gamma = Fraction(str(g100 / 100))
        for n in range(201):
            assert exact_bayes_error(gamma, n) == min_form_bayes_error(gamma, n), (gamma, n)


def direct_sum_bayes_error(gamma, n: int) -> Fraction:
    """Oracle: twice the high-bias terms with 2x < n plus the middle term,
    each n summed on its own in integer numerators over (2q)^n."""
    g = _as_fraction(gamma)
    a, b = g.denominator + g.numerator, g.denominator - g.numerator
    total = 2 * sum(comb(n, x) * a**x * b ** (n - x) for x in range((n + 1) // 2))
    if n % 2 == 0:
        total += comb(n, n // 2) * (a * b) ** (n // 2)
    return Fraction(total, 2 * (2 * g.denominator) ** n)



def exact_bayes_errors(gamma, n_max: int) -> list[Fraction]:
    """The exact Bayes errors for n = 0..n_max from one recurrence pass."""
    return [Fraction(num, den) for num, den in _bayes_error_ratios(gamma, n_max)]


SHIPPED_GAMMAS = tuple(g100 / 100 for g100 in range(5, 55, 5))  # configs/coinbound.cfg


def test_bayes_error_table_is_the_direct_sum_on_shipped_grid():
    # all 2,010 (gamma, n) pairs, as the coinbound config's floats
    for gamma in SHIPPED_GAMMAS:
        oracle = [direct_sum_bayes_error(gamma, n) for n in range(201)]
        assert exact_bayes_errors(gamma, 200) == oracle, gamma
        rows = ratelab.coin_bound_table([gamma], range(201))
        assert [r[2] for r in rows] == [float(e) for e in oracle], gamma


@pytest.mark.parametrize("gamma", [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)])
def test_bayes_error_table_is_the_direct_sum_on_fraction_gammas(gamma):
    table = exact_bayes_errors(gamma, 300)
    assert table == [direct_sum_bayes_error(gamma, n) for n in range(301)]
    for n in (0, 1, 2, 3, 150, 299, 300):
        assert exact_bayes_error(gamma, n) == table[n]


def test_coin_bound_table_on_gapped_descending_repeated_ns():
    ns = (7, 0, 7, 3)
    rows = ratelab.coin_bound_table([0.2, Fraction(1, 3)], ns)
    expected = []
    for g in (Fraction(1, 5), Fraction(1, 3)):
        for n in ns:
            err = float(direct_sum_bayes_error(g, n))
            floor = coin_floor(float(g), n)
            expected.append((float(g), n, err, floor, err >= floor))
    assert rows == expected
    assert ratelab.coin_bound_table([0.2], ()) == []
    with pytest.raises(ValueError):
        ratelab.coin_bound_table([0.2], (3, -1))
    with pytest.raises(ValueError):
        exact_bayes_errors(0.2, -1)


def test_coin_floor_grid_small():
    # a slice of the acceptance grid; the full grid runs in acceptance
    for g100 in (5, 20, 50):
        gamma = Fraction(g100, 100)
        for n in (0, 1, 7, 50, 200):
            assert float(exact_bayes_error(gamma, n)) >= coin_floor(float(gamma), n)


def test_reduction_fidelity_inequality():
    # tv(pi_hat, pi_b) >= (1/2) sum_i (2^d C(m,d))^{-1} |p_hat_i - p_i|,
    # the reduction's chain of inequalities, exact for cover-member estimates
    params_list, members = parity_family(SP32, 1.0, 1.0, exact=True)
    g = Fraction(1, 6)
    for truth_i in range(8):
        for est_i in range(8):
            red = reduce_to_signs(members[est_i], params_list[truth_i])
            p_true = [(1 + g * b) / 2 for b in params_list[truth_i].b]
            p_est = [(1 + g * b) / 2 for b in red.b_hat]
            rhs = (
                sum(
                    (abs(a - b) for a, b in zip(p_est, p_true)),
                    start=Fraction(0),
                )
                * Fraction(1, 2 * 4 * 3)
            )
            lhs = tv(members[est_i], members[truth_i])
            assert lhs >= rhs
