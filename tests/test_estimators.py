from fractions import Fraction
from math import comb

import numpy as np
import pytest

from priorlab import estimators, ratelab
from priorlab.cli import dispatch
from priorlab.concepts import DataDistribution, enumerate_concepts, uniform_distribution
from priorlab.errors import BudgetError
from priorlab.estimators import (
    DirectEstimator,
    _MinDistance,
    SkeletonEstimator,
    SkeletonReport,
    _as_fraction,
    coin_floor,
    exact_bayes_error,
    exact_bayes_errors,
    majority_rule,
    reduce_to_signs,
    yatracos_scores,
    yatracos_sets,
)
from priorlab.outcomes import DEFAULT_BUDGET, exact_outcome_dist, tv
from priorlab.priors import (
    CoverFamily,
    SmoothPriorParams,
    cover_of_family,
    point_mass,
    reference_prior,
    smooth_prior,
    parity_family,
)
from priorlab.sampling import sample_arrays, stream

SP32 = enumerate_concepts(3, 2)
D3 = uniform_distribution(3)


def test_singleton_cover_returns_member_zero():
    pi0 = reference_prior(SP32)
    cover = CoverFamily([pi0], 0.0)
    est = SkeletonEstimator(cover, D3, 2)
    tasks = sample_arrays(pi0, SP32, D3, 5, 2, stream(1))
    xs, ys = tasks.xs, tasks.ys
    idx, rep = est.select_from_counts(*est.count_outcomes(xs, ys))
    assert idx == 0


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
        xs, ys = tasks.xs, tasks.ys
        idx, _ = est.select_from_counts(*est.count_outcomes(xs, ys))
        correct += idx == 0
    assert correct / runs >= 0.99


def test_skeleton_rejects_mismatched_k_and_empty():
    pi0 = reference_prior(SP32)
    est = SkeletonEstimator(CoverFamily([pi0], 0.0), D3, 2)
    tasks = sample_arrays(pi0, SP32, D3, 4, 3, stream(0))
    xs, ys = tasks.xs, tasks.ys
    with pytest.raises(ValueError):
        est.count_outcomes(xs, ys)


def test_count_outcomes_rejects_points_outside_1_to_m():
    # a point m + 1 was coded as another support outcome, and a point 0
    # reached bincount as a negative code
    _, members = parity_family(SP32, 1.0, 1.0)
    est = SkeletonEstimator(cover_of_family(members, 0.0), D3, 2)
    ys = np.array([[1, 1]])
    for xs in ([[1, 4]], [[0, 2]]):
        with pytest.raises(ValueError, match="1..3"):
            est.count_outcomes(np.array(xs), ys)


def test_count_outcomes_rejects_labels_outside_plus_minus_one():
    # the outcome code reads y > 0, so a label 0 would be counted as -1
    _, members = parity_family(SP32, 1.0, 1.0)
    est = SkeletonEstimator(cover_of_family(members, 0.0), D3, 2)
    xs = np.array([[1, 2]])
    for ys in ([[0, 1]], [[2, 1]], [[-1, -2]]):
        with pytest.raises(ValueError, match="labels"):
            est.count_outcomes(xs, np.array(ys))


def test_skeleton_guarantee_on_parity_family():
    # truth in the cover: tv(selected outcome law, truth outcome law)
    # <= 2 * max Yatracos deviation, exactly (min distance term is 0)
    params, members = parity_family(SP32, 1.0, 1.0, exact=True)
    cover = cover_of_family(members, 0.0)
    est = SkeletonEstimator(cover, D3, 2, exact=True)
    truth_idx = 5
    tasks = sample_arrays(members[truth_idx], SP32, D3, 10_000, 2, stream(77))
    xs, ys = tasks.xs, tasks.ys
    counts, total = est.count_outcomes(xs, ys)
    selected, _ = est.select_from_counts(counts, total)
    truth_od = est.outcome_dists[truth_idx]
    dev = est.max_deviation(counts, total, truth_od)
    gap = tv(est.outcome_dists[selected], truth_od)
    assert gap <= 2 * dev  # exact Fractions on both sides


def test_decomposition_check_exact_random_runs():
    params, members = parity_family(SP32, 1.0, 1.0, exact=True)
    cover = cover_of_family(members, 0.0)
    est = SkeletonEstimator(cover, D3, 2, exact=True)
    rng = np.random.default_rng(0)
    for r in range(20):
        truth_idx = int(rng.integers(8))
        tasks = sample_arrays(members[truth_idx], SP32, D3, 200, 2, stream(500 + r))
        xs, ys = tasks.xs, tasks.ys
        counts, total = est.count_outcomes(xs, ys)
        lhs, rhs, holds = est.decomposition_check(counts, total, est.outcome_dists[truth_idx])
        assert holds
        assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)


def test_decomposition_check_truth_outside_cover():
    # guarantee must hold for an arbitrary truth, not only cover members
    _, members = parity_family(SP32, 1.0, 1.0, exact=True)
    cover = cover_of_family(members[:4], 0.0)
    est = SkeletonEstimator(cover, D3, 2, exact=True)
    truth = members[7]
    truth_od = exact_outcome_dist(truth, D3, 2, exact=True)
    for r in range(10):
        tasks = sample_arrays(truth, SP32, D3, 300, 2, stream(900 + r))
        xs, ys = tasks.xs, tasks.ys
        counts, total = est.count_outcomes(xs, ys)
        lhs, rhs, holds = est.decomposition_check(counts, total, truth_od)
        assert holds


def test_exact_and_float_selection_agree_generically():
    _, members = parity_family(SP32, 1.0, 1.0, exact=True)
    cover = cover_of_family(members, 0.0)
    est_e = SkeletonEstimator(cover, D3, 2, exact=True)
    est_f = SkeletonEstimator(cover, D3, 2, exact=False)
    tasks = sample_arrays(members[3], SP32, D3, 500, 2, stream(8))
    xs, ys = tasks.xs, tasks.ys
    ce, te = est_e.count_outcomes(xs, ys)
    cf, tf = est_f.count_outcomes(xs, ys)
    assert est_e.select_from_counts(ce, te)[0] == est_f.select_from_counts(cf, tf)[0]


def direct_select(cover, concept_idx):
    """The baseline's selection from sampled concept indices, as `rates` runs it."""
    counts = np.bincount(concept_idx, minlength=len(SP32))
    return DirectEstimator(cover).select_from_counts(counts, len(concept_idx))[0]


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

    support_codes = codes_of(
        np.array([x for x, _ in est.support]), np.array([y for _, y in est.support])
    )
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
def test_count_outcomes_matches_searchsorted_oracle(config):
    est = ratelab.build_setup(config).estimator
    k = config.samples_per_task
    rng = np.random.default_rng(17)
    for T in (0, 1, 5000):
        xs = rng.integers(1, config.m + 1, size=(T, k))
        ys = 2 * rng.integers(0, 2, size=(T, k)) - 1
        expected = searchsorted_counts(est, xs, ys)
        counts, total = est.count_outcomes(xs, ys)
        assert total == T
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)
    # uniform labels put some outcomes off every support here
    assert 0 < expected.sum() < T
    with pytest.raises(ValueError):
        est.count_outcomes(xs[:, 1:], ys[:, 1:])
    with pytest.raises(ValueError):
        est.count_outcomes(xs, ys[:, 1:])


def test_min_distance_checks_budget_before_allocating():
    # 1,100 members make 1,208,900 pairs; A and PA would need gigabytes
    with pytest.raises(BudgetError, match="budget"):
        _MinDistance(np.full((1100, 10), 0.1))


class AllPairsMinDistance:
    """Oracle: min-distance selection scored over every ordered pair, one
    Python-built Yatracos set per pair (duplicates included)."""

    def __init__(self, mass_matrix: np.ndarray, exact_rows: list[list[Fraction]] | None = None):
        self.M = np.asarray(mass_matrix, dtype=float)
        n, s = self.M.shape
        if n * (n - 1) * (s + n) > DEFAULT_BUDGET:
            # A holds pairs x support entries and PA members x pairs
            raise BudgetError(
                f"{n * (n - 1)} Yatracos pairs x ({s} support points + {n} members)"
                f" exceed the budget of {DEFAULT_BUDGET}"
            )
        self.pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        self.A = np.zeros((len(self.pairs), s), dtype=bool)
        if exact_rows is not None:
            for p, (i, j) in enumerate(self.pairs):
                self.A[p] = [a > b for a, b in zip(exact_rows[i], exact_rows[j])]
            self.PA_exact = [
                [
                    sum((row[s] for s in np.flatnonzero(a)), start=Fraction(0))
                    for a in self.A
                ]
                for row in exact_rows
            ]
        else:
            # strict ">" with a tie guard: float tables of genuinely equal
            # masses can differ by rounding, which would flip set membership
            for p, (i, j) in enumerate(self.pairs):
                self.A[p] = self.M[i] > self.M[j] + 1e-12
            self.PA_exact = None
        self.PA = self.M @ self.A.T  # (members, pairs)

    def select_rows(self, counts: np.ndarray, total: int) -> np.ndarray:
        # a stack of count vectors, as the cells pass them
        return np.array([self.select(row, total)[0] for row in counts])

    def select(self, counts: np.ndarray, total: int) -> tuple[int, SkeletonReport]:
        if self.PA_exact is None:
            s = yatracos_scores(self.PA, (self.A @ counts) / total)
            best = int(np.argmin(s))
            return best, SkeletonReport(best, s.tolist(), False)
        mu = [Fraction(int(a @ counts), total) for a in self.A]
        scores = [
            max((abs(pa - m) for pa, m in zip(row, mu)), default=Fraction(0))
            for row in self.PA_exact
        ]
        best = min(range(len(scores)), key=lambda i: (scores[i], i))
        return best, SkeletonReport(best, scores, True)

    def truth_masses(self, truth_on_support: np.ndarray) -> np.ndarray:
        # deviation below takes the truth vector itself
        return truth_on_support

    def deviation(self, counts: np.ndarray, total: int, truth_on_support: np.ndarray) -> float:
        """max over Yatracos sets of |mu_T(A) - Q(A)| for a truth vector Q
        restricted to this support (mass elsewhere never enters any set)."""
        if not self.pairs:
            return 0.0
        mu = (self.A @ counts) / total
        qa = self.A @ np.asarray(truth_on_support, dtype=float)
        return float(np.abs(mu - qa).max())

    def deviation_rows(self, counts: np.ndarray, total: int, truth_on_support: np.ndarray) -> np.ndarray:
        return np.array([self.deviation(row, total, truth_on_support) for row in counts])

    def deviation_exact(self, counts: np.ndarray, total: int, truth_exact: list[Fraction]):
        if not self.pairs:
            return Fraction(0)
        mu = [Fraction(int(self.A[p] @ counts), total) for p in range(len(self.pairs))]
        qa = [
            sum((truth_exact[s] for s in np.flatnonzero(a)), start=Fraction(0))
            for a in self.A
        ]
        return max(abs(m - q) for m, q in zip(mu, qa))


def _assert_matches_oracle(md, oracle, count_vectors, truths, truths_exact=None):
    """Selected index, scores and deviations equal the all-pairs oracle's exactly."""
    for counts in count_vectors:
        total = int(counts.sum())
        selected = oracle.select(counts, total)
        assert md.select(counts, total) == selected
        if oracle.PA_exact is None:
            assert md.select_rows(np.stack([counts, counts]), total).tolist() == [selected[0]] * 2
        for q in truths:
            got = md.deviation(counts, total, md.truth_masses(q))
            assert got == oracle.deviation(counts, total, q)
            assert type(got) is float
            got = md.deviation_rows(np.stack([counts, counts]), total, md.truth_masses(q))
            assert got.tolist() == [oracle.deviation(counts, total, q)] * 2
        for q in truths_exact or ():
            got = md.deviation_exact(counts, total, q)
            assert got == oracle.deviation_exact(counts, total, q)
            assert isinstance(got, Fraction)


def _skeleton_count_vectors(setup, config, seed):
    rng = stream(seed, 0)
    vectors = []
    for truth_id in setup.truth_ids:
        source = ratelab._source(setup, truth_id)
        for T in (1, 7, 100, 2000):
            tasks = sample_arrays(source, setup.space, setup.dist, T, config.d, rng)
            xs, ys = tasks.xs, tasks.ys
            vectors.append(setup.estimator.count_outcomes(xs, ys)[0])
    return vectors


def _float_setup_matches_oracle(config):
    setup = ratelab.build_setup(config)
    est = setup.estimator
    oracle = AllPairsMinDistance(est._md.M)
    truths = [est.truth_vectors(od)[0] for od in est.outcome_dists]
    _assert_matches_oracle(est._md, oracle, _skeleton_count_vectors(setup, config, 11), truths)
    return setup


def test_distinct_sets_match_all_pairs_on_parity_m4():
    setup = _float_setup_matches_oracle(
        ratelab.ExperimentConfig(m=4, d=2, T_grid=(10,), replicates=1, truth_count=4)
    )
    md = setup.estimator._md
    assert len(md._pair_set) == 64 * 63
    assert md.A.shape == (728, 56)  # the distinct sets, and no pair of its own
    assert md.PA.shape == (64, 728)


def test_distinct_sets_match_all_pairs_on_twopoint():
    _float_setup_matches_oracle(
        ratelab.ExperimentConfig(m=4, d=1, family="twopoint", T_grid=(10,), replicates=1)
    )


def test_distinct_sets_match_all_pairs_exact_m3():
    _, members = parity_family(SP32, 1.0, 1.0, exact=True)
    est = SkeletonEstimator(cover_of_family(members, 0.0), D3, 2, exact=True)
    exact_rows = [
        [od.exact.get(z, Fraction(0)) for z in est.support] for od in est.outcome_dists
    ]
    oracle = AllPairsMinDistance(est._md.M, exact_rows)
    assert len(est._md.A) < len(oracle.A)
    vectors = []
    for r in range(6):
        tasks = sample_arrays(members[r], SP32, D3, 3 + 97 * r, 2, stream(40 + r))
        xs, ys = tasks.xs, tasks.ys
        vectors.append(est.count_outcomes(xs, ys)[0])
    truths = [est.truth_vectors(od) for od in est.outcome_dists]
    _assert_matches_oracle(
        est._md, oracle, vectors, [q for q, _ in truths], [qe for _, qe in truths]
    )


def test_yatracos_sets_match_the_float_and_fraction_rules():
    _, members = parity_family(SP32, 1.0, 1.0, exact=True)
    est = SkeletonEstimator(cover_of_family(members, 0.0), D3, 2, exact=True)
    rows = [[od.exact.get(z, Fraction(0)) for z in est.support] for od in est.outcome_dists]
    # floats: a strict ">" with a 1e-12 guard; the two added rows sit just
    # inside and just outside the guard above the first
    M = np.array([[float(x) for x in row] for row in rows])
    M = np.vstack([M, M[0] + 5e-13, M[0] + 5e-12])
    off = ~np.eye(len(M), dtype=bool)
    got = yatracos_sets(M)
    assert got.dtype == bool
    assert np.array_equal(got, (M[:, None, :] > M[None, :, :] + 1e-12)[off])
    # Fractions: literal, so a gap far inside the float guard still counts
    E = np.array(rows + [[x + Fraction(1, 10**13) for x in rows[0]]], dtype=object)
    off = ~np.eye(len(E), dtype=bool)
    got = yatracos_sets(E)
    assert got.dtype == bool
    assert np.array_equal(got, (E[:, None, :] > E[None, :, :])[off].astype(bool))
    assert not np.array_equal(got, yatracos_sets(E.astype(float)))


def test_distinct_sets_one_member_and_identical_members():
    pi0 = reference_prior(SP32, exact=True)
    counts = [np.arange(len(SP32), dtype=np.int64), np.eye(1, len(SP32), 4, dtype=np.int64)[0]]
    for cover in (CoverFamily([pi0], 0.0), CoverFamily([pi0, pi0, pi0], 0.0)):
        mass = np.stack([p.mass for p in cover.members])
        md = _MinDistance(mass)
        _assert_matches_oracle(
            md, AllPairsMinDistance(mass), counts, [pi0.mass, np.full(len(SP32), 0.5)]
        )
        assert not md.A.any()  # no pair, or only the empty set
        est = SkeletonEstimator(cover, D3, 2, exact=True)
        exact_rows = [[od.exact[z] for z in est.support] for od in est.outcome_dists]
        _, q_exact = est.truth_vectors(est.outcome_dists[0])
        _assert_matches_oracle(
            est._md,
            AllPairsMinDistance(est._md.M, exact_rows),
            [np.arange(len(est.support), dtype=np.int64)],
            [],
            [q_exact],
        )


def test_direct_estimator_distinct_sets_match_all_pairs():
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
