from fractions import Fraction
from math import comb

import numpy as np
import pytest

from priorlab.concepts import DataDistribution, enumerate_concepts, uniform_distribution
from priorlab.errors import BudgetError
from priorlab.estimators import (
    DirectEstimator,
    _MinDistance,
    SkeletonEstimator,
    coin_floor,
    direct_estimate,
    exact_bayes_error,
    majority_rule,
    reduce_to_signs,
    skeleton_estimate,
)
from priorlab.outcomes import exact_outcome_dist, tv
from priorlab.priors import (
    CoverFamily,
    SmoothPriorParams,
    cover_of_family,
    point_mass,
    reference_prior,
    smooth_prior,
    parity_family,
)
from priorlab.sampling import sample_batch, sample_concept, stream

SP32 = enumerate_concepts(3, 2)
D3 = uniform_distribution(3)


def test_singleton_cover_returns_member_zero():
    pi0 = reference_prior(SP32)
    cover = CoverFamily([pi0], 0.0)
    est = SkeletonEstimator(cover, D3, 2)
    batch = sample_batch(pi0, SP32, D3, 5, 2, seed=1)
    idx, rep = skeleton_estimate(batch, est)
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
        batch = sample_batch(a, sp, D, 50, 1, seed=1000 + r)
        idx, _ = skeleton_estimate(batch, est)
        correct += idx == 0
    assert correct / runs >= 0.99


def test_skeleton_rejects_mismatched_k_and_empty():
    pi0 = reference_prior(SP32)
    est = SkeletonEstimator(CoverFamily([pi0], 0.0), D3, 2)
    batch = sample_batch(pi0, SP32, D3, 4, 3, seed=0)
    with pytest.raises(ValueError):
        skeleton_estimate(batch, est)


def test_skeleton_guarantee_on_parity_family():
    # truth in the cover: tv(selected outcome law, truth outcome law)
    # <= 2 * max Yatracos deviation, exactly (min distance term is 0)
    params, members = parity_family(SP32, 1.0, 1.0, exact=True)
    cover = cover_of_family(members, 0.0)
    est = SkeletonEstimator(cover, D3, 2, exact=True)
    truth_idx = 5
    batch = sample_batch(members[truth_idx], SP32, D3, 10_000, 2, seed=77)
    counts, total = est.counts_from_batch(batch)
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
        batch = sample_batch(members[truth_idx], SP32, D3, 200, 2, seed=500 + r)
        counts, total = est.counts_from_batch(batch)
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
        batch = sample_batch(truth, SP32, D3, 300, 2, seed=900 + r)
        counts, total = est.counts_from_batch(batch)
        lhs, rhs, holds = est.decomposition_check(counts, total, truth_od)
        assert holds


def test_exact_and_float_selection_agree_generically():
    _, members = parity_family(SP32, 1.0, 1.0, exact=True)
    cover = cover_of_family(members, 0.0)
    est_e = SkeletonEstimator(cover, D3, 2, exact=True)
    est_f = SkeletonEstimator(cover, D3, 2, exact=False)
    batch = sample_batch(members[3], SP32, D3, 500, 2, seed=8)
    ce, te = est_e.counts_from_batch(batch)
    cf, tf = est_f.counts_from_batch(batch)
    assert est_e.select_from_counts(ce, te)[0] == est_f.select_from_counts(cf, tf)[0]


def test_direct_estimate_examples():
    _, members = parity_family(SP32, 1.0, 1.0)
    cover = cover_of_family(members, 0.0)
    # point-mass truth inside a cover that contains it: with many direct
    # observations the empirical law converges to that member
    pm_cover = CoverFamily([point_mass(SP32, 0b011), point_mass(SP32, 0b000)], 0.0)
    rng = stream(42, 0)
    concepts = [sample_concept(pm_cover.members[0], rng) for _ in range(50)]
    assert direct_estimate(concepts, pm_cover) == 0
    assert direct_estimate(concepts[:1], CoverFamily([members[0]], 0.0)) == 0
    with pytest.raises(ValueError):
        direct_estimate([], cover)


def test_direct_estimator_recovers_truth_from_samples():
    _, members = parity_family(SP32, 1.0, 1.0)
    cover = cover_of_family(members, 0.0)
    rng = stream(7, 1)
    truth = members[6]
    concepts = [sample_concept(truth, rng) for _ in range(20_000)]
    est = DirectEstimator(cover)
    idx, _ = est.select(concepts)
    assert idx == 6


def test_min_distance_checks_budget_before_allocating():
    # 1,100 members make 1,208,900 pairs; A and PA would need gigabytes
    with pytest.raises(BudgetError, match="budget"):
        _MinDistance(np.full((1100, 10), 0.1))


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
