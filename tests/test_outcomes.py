import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from priorlab.concepts import DataDistribution, enumerate_concepts, uniform_distribution
from priorlab.errors import BudgetError
from priorlab.outcomes import (
    check_sauer,
    exact_outcome_dist,
    exact_weights,
    label_conditional_tv,
    realizable_pattern_count,
    tv,
    verify_lemma_chain,
    verify_sqrt_bound,
    verify_tree_inequality,
)
from priorlab.priors import (
    SmoothPriorParams,
    point_mass,
    random_prior,
    reference_prior,
    smooth_prior,
    smooth_projection,
    total_variation,
)
from priorlab.sampling import sample_arrays, stream

SP21 = enumerate_concepts(2, 1)
SP32 = enumerate_concepts(3, 2)
D2 = uniform_distribution(2)
D3 = uniform_distribution(3)


def oracle_outcome_table(prior, dist, k):
    """Independent enumeration: P(x, y) = prod D(x_j) * mass of the cell."""
    sp = prior.space
    tbl = {}
    for xs in itertools.product(range(1, sp.m + 1), repeat=k):
        px = math.prod(dist.weights[x - 1] for x in xs)
        for h, mass in zip(sp.concepts, prior.mass):
            ys = tuple(h.label(x) for x in xs)
            tbl[(xs, ys)] = tbl.get((xs, ys), 0.0) + px * float(mass)
    return {z: p for z, p in tbl.items() if p > 0}


def test_exact_outcome_dist_matches_oracle():
    pi0 = reference_prior(SP32)
    for k in (1, 2, 3):
        od = exact_outcome_dist(pi0, D3, k)
        want = oracle_outcome_table(pi0, D3, k)
        assert set(od.table) == set(want)
        for z, p in want.items():
            assert od.prob(z) == pytest.approx(p, abs=1e-13)


def test_exact_outcome_dist_spec_example():
    # (m=2, d=1), pi = pi0, k = 1: P(x=1, y=+1) = (1/2)(1/4) = 1/8
    pi0 = reference_prior(SP21, exact=True)
    od = exact_outcome_dist(pi0, D2, 1, exact=True)
    assert od.exact[((1,), (1,))] == Fraction(1, 8)
    assert od.exact[((1,), (-1,))] == Fraction(3, 8)


def test_point_mass_outcomes_deterministic_labels():
    pm = point_mass(SP32, 0b011)
    od = exact_outcome_dist(pm, D3, 2)
    h = SP32.concept(0b011)
    for (xs, ys), p in od.table.items():
        assert ys == tuple(h.label(x) for x in xs)
        assert p == pytest.approx(1.0 / 9.0)


def test_x_marginal_is_product_law():
    params = SmoothPriorParams((1, -1, 1), 1.0, 1.0, 3, 2)
    pb = smooth_prior(params, SP32)
    od = exact_outcome_dist(pb, D3, 2)
    marg = {}
    for (xs, ys), p in od.table.items():
        marg[xs] = marg.get(xs, 0.0) + p
    for xs, p in marg.items():
        assert p == pytest.approx(1.0 / 9.0, abs=1e-13)


def test_outcome_budget_guard():
    # (2m)^k = 6^10 exceeds the 10^7 outcome budget; nothing is enumerated
    with pytest.raises(BudgetError):
        exact_outcome_dist(reference_prior(SP32), D3, 10)


def test_verifier_budget_guards():
    # tree check: 501^2 anchor pairs x 4 labelings exceed 10^6
    with pytest.raises(BudgetError, match="tree"):
        verify_tree_inequality(reference_prior(SP32), reference_prior(SP32), (1,) * 501, 2)
    # sqrt bound: 11^6 point tuples exceed 10^6
    sp = enumerate_concepts(11, 6)
    with pytest.raises(BudgetError, match=r"m\^d"):
        verify_sqrt_bound(reference_prior(sp), reference_prior(sp), uniform_distribution(11), 6)


def test_exact_weights_reject_what_they_cannot_represent():
    assert exact_weights(uniform_distribution(3)) == [Fraction(1, 3)] * 3
    assert exact_weights(DataDistribution((0.05, 0.05, 0.9))) == [
        Fraction(1, 20), Fraction(1, 20), Fraction(9, 10)
    ]
    # rounding to denominators <= 1e9 would not sum to 1 here
    odd = DataDistribution((0.1234567891234, 0.8765432108766))
    with pytest.raises(ValueError):
        exact_weights(odd)
    with pytest.raises(ValueError):
        exact_outcome_dist(reference_prior(enumerate_concepts(2, 1), exact=True), odd, 1, exact=True)


def test_tv_basics():
    pi0 = reference_prior(SP21)
    pm = point_mass(SP21, 0b00)
    assert tv(pi0, pi0) == 0
    assert float(tv(pi0, pm)) == pytest.approx(0.5)
    a = point_mass(SP21, 0b01)
    b = point_mass(SP21, 0b10)
    assert float(tv(a, b)) == 1.0
    oa = exact_outcome_dist(a, D2, 2)
    ob = exact_outcome_dist(b, D2, 2)
    # oracle: direct half-L1 over the union support
    keys = set(oa.table) | set(ob.table)
    want = sum(abs(oa.prob(z) - ob.prob(z)) for z in keys) / 2
    assert tv(oa, ob) == pytest.approx(want)
    with pytest.raises(TypeError):
        tv(pi0, oa)


def test_label_conditional_tv_identity_and_full_anchors():
    params = SmoothPriorParams((1, 1, -1), 1.0, 1.0, 3, 2)
    pb = smooth_prior(params, SP32, exact=True)
    pi0 = reference_prior(SP32, exact=True)
    assert label_conditional_tv(pb, pb, (1, 2)) == 0
    # anchors = all of {1..m}: cells are singletons, equals prior TV
    assert label_conditional_tv(pb, pi0, (1, 2, 3)) == total_variation(pb, pi0)


def test_label_conditional_tv_equals_projected_tv_exactly():
    # the projection equality, in exact rational arithmetic
    pi0 = reference_prior(SP32, exact=True)
    rng = np.random.default_rng(4)
    for _ in range(10):
        b1 = tuple(int(s) for s in rng.choice([-1, 1], size=3))
        b2 = tuple(int(s) for s in rng.choice([-1, 1], size=3))
        pa = smooth_prior(SmoothPriorParams(b1, 1.0, 1.0, 3, 2), SP32, exact=True)
        pb = smooth_prior(SmoothPriorParams(b2, 1.0, 1.0, 3, 2), SP32, exact=True)
        for anchors in [(1,), (2, 3), (1, 1, 2), (3, 2, 1)]:
            lhs = label_conditional_tv(pa, pb, anchors)
            rhs = total_variation(
                smooth_projection(pa, anchors, reference=pi0).smoothed,
                smooth_projection(pb, anchors, reference=pi0).smoothed,
            )
            assert lhs == rhs  # literally equal Fractions


def test_tree_inequality_identity_and_examples():
    pi0 = reference_prior(SP32)
    rep = verify_tree_inequality(pi0, pi0, (1, 2, 3), 2)
    assert rep.passed and rep.lhs == 0

    sp31 = enumerate_concepts(3, 1)
    pm = point_mass(sp31, 0b001)
    rep = verify_tree_inequality(reference_prior(sp31), pm, (1, 2), 1)
    assert rep.passed
    assert rep.lhs <= rep.rhs


def test_tree_inequality_random_pairs():
    rng = np.random.default_rng(6)
    for m, d in [(3, 1), (4, 2)]:
        sp = enumerate_concepts(m, d)
        for _ in range(25):
            pa, pb = random_prior(sp, rng), random_prior(sp, rng)
            k = int(rng.integers(d, 5))
            anchors = tuple(int(x) for x in rng.integers(1, m + 1, size=k))
            rep = verify_tree_inequality(pa, pb, anchors, d)
            assert rep.passed, (m, d, anchors, rep)


def test_tree_inequality_validation():
    pi0 = reference_prior(SP32)
    with pytest.raises(ValueError):
        verify_tree_inequality(pi0, pi0, (1,), 2)


def test_sqrt_bound_identity_and_pairs():
    pi0 = reference_prior(SP21)
    for rep in verify_sqrt_bound(pi0, pi0, D2, 1):
        assert rep.passed and rep.lhs == 0
    pm = point_mass(SP21, 0b01)
    for rep in verify_sqrt_bound(pi0, pm, D2, 1):
        assert rep.passed

    # the parity family: b against -b
    pa = smooth_prior(SmoothPriorParams((1, 1, 1), 1.0, 1.0, 3, 2), SP32)
    pb = smooth_prior(SmoothPriorParams((-1, -1, -1), 1.0, 1.0, 3, 2), SP32)
    for rep in verify_sqrt_bound(pa, pb, D3, 2):
        assert rep.passed


def test_sqrt_bound_random_pairs():
    rng = np.random.default_rng(13)
    for m, d in [(3, 1), (4, 2)]:
        sp = enumerate_concepts(m, d)
        D = uniform_distribution(m)
        for _ in range(15):
            pa, pb = random_prior(sp, rng), random_prior(sp, rng)
            assert all(r.passed for r in verify_sqrt_bound(pa, pb, D, d))


def test_lemma_chain_spec_example():
    # (m=2, d=1), pi0 vs point mass on the empty concept, k_max = 3:
    # nondecreasing sequence bounded by tv = 1/2
    pi0 = reference_prior(SP21)
    pm = point_mass(SP21, 0b00)
    rep = verify_lemma_chain(pi0, pm, D2, 3)
    assert rep.passed
    assert rep.prior_tv == pytest.approx(0.5)
    assert all(t <= 0.5 + 1e-12 for t in rep.outcome_tvs)
    assert rep.outcome_tvs == sorted(rep.outcome_tvs)
    assert all(g >= -1e-12 for g in rep.gaps)


def test_lemma_chain_sign_flip_frozen_values():
    # adjacent sign vectors on (3,2): frozen enumeration-oracle values
    pa = smooth_prior(SmoothPriorParams((1, 1, 1), 1.0, 1.0, 3, 2), SP32)
    pb = smooth_prior(SmoothPriorParams((-1, 1, 1), 1.0, 1.0, 3, 2), SP32)
    rep = verify_lemma_chain(pa, pb, D3, 3)
    assert rep.passed
    assert rep.prior_tv == pytest.approx(1 / 18)
    # single samples carry no parity information; two do
    assert rep.outcome_tvs[0] == pytest.approx(0.0, abs=1e-15)
    assert rep.outcome_tvs[1] == pytest.approx(1 / 81)
    assert rep.outcome_tvs[2] == pytest.approx(2 / 81)


def test_lemma_chain_random_pairs():
    rng = np.random.default_rng(19)
    for _ in range(20):
        pa, pb = random_prior(SP32, rng), random_prior(SP32, rng)
        assert verify_lemma_chain(pa, pb, D3, 3).passed


def empirical_tv(od, xs, ys):
    """Oracle: TV between an outcome law and the empirical law of the
    sampled tasks, over the union of their outcomes."""
    counts = {}
    for z in zip(map(tuple, xs.tolist()), map(tuple, ys.tolist())):
        counts[z] = counts.get(z, 0) + 1
    keys = set(od.table) | set(counts)
    return sum(abs(od.prob(z) - counts.get(z, 0) / len(xs)) for z in keys) / 2.0


def test_empirical_convergence_to_exact():
    params = SmoothPriorParams((1, -1, 1), 1.0, 1.0, 3, 2)
    pb = smooth_prior(params, SP32)
    od = exact_outcome_dist(pb, D3, 2)
    gaps = []
    for T in (100, 1000, 10000):
        tasks = sample_arrays(pb, SP32, D3, T, 2, stream(3))
        xs, ys = tasks.xs, tasks.ys
        gaps.append(empirical_tv(od, xs, ys))
    assert gaps[2] < gaps[0]
    # roughly sqrt(T) decay: two decades of T shrink the gap well over 3x
    assert gaps[2] < gaps[0] / 3


def test_sauer_pattern_counts():
    for m, d in [(3, 2), (5, 2), (6, 1), (8, 3)]:
        sp = enumerate_concepts(m, d)
        for rep in check_sauer(sp):
            assert rep.passed
        # oracle at k = m: patterns = |C| realizes the class size
        full = realizable_pattern_count(sp, tuple(range(1, m + 1)))
        assert full == len(sp)


def test_check_report_csv_row():
    pi0 = reference_prior(SP32)
    rep = verify_tree_inequality(pi0, pi0, (1, 2), 2)
    row = rep.csv_row()
    assert row[0] == "tree-inequality"
    assert row[2] == 2 and row[5] is True
