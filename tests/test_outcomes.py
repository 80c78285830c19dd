import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from priorlab.concepts import _DENSE_BLOCK, DataDistribution, enumerate_concepts, trace_counts, uniform_distribution
from priorlab.errors import BudgetError
from priorlab.outcomes import (
    OutcomeDistribution,
    _cell_masses,
    _label_table,
    check_sauer,
    exact_outcome_dist,
    label_conditional_tv,
    outcome_laws,
    tv,
    verify_lemma_chain,
    verify_sqrt_bound,
    verify_tree_inequality,
)
from priorlab.priors import (
    SmoothPriorParams,
    TabularPrior,
    parity_family,
    point_mass,
    random_prior,
    reference_prior,
    smooth_prior,
    smooth_projection,
    total_variation,
)
from priorlab.sampling import outcome_codes, sample_arrays, stream

from outcome_reference import dict_outcome_dist, exact_weights, fraction_law, outcome_tuple

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
    # (m=2, d=1), pi = pi0, k = 1: P(x=1, y=+1) = (1/2)(1/4) = 1/8; outcome
    # (x, y) has index 2 (x - 1) + [y > 0]
    pi0 = reference_prior(SP21, exact=True)
    assert fraction_law(pi0, D2, 1) == {0: Fraction(3, 8), 1: Fraction(1, 8), 2: Fraction(3, 8), 3: Fraction(1, 8)}
    od = exact_outcome_dist(pi0, D2, 1)
    assert od.table == {((1,), (-1,)): 0.375, ((1,), (1,)): 0.125, ((2,), (-1,)): 0.375, ((2,), (1,)): 0.125}


def _random_priors(space, rng):
    """Two random priors and one with every other concept at zero mass."""
    sparse = np.where(np.arange(len(space)) % 2, 0.0, rng.random(len(space)))
    return [random_prior(space, rng), random_prior(space, rng), TabularPrior(space, sparse / sparse.sum())]


@pytest.mark.parametrize("m, d", [(2, 1), (3, 1), (2, 2), (4, 1), (5, 1), (6, 1), (3, 2)])
def test_exact_outcome_dist_is_the_dict_loop_bit_for_bit(m, d):
    # at most 7 concepts, so no label cell sums 8 or more masses: there
    # np.sum adds left to right, as outcome_laws does, and the tables
    # agree in keys, key order and every bit of every value, also where D
    # gives a point no mass (those outcomes are kept at 0.0)
    space = enumerate_concepts(m, d)
    rng = stream(23, m, d)
    dists = [uniform_distribution(m), DataDistribution((0.0,) + (1 / (m - 1),) * (m - 1))]
    w = rng.random(m)
    dists.append(DataDistribution(tuple((w / w.sum()).tolist())))
    for prior in _random_priors(space, rng):
        for dist in dists:
            for k in range(1, 5 if m < 5 else 4):
                want = dict_outcome_dist(prior, dist, k)
                got = exact_outcome_dist(prior, dist, k).table
                assert list(got) == list(want), (m, d, k)
                assert [p.hex() for p in got.values()] == [p.hex() for p in want.values()]


def test_outcome_laws_are_indexed_as_outcome_codes():
    space = enumerate_concepts(3, 2)
    prior = random_prior(space, stream(5))
    for k in (1, 2, 3):
        laws = outcome_laws(np.stack([prior.mass, reference_prior(space).mass]), space, D3, k)
        assert laws.shape == (2, 6**k)
        table = exact_outcome_dist(prior, D3, k).table
        assert {outcome_tuple(i, 3, k): p for i, p in enumerate(laws[0].tolist()) if p} == table
        xs = np.array([xs for xs, _ in table])
        ys = np.array([ys for _, ys in table])
        assert laws[0][outcome_codes(xs, ys, 3)].tolist() == list(table.values())
        # _label_table numbers x-tuples in product order, one concept per column
        cells, _ = _label_table(space.masks.tobytes(), 3, k)
        assert cells.shape == (3**k, len(space))
        assert [outcome_tuple(i, 3, k) for i in cells[:, 5]] == [
            (xs, tuple(space.concepts[5].label(x) for x in xs))
            for xs in itertools.product((1, 2, 3), repeat=k)
        ]


def _ulps(exact: Fraction, got: float) -> float:
    return abs(Fraction(got) - exact) / Fraction(np.spacing(float(exact)))


def test_fraction_law_is_within_4_ulp_on_every_shipped_shape():
    # rates and lowerbound (m=3, d=2, k=2), the benchmark's rates-wide
    # (m=4, d=2, k=2), and lemmas (m=2, d=1, k <= 3) on exact priors
    cases = [(3, 2, 2, parity_family(SP32, 1.0, 1.0, exact=True)[1])]
    cases.append((4, 2, 2, parity_family(enumerate_concepts(4, 2), 1.0, 1.0, exact=True)[1]))
    rng = stream(31)
    lemma_priors = [
        TabularPrior(SP21, None, exact=[Fraction(int(n), int(w.sum())) for n in w])
        for w in rng.integers(1, 1000, size=(5, len(SP21)))
    ]
    cases += [(2, 1, k, lemma_priors + [reference_prior(SP21, exact=True)]) for k in (1, 2, 3)]
    for m, d, k, priors in cases:
        space, dist = priors[0].space, uniform_distribution(m)
        laws = outcome_laws(np.stack([p.mass for p in priors]), space, dist, k)
        for prior, law in zip(priors, laws):
            exact = fraction_law(prior, dist, k)
            assert set(exact) == set(np.flatnonzero(law).tolist())
            assert max(_ulps(p, law[z]) for z, p in exact.items()) <= 4, (m, d, k)


def test_outcome_sum_check_is_exact_at_any_support_size():
    # a million masses of 1e-6 sum left to right to 1 + 7.9e-12, past the
    # 1e-12 slack; fsum gives 1 (lemmas at m=20, k=4 once exited 1 so)
    table = {((i,), (1,)): 1e-6 for i in range(10**6)}
    assert sum(table.values()) - 1 > 1e-12
    OutcomeDistribution(1, table)
    with pytest.raises(ValueError, match="outcome masses sum to"):
        OutcomeDistribution(1, {((1,), (1,)): 0.5})
    # every row outcome_laws returns is checked, so rates keeps the check
    space = enumerate_concepts(20, 1)
    law = outcome_laws(random_prior(space, stream(0, 1)).mass[None], space, uniform_distribution(20), 4)
    assert np.count_nonzero(law) == 753_580
    with pytest.raises(ValueError, match="outcome masses sum to"):
        outcome_laws(np.full((1, len(SP32)), 0.2), SP32, D3, 2)


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
    # (2m)^k = 6^10 outcomes of floats exceed the byte budget; nothing is enumerated
    with pytest.raises(BudgetError):
        exact_outcome_dist(reference_prior(SP32), D3, 10)
    # 40^4 outcomes fit, but building the labels of 211 concepts on 20^4 x-tuples does not
    space = enumerate_concepts(20, 2)
    with pytest.raises(BudgetError, match="label table and its build, holds 5x160000x211 int64"):
        outcome_laws(reference_prior(space).mass[None], space, uniform_distribution(20), 4)


def test_sqrt_bound_is_the_per_tuple_loop_bit_for_bit():
    # the left sides read off label_masses equal the loop over x-tuples of
    # per-anchor cell masses they replaced, in every bit
    for m, d in [(2, 1), (3, 2), (4, 2), (5, 3)]:
        space, rng = enumerate_concepts(m, d), stream(41, m, d)
        w = rng.random(m)
        for dist in (uniform_distribution(m), DataDistribution(tuple((w / w.sum()).tolist()))):
            pa, pb = random_prior(space, rng), random_prior(space, rng)
            for report, ys in zip(verify_sqrt_bound(pa, pb, dist, d), itertools.product((-1, 1), repeat=d)):
                lhs = 0.0
                for xs in itertools.product(range(1, m + 1), repeat=d):
                    ca, cb = _cell_masses(pa, xs, exact=False), _cell_masses(pb, xs, exact=False)
                    lhs += math.prod(dist.weights[x - 1] for x in xs) * abs(ca.get(ys, 0.0) - cb.get(ys, 0.0))
                assert report.lhs.hex() == lhs.hex(), (m, d, ys)


def test_tree_check_is_the_per_tuple_loop_bit_for_bit():
    # the worst cell gap read off label_masses equals the loop over anchor
    # d-tuples of per-tuple cell masses it replaced, in every bit
    for m, d in [(2, 1), (3, 2), (4, 2), (5, 3)]:
        space, rng = enumerate_concepts(m, d), stream(43, m, d)
        for _ in range(4):
            pa, pb = random_prior(space, rng), random_prior(space, rng)
            anchors = tuple(int(x) for x in rng.integers(1, m + 1, size=int(rng.integers(d, d + 3))))
            worst = 0.0
            for idx in itertools.product(range(len(anchors)), repeat=d):
                pts = tuple(anchors[i] for i in idx)
                ca, cb = _cell_masses(pa, pts, exact=False), _cell_masses(pb, pts, exact=False)
                for ys in itertools.product((-1, 1), repeat=d):
                    worst = max(worst, abs(ca.get(ys, 0.0) - cb.get(ys, 0.0)))
            k = len(anchors)
            report = verify_tree_inequality(pa, pb, anchors, d)
            assert report.rhs.hex() == ((math.e * k) ** d * k**2 * d * worst).hex(), (m, d, anchors)


def test_verifier_budget_guards():
    # tree check: 6000^2 anchor pairs x 4 labelings of floats exceed the byte budget
    with pytest.raises(BudgetError, match="anchor d-tuples and cell gaps"):
        verify_tree_inequality(reference_prior(SP32), reference_prior(SP32), (1,) * 6000, 2)
    # sqrt bound: 11^6 point tuples x 64 labelings of gaps and sums exceed it
    sp = enumerate_concepts(11, 6)
    with pytest.raises(BudgetError, match="sqrt-bound gaps"):
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
        fraction_law(reference_prior(enumerate_concepts(2, 1), exact=True), odd, 1)


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


def anchor_mask(anchors) -> int:
    return sum(1 << (a - 1) for a in set(anchors))


def set_trace_count(space, anchors) -> int:
    """Oracle: the distinct values of the concepts' masks on the anchor
    bits, counted as a set of Python ints."""
    bits = anchor_mask(anchors)
    return len({msk & bits for msk in space.masks.tolist()})


def tuple_pattern_count(space, anchors) -> int:
    """Oracle: the distinct label tuples the class realizes on the anchors."""
    return len({tuple(int(v) for v in row) for row in space.label_matrix(tuple(anchors))})


@pytest.mark.parametrize("m, d", [(3, 2), (5, 2), (6, 1), (8, 3), (12, 2), (20, 1)])
def test_sauer_rows_are_the_oracle_maxima(m, d):
    sp = enumerate_concepts(m, d)
    reports = check_sauer(sp)
    assert [rep.k for rep in reports] == list(range(1, min(8, m) + 1))
    for rep in reports:
        anchor_sets = list(itertools.combinations(range(1, m + 1), rep.k))
        assert rep.lhs == float(max(set_trace_count(sp, anchors) for anchors in anchor_sets))
        assert rep.rhs == (math.e * rep.k) ** d and rep.passed
    if m >= 12:  # a size's anchor sets span several blocks
        assert math.comb(m, 8) > 2 * (_DENSE_BLOCK // len(sp))
    # on all m points the patterns are the class itself
    assert trace_counts(sp, [(1 << m) - 1]).tolist() == [len(sp)]


def test_trace_counts_are_the_label_tuple_set():
    for m, d in [(2, 1), (4, 2), (5, 3), (6, 1), (7, 7)]:
        sp = enumerate_concepts(m, d)
        for k in range(1, m + 1):
            anchor_sets = list(itertools.combinations(range(1, m + 1), k))
            counts = trace_counts(sp, [anchor_mask(anchors) for anchors in anchor_sets])
            assert counts.tolist() == [tuple_pattern_count(sp, anchors) for anchors in anchor_sets]
            assert counts.tolist() == [set_trace_count(sp, anchors) for anchors in anchor_sets]
        # a repeated anchor labels one point twice, and traces it once
        assert trace_counts(sp, [anchor_mask((1, 1, 2))]).tolist() == [tuple_pattern_count(sp, (1, 1, 2))]
        assert trace_counts(sp, []).tolist() == []


def test_check_report_csv_row():
    pi0 = reference_prior(SP32)
    rep = verify_tree_inequality(pi0, pi0, (1, 2), 2)
    row = rep.csv_row()
    assert row[0] == "tree-inequality"
    assert row[2] == 2 and row[5] is True
