import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from priorlab.concepts import enumerate_concepts, rho_matrix, uniform_distribution
from priorlab.errors import AbsoluteContinuityError, BudgetError
from priorlab.priors import (
    CoverFamily,
    SmoothPriorParams,
    TabularPrior,
    cover_of_family,
    cover_priors,
    density,
    density_table,
    holder_check,
    point_mass,
    reference_prior,
    smooth_prior,
    smooth_projection,
    parity_family,
    total_variation,
    uniform_prior,
)


def test_reference_prior_small_values():
    sp = enumerate_concepts(3, 2)
    pi0 = reference_prior(sp, exact=True)
    # direct formula evaluation: (1/2)^d C(m-q, d-q) / C(m, d)
    assert pi0.exact_mass_of(0b000) == Fraction(1, 4)
    for mask in (0b001, 0b010, 0b100):
        assert pi0.exact_mass_of(mask) == Fraction(1, 6)
    for mask in (0b011, 0b101, 0b110):
        assert pi0.exact_mass_of(mask) == Fraction(1, 12)
    assert sum(pi0.exact) == 1

    sp21 = enumerate_concepts(2, 1)
    pi0 = reference_prior(sp21, exact=True)
    assert pi0.exact_mass_of(0b00) == Fraction(1, 2)
    assert pi0.exact_mass_of(0b01) == Fraction(1, 4)
    assert pi0.exact_mass_of(0b10) == Fraction(1, 4)


@pytest.mark.parametrize("m,d", [(2, 1), (4, 2), (5, 3), (6, 2)])
def test_reference_prior_normalizes(m, d):
    sp = enumerate_concepts(m, d)
    assert sum(reference_prior(sp, exact=True).exact) == 1
    assert reference_prior(sp).mass.sum() == pytest.approx(1.0, abs=1e-12)


def oracle_smooth_mass(m, d, b, gamma, mask):
    """Direct evaluation of the parity-family formula, independent code path."""
    subs = [
        sum(1 << i for i in s) for s in itertools.combinations(range(m), d)
    ]
    subs.sort()
    q = bin(mask).count("1")
    par = q % 2
    total = Fraction(0)
    for bi, xm in zip(b, subs):
        if mask & ~xm == 0:
            total += (1 + gamma * bi) if par else (1 - gamma * bi)
    return Fraction(1, 2**d * comb(m, d)) * total


def test_smooth_prior_matches_oracle():
    sp = enumerate_concepts(3, 2)
    gamma = Fraction(1, 6)
    for b in itertools.product((-1, 1), repeat=3):
        params = SmoothPriorParams(b, 1.0, 1.0, 3, 2)
        assert params.exact_gamma() == gamma
        pb = smooth_prior(params, sp, exact=True)
        for c in sp:
            assert pb.exact_mass_of(c.mask) == oracle_smooth_mass(3, 2, b, gamma, c.mask)
        assert sum(pb.exact) == 1


def test_smooth_prior_all_plus_density_pattern():
    sp = enumerate_concepts(3, 2)
    params = SmoothPriorParams((1, 1, 1), 1.0, 1.0, 3, 2)
    pb = smooth_prior(params, sp, exact=True)
    pi0 = reference_prior(sp, exact=True)
    g = params.exact_gamma()
    for c in sp:
        f = pb.exact_mass_of(c.mask) / pi0.exact_mass_of(c.mask)
        assert f == (1 + g if c.size % 2 == 1 else 1 - g)


def test_smooth_prior_gamma_zero_limit():
    sp = enumerate_concepts(3, 2)
    pi0 = reference_prior(sp)
    params = SmoothPriorParams((1, -1, 1), 1e-9, 1.0, 3, 2)
    pb = smooth_prior(params, sp)
    assert np.abs(pb.mass - pi0.mass).max() < 1e-9


def test_smooth_prior_random_b_normalizes():
    rng = np.random.default_rng(0)
    sp = enumerate_concepts(3, 2)
    for _ in range(10):
        b = tuple(int(s) for s in rng.choice([-1, 1], size=3))
        pb = smooth_prior(SmoothPriorParams(b, 1.0, 1.0, 3, 2), sp)
        assert abs(pb.mass.sum() - 1.0) <= 1e-12


def test_density_bounds_exhaustive():
    # every f_b value sits inside [1 - gamma, 1 + gamma], small grid
    for m, d in [(3, 2), (4, 2), (5, 1), (8, 3)]:
        sp = enumerate_concepts(m, d)
        pi0 = reference_prior(sp)
        for L, alpha in [(0.5, 1.0), (1.0, 0.5), (2.0, 1.0)]:
            params = SmoothPriorParams(
                tuple(-1 if i % 2 else 1 for i in range(comb(m, d))), L, alpha, m, d
            )
            pb = smooth_prior(params, sp)
            f = density_table(pb, pi0)
            g = params.gamma_m
            assert f.min() >= 1 - g - 1e-12
            assert f.max() <= 1 + g + 1e-12


def test_smooth_params_validation():
    with pytest.raises(ValueError):
        SmoothPriorParams((1, 1), 1.0, 1.0, 3, 2)  # wrong length
    with pytest.raises(ValueError):
        SmoothPriorParams((1, 0, 1), 1.0, 1.0, 3, 2)  # bad sign
    with pytest.raises(ValueError):
        SmoothPriorParams((1,) * 3, 4.0, 1.0, 3, 2)  # gamma = 2/3 >= 1/2


def test_density_identity_and_point_mass():
    sp = enumerate_concepts(3, 1)
    pi0 = reference_prior(sp)
    for c in sp:
        assert density(pi0, pi0, c) == pytest.approx(1.0)
    unif = uniform_prior(sp)
    pm = point_mass(sp, 0b001)
    assert density(pm, unif, sp.concept(0b001)) == pytest.approx(len(sp))
    assert density(pm, unif, sp.concept(0b010)) == 0.0


def test_density_absolute_continuity_error():
    sp = enumerate_concepts(2, 1)
    pm1 = point_mass(sp, 0b01)
    pm2 = point_mass(sp, 0b10)
    with pytest.raises(AbsoluteContinuityError):
        density(pm1, pm2, sp.concept(0b01))
    # 0/0 convention
    assert density(pm1, pm2, sp.concept(0b00)) == 0.0


def test_holder_check_smooth_family_passes():
    for m, d in [(3, 2), (4, 2), (6, 1)]:
        sp = enumerate_concepts(m, d)
        pi0 = reference_prior(sp)
        D = uniform_distribution(m)
        rng = np.random.default_rng(1)
        for L, alpha in [(0.5, 0.5), (1.0, 1.0), (2.0, 0.5)]:
            if not (L / 2.0) * (1.0 / m) ** alpha < 0.5:
                continue  # parameterization rejected by contract
            b = tuple(int(s) for s in rng.choice([-1, 1], size=comb(m, d)))
            pb = smooth_prior(SmoothPriorParams(b, L, alpha, m, d), sp)
            assert holder_check(pb, pi0, L, alpha, D).ok


def test_holder_check_identity_and_violation():
    sp = enumerate_concepts(4, 1)
    pi0 = reference_prior(sp)
    D = uniform_distribution(4)
    assert holder_check(pi0, pi0, 0.01, 1.0, D).ok
    pm = point_mass(sp, 0b0001)
    rep = holder_check(pm, uniform_prior(sp), 0.01, 1.0, D)
    assert not rep.ok
    assert rep.witness is not None
    # oracle: the witness pair really does violate the inequality
    f = density_table(pm, uniform_prior(sp))
    h, g = rep.witness
    i, j = sp.index_of(h), sp.index_of(g)
    dist = rho_matrix(sp, D)[i, j]
    assert abs(f[i] - f[j]) > 0.01 * dist**1.0 + 1e-12


def test_smooth_projection_preserves_cell_masses_exactly():
    sp = enumerate_concepts(3, 2)
    params = SmoothPriorParams((1, -1, 1), 1.0, 1.0, 3, 2)
    pb = smooth_prior(params, sp, exact=True)
    proj = smooth_projection(pb, (1,))
    # anchors = {1}: two cells, h(1) = +1 vs h(1) = -1
    assert proj.n_cells == 2
    for cell in range(2):
        members = proj.cell_members(cell)
        base_mass = sum(pb.exact[i] for i in members)
        smoothed_mass = sum(proj.smoothed.exact[i] for i in members)
        assert base_mass == smoothed_mass


def test_smooth_projection_full_anchor_set_is_identity():
    sp = enumerate_concepts(3, 2)
    params = SmoothPriorParams((-1, 1, -1), 1.0, 1.0, 3, 2)
    pb = smooth_prior(params, sp, exact=True)
    proj = smooth_projection(pb, (1, 2, 3))
    assert proj.smoothed.exact == pb.exact  # singleton cells


def test_smooth_projection_rejects_empty_anchors():
    sp = enumerate_concepts(3, 2)
    pb = reference_prior(sp)
    with pytest.raises(ValueError):
        smooth_projection(pb, ())


def test_smooth_projection_density_gap_on_fine_partitions():
    # with all points anchored the partition is singletons, so f = f' and
    # the gap bound max|f - f'| < L gamma^alpha is trivially strict
    sp = enumerate_concepts(4, 2)
    pi0 = reference_prior(sp)
    params = SmoothPriorParams(tuple([1, -1] * 3), 1.0, 1.0, 4, 2)
    pb = smooth_prior(params, sp)
    gamma = 0.4
    proj = smooth_projection(pb, (1, 2, 3, 4))
    f = density_table(pb, pi0)
    f_prime = density_table(proj.smoothed, pi0)
    assert np.abs(f - f_prime).max() < 1.0 * gamma**1.0


def test_smooth_projection_gap_bound_under_small_diameter():
    # Monte Carlo over random anchor draws: whenever all cells have
    # diameter < gamma, the flattened density is within L gamma^alpha.
    m, d = 4, 2
    sp = enumerate_concepts(m, d)
    pi0 = reference_prior(sp)
    D = uniform_distribution(m)
    L, alpha = 1.0, 1.0
    params = SmoothPriorParams(tuple([1, -1, -1] * 2), L, alpha, m, d)
    pb = smooth_prior(params, sp)
    f = density_table(pb, pi0)
    rng = np.random.default_rng(3)
    gamma = 0.4
    c = 4.0
    k = int(np.ceil(c * (d / gamma) * np.log(1 / gamma)))
    hits = 0
    trials = 300
    small_checked = 0
    for _ in range(trials):
        anchors = tuple(int(x) for x in rng.integers(1, m + 1, size=k))
        proj = smooth_projection(pb, anchors)
        if proj.max_diameter(D) < gamma:
            hits += 1
            fp = density_table(proj.smoothed, pi0)
            assert np.abs(f - fp).max() < L * gamma**alpha + 1e-12
            small_checked += 1
    assert small_checked > 0
    assert hits / trials > 1 - gamma


def test_total_variation_basic():
    sp = enumerate_concepts(2, 1)
    pi0 = reference_prior(sp, exact=True)
    pm = point_mass(sp, 0b00, exact=True)
    assert total_variation(pi0, pi0) == 0
    assert total_variation(pi0, pm) == Fraction(1, 2)
    a = point_mass(sp, 0b01, exact=True)
    b = point_mass(sp, 0b10, exact=True)
    assert total_variation(a, b) == 1


def test_cover_of_family_examples():
    sp = enumerate_concepts(3, 2)
    pi0 = reference_prior(sp)
    pb = smooth_prior(SmoothPriorParams((1, 1, 1), 1.0, 1.0, 3, 2), sp)
    gap = float(total_variation(pi0, pb))
    fam = cover_of_family([pi0, pb], epsilon=gap + 1e-9)
    assert fam.size <= 2

    _, members = parity_family(sp, 1.0, 1.0)
    assert len(members) == 8  # 2^C(3,2) sign vectors
    exact_cover = cover_of_family(members, epsilon=0.0)
    assert exact_cover.size == 8
    # every member within epsilon of the cover (here: exactly present)
    for mem in members:
        _, dist = exact_cover.nearest(mem)
        assert dist == 0.0


def test_cover_priors_covers_smooth_priors():
    sp = enumerate_concepts(2, 1)
    L, alpha, eps = 1.0, 1.0, 0.5
    fam = cover_priors(sp, L, alpha, eps)
    assert fam.size >= 1
    # random smooth priors (mixtures of the parity family and pi0) are
    # covered within epsilon
    pi0 = reference_prior(sp)
    _, members = parity_family(sp, L, alpha)
    rng = np.random.default_rng(5)
    for _ in range(25):
        w = rng.dirichlet(np.ones(len(members) + 1))
        mix = w[0] * pi0.mass + sum(wi * m.mass for wi, m in zip(w[1:], members))
        target = TabularPrior(sp, mix)
        _, dist = fam.nearest(target)
        assert dist <= eps + 1e-9


def test_cover_priors_monotone_in_epsilon():
    sp = enumerate_concepts(2, 1)
    big = cover_priors(sp, 1.0, 1.0, 0.6)
    small = cover_priors(sp, 1.0, 1.0, 0.3)
    assert small.size >= big.size


def test_cover_priors_budget_and_validation():
    sp = enumerate_concepts(3, 2)
    with pytest.raises(BudgetError):
        cover_priors(sp, 1.0, 1.0, 0.05, budget=10)
    with pytest.raises(ValueError):
        cover_priors(sp, 1.0, 1.0, 0.0)


def test_tabular_prior_validation():
    sp = enumerate_concepts(2, 1)
    with pytest.raises(ValueError):
        TabularPrior(sp, [0.5, 0.6, 0.2])
    with pytest.raises(ValueError):
        TabularPrior(sp, [-0.1, 0.6, 0.5])
    with pytest.raises(ValueError):
        TabularPrior(sp, None, exact=[Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)])
