import itertools
from math import comb

import numpy as np
import pytest

from priorlab.concepts import (
    Concept,
    ConceptSpace,
    DataDistribution,
    d_subsets,
    enumerate_concepts,
    rho,
    rho_matrix,
    uniform_distribution,
    verify_vc_dimension,
)


def brute_force_size(m, d):
    return sum(comb(m, q) for q in range(d + 1))


@pytest.mark.parametrize("m,d,expected", [(3, 2, 7), (1, 1, 2), (5, 2, 16)])
def test_enumeration_sizes(m, d, expected):
    assert brute_force_size(m, d) == expected  # oracle agrees with the spec'd value
    assert len(enumerate_concepts(m, d)) == expected


def test_enumeration_order_and_uniqueness():
    sp = enumerate_concepts(4, 2)
    masks = [c.mask for c in sp]
    assert len(set(masks)) == len(masks)
    sizes = [c.size for c in sp]
    assert sizes == sorted(sizes)
    for q in range(3):
        group = [c.mask for c in sp if c.size == q]
        assert group == sorted(group)


def test_enumeration_rejects_bad_d():
    with pytest.raises(ValueError):
        enumerate_concepts(3, 4)
    with pytest.raises(ValueError):
        enumerate_concepts(3, 0)


def test_enumeration_rejects_points_past_the_int64_masks():
    # point 64 would need the sign bit; this raised OverflowError
    with pytest.raises(ValueError, match="63-bit"):
        enumerate_concepts(64, 1)
    top = enumerate_concepts(63, 1)
    assert top.concepts[-1].mask == 1 << 62
    assert top.label_matrix((63,))[-1, 0] == 1


def test_d_subsets_lexicographic():
    subs = d_subsets(3, 2)
    assert subs == [0b011, 0b101, 0b110]


def test_rho_examples():
    D4 = uniform_distribution(4)
    h = Concept(0b0001, 4)
    g = Concept(0b0011, 4)
    assert rho(h, g, D4) == pytest.approx(0.25)
    assert rho(h, h, D4) == 0.0
    D3 = uniform_distribution(3)
    # symmetric difference of {1} and {2,3} is all of {1,2,3}
    assert rho(Concept(0b001, 3), Concept(0b110, 3), D3) == pytest.approx(1.0)


def test_rho_rejects_mismatched_spaces():
    with pytest.raises(ValueError):
        rho(Concept(0b1, 2), Concept(0b1, 3), uniform_distribution(2))


def test_rho_is_a_metric_exhaustively():
    # symmetry, identity, triangle inequality for every pair/triple, m <= 6
    for m, d in [(4, 2), (6, 2), (5, 3)]:
        sp = enumerate_concepts(m, d)
        D = uniform_distribution(m)
        mat = rho_matrix(sp, D)
        n = len(sp)
        assert np.allclose(mat, mat.T)
        assert np.all(np.diag(mat) == 0)
        off = mat + np.eye(n)  # strictly positive D: zero only on diagonal
        assert (off > 0).all()
        for i, j, k in itertools.product(range(n), repeat=3):
            assert mat[i, j] <= mat[i, k] + mat[k, j] + 1e-12


def test_rho_minimum_separation_uniform():
    # distinct concepts differ on at least one point: rho >= 1/m
    for m, d in [(3, 2), (5, 2), (6, 3)]:
        sp = enumerate_concepts(m, d)
        mat = rho_matrix(sp, uniform_distribution(m))
        off_diag = mat[~np.eye(len(sp), dtype=bool)]
        assert off_diag.min() >= 1.0 / m - 1e-12


def shattered_oracle(masks, subset):
    """Independent shattering check from raw masks and a point subset."""
    want = 1 << len(subset)
    seen = set()
    for msk in masks:
        seen.add(tuple((msk >> (x - 1)) & 1 for x in subset))
    return len(seen) == want


def vc_oracle(masks, m, d) -> bool:
    """Brute force: some d-subset of {1..m} is shattered and no (d+1)-subset is."""
    points = range(1, m + 1)
    return any(shattered_oracle(masks, s) for s in itertools.combinations(points, d)) and not any(
        shattered_oracle(masks, s) for s in itertools.combinations(points, d + 1)
    )


@pytest.mark.parametrize("m,d", [(m, d) for m in range(1, 9) for d in range(1, m + 1)])
def test_vc_dimension_is_d(m, d):
    sp = enumerate_concepts(m, d)
    masks = [c.mask for c in sp]
    assert vc_oracle(masks, m, d)
    assert verify_vc_dimension(sp) is True
    # the same concepts, with their VC dimension misstated
    for claimed in range(1, m + 1):
        assert verify_vc_dimension(ConceptSpace(m, claimed, sp.concepts)) is vc_oracle(masks, m, claimed)


def test_vc_guard():
    sp = enumerate_concepts(13, 2)
    with pytest.raises(ValueError):
        verify_vc_dimension(sp)


def test_data_distribution_validation():
    with pytest.raises(ValueError):
        DataDistribution((0.5, 0.6))
    with pytest.raises(ValueError):
        DataDistribution((-0.1, 1.1))
    d = DataDistribution((0.25, 0.75))
    assert d.prob(2) == 0.75
    assert d.mask_prob(0b10) == 0.75
