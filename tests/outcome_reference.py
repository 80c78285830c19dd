"""Reference implementations of a task's outcome law.

`dict_outcome_dist` is the dict loop that built every outcome law before
`outcomes.outcome_laws`: a Python loop over each x-tuple and concept into
a tuple-keyed table, each label cell's masses summed by `np.sum`, which
adds left to right (as `outcome_laws` does) only below 8 terms.
`dict_skeleton` builds a skeleton estimator's support and mass table from
those tables, as the estimator once did.

`fraction_law` is the law in literal `Fraction` arithmetic, keyed by
outcome index (x-tuple index * 2^k + label bits, first point's label the
top bit), and `exact_tv` the total variation between two such laws.
`outcome_tuple` decodes an outcome index into its (xs, ys) pair.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def dict_outcome_dist(prior, dist, k) -> dict:
    """The outcome table {(xs, ys): P(x, y)} of one prior: x-tuples in
    order, each one's label patterns in the order the concepts first
    realize them, patterns of zero mass left out."""
    table = {}
    masks = [c.mask for c in prior.space.concepts]
    for xs in itertools.product(range(1, prior.space.m + 1), repeat=k):
        px = math.prod(dist.weights[x - 1] for x in xs)
        cells = {}
        for idx, mask in enumerate(masks):
            ys = tuple(1 if (mask >> (x - 1)) & 1 else -1 for x in xs)
            cells.setdefault(ys, []).append(idx)
        for ys, idxs in cells.items():
            mass = float(prior.mass[idxs].sum())
            if mass != 0.0:
                table[(xs, ys)] = table.get((xs, ys), 0.0) + px * mass
    return table


def dict_skeleton(cover, dist, d) -> tuple[list, np.ndarray]:
    """(support, M): the sorted union of the members' outcome tuples, and
    each member's masses on it."""
    laws = [dict_outcome_dist(p, dist, d) for p in cover.members]
    support = sorted(set().union(*laws))
    index = {z: i for i, z in enumerate(support)}
    M = np.zeros((len(laws), len(support)))
    for r, law in enumerate(laws):
        for z, p in law.items():
            M[r, index[z]] = p
    return support, M


def outcome_tuple(i: int, m: int, k: int) -> tuple:
    """The (xs, ys) outcome of index i: the points' digits x - 1 in base m
    above k label bits, set for +1, first point first."""
    t, bits = divmod(int(i), 2**k)
    xs = []
    for _ in range(k):
        t, x = divmod(t, m)
        xs.insert(0, x + 1)
    return tuple(xs), tuple(1 if (bits >> (k - 1 - j)) & 1 else -1 for j in range(k))


def exact_weights(dist) -> list[Fraction]:
    """Rational reconstruction of the D weights, for weights given as short
    decimals or small-denominator fractions (uniform or 0.05-style tables).

    Raises ValueError unless the reconstructed weights sum to exactly 1 and
    each converts back to its float."""
    weights = [Fraction(w).limit_denominator(10**9) for w in dist.weights]
    if sum(weights) != 1 or any(float(f) != w for f, w in zip(weights, dist.weights)):
        raise ValueError(f"weights {dist.weights} have no exact rational form summing to 1")
    return weights


def fraction_law(prior, dist, k) -> dict[int, Fraction]:
    """The outcome law of an exact prior in `Fraction`s, {index: P(x, y)}
    over the outcomes of nonzero mass; it sums to exactly 1."""
    if not prior.is_exact:
        raise ValueError("exact outcome table needs an exact prior")
    w = exact_weights(dist)
    law = {}
    for t, xs in enumerate(itertools.product(range(1, prior.space.m + 1), repeat=k)):
        px = math.prod((w[x - 1] for x in xs), start=Fraction(1))
        for concept, mass in zip(prior.space.concepts, prior.exact):
            bits = 0
            for x in xs:
                bits = 2 * bits + (concept.label(x) > 0)
            z = t * 2**k + bits
            law[z] = law.get(z, Fraction(0)) + px * mass
    law = {z: p for z, p in law.items() if p}
    assert sum(law.values()) == 1
    return law


def exact_tv(P: dict, Q: dict) -> Fraction:
    """Total variation between two `fraction_law`s, in `Fraction`s."""
    return sum((abs(P.get(z, 0) - Q.get(z, 0)) for z in set(P) | set(Q)), start=Fraction(0)) / 2
