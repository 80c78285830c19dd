"""Exact distributions over k-sample task outcomes and the
inequality verifiers built on them.

An outcome is a pair (x-tuple, y-tuple).  Tables are stored sparsely:
only realizable label patterns carry mass, so the support is far below
(2m)^k.  Everything here is exact enumeration; the verifiers report
both sides of each inequality rather than just a verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .concepts import ConceptSpace, DataDistribution
from .errors import BudgetError
from .priors import TabularPrior, total_variation

DEFAULT_BUDGET = 10**7
TREE_BUDGET = 10**6  # k^d anchor tuples x 2^d labelings in the tree check
SQRT_BUDGET = 10**6  # m^d point tuples in the sqrt-bound expectation
SAUER_K_MAX = 8  # largest anchor-set size the growth-function check tries
FLOAT_SLACK = 1e-12

Outcome = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass
class OutcomeDistribution:
    """Sparse probability table over (X x {-1,+1})^k outcome tuples."""

    k: int
    table: dict[Outcome, float]
    exact: dict[Outcome, Fraction] | None = None

    def __post_init__(self):
        if self.exact is not None:
            total = sum(self.exact.values(), start=Fraction(0))
            if total != 1:
                raise ValueError(f"exact outcome masses sum to {total}, not 1")
        total = sum(self.table.values())
        if abs(total - 1.0) > FLOAT_SLACK:
            raise ValueError(f"outcome masses sum to {total!r}, not 1")

    def prob(self, z: Outcome) -> float:
        return self.table.get(z, 0.0)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


def exact_weights(dist: DataDistribution) -> list[Fraction]:
    """Rational reconstruction of the D weights, for weights given as short
    decimals or small-denominator fractions (uniform or 0.05-style tables).

    Raises ValueError unless the reconstructed weights sum to exactly 1 and
    each converts back to its float."""
    weights = [Fraction(w).limit_denominator(10**9) for w in dist.weights]
    if sum(weights) != 1 or any(float(f) != w for f, w in zip(weights, dist.weights)):
        raise ValueError(f"weights {dist.weights} have no exact rational form summing to 1")
    return weights


def exact_outcome_dist(
    prior: TabularPrior,
    dist: DataDistribution,
    k: int,
    exact: bool = False,
) -> OutcomeDistribution:
    """Joint law of one task's k samples under `prior` and `dist`:
    P(x, y) = prod_j D(x_j) * prior({h : h(x_j) = y_j for all j})."""
    space = prior.space
    m = space.m
    if (2 * m) ** k > DEFAULT_BUDGET:
        raise BudgetError(f"(2m)^k = {(2 * m) ** k} exceeds the budget of {DEFAULT_BUDGET}")
    if exact and not prior.is_exact:
        raise ValueError("exact outcome table needs an exact prior")
    w_exact = exact_weights(dist) if exact else None
    table: dict[Outcome, float] = {}
    etable: dict[Outcome, Fraction] = {} if exact else None
    masks = [c.mask for c in space.concepts]
    for xs in itertools.product(range(1, m + 1), repeat=k):
        px = math.prod(dist.weights[x - 1] for x in xs)
        if exact:
            px_e = math.prod(
                (w_exact[x - 1] for x in xs), start=Fraction(1)
            )
        cells: dict[tuple[int, ...], list[int]] = {}
        for idx, mask in enumerate(masks):
            ys = tuple(1 if (mask >> (x - 1)) & 1 else -1 for x in xs)
            cells.setdefault(ys, []).append(idx)
        for ys, idxs in cells.items():
            mass = float(prior.mass[idxs].sum())
            if mass == 0.0 and not exact:
                continue
            z = (xs, ys)
            table[z] = table.get(z, 0.0) + px * mass
            if exact:
                mass_e = sum((prior.exact[i] for i in idxs), start=Fraction(0))
                if mass_e:
                    etable[z] = etable.get(z, Fraction(0)) + px_e * mass_e
    if exact:
        table = {z: float(v) for z, v in etable.items()}
    return OutcomeDistribution(k, table, exact=etable)


def tv(P, Q):
    """Total variation distance, (1/2) L1 on the shared index space.

    Accepts a pair of OutcomeDistributions or a pair of TabularPriors;
    exact Fractions propagate when both sides carry them.
    """
    if isinstance(P, TabularPrior) and isinstance(Q, TabularPrior):
        return total_variation(P, Q)
    if isinstance(P, OutcomeDistribution) and isinstance(Q, OutcomeDistribution):
        if P.k != Q.k:
            raise ValueError(f"outcome spaces differ: k={P.k} vs k={Q.k}")
        if P.is_exact and Q.is_exact:
            keys = set(P.exact) | set(Q.exact)
            return (
                sum(
                    (abs(P.exact.get(z, Fraction(0)) - Q.exact.get(z, Fraction(0))) for z in keys),
                    start=Fraction(0),
                )
                / 2
            )
        keys = set(P.table) | set(Q.table)
        return sum(abs(P.prob(z) - Q.prob(z)) for z in keys) / 2.0
    raise TypeError(f"cannot compare {type(P).__name__} with {type(Q).__name__}")


def _cell_masses(prior: TabularPrior, points: tuple[int, ...], exact: bool):
    """Mass of {h : h(points) = pattern} for every realized pattern."""
    labels = prior.space.label_matrix(points)
    out: dict[tuple[int, ...], Fraction | float] = {}
    for i, row in enumerate(labels):
        key = tuple(int(v) for v in row)
        if exact:
            out[key] = out.get(key, Fraction(0)) + prior.exact[i]
        else:
            out[key] = out.get(key, 0.0) + float(prior.mass[i])
    return out


def label_conditional_tv(
    prior_a: TabularPrior, prior_b: TabularPrior, anchors: tuple[int, ...]
):
    """TV between the two label distributions conditional on the anchors:
    (1/2) sum over label patterns of the cell-mass differences."""
    if prior_a.space != prior_b.space:
        raise ValueError("priors live on different concept spaces")
    anchors = tuple(int(a) for a in anchors)
    exact = prior_a.is_exact and prior_b.is_exact
    ca = _cell_masses(prior_a, anchors, exact)
    cb = _cell_masses(prior_b, anchors, exact)
    keys = set(ca) | set(cb)
    zero = Fraction(0) if exact else 0.0
    total = sum((abs(ca.get(k, zero) - cb.get(k, zero)) for k in keys), start=zero)
    return total / 2


@dataclass
class CheckReport:
    """One verified inequality: lhs <= rhs (plus context for the CSV log)."""

    check: str
    instance: str
    k: int
    lhs: float
    rhs: float
    passed: bool

    def csv_row(self) -> tuple:
        return (self.check, self.instance, self.k, self.lhs, self.rhs, self.passed)


CSV_HEADER = ("check", "instance", "k", "lhs", "rhs", "pass")


def _instance_tag(space: ConceptSpace) -> str:
    return f"m={space.m};d={space.d}"


def verify_tree_inequality(
    prior_a: TabularPrior,
    prior_b: TabularPrior,
    anchors: tuple[int, ...],
    d: int,
) -> CheckReport:
    """Check the binary-tree reduction from k anchors down to d:

        ||P_{Y_k|X_k}(A) - P_{Y_k|X_k}(B)|| <= (ek)^d k^2 d * M,

    where M ranges over all d-tuples of anchor indices and all d-bit
    labelings of cell-mass differences."""
    anchors = tuple(int(a) for a in anchors)
    k = len(anchors)
    if k < d:
        raise ValueError(f"need at least d={d} anchors, got {k}")
    if (k**d) * (2**d) > TREE_BUDGET:
        raise BudgetError("tree-inequality enumeration exceeds budget")
    lhs = float(label_conditional_tv(prior_a, prior_b, anchors))
    worst = 0.0
    for idx in itertools.product(range(k), repeat=d):
        pts = tuple(anchors[i] for i in idx)
        ca = _cell_masses(prior_a, pts, exact=False)
        cb = _cell_masses(prior_b, pts, exact=False)
        for ys in itertools.product((-1, 1), repeat=d):
            gap = abs(ca.get(ys, 0.0) - cb.get(ys, 0.0))
            worst = max(worst, gap)
    rhs = (math.e * k) ** d * k**2 * d * worst
    return CheckReport(
        "tree-inequality",
        _instance_tag(prior_a.space),
        k,
        lhs,
        rhs,
        lhs <= rhs + FLOAT_SLACK,
    )


def verify_sqrt_bound(
    prior_a: TabularPrior,
    prior_b: TabularPrior,
    dist: DataDistribution,
    d: int,
) -> list[CheckReport]:
    """For each d-bit labeling y, check

        E_X |P_{Y_d|X_d}(y; A) - P_{Y_d|X_d}(y; B)| <= 4 sqrt(||P_Zd(A) - P_Zd(B)||).

    The expectation over the d sample points is exact enumeration of all
    m^d point tuples, guarded by SQRT_BUDGET."""
    space = prior_a.space
    m = space.m
    if m**d > SQRT_BUDGET:
        raise BudgetError(f"m^d = {m**d} exceeds the budget of {SQRT_BUDGET}")
    pa = exact_outcome_dist(prior_a, dist, d)
    pb = exact_outcome_dist(prior_b, dist, d)
    rhs = 4.0 * math.sqrt(float(tv(pa, pb)))
    xtuples = list(itertools.product(range(1, m + 1), repeat=d))
    weights = [math.prod(dist.weights[x - 1] for x in xs) for xs in xtuples]

    reports = []
    cell_cache: dict[tuple[int, ...], tuple[dict, dict]] = {}
    for ys in itertools.product((-1, 1), repeat=d):
        lhs = 0.0
        for xs, w in zip(xtuples, weights):
            if xs not in cell_cache:
                cell_cache[xs] = (
                    _cell_masses(prior_a, xs, exact=False),
                    _cell_masses(prior_b, xs, exact=False),
                )
            ca, cb = cell_cache[xs]
            lhs += w * abs(ca.get(ys, 0.0) - cb.get(ys, 0.0))
        reports.append(
            CheckReport(
                f"sqrt-bound[y={''.join('+' if y > 0 else '-' for y in ys)}]",
                _instance_tag(space),
                d,
                lhs,
                rhs,
                lhs <= rhs + FLOAT_SLACK,
            )
        )
    return reports


@dataclass
class LemmaChainReport:
    """Marginalization chain at k = 1..k_max: outcome TVs are nondecreasing
    in k and never exceed the prior TV; gaps are the measured slack."""

    instance: str
    prior_tv: float
    outcome_tvs: list[float]
    gaps: list[float] = field(init=False)
    monotone: bool = field(init=False)
    bounded: bool = field(init=False)

    def __post_init__(self):
        self.gaps = [self.prior_tv - t for t in self.outcome_tvs]
        self.monotone = all(
            b >= a - FLOAT_SLACK for a, b in zip(self.outcome_tvs, self.outcome_tvs[1:])
        )
        self.bounded = all(t <= self.prior_tv + FLOAT_SLACK for t in self.outcome_tvs)

    @property
    def passed(self) -> bool:
        return self.monotone and self.bounded

    def csv_rows(self) -> list[tuple]:
        rows = []
        for i, t in enumerate(self.outcome_tvs, start=1):
            rows.append(("lemma-chain", self.instance, i, t, self.prior_tv, self.passed))
        return rows


def verify_lemma_chain(
    prior_a: TabularPrior,
    prior_b: TabularPrior,
    dist: DataDistribution,
    k_max: int,
) -> LemmaChainReport:
    prior_gap = float(tv(prior_a, prior_b))
    tvs = []
    for k in range(1, k_max + 1):
        pa = exact_outcome_dist(prior_a, dist, k)
        pb = exact_outcome_dist(prior_b, dist, k)
        tvs.append(float(tv(pa, pb)))
    return LemmaChainReport(_instance_tag(prior_a.space), prior_gap, tvs)


def realizable_pattern_count(space: ConceptSpace, anchors: tuple[int, ...]) -> int:
    """Number of distinct label patterns the class realizes on the anchors."""
    labels = space.label_matrix(tuple(anchors))
    return len({tuple(int(v) for v in row) for row in labels})


def check_sauer(space: ConceptSpace) -> list[CheckReport]:
    """Exhaustive growth-function check: on every anchor set of size
    k <= min(SAUER_K_MAX, m), the realizable patterns number at most (ek)^d."""
    reports = []
    for k in range(1, min(SAUER_K_MAX, space.m) + 1):
        worst = 0
        for anchors in itertools.combinations(range(1, space.m + 1), k):
            worst = max(worst, realizable_pattern_count(space, anchors))
        bound = (math.e * k) ** space.d
        reports.append(
            CheckReport("sauer", _instance_tag(space), k, float(worst), bound, worst <= bound)
        )
    return reports
