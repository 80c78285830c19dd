"""Exact distributions over k-sample task outcomes and the
inequality verifiers built on them.

An outcome is a pair (x-tuple, y-tuple), indexed x-tuple * 2^k + label
bits (`_label_table`).  `outcome_laws` builds every member's law over
those (2m)^k indices; `exact_outcome_dist` reads one as a sparse table.
Everything here is exact enumeration; the verifiers report both sides of
each inequality rather than just a verdict.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .concepts import ConceptSpace, DataDistribution, d_subsets, trace_counts
from .errors import BYTE_BUDGET, Array, Work, capped_power, check_plan
from .priors import TabularPrior, total_variation

SAUER_K_MAX = 8  # largest anchor-set size the growth-function check tries
FLOAT_SLACK = 1e-12


def _check_sums_to_one(masses) -> None:
    total = math.fsum(masses)  # a left-to-right sum drifts past the slack on large supports
    if abs(total - 1.0) > FLOAT_SLACK:
        raise ValueError(f"outcome masses sum to {total!r}, not 1")


@dataclass
class OutcomeDistribution:
    """Sparse probability table over (X x {-1,+1})^k outcome tuples."""

    k: int
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], float]

    def __post_init__(self):
        _check_sums_to_one(self.table.values())

    def prob(self, z: tuple) -> float:
        return self.table.get(z, 0.0)


def realizable_outcomes(m: int, d: int, k: int) -> int:
    """The outcomes (k-tuple, labels) with mass under a prior that weighs
    every concept of C(m, d): a tuple of r distinct points takes every
    labelling with at most d positives."""
    k = min(k, BYTE_BUDGET.bit_length())  # as `capped_power` cuts it
    # C(m, r) point sets, each filled by the k draws in onto(k, r) ways
    onto = [sum((-1) ** i * math.comb(r, i) * (r - i) ** k for i in range(r + 1)) for r in range(k + 1)]
    return sum(
        math.comb(m, r) * onto[r] * sum(math.comb(r, j) for j in range(min(d, r) + 1))
        for r in range(1, min(m, k) + 1)
    )


def law_plan(m: int, concepts: int, k: int, rows: int, key: str = "k") -> list:
    """What `outcome_laws` holds for `rows` mass rows of `concepts` concepts at k points over m."""
    tuples, codes = capped_power(m, k), capped_power(2 * m, k)
    return [
        Array("label table and its build", (5, tuples, concepts), "int64", key),
        Array("label masses and outcome laws", (2, rows, codes), "float64", key),
        Array("law row floats", (codes,), "pyfloat", key),
    ]


@functools.lru_cache(maxsize=16)
def _label_table(space_masks: bytes, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cells, order) of the space with int64 masks `space_masks`:
    `cells` (m^k, concepts), each concept's outcome index on each x-tuple
    (x-tuple index * 2^k + label bits, x-tuples in `itertools.product`
    order, the first point's label the top bit, set for +1), and `order`
    the indices x-tuple by x-tuple, as the concepts first realize them."""
    masks = np.frombuffer(space_masks, dtype=np.int64)
    cells = np.arange(m**k)[:, None]
    for x in np.indices((m,) * k).reshape(k, -1):
        cells = 2 * cells + ((masks >> x[:, None]) & 1)
    order = cells.ravel()[np.sort(np.unique(cells, return_index=True)[1])]
    cells.flags.writeable = order.flags.writeable = False
    return cells, order


def label_masses(masses: np.ndarray, space: ConceptSpace, k: int) -> np.ndarray:
    """The mass of every label cell {h : h(x) = y} under each row of `masses`
    (members x concepts of `space`), summed in concept order: a `mass @ K`
    product sums in BLAS order, whose last bits flip float-tied selections."""
    check_plan(law_plan(space.m, len(space), k, len(masses)))
    cells = _label_table(space.masks.tobytes(), space.m, k)[0].ravel()
    return np.stack([np.bincount(cells, np.resize(row, cells.size), (2 * space.m) ** k) for row in masses])


def _weigh(cells: np.ndarray, dist: DataDistribution, k: int) -> np.ndarray:
    """Label masses times P(x) = prod_j D(x_j), in point order; each row must sum to 1."""
    px = functools.reduce(np.multiply.outer, [np.array(dist.weights)] * k).ravel()
    laws = cells * np.repeat(px, 1 << k)
    for row in laws:
        _check_sums_to_one(row.tolist())
    return laws


def outcome_laws(masses: np.ndarray, space: ConceptSpace, dist: DataDistribution, k: int) -> np.ndarray:
    """The joint laws of one task's k samples under `dist` and each row of
    `masses`, as a (members, (2m)^k) array: P(x, y) = P(x) * mass{h : h(x)
    = y}, P(x) = prod_j D(x_j) in point order; each row must sum to 1."""
    return _weigh(label_masses(masses, space, k), dist, k)


def _sparse_laws(cells: np.ndarray, space: ConceptSpace, dist: DataDistribution, k: int):
    """Each of the `label_masses` rows `cells` as the OutcomeDistribution of its law, built only
    as it is taken: a table over (x-tuple, y-tuple) outcomes, x-tuple by x-tuple, each one's
    label patterns in the order the concepts first realize them, over the cells with mass."""
    order = _label_table(space.masks.tobytes(), space.m, k)[1]
    laws, live = _weigh(cells, dist, k), cells > 0
    used = order[live.any(axis=0)[order]]
    xs, ys = (list(itertools.product(labels, repeat=k)) for labels in (range(1, space.m + 1), (-1, 1)))
    keys = [(xs[i >> k], ys[i % 2**k]) for i in used.tolist()]
    for law, alive in zip(laws, live):
        law, alive = law[used].tolist(), alive[used].tolist()
        yield OutcomeDistribution(k, dict(itertools.compress(zip(keys, law), alive)))


def exact_outcome_dist(prior: TabularPrior, dist: DataDistribution, k: int) -> OutcomeDistribution:
    """Joint law of one task's k samples under `prior` and `dist`: the one-prior case of `_sparse_laws`."""
    return next(_sparse_laws(label_masses(prior.mass[None], prior.space, k), prior.space, dist, k))


def sparse_law_plan(m: int, d: int, k: int, key: str = "k") -> list:
    """What `_pair_tvs` holds for priors that weigh every concept: per outcome with mass its key (8
    slots), each law's float and dict entry (2 x 12) and its entries in three key sets (3 x 8)."""
    return [
        Array("x-tuples", (capped_power(m, k), 8 + min(k, BYTE_BUDGET.bit_length())), "pyslot", key),
        Array("two sparse laws", (realizable_outcomes(m, d, k), 58), "pyslot", key),
    ]


def _pair_tvs(cells: np.ndarray, space: ConceptSpace, dist: DataDistribution, k: int) -> list[float]:
    """The TV of the laws of `label_masses` rows 2p and 2p + 1, built as it is taken, for each pair p."""
    check_plan(sparse_law_plan(space.m, space.d, k))
    laws = _sparse_laws(cells, space, dist, k)
    return [float(tv(law_a, law_b)) for law_a, law_b in zip(laws, laws)]


def tv(P, Q):
    """Total variation distance, (1/2) L1 on the shared index space.

    Accepts a pair of OutcomeDistributions or a pair of TabularPriors;
    exact Fractions propagate when both priors carry them.
    """
    if isinstance(P, TabularPrior) and isinstance(Q, TabularPrior):
        return total_variation(P, Q)
    if isinstance(P, OutcomeDistribution) and isinstance(Q, OutcomeDistribution):
        if P.k != Q.k:
            raise ValueError(f"outcome spaces differ: k={P.k} vs k={Q.k}")
        total, p, q = 0.0, P.table.get, Q.table.get
        for z in set(P.table) | set(Q.table):
            total += abs(p(z, 0.0) - q(z, 0.0))  # left to right; builtin sum compensates from 3.12
        return total / 2.0
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
    total = zero = Fraction(0) if exact else 0.0
    for k in set(ca) | set(cb):
        total += abs(ca.get(k, zero) - cb.get(k, zero))  # left to right, as in `tv`
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
    cells: np.ndarray | None = None,
) -> CheckReport:
    """Check the binary-tree reduction from k anchors down to d:

        ||P_{Y_k|X_k}(A) - P_{Y_k|X_k}(B)|| <= (ek)^d k^2 d * M,

    where M ranges over all d-tuples of anchor indices and all d-bit
    labelings of cell-mass differences, read off the pair's `label_masses`
    rows at k = d (`cells`, computed when not given): each sums its cell in
    concept order, as the anchors' own cell masses would."""
    anchors = tuple(int(a) for a in anchors)
    k = len(anchors)
    if k < d:
        raise ValueError(f"need at least d={d} anchors, got {k}")
    check_plan([Array("anchor d-tuples and cell gaps", (capped_power(k, d), 1 + 2**d), "float64", "anchors")])
    lhs = float(label_conditional_tv(prior_a, prior_b, anchors))
    cells = label_masses(np.stack([prior_a.mass, prior_b.mass]), prior_a.space, d) if cells is None else cells
    tuples = np.zeros(1, dtype=np.int64)  # x-tuple indices of the anchor d-tuples
    for _ in range(d):
        tuples = (tuples[:, None] * prior_a.space.m + np.array(anchors) - 1).ravel()
    worst = float(np.abs(cells[0] - cells[1]).reshape(-1, 2**d)[tuples].max())
    rhs = (math.e * k) ** d * k**2 * d * worst
    return CheckReport("tree-inequality", _instance_tag(prior_a.space), k, lhs, rhs, lhs <= rhs + FLOAT_SLACK)


def verify_sqrt_bound(
    prior_a: TabularPrior,
    prior_b: TabularPrior,
    dist: DataDistribution,
    d: int,
    cells: np.ndarray | None = None,
    outcome_tv: float | None = None,
) -> list[CheckReport]:
    """For each d-bit labeling y, check

        E_X |P_{Y_d|X_d}(y; A) - P_{Y_d|X_d}(y; B)| <= 4 sqrt(||P_Zd(A) - P_Zd(B)||).

    The expectation over the d sample points is exact enumeration of all
    m^d point tuples, planned before they are held, summed left to right
    x-tuple by x-tuple.  `cells`, the pair's `label_masses` rows at k = d,
    and `outcome_tv`, the TV of its laws there, are computed when not given."""
    space, m = prior_a.space, prior_a.space.m
    check_plan([Array("sqrt-bound gaps and their sums", (2, m**d, 2**d), "float64", "d")])
    cells = label_masses(np.stack([prior_a.mass, prior_b.mass]), space, d) if cells is None else cells
    if outcome_tv is None:
        outcome_tv = _pair_tvs(cells, space, dist, d)[0]
    rhs = 4.0 * math.sqrt(outcome_tv)
    px = functools.reduce(np.multiply.outer, [np.array(dist.weights)] * d).ravel()
    gaps = px[:, None] * np.abs(cells[0] - cells[1]).reshape(m**d, -1)
    lhs = np.cumsum(gaps, axis=0)[-1].tolist()
    return [
        CheckReport(f"sqrt-bound[y={''.join('+' if y > 0 else '-' for y in ys)}]", _instance_tag(space), d,
                    lhs[bits], rhs, lhs[bits] <= rhs + FLOAT_SLACK)
        for bits, ys in enumerate(itertools.product((-1, 1), repeat=d))
    ]


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
        self.monotone = all(b >= a - FLOAT_SLACK for a, b in zip(self.outcome_tvs, self.outcome_tvs[1:]))
        self.bounded = all(t <= self.prior_tv + FLOAT_SLACK for t in self.outcome_tvs)

    @property
    def passed(self) -> bool:
        return self.monotone and self.bounded

    def csv_rows(self) -> list[tuple]:
        return [("lemma-chain", self.instance, i, t, self.prior_tv, self.passed)
                for i, t in enumerate(self.outcome_tvs, start=1)]


def verify_lemma_chain(
    prior_a: TabularPrior,
    prior_b: TabularPrior,
    dist: DataDistribution,
    k_max: int,
) -> LemmaChainReport:
    masses = np.stack([prior_a.mass, prior_b.mass])
    tvs = [_pair_tvs(label_masses(masses, prior_a.space, k), prior_a.space, dist, k)[0]
           for k in range(1, k_max + 1)]
    return LemmaChainReport(_instance_tag(prior_a.space), float(tv(prior_a, prior_b)), tvs)


def verify_lemma_pairs(pairs, dist: DataDistribution, k_max: int) -> list[tuple]:
    """The CSV rows of `verify_lemma_chain`, `verify_tree_inequality` and
    `verify_sqrt_bound` at d = the space's d, bit for bit, for each
    (prior_a, prior_b, anchors) of `pairs` in turn: one `label_masses`
    table per k for every prior of the block, each pair's sparse laws
    built only as its TV is taken, and the k = d table and TV reused by
    the tree and square-root checks."""
    if not pairs:
        return []
    space, d = pairs[0][0].space, pairs[0][0].space.d
    if k_max < d:
        raise ValueError(f"k_max must be >= d = {d}, got {k_max}")
    masses = np.stack([p.mass for a, b, _ in pairs for p in (a, b)])
    by_k = []
    for k in range(1, k_max + 1):
        cells = label_masses(masses, space, k)
        by_k.append(_pair_tvs(cells, space, dist, k))
        if k == d:
            at_d = cells
    rows = []
    for p, ((a, b, anchors), chain) in enumerate(zip(pairs, map(list, zip(*by_k)))):
        rows += LemmaChainReport(_instance_tag(space), float(tv(a, b)), chain).csv_rows()
        rows.append(verify_tree_inequality(a, b, anchors, d, at_d[2 * p:2 * p + 2]).csv_row())
        rows += [r.csv_row() for r in verify_sqrt_bound(a, b, dist, d, at_d[2 * p:2 * p + 2], chain[d - 1])]
    return rows


def sauer_plan(m: int, concepts: int, key: str = "m") -> list:
    """The work of `check_sauer`, one label per (anchor set, concept), and the masks of the anchor
    sets of its most numerous size, as a list of Python ints and an int64 array."""
    sets = [math.comb(m, k) for k in range(1, min(SAUER_K_MAX, m) + 1)]
    return [Work(f"labels of {sum(sets)} anchor sets x {concepts} concepts", sum(sets) * concepts, key),
            Array("one size's anchor set masks", (max(sets), 9), "pyslot", key)]


def check_sauer(space: ConceptSpace) -> list[CheckReport]:
    """Exhaustive growth-function check: on every anchor set of size
    k <= min(SAUER_K_MAX, m), the realizable patterns number at most (ek)^d."""
    check_plan(sauer_plan(space.m, len(space)))
    reports = []
    for k in range(1, min(SAUER_K_MAX, space.m) + 1):
        worst = int(trace_counts(space, d_subsets(space.m, k)).max())
        bound = (math.e * k) ** space.d
        reports.append(CheckReport("sauer", _instance_tag(space), k, float(worst), bound, worst <= bound))
    return reports
