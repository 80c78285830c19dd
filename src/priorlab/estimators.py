"""Estimators: the minimum-distance (Yatracos) selection over a finite
cover, the direct-access baseline, the sign-reduction estimator, and the
exact two-coin decision problem.

The minimum-distance machinery is shared between outcome space (the
skeleton estimator proper, fed by k = d samples per task) and concept
space (the direct-access baseline): both select the member minimizing the
maximum discrepancy against the empirical measure over the pairwise sets
{z : P_i(z) > P_j(z)}.  An exact-Fraction scoring path exists so the
selection and its guarantee can be checked with literal arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .concepts import DataDistribution, d_subsets
from .errors import BudgetError
from .outcomes import DEFAULT_BUDGET, OutcomeDistribution, exact_outcome_dist, tv
from .priors import CoverFamily, SmoothPriorParams, TabularPrior
from .sampling import outcome_codes


def yatracos_scores(PA: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Min-distance scores max_ij |PA[:, ij] - mu[ij]| of the members (PA:
    members x pairs), for one empirical vector mu or a stack of them;
    0 when there are no pairs."""
    return np.abs(PA - mu[..., None, :]).max(axis=-1, initial=0.0)


_ROW_BLOCK = 1 << 12  # values a block of rows holds at once (one row may hold more)


def _by_rows(fn, rows: np.ndarray, entries: int) -> np.ndarray:
    """fn of a stack of vectors, a block of rows at a time, where fn makes
    `entries` values per row, so that a block holds about _ROW_BLOCK of
    them."""
    step = max(1, _ROW_BLOCK // max(entries, 1))
    return np.concatenate([fn(rows[i:i + step]) for i in range(0, len(rows), step)])


def yatracos_sets(M: np.ndarray) -> np.ndarray:
    """The Yatracos sets {z : M_i(z) > M_j(z)} of the rows of a (members,
    support) mass table, over ordered pairs i != j in row-major order, as
    a (pairs, support) bool array.  Float masses compare with a 1e-12
    guard: float tables of genuinely equal masses can differ by rounding,
    which would flip set membership.  Fraction (object) masses compare
    exactly."""
    M = np.asarray(M)
    rhs = M if M.dtype == object else M + 1e-12
    off_diagonal = ~np.eye(len(M), dtype=bool)
    return (M[:, None, :] > rhs[None, :, :])[off_diagonal].astype(bool, copy=False)


def check_yatracos_budget(n: int, s: int) -> None:
    """BudgetError when min-distance selection over n members on s support
    points exceeds the budget: its pairwise sets hold pairs x support
    entries, and their member masses members x pairs."""
    if n * (n - 1) * (s + n) > DEFAULT_BUDGET:
        raise BudgetError(
            f"{n * (n - 1)} Yatracos pairs x ({s} support points + {n} members)"
            f" exceed the budget of {DEFAULT_BUDGET}"
        )


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index of the first of each distinct row, in row order; for every
    row, the position of its distinct row in that index)."""
    first: dict[bytes, int] = {}
    keys = [r.tobytes() for r in rows]
    for p, key in enumerate(keys):
        first.setdefault(key, p)
    keep = np.array(list(first.values()), dtype=np.int64)
    return keep, np.searchsorted(keep, [first[key] for key in keys])


class _MinDistance:
    """Minimum-distance selection over N mass vectors on a finite support.

    Yatracos sets are the ordered-pair regions A_ij = {z : M_i(z) > M_j(z)};
    scores(mu) = max_A |M(A) - mu(A)| and selection is the argmin, ties to
    the lowest member index.  Built from exact rows, it scores in
    Fractions; otherwise in floats.

    A region shared by several pairs adds nothing to a maximum, so the
    empirical masses mu(A) are counted and scored over the distinct sets
    only (728 of 4,032 pairs for the m=4, d=2 parity family).  The float
    member masses M(A) come from the all-pairs product, and a pair whose
    masses differ in any bit from those of the first pair with its set
    keeps a column of its own, so every score is the all-pairs score bit
    for bit; `deviation` likewise reads each pair's truth mass from the
    all-pairs product.  The budget still counts every ordered pair: the
    pairwise comparison is built before duplicates are dropped.
    """

    def __init__(self, mass_matrix: np.ndarray, exact_rows: list[list[Fraction]] | None = None):
        self.M = np.asarray(mass_matrix, dtype=float)
        check_yatracos_budget(*self.M.shape)
        exact = exact_rows is not None
        sets = yatracos_sets(np.array(exact_rows, dtype=object) if exact else self.M)
        keep, self._pair_set = _distinct_rows(sets)
        if exact:
            self.A = sets[keep].astype(float)
            self.PA_exact = [
                [sum((row[z] for z in np.flatnonzero(a)), start=Fraction(0)) for a in self.A]
                for row in exact_rows
            ]
        else:
            PA = self.M @ sets.T  # (members, pairs)
            # a pair whose masses round unlike those of its set's first pair
            # keeps a column of its own, after the distinct sets
            odd = np.flatnonzero((PA != PA[:, keep[self._pair_set]]).any(axis=0))
            columns = np.concatenate([keep, odd])
            self.A = sets[columns].astype(float)
            self.PA = np.ascontiguousarray(PA[:, columns])
            self.PA_exact = None

    def _mu(self, counts: np.ndarray, total: int) -> np.ndarray:
        """The empirical masses mu(A) of the distinct sets for each row of
        a stack of count vectors (exact sums: counts are integers)."""
        return (counts @ self.A.T) / total

    def _scores(self, counts: np.ndarray, total: int) -> np.ndarray:
        """The float scores of each row of a (rows, support) stack of
        counts, each of `total` tasks, as a (rows, members) array."""
        return _by_rows(lambda c: yatracos_scores(self.PA, self._mu(c, total)), counts, self.PA.size)

    def select_rows(self, counts: np.ndarray, total: int) -> np.ndarray:
        """The selected member of each row of a (rows, support) stack of
        counts, each of `total` tasks, scored in floats."""
        if self.PA_exact is not None:
            raise ValueError("exact selection scores one count vector at a time")
        return np.argmin(self._scores(counts, total), axis=1)

    def select(self, counts: np.ndarray, total: int) -> tuple[int, SkeletonReport]:
        """The selected member of one count vector and its score report."""
        if self.PA_exact is None:
            s = self._scores(np.asarray(counts)[None], total)[0]
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
        """Q(A_ij) of every ordered pair for a truth vector Q restricted to
        this support (mass elsewhere never enters any set), from the
        all-pairs product: a product over the distinct sets alone can
        round differently."""
        return self.A[self._pair_set] @ np.asarray(truth_on_support, dtype=float)

    def deviation_rows(self, counts: np.ndarray, total: int, truth_masses: np.ndarray) -> np.ndarray:
        """max over Yatracos sets of |mu_T(A) - Q(A)|, given `truth_masses(Q)`,
        for each row of a (rows, support) stack of counts."""
        return _by_rows(
            lambda c: np.abs(self._mu(c, total)[:, self._pair_set] - truth_masses).max(axis=-1, initial=0.0),
            counts,
            len(self._pair_set),
        )

    def deviation(self, counts: np.ndarray, total: int, truth_masses: np.ndarray) -> float:
        """`deviation_rows` of one count vector."""
        return float(self.deviation_rows(np.asarray(counts)[None], total, truth_masses)[0])

    def deviation_exact(self, counts: np.ndarray, total: int, truth_exact: list[Fraction]):
        mu = [Fraction(int(a @ counts), total) for a in self.A]
        qa = [
            sum((truth_exact[z] for z in np.flatnonzero(a)), start=Fraction(0))
            for a in self.A
        ]
        return max((abs(m - q) for m, q in zip(mu, qa)), default=Fraction(0))


@dataclass
class SkeletonReport:
    selected: int
    scores: list
    exact: bool


class SkeletonEstimator:
    """Minimum-distance selection among a cover's outcome distributions at
    k = d samples per task."""

    def __init__(self, cover: CoverFamily, dist: DataDistribution, d: int, exact: bool = False):
        if cover.size < 1:
            raise ValueError("cover must be nonempty")
        self.cover = cover
        self.d = d
        self.dist = dist
        self.outcome_dists = [
            exact_outcome_dist(p, dist, d, exact=exact) for p in cover.members
        ]
        support = sorted(set().union(*(od.table.keys() for od in self.outcome_dists)))
        self.support = support
        index = {z: i for i, z in enumerate(support)}
        M = np.zeros((cover.size, len(support)))
        for r, od in enumerate(self.outcome_dists):
            for z, p in od.table.items():
                M[r, index[z]] = p
        exact_rows = None
        if exact:
            exact_rows = [
                [od.exact.get(z, Fraction(0)) for z in support] for od in self.outcome_dists
            ]
        self._md = _MinDistance(M, exact_rows)
        self.is_exact = exact
        # exact_outcome_dist has checked the (2m)^d code space against the budget
        self._n_codes = (2 * dist.m) ** d
        self._support_codes = outcome_codes(
            np.array([xs for xs, _ in support]), np.array([ys for _, ys in support]), dist.m
        )

    def count_outcomes(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, int]:
        """Support counts of T tasks given as (T, d) arrays of points in
        1..m and labels in {-1, +1}; outcomes off the support are not
        counted.  The arrays are checked, coded and passed to
        `count_codes`."""
        if xs.ndim != 2 or xs.shape[1] != self.d or ys.shape != xs.shape:
            raise ValueError(
                f"tasks of shape {xs.shape} / {ys.shape}, estimator expects (T, {self.d})"
            )
        if xs.size and (xs.min() < 1 or xs.max() > self.dist.m):
            # a point outside 1..m would be coded as another outcome
            raise ValueError(f"points must lie in 1..{self.dist.m}")
        if ys.size and (np.abs(ys) != 1).any():
            # the code reads y > 0, so any other label would count as -1 or +1
            raise ValueError("labels must be -1 or +1")
        return self.count_codes(outcome_codes(xs, ys, self.dist.m))

    def count_codes(self, codes: np.ndarray) -> tuple[np.ndarray, int]:
        """Support counts of T tasks given by their outcome codes (below
        (2m)^d, as `outcome_codes` writes them): every code is counted,
        then the support's codes are read off."""
        counts = np.bincount(codes, minlength=self._n_codes)[self._support_codes]
        return counts, len(codes)

    def select_from_counts(self, counts: np.ndarray, total: int) -> tuple[int, SkeletonReport]:
        return self._md.select(counts, total)

    def select_rows(self, counts: np.ndarray, total: int) -> np.ndarray:
        """`select_from_counts`' member for each row of a stack of counts."""
        return self._md.select_rows(counts, total)

    def truth_vectors(self, truth_dist: OutcomeDistribution):
        q = np.array([truth_dist.prob(z) for z in self.support])
        q_exact = None
        if self.is_exact and truth_dist.is_exact:
            q_exact = [truth_dist.exact.get(z, Fraction(0)) for z in self.support]
        return q, q_exact

    def max_deviation(self, counts, total, truth_dist: OutcomeDistribution):
        q, q_exact = self.truth_vectors(truth_dist)
        if q_exact is not None:
            return self._md.deviation_exact(counts, total, q_exact)
        return self._md.deviation(counts, total, self._md.truth_masses(q))

    def decomposition_check(self, counts, total, truth_dist: OutcomeDistribution):
        """The selection guarantee on one run:

            tv(P_selected, Q) <= 3 min_l tv(P_l, Q) + 2 max_A |mu_T(A) - Q(A)|.

        Returns (lhs, rhs, holds); in exact mode all three are computed in
        Fraction arithmetic, so `holds` is a literal statement.
        """
        selected, _ = self.select_from_counts(counts, total)
        dists = [tv(od, truth_dist) for od in self.outcome_dists]
        lhs = dists[selected]
        dev = self.max_deviation(counts, total, truth_dist)
        rhs = 3 * min(dists) + 2 * dev
        return lhs, rhs, lhs <= rhs


class DirectEstimator:
    """Direct-access baseline: minimum-distance selection straight on the
    empirical concept distribution (no sampling bottleneck)."""

    def __init__(self, cover: CoverFamily):
        if cover.size < 1:
            raise ValueError("cover must be nonempty")
        self.cover = cover
        self._md = _MinDistance(np.stack([p.mass for p in cover.members]))

    def select_from_counts(self, counts: np.ndarray, total: int) -> tuple[int, SkeletonReport]:
        return self._md.select(counts, total)

    def select_rows(self, counts: np.ndarray, total: int) -> np.ndarray:
        """`select_from_counts`' member for each row of a stack of counts."""
        return self._md.select_rows(counts, total)


@dataclass(frozen=True)
class ReductionEstimate:
    """Signs read off a prior estimate via the full-subset threshold rule."""

    b_hat: tuple[int, ...]
    p_hat: tuple[float, ...]
    threshold: float


def reduce_to_signs(prior_estimate: TabularPrior, params: SmoothPriorParams) -> ReductionEstimate:
    """Recover the sign vector from any estimated prior table.

    For each d-subset X_i, look at the concept h_i positive exactly on X_i:
    mass above (1/2)^d / C(m,d) reveals the sign through the parity of d.
    The comparison is strict, so a mass exactly at the threshold falls to
    the else-branch; it is done in Fractions when the table is exact.
    """
    space = prior_estimate.space
    if space.m != params.m or space.d != params.d:
        raise ValueError("params built for a different concept space")
    m, d = params.m, params.d
    threshold = Fraction(1, 2**d * comb(m, d))
    parity_d = d % 2
    above_sign = 2 * parity_d - 1
    below_sign = 1 - 2 * parity_d
    b_hat = []
    for x_mask in d_subsets(m, d):
        if prior_estimate.is_exact:
            mass = prior_estimate.exact_mass_of(x_mask)
            above = mass > threshold
        else:
            above = prior_estimate.mass_of(x_mask) > float(threshold)
        b_hat.append(above_sign if above else below_sign)
    gamma = params.gamma_m
    p_hat = tuple((1.0 + gamma * b) / 2.0 for b in b_hat)
    return ReductionEstimate(tuple(b_hat), p_hat, float(threshold))


def majority_rule(bits, gamma: float) -> float:
    """Decide between coin biases (1 +- gamma)/2 from Bernoulli outcomes.

    Returns (1+gamma)/2 iff the empirical mean is >= 1/2 (ties and the
    empty case go to the high side)."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    bits = list(bits)
    if not bits or sum(bits) >= len(bits) / 2:
        return (1 + gamma) / 2
    return (1 - gamma) / 2


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def exact_bayes_error(gamma, n: int) -> Fraction:
    """Exact Bayes error of the uniform two-point coin problem:
    (1/2) sum_x min(pmf_high(x), pmf_low(x)) over x = 0..n.

    This is the risk of the optimal rule; the majority rule attains it
    because its acceptance region is exactly where its pmf dominates.
    The sum runs over integer numerators with the common denominator
    (2q)^n (p_hi = a/2q, p_lo = b/2q), which keeps it exact and fast.
    As a > b, the high-bias term is the smaller one exactly when 2x <= n,
    and the low-bias term at x is the high-bias term at n - x; so the sum
    is twice the high-bias terms with 2x < n, plus the middle term when n
    is even.
    """
    g = _as_fraction(gamma)
    if not 0 < g < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if n < 0:
        raise ValueError("n must be >= 0")
    a = g.denominator + g.numerator  # 2q * p_hi
    b = g.denominator - g.numerator  # 2q * p_lo
    total, power_a = 0, 1
    for x in range((n + 1) // 2):
        total += comb(n, x) * power_a * b ** (n - x)
        power_a *= a
    total *= 2
    if n % 2 == 0:
        total += comb(n, n // 2) * (a * b) ** (n // 2)
    return Fraction(total, 2 * (2 * g.denominator) ** n)


def coin_floor(gamma: float, n: int) -> float:
    """The decision-problem lower bound (1/32) exp(-128 gamma^2 n / 3)."""
    return math.exp(-128.0 * float(gamma) ** 2 * n / 3.0) / 32.0
