"""Estimators: the minimum-distance (Yatracos) selection over a finite
cover, the direct-access baseline, the sign-reduction estimator, and the
exact two-coin decision problem.

The minimum-distance machinery is shared between outcome space (the
skeleton estimator proper, fed by k = d samples per task) and concept
space (the direct-access baseline): both select the member minimizing the
maximum discrepancy against the empirical measure over the pairwise sets
{z : P_i(z) > P_j(z)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .concepts import _DENSE_BLOCK, DataDistribution, _by_rows, _distinct_rows, d_subsets
from .errors import Array, check_plan
from .outcomes import label_masses, outcome_laws
from .outcomes import exact_outcome_dist  # noqa: F401  (perfbench/spans.py wraps it here)
from .priors import CoverFamily, SmoothPriorParams, TabularPrior


def yatracos_scores(PA: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Min-distance scores max_ij |PA[:, ij] - mu[ij]| of the members (PA:
    members x pairs), for one empirical vector mu or a stack of them;
    0 when there are no pairs."""
    return np.abs(PA - mu[..., None, :]).max(axis=-1, initial=0.0)


# Selection prunes sets in tables of this many members x columns or more,
# and scores smaller ones densely.  Measured on `rates-wide`: pruning takes
# the 64 x 728 parity skeleton's selection to a third of the dense time,
# and more than doubles that of its 64 x 272 direct table, where nearly
# every set survives; `rates` (8 x 26) and `elicit` (8 x 16) stay dense.
_PRUNE_FROM = 1 << 15
_PROBES = 8  # high-envelope sets per row whose gaps bound every member's score from below
# values a pruned block holds at once (rows of set masses, or survivor gaps), and a block of greedy gains
_GAP_BLOCK = 1 << 15


def yatracos_sets(M: np.ndarray) -> np.ndarray:
    """The Yatracos sets {z : M_i(z) > M_j(z)} of the rows of a (members,
    support) mass table, over ordered pairs i != j in row-major order, as
    a (pairs, support) bool array.  Masses compare with a 1e-12 guard:
    float tables of genuinely equal masses can differ by rounding, which
    would flip set membership."""
    M = np.asarray(M)
    off_diagonal = ~np.eye(len(M), dtype=bool)
    return (M[:, None, :] > M[None, :, :] + 1e-12)[off_diagonal]


def min_distance_plan(n: int, s: int, key: str) -> list:
    """What building min-distance selection over n members on s support
    points holds: the pairwise sets as bools, their float copy that the
    product reads, and the (members, pairs) product, the pair masses."""
    pairs = n * (n - 1)
    return [
        Array("Yatracos sets", (pairs, s), "bool", key),
        Array("Yatracos sets as floats", (pairs, s), "float64", key),
        Array("Yatracos pair masses", (n, pairs), "float64", key),
    ]


class _MinDistance:
    """Minimum-distance selection over N mass vectors on a finite support,
    scored in floats.

    Yatracos sets are the ordered-pair regions A_ij = {z : M_i(z) > M_j(z)};
    scores(mu) = max_A |M(A) - mu(A)| and selection is the argmin.  Ties
    among float-equal scores go to the lowest member index.  Scores that
    are tied exactly (in rational arithmetic) can round apart, and then
    the member whose score rounded lower wins, whatever its index.

    Built from a (members, support) mass table `M`, or by `from_sets`
    from sets and pair masses computed elsewhere (then there is no `M`).
    A region shared by several pairs adds nothing to a maximum, so the
    empirical masses mu(A) are counted and scored over the distinct sets
    only (728 of 4,032 pairs for the m=4, d=2 parity family).  The member
    masses M(A) are those of every pair, and a pair whose masses differ in
    any bit from those of the first pair with its set keeps a column of
    its own, so every score is the all-pairs score bit for bit.  The
    pairs are compared with their sets' first pairs a block of about
    _GAP_BLOCK masses at a time, so construction holds no more floats
    than the two tables `min_distance_plan` counts over every ordered
    pair: the float operand cast from the pairwise sets, and the
    all-pairs product.  That product stays whole: one over the distinct
    sets alone is narrower, and BLAS blocks it, and so rounds it,
    differently.

    A table of _PRUNE_FROM members x columns or more reads only the sets
    that can change a score.  Rounding is monotone, so for a fixed mu(A)
    the gap |fl(M_i(A) - mu(A))| over the members is largest at the
    column's greatest or least mass: that gap, the set's envelope, is
    the largest member gap exactly.  The members' gaps on a few
    high-envelope sets bound their scores from below, and a set whose
    envelope is at or below the least of those bounds cannot raise any
    member's maximum, so only the other sets are scored.  Every score is
    still the dense maximum, bit for bit.

    A smaller table is scored densely, along whichever of its set axis
    and the stack's row axis is longer: a stack of at least as many rows
    as sets (`elicit`'s 2,000 customers over 16 columns) is reduced over
    the set axis as the outer axis, its empirical masses laid out a
    column at a time, and a shorter stack (the 40 rows of `rates-wide`'s
    64 x 272 direct table) a row at a time.
    """

    def __init__(self, mass_matrix: np.ndarray):
        self.M = np.asarray(mass_matrix, dtype=float)
        check_plan(min_distance_plan(*self.M.shape, "mass_matrix"))
        sets = yatracos_sets(self.M)
        self._columns(sets, self.M @ sets.T)

    @classmethod
    def from_sets(cls, sets: np.ndarray, PA: np.ndarray) -> "_MinDistance":
        """Selection over given (pairs, support) bool sets and their (members, pairs) masses."""
        md = cls.__new__(cls)
        md._columns(sets, PA)
        return md

    def _columns(self, sets: np.ndarray, PA: np.ndarray) -> None:
        keep, self._pair_set = _distinct_rows(sets)
        # a pair whose masses round unlike those of its set's first pair
        # keeps a column of its own, after the distinct sets; the pairs are
        # compared a block of columns at a time, so that no second copy of
        # the product is held
        first = keep[self._pair_set]
        step = max(1, _GAP_BLOCK // max(len(PA), 1))
        odd = np.concatenate([
            i + np.flatnonzero((PA[:, i:i + step] != PA[:, first[i:i + step]]).any(axis=0))
            for i in range(0, max(PA.shape[1], 1), step)
        ])
        columns = np.concatenate([keep, odd])
        self.A = sets[columns].astype(float)
        self.PA = np.ascontiguousarray(PA[:, columns])
        self._n_sets = len(keep)
        self._hi, self._lo = self.PA.max(axis=0), self.PA.min(axis=0)

    def empirical(self, counts: np.ndarray, total) -> np.ndarray:
        """The empirical masses mu(A) of the columns for each row of a
        (rows, support) stack of count vectors, each of `total` tasks (one
        total, or one per row), as a (rows, columns) array; the sums are
        exact, as counts are integers, so either layout of the product
        gives the same bits.  A stack scored set-major gets its masses
        set-major in memory, each column one contiguous run of rows."""
        if self._set_major(len(counts)):
            mu = self.A @ counts.T
            mu /= np.reshape(total, (1, -1))  # in place: a tall stack makes one such array, not two
            return mu.T
        mu = counts @ self.A.T
        mu /= np.reshape(total, (-1, 1))
        return mu

    def _set_major(self, rows: int) -> bool:
        """Whether a stack of `rows` rows is scored densely with the set
        axis outermost: a dense table's inner loop runs along the longer
        of its set axis and the stack's row axis."""
        return self.PA.size < _PRUNE_FROM and rows >= self.PA.shape[1]

    def _scores(self, mu: np.ndarray) -> np.ndarray:
        """The scores of each row of a (rows, columns) stack of empirical
        masses, as a (rows, members) array."""
        if self._set_major(len(mu)):
            return _by_rows(self._set_major_scores, mu, len(self.PA))
        if self.PA.size < _PRUNE_FROM:
            return _by_rows(lambda mu: yatracos_scores(self.PA, mu), mu, self.PA.size)
        # a row holds its set masses and its members' probe gaps
        return _by_rows(self._pruned_scores, mu, max(mu.shape[1], len(self.PA) * _PROBES), _GAP_BLOCK)

    def _set_major_scores(self, mu: np.ndarray) -> np.ndarray:
        """max_A |fl(PA[i, A] - mu(A))| of every member i, for each row of
        a block of empirical masses, reduced over the set axis as the
        outer axis: a chunk of sets at a time, each set's gaps over the
        members and the rows one contiguous run, so that the inner loops
        run along the rows.  Every gap is rounded as the all-pairs score
        rounds it, and a maximum is exact in any order; no sets score 0."""
        n, columns = self.PA.shape
        scores = np.zeros((n, len(mu)))
        mu_t, pa_t = mu.T, self.PA.T[:, :, None]
        step = max(1, _DENSE_BLOCK // max(scores.size, 1))
        for c in range(0, columns, step):
            gaps = pa_t[c:c + step] - mu_t[c:c + step, None, :]
            np.abs(gaps, out=gaps)
            np.maximum(scores, gaps.max(axis=0) if len(gaps) > 1 else gaps[0], out=scores)
        return scores.T

    def _envelope(self, mu: np.ndarray) -> np.ndarray:
        """max_i |fl(PA[i, A] - mu(A))| of each set A, for each row of a
        stack of empirical masses: fl(hi - mu) >= fl(lo - mu), so the
        larger of fl(hi - mu) and fl(mu - lo) is the larger magnitude."""
        return np.maximum(self._hi - mu, mu - self._lo)

    @staticmethod
    def _skip_level(lower: np.ndarray) -> np.ndarray:
        """The envelope at or below which a set cannot raise any member's
        score: the least of the members' lower bounds, for each row of a
        (rows, members) stack of them."""
        return lower.min(axis=1)

    def _pruned_scores(self, mu: np.ndarray) -> np.ndarray:
        """The scores of each row of a (rows, columns) block of empirical
        masses, read off the sets whose envelope passes the skip level."""
        n, columns = len(self.PA), mu.shape[1]
        envelope = self._envelope(mu)
        k = min(_PROBES, columns)
        probes = np.argpartition(envelope, columns - k, axis=1)[:, columns - k:]
        gaps = self.PA[:, probes]  # (members, rows, probes)
        gaps -= np.take_along_axis(mu, probes, axis=1)
        scores = np.abs(gaps, out=gaps).max(axis=2).T
        at = np.flatnonzero(envelope > self._skip_level(scores)[:, None])
        step = max(1, _GAP_BLOCK // n)
        for i in range(0, len(at), step):
            # the survivors' gaps, a column of members each, in row order;
            # each row's maximum joins that row's scores
            cells = at[i:i + step]
            rows = cells // columns
            gaps = self.PA[:, cells % columns]
            gaps -= mu.ravel()[cells]
            np.abs(gaps, out=gaps)
            first = np.flatnonzero(np.diff(rows, prepend=-1))
            rows = rows[first]
            scores[rows] = np.maximum(scores[rows], np.maximum.reduceat(gaps, first, axis=1).T)
        return scores

    def select_masses(self, mu: np.ndarray) -> np.ndarray:
        """The selected member of each row of a stack of empirical masses."""
        return np.argmin(self._scores(mu), axis=1)

    def select_rows(self, counts: np.ndarray, total) -> np.ndarray:
        """The selected member of each row of a (rows, support) stack of
        counts, each of `total` tasks (one total, or one per row)."""
        return self.select_masses(self.empirical(counts, total))

    def _extremes(self, pair_masses: np.ndarray) -> np.ndarray:
        """The least and the greatest of the pairs' masses over each
        distinct set, as a (2, sets) array."""
        low = np.full(self._n_sets, np.inf)
        high = np.full(self._n_sets, -np.inf)
        np.minimum.at(low, self._pair_set, pair_masses)
        np.maximum.at(high, self._pair_set, pair_masses)
        return np.stack([low, high])

    def truth_masses(self, truths: np.ndarray) -> np.ndarray:
        """`_extremes` of Q(A_ij) over the ordered pairs, as a (truths, 2,
        sets) array, for each truth vector Q of a (truths, support) stack
        restricted to this support (mass elsewhere never enters any set).
        Each truth's pair masses are one all-pairs product: a product over
        the distinct sets alone can round differently."""
        pairs = self.A[self._pair_set]
        return np.stack([self._extremes(pairs @ q) for q in np.asarray(truths, dtype=float)])

    def deviation_rows(self, mu: np.ndarray, truth_masses: np.ndarray) -> np.ndarray:
        """max over Yatracos sets of |mu_T(A) - Q(A)|, given one truth's
        `truth_masses`, for each row of a stack of empirical masses.
        fl(mu - q) falls as q rises, so over the pairs of a set it is
        largest in magnitude at the least or the greatest Q(A_ij): the
        larger of fl(mu - least) and fl(greatest - mu) is each set's
        all-pairs maximum, bit for bit."""
        low, high = truth_masses

        def deviations(mu):
            mu = mu[:, :self._n_sets]
            return np.maximum(mu - low, high - mu).max(axis=-1, initial=0.0)

        return _by_rows(deviations, mu, self._n_sets)


class SkeletonEstimator:
    """Minimum-distance selection among a cover's outcome laws at k = d
    samples per task, on `support`: the outcome indices, ascending, whose
    label cell has mass under some member (also where D(x) = 0)."""

    def __init__(self, cover: CoverFamily, dist: DataDistribution, d: int):
        if cover.size < 1:
            raise ValueError("cover must be nonempty")
        self.cover, self.d, self.dist = cover, d, dist
        space = cover.members[0].space
        masses = np.stack([p.mass for p in cover.members])
        self.support = np.flatnonzero(label_masses(masses, space, d).any(axis=0))
        self._md = _MinDistance(outcome_laws(masses, space, dist, d)[:, self.support])

    def support_index(self, codes: np.ndarray) -> np.ndarray:
        """The support position of each outcome code (as `outcome_codes`
        writes them), or len(support) for a code outside the support."""
        at = np.searchsorted(self.support, codes)
        return np.where(self.support[at.clip(max=len(self.support) - 1)] == codes, at, len(self.support))

    def count_codes(self, codes: np.ndarray) -> tuple[np.ndarray, int]:
        """Support counts of T tasks given by their outcome codes; codes
        outside the support are not counted."""
        counts = np.bincount(self.support_index(codes), minlength=len(self.support) + 1)
        return counts[:-1], len(codes)

    def select_from_counts(self, counts: np.ndarray, total: int) -> int:
        """The selected member of one count vector of `total` tasks."""
        return int(self._md.select_rows(np.asarray(counts)[None], total)[0])

    def select_rows(self, counts: np.ndarray, total: int) -> np.ndarray:
        """The selected member of each row of a (rows, support) stack of
        counts, each of `total` tasks."""
        return self._md.select_rows(counts, total)


class DirectEstimator:
    """Direct-access baseline: minimum-distance selection straight on the
    empirical concept distribution (no sampling bottleneck)."""

    def __init__(self, cover: CoverFamily):
        if cover.size < 1:
            raise ValueError("cover must be nonempty")
        self.cover = cover
        self._md = _MinDistance(np.stack([p.mass for p in cover.members]))

    def select_rows(self, counts: np.ndarray, total: int) -> np.ndarray:
        """The selected member of each row of a (rows, concepts) stack of
        concept counts, each of `total` tasks."""
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


def _bayes_error_ratios(gamma, n_max: int):
    """(numerator, denominator) of the exact Bayes error of the uniform
    two-point coin problem, (1/2) sum_x min(pmf_high(x), pmf_low(x)) over
    x = 0..n, for n = 0..n_max in turn.

    This is the risk of the optimal rule; the majority rule attains it
    because its acceptance region is exactly where its pmf dominates.
    Over the common denominator (2q)^n, p_hi = a/2q and p_lo = b/2q with
    a > b, so the high-bias term is the smaller one exactly when 2x <= n,
    and the low-bias term at x is the high-bias term at n - x: the sum is
    twice the lower tail F(n, K) = sum_{x<=K} C(n,x) a^x b^(n-x) with
    K = (n-1)//2, plus the middle term C(n, n/2) (ab)^(n/2) when n is
    even.  The tail obeys F(n+1, K) = (a+b) F(n, K) - a e(n, K), where
    e(n, K) = C(n,K) a^K b^(n-K) is its last term, and K grows by one
    (one term added) every second n.  The middle term steps too, as
    C(n+2, j+1) (ab)^(j+1) = C(n, j) (ab)^j * ab * 2(2j+1) / (j+1) at
    n = 2j, and so does (a+b)^n; so all n_max + 1 errors cost O(n_max)
    big-integer steps, all exact.
    """
    g = _as_fraction(gamma)
    if not 0 < g < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if n_max < 0:
        raise ValueError("n must be >= 0")
    a = g.denominator + g.numerator  # 2q * p_hi
    b = g.denominator - g.numerator  # 2q * p_lo
    yield 1, 2  # n = 0: only the middle term, 1
    tail = edge = b  # n = 1, K = 0: F(1, 0) = e(1, 0) = b
    k, middle, power = 0, 1, 1  # middle: C(n, n/2) (ab)^(n/2) at the last even n
    for n in range(1, n_max + 1):
        power *= a + b
        if n % 2 == 0:
            middle = middle * a * b * 2 * (n - 1) // (n // 2)
        yield 2 * tail + (0 if n % 2 else middle), 2 * power
        # row n -> n + 1; each division is exact, as its quotient is
        # C(n+1, K) a^K b^(n+1-K) or C(n+1, K+1) a^(K+1) b^(n-K)
        tail = (a + b) * tail - a * edge
        if n % 2:
            edge = edge * b * (n + 1) // (n + 1 - k)
        else:
            edge = edge * a * (n + 1) // (k + 1)
            tail += edge
            k += 1


def exact_bayes_error(gamma, n: int) -> Fraction:
    """Exact Bayes error of the two-point coin problem with n flips: the
    last step of the same pass."""
    *_, last = _bayes_error_ratios(gamma, n)
    return Fraction(*last)


def coin_floor(gamma: float, n: int) -> float:
    """The decision-problem lower bound (1/32) exp(-128 gamma^2 n / 3)."""
    return math.exp(-128.0 * float(gamma) ** 2 * n / 3.0) / 32.0
