"""Reference implementations for the min-distance tests.

`AllPairsMinDistance` scores every ordered pair, one Python-built
Yatracos set per pair (duplicates included).  Built from float masses,
or from given sets and pair masses, it is what the library's selection,
dense or pruned, must match bit for bit (`differences`, run under both
scorers by the `scorer` fixture); built from exact rows it scores in
`Fraction`s, so a selection and its guarantee can be checked in literal
arithmetic.

`ExactSkeleton` is that `Fraction` oracle for a skeleton estimator: its
members' `fraction_law`s read on the estimator's support, and the
selection guarantee

    tv(P_selected, Q) <= 3 min_l tv(P_l, Q) + 2 max_A |mu_T(A) - Q(A)|

checked on one run in `Fraction`s."""

from fractions import Fraction

import numpy as np
import pytest

from priorlab import estimators
from priorlab.errors import BYTE_BUDGET, BudgetError
from priorlab.estimators import yatracos_scores

from outcome_reference import exact_tv, fraction_law


class AllPairsMinDistance:
    """Min-distance selection scored over every ordered pair; in
    `Fraction`s when built from exact rows, otherwise in floats."""

    def __init__(self, mass_matrix: np.ndarray, exact_rows: list[list[Fraction]] | None = None):
        self.M = np.asarray(mass_matrix, dtype=float)
        n, s = self.M.shape
        if n * (n - 1) * (s + 8 * n) > BYTE_BUDGET:
            # A holds pairs x support bools and PA members x pairs floats
            raise BudgetError(
                f"{n * (n - 1)} Yatracos pairs x ({s} support bools + {n} member floats)"
                f" exceed the budget of {BYTE_BUDGET} bytes"
            )
        self.pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        self.A = np.zeros((len(self.pairs), s), dtype=bool)
        if exact_rows is not None:
            for p, (i, j) in enumerate(self.pairs):
                self.A[p] = [a > b for a, b in zip(exact_rows[i], exact_rows[j])]
            self.PA_exact = [
                [
                    sum((row[s] for s in np.flatnonzero(a)), start=Fraction(0))
                    for a in self.A
                ]
                for row in exact_rows
            ]
        else:
            # strict ">" with a tie guard: float tables of genuinely equal
            # masses can differ by rounding, which would flip set membership
            for p, (i, j) in enumerate(self.pairs):
                self.A[p] = self.M[i] > self.M[j] + 1e-12
            self.PA_exact = None
        self.PA = self.M @ self.A.T  # (members, pairs)

    @classmethod
    def from_sets(cls, sets: np.ndarray, PA: np.ndarray) -> "AllPairsMinDistance":
        """Float selection over given (pairs, support) bool sets and their
        (members, pairs) masses, every pair scored."""
        oracle = cls.__new__(cls)
        oracle.M, oracle.A, oracle.PA, oracle.PA_exact = None, np.asarray(sets, dtype=bool), PA, None
        oracle.pairs = list(range(len(sets)))
        return oracle

    def select_rows(self, counts: np.ndarray, total: int) -> np.ndarray:
        # a stack of count vectors, as the cells pass them
        return np.array([self.select(row, total)[0] for row in counts])

    def empirical(self, counts: np.ndarray, total) -> np.ndarray:
        """Each row's empirical masses of every pair's set, for a stack of
        count vectors (the sums are exact, as counts are integers)."""
        return (np.asarray(counts) @ self.A.T) / np.reshape(total, (-1, 1))

    def select_masses(self, mu: np.ndarray) -> np.ndarray:
        # each row of `empirical`, scored over every pair
        return np.array([int(np.argmin(yatracos_scores(self.PA, row))) for row in mu], dtype=np.int64)

    def select(self, counts: np.ndarray, total: int) -> tuple[int, list]:
        """The selected member of one count vector and every member's
        score; ties go to the lowest index."""
        if self.PA_exact is None:
            s = yatracos_scores(self.PA, (self.A @ counts) / total)
            return int(np.argmin(s)), s.tolist()
        mu = [Fraction(int(a @ counts), total) for a in self.A]
        scores = [
            max((abs(pa - m) for pa, m in zip(row, mu)), default=Fraction(0))
            for row in self.PA_exact
        ]
        return min(range(len(scores)), key=lambda i: (scores[i], i)), scores

    def truth_masses(self, truths: np.ndarray) -> np.ndarray:
        # deviation below takes each truth vector itself
        return truths

    def deviation(self, counts: np.ndarray, total: int, truth_on_support: np.ndarray) -> float:
        """max over Yatracos sets of |mu_T(A) - Q(A)| for a truth vector Q
        restricted to this support (mass elsewhere never enters any set)."""
        return self.pair_deviation(counts, total, self.A @ np.asarray(truth_on_support, dtype=float))

    def pair_deviation(self, counts: np.ndarray, total: int, pair_masses: np.ndarray) -> float:
        """max over pairs of |mu_T(A_ij) - Q(A_ij)|, given each pair's Q(A_ij)."""
        if not self.pairs:
            return 0.0
        mu = (self.A @ counts) / total
        return float(np.abs(mu - pair_masses).max())

    def deviation_rows(self, mu: np.ndarray, truth_on_support: np.ndarray) -> np.ndarray:
        """`pair_deviation` of each row of `empirical`."""
        pair_masses = self.A @ np.asarray(truth_on_support, dtype=float)
        return np.array([float(np.abs(row - pair_masses).max(initial=0.0)) for row in mu])

    def deviation_exact(self, counts: np.ndarray, total: int, truth_exact: list[Fraction]) -> Fraction:
        if not self.pairs:
            return Fraction(0)
        mu = [Fraction(int(a @ counts), total) for a in self.A]
        qa = [
            sum((truth_exact[s] for s in np.flatnonzero(a)), start=Fraction(0))
            for a in self.A
        ]
        return max(abs(m - q) for m, q in zip(mu, qa))


class ExactSkeleton:
    """The `Fraction` oracle of a skeleton estimator whose cover members
    carry exact masses: their exact outcome laws on its support, selected
    over every ordered pair."""

    def __init__(self, est):
        self.support = est.support.tolist()
        self.laws = [fraction_law(p, est.dist, est.d) for p in est.cover.members]
        self.md = AllPairsMinDistance(est._md.M, [self.on_support(law) for law in self.laws])

    def on_support(self, law) -> list[Fraction]:
        """A `fraction_law`'s masses on the estimator's support."""
        return [law.get(z, Fraction(0)) for z in self.support]

    def select(self, counts: np.ndarray, total: int) -> int:
        return self.md.select(counts, total)[0]

    def deviation(self, counts: np.ndarray, total: int, truth_law) -> Fraction:
        """max over Yatracos sets of |mu_T(A) - Q(A)| for an exact truth law Q."""
        return self.md.deviation_exact(counts, total, self.on_support(truth_law))

    def decomposition_check(self, counts: np.ndarray, total: int, truth_law):
        """The selection guarantee on one run, as (lhs, rhs, holds), with
        lhs and rhs `Fraction`s, so `holds` is a literal statement."""
        dists = [exact_tv(law, truth_law) for law in self.laws]
        lhs = dists[self.select(counts, total)]
        rhs = 3 * min(dists) + 2 * self.deviation(counts, total, truth_law)
        return lhs, rhs, lhs <= rhs


@pytest.fixture(params=["dense", "pruned"])
def scorer(request, monkeypatch):
    """Runs a test with every `_MinDistance` table scored densely, then
    with every table that has a column scored by pruning."""
    monkeypatch.setattr(estimators, "_PRUNE_FROM", 1 if request.param == "pruned" else float("inf"))
    return request.param


def differences(md, oracle, counts: np.ndarray, total, truths=()) -> list[str]:
    """Which of `md`'s scores, picks and deviations differ in any bit from
    the float all-pairs oracle's, on a (rows, support) stack of counts of
    `total` tasks each (one total, or one per row), for truth vectors
    restricted to the support."""
    totals = np.broadcast_to(total, (len(counts),))
    picks, scores = zip(*(oracle.select(c, t) for c, t in zip(counts, totals)))
    found = []
    mu = md.empirical(counts, total)
    if md._scores(mu).tobytes() != np.array(scores).tobytes():
        found.append("scores")
    if md.select_rows(counts, total).tolist() != list(picks):
        found.append("picks")
    for q, masses in zip(truths, md.truth_masses(np.stack(truths)) if len(truths) else []):
        want = [oracle.deviation(c, t, q) for c, t in zip(counts, totals)]
        if md.deviation_rows(mu, masses).tolist() != want:
            found.append("deviations")
            break
    return found
