"""Empirical-Bayes preference elicitation: serve a stream of customers
whose satisfaction functions are drawn from an unknown member of a finite
prior family, spending as few value queries as possible.

The pieces: a bundle menu with prices, a finite set of satisfaction
tables, prior members sharing that support, a posterior-greedy query
strategy (the prior-aware method), an exhaustive prior-free fallback, a
minimum-distance estimator of the member from d uniformly sampled values
per customer, an empirically calibrated radius/confidence schedule, and
the sequential loop that stitches them together.

No query decision feeds back into the task draws or the estimator, so
estimation runs in bulk from pre-drawn streams: all customers of a stream
are drawn first, each task is reduced to the id of its consistent set
(one lookup in the outcome model's table over the function and the
partitions of its d bundles), and the selector counts set ids at the task
counts it needs and selects through `estimators._MinDistance`, the
min-distance core of `rates`; calibration selects all its runs' counts at
once.  A customer is plain data, its function index and
the bundles it has answered.  The prior-free branch queries every bundle
and its ledger row is closed-form.  The prior-aware customers of a
stream are served in lock-step: each round looks up one posterior per
distinct (surrogate, consistent set) and takes one vector step for all
customers still asking, and the ledger is kept as those column arrays.
Every draw is decoded from raw stream words, as `sampling` draws tasks:
customer t keeps its own streams `stream(seed, t, purpose)`, whose first
words are read for all customers at once by `sampling.stream_raw`, and a
calibration run reads its words by `sampling.keyed_words`.  A function is
drawn from a word by `sampling._categorical`'s decode, and a bundle from
half a word by `sampling.raw_integers`.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, factorial

import numpy as np

from .concepts import _by_rows, _distinct_rows
from .errors import WORK_BUDGET, Array, Work, check_plan
from .estimators import _GAP_BLOCK, _MinDistance, yatracos_sets
from .priors import tv_matrix
from .sampling import _categorical, _count_cuts, keyed_words, raw_integers, stream, stream_raw

_CUSTOMER_STREAM = 0
_POINTS_STREAM = 1
_Q_STREAM = 2
_CAL_STREAM = 3

STREAM_BUDGET = 10**4  # customer streams one run serves, each written to a ledger file of its own
CALIBRATION_SAFETY = 1.25  # inflation of the calibrated radius quantile
FAVORITE_WEIGHT = 0.25  # presence_family: each member's weight on its favourite function
TWIN_DELTA = 0.0125  # presence_family: twins' effective utility on their pinned group
PRESENCE_MEMBERS = 8  # presence_family: members of the built-in family

LEDGER_CSV_HEADER = ("t", "branch", "queries", "regret", "theta_check", "R_used")


@dataclass(frozen=True)
class Menu:
    """n items; every bundle (a mask over items) has a nonnegative price."""

    n: int
    prices: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= self.n <= 16:
            raise ValueError("need 1 <= n <= 16 items")
        if len(self.prices) != 1 << self.n:
            raise ValueError(f"price table must cover all {1 << self.n} bundles")
        if any(p < 0 for p in self.prices):
            raise ValueError("prices must be nonnegative")

    def to_table_text(self) -> str:
        return "".join(f"{b}\t{repr(float(p))}\n" for b, p in enumerate(self.prices))


@dataclass(frozen=True)
class SatisfactionFunction:
    """Surplus table s(x) = v(B_x) - p(B_x) over bundles x in {0,1}^n."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) & (len(self.values) - 1):
            raise ValueError("value table length must be a power of two")
        if any(not -2.0 <= v <= 2.0 for v in self.values):
            raise ValueError("satisfaction values must lie in [-2, 2]")

    @staticmethod
    def from_valuation(valuation, menu: Menu) -> "SatisfactionFunction":
        vals = tuple(float(v) for v in valuation)
        if any(not -1.0 <= v <= 1.0 for v in vals):
            raise ValueError("valuations must lie in [-1, 1]")
        return SatisfactionFunction(tuple(v - p for v, p in zip(vals, menu.prices)))

    @property
    def n_bundles(self) -> int:
        return len(self.values)


def pseudo_shattered(functions, points, witnesses) -> bool:
    patterns = set()
    for f in functions:
        patterns.add(tuple(f.values[x] > r for x, r in zip(points, witnesses)))
    return len(patterns) == 1 << len(points)


def pseudo_dimension_at_most(functions, d: int) -> bool:
    """Brute-force check that no (d+1)-point set is pseudo-shattered.

    Witness candidates per point are midpoints between consecutive distinct
    attained values.  Exponential; intended for tiny classes only."""
    n_bundles = functions[0].n_bundles
    k = d + 1
    if 1 << k > len(functions):
        return True  # shattering k points takes 2^k distinct restrictions
    checked = 0
    mids = []
    for x in range(n_bundles):
        vals = sorted({f.values[x] for f in functions})
        mids.append([(a + b) / 2 for a, b in zip(vals, vals[1:])] or [vals[0]])
    for points in itertools.combinations(range(n_bundles), k):
        for witnesses in itertools.product(*(mids[x] for x in points)):
            checked += 1
            if checked > WORK_BUDGET:
                check_plan([Work("pseudo-dimension candidates", checked, "d")])
            if pseudo_shattered(functions, points, witnesses):
                return False
    return True


def log2_pdim_bound(functions) -> int:
    """Pseudo-shattering k points needs 2^k distinct restrictions, so the
    pseudo-dimension is at most floor(log2 |F|)."""
    return int(np.floor(np.log2(len(functions))))


class ValuationPriorFamily:
    """Finite priors over a shared finite set of satisfaction functions.

    `members[j]` is a probability vector over `functions`; `d` is the
    recorded pseudo-dimension bound of the function class (also the number
    of sample points drawn per customer).
    """

    def __init__(self, functions: list[SatisfactionFunction], members, d: int):
        if len({f.values for f in functions}) != len(functions):
            raise ValueError("satisfaction functions must be distinct tables")
        self.functions = list(functions)
        self.S = np.array([f.values for f in functions])  # (F, bundles)
        self.members = [np.asarray(w, dtype=float) for w in members]
        for w in self.members:
            if w.shape != (len(functions),) or (w < 0).any() or abs(w.sum() - 1) > 1e-12:
                raise ValueError("each member must be a probability vector over the functions")
        if d < log2_pdim_bound(functions) and not pseudo_dimension_at_most(functions, d):
            raise ValueError(f"recorded pseudo-dimension bound d={d} is violated")
        self.d = d
        self.W = np.stack(self.members)  # (members, F)
        self._draws = [_categorical(tuple(w.tolist())) for w in self.members]
        self.tv_matrix = tv_matrix(self.W)

    @cached_property
    def agree(self) -> np.ndarray:
        """(bundles, functions) int64 bitmasks: bit g of agree[x, f] is set
        when function g has f's value at bundle x."""
        F = len(self.functions)
        if F > 63:
            raise ValueError(f"function bitmasks hold at most 63 functions, got {F}")
        bits = np.int64(1) << np.arange(F, dtype=np.int64)
        return (self.S.T[:, :, None] == self.S.T[:, None, :]) @ bits

    @cached_property
    def support(self) -> np.ndarray:
        """(members,) int64 bitmasks of the functions each member weighs."""
        return (self.W > 0) @ (np.int64(1) << np.arange(len(self.functions), dtype=np.int64))

    def consistent(self, xs, f_idx) -> np.ndarray:
        """Bitmask of the functions agreeing with function f at every point
        of xs: a scalar for one task's (d,) points, (T,) for a (T, d)
        batch with (T,) function indices."""
        return np.bitwise_and.reduce(self.agree[xs, np.asarray(f_idx)[..., None]], axis=-1)

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def n_bundles(self) -> int:
        return self.S.shape[1]

    def function_index(self, member: int, words: np.ndarray) -> np.ndarray:
        """The function indices that raw PCG64 words draw under `member`:
        those `Generator.random()` of each word would draw."""
        cuts, categories = self._draws[member]
        return categories[_count_cuts(cuts, words)]


def method_A_prime(values) -> int:
    """Prior-free strategy: query every bundle of a satisfaction table,
    return the exact argmax (ties to the lowest bundle index); its regret
    is 0."""
    return int(np.argmax(values))


class _PosteriorCache:
    """Per-member cache of posterior quantities keyed by the consistent-set
    bitmask: posterior means, expected max, and the one-step-greedy value of
    querying each bundle."""

    def __init__(self, family: ValuationPriorFamily):
        self.family = family
        self._cache: dict[tuple[int, int], tuple] = {}

    def get(self, member: int, cons_mask: int):
        key = (member, cons_mask)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        fam = self.family
        idx = [i for i in range(len(fam.functions)) if (cons_mask >> i) & 1]
        w = fam.members[member][idx]
        total = w.sum()
        if total <= 0:
            self._cache[key] = None
            return None
        w = w / total
        S = fam.S[idx]  # (c, bundles)
        means = w @ S
        exp_max = float(w @ S.max(axis=1))
        regret0 = exp_max - float(means.max())
        # one-step greedy: querying x splits the consistent set by s(x);
        # the value of the split is sum over groups of max_y (group mean mass)
        WS = w[:, None] * S
        # split[i]: the first function of the set with i's value at x, so
        # bundles with equal columns split the set alike; groups are summed
        # in order of their first function (g leads its group when
        # split[g] == g)
        first = (S[:, None, :] == S[None, :, :]).argmax(axis=1)  # (c, bundles)
        at, which = _distinct_rows(first.T)
        splits = first.T[at]
        vals = np.empty(len(splits))
        for k, split in enumerate(splits):
            val = 0.0
            for g in np.flatnonzero(split == np.arange(len(split))):
                val += WS[split == g].sum(axis=0).max()
            vals[k] = val
        phi = vals[which]
        out = (means, exp_max, regret0, phi)
        self._cache[key] = out
        return out


QueryOutcome = namedtuple("QueryOutcome", "bundle queries fallback")


def _method_A_batch(family, cache, epsilon, members, f_idx, answered, consistent=None):
    """Method A for a batch of customers in lock-step: customer c, with
    function index f_idx[c] and surrogate member members[c], has already
    answered the bundles in row c of the (C, k) int array `answered`
    (repeats allowed), whose consistent-set bitmasks a caller may pass as
    `consistent`.  Each round looks up one posterior per distinct
    (member, consistent set) and decides every customer still asking: the
    prior-free fallback, a stop, or one more query.  Returns the (bundle,
    number of distinct bundles answered in all, fallback) arrays."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n, n_bundles, M = len(members), family.n_bundles, family.n_members
    bundle = np.zeros(n, dtype=np.int64)
    asked = np.zeros(n, dtype=np.int64)
    fallback = np.zeros(n, dtype=bool)
    # per customer still asking: its answers, how many are distinct, and
    # the support functions consistent with them
    live = np.arange(n)
    n_known = answered.shape[1] - (np.diff(np.sort(answered, axis=1), axis=1) == 0).sum(axis=1)
    if consistent is None:
        consistent = family.consistent(answered, f_idx)
    cons = family.support[members] & consistent
    while live.size:
        masks, mask_id = np.unique(cons, return_inverse=True)
        keys, key_id = np.unique(mask_id.reshape(-1) * M + members[live], return_inverse=True)
        key_id = key_id.reshape(-1)
        states = [
            cache.get(k % M, int(masks[k // M])) if masks[k // M] else None for k in keys.tolist()
        ]
        dead = np.array([state is None for state in states])[key_id]
        if dead.any():
            # an answer outside the surrogate's support: the prior-free pick
            # asks every bundle not yet answered
            i = live[dead]
            bundle[i] = [method_A_prime(family.S[f]) for f in f_idx[i].tolist()]
            asked[i] = n_bundles
            fallback[i] = True
        # stop once the posterior pick is good enough; a customer who has
        # answered every bundle is pinned to one table and stops too
        small = np.array([state is not None and state[2] <= epsilon + 1e-12 for state in states])
        stop = small[key_id] | (~dead & (n_known == n_bundles))
        if stop.any():
            best = np.array([int(np.argmax(state[0])) if state else 0 for state in states])
            bundle[live[stop]] = best[key_id[stop]]
            asked[live[stop]] = n_known[stop]
        go = ~(dead | stop)
        live, key_id, answered, n_known, cons = (
            live[go], key_id[go], answered[go], n_known[go], cons[go]
        )
        if not live.size:
            break
        # the greedy query: the unanswered bundle of greatest phi, ties to
        # the lowest index, from a block of customers' gains at a time
        def greedy(rows):
            gain = np.stack([states[k][3] for k in key_id[rows].tolist()])
            gain[np.arange(len(rows))[:, None], answered[rows]] = -np.inf
            return gain.argmax(axis=1)

        x = _by_rows(greedy, np.arange(len(live)), n_bundles, _GAP_BLOCK)
        answered = np.column_stack([answered, x])
        n_known += 1
        cons &= family.agree[x, f_idx[live]]
    return bundle, asked, fallback


def method_A(
    member: int,
    family: ValuationPriorFamily,
    epsilon: float,
    f: int,
    known=(),
    cache: _PosteriorCache | None = None,
) -> QueryOutcome:
    """Prior-aware strategy for a customer with function index `f` who has
    already answered the bundles in `known`: track the posterior over the
    member's support given every answer; stop once the posterior-optimal
    bundle has posterior-expected regret <= epsilon, otherwise query the
    unanswered bundle with the greatest one-step expected-regret reduction
    (ties to the lowest bundle index).  `queries` counts the new queries
    only.

    If an answer is inconsistent with the whole support (possible only when
    the surrogate prior is wrong about the support), fall back to exhaustive
    querying so the returned bundle is still correct.
    """
    known = sorted(set(known))
    bundle, asked, fallback = _method_A_batch(
        family, cache or _PosteriorCache(family), epsilon,
        np.array([member]), np.array([f]), np.array([known], dtype=np.intp),
    )
    return QueryOutcome(int(bundle[0]), int(asked[0]) - len(known), bool(fallback[0]))


QEstimate = namedtuple("QEstimate", "mean se")


def estimate_Q(
    member: int,
    family: ValuationPriorFamily,
    epsilon: float,
    trials: int,
    seed: int,
    cache: _PosteriorCache | None = None,
) -> QEstimate:
    """Monte Carlo estimate of the expected query count of the prior-aware
    strategy when customers really are drawn from `member`."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # trial r draws once from stream(seed, _Q_STREAM, member, r)
    keys = np.column_stack([np.full(trials, _Q_STREAM), np.full(trials, member), np.arange(trials)])
    f_idx = family.function_index(member, stream_raw(seed, keys, 1)[:, 0])
    _, asked, _ = _method_A_batch(
        family, cache or _PosteriorCache(family), epsilon, np.full(trials, member), f_idx,
        np.zeros((trials, 0), dtype=np.intp),
    )
    counts = asked.astype(float)
    se = float(counts.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return QEstimate(float(counts.mean()), se)


def outcome_model_plan(F: int, P: int, d: int, M: int, key: str = "n_items") -> list:
    """What `FamilyOutcomeModel` holds for F functions, P bundle partitions,
    d points and M members, on at most min(2^F, F x meets) consistent sets."""
    combos, pairs = comb(P + d - 1, d), M * (M - 1)
    sets = min(2**F, F * combos)
    width = "uint8" if sets <= 1 << 8 else "uint16" if sets <= 1 << 16 else "uint32"
    return [
        Array("partition combinations, meet cells, set ids and leads", (combos, d + 3 * F), "int64", key),
        Array("meet cells as Python ints", (combos, F), "pyint", key),
        Array("consistent-set table", (F, P**d), width, key),
        Array("one function's meets", (2, P**d), "int64", key),
        Array("set indicators", (sets, pairs + M), "float64", key),
        Array("pair masses", (M, pairs), "float64", key),
    ]


class FamilyOutcomeModel:
    """Exact outcome-law machinery for the function family at k = d.

    A task outcome is (d bundles, d observed values) and tells the members
    apart only through its consistent set, the functions agreeing with the
    customer's at all d bundles.  A bundle's partition of the functions is
    its row of `family.agree` and the d points are i.i.d. uniform, so
    P_member(A_ij) is computed exactly by one enumeration of the multisets
    of d distinct partitions rather than all (2^n)^d tuples: their ANDs
    give every set a task can have (`set_masks`), whose member masses and
    pair indicators (`set_indicators`) G sums combination by combination.
    A table of F x P^d narrow set ids, over the function and the
    partitions of the d bundles, then gives each task's set by one gather.
    Its `plan` is met before anything past the partitions is built.
    """

    def __init__(self, family: ValuationPriorFamily):
        self.family = family
        d, F, M = family.d, len(family.functions), family.n_members
        # distinct single-bundle partitions, numbered by their first bundle
        first_bundle, part_of_bundle = _distinct_rows(family.agree)
        P = len(first_bundle)
        self.plan = check_plan(outcome_model_plan(F, P, d, M))
        weights = np.bincount(part_of_bundle, minlength=P) / family.n_bundles
        # cells[c, f]: the functions agreeing with f at one bundle of each
        # partition of combination c; the set ids are positions in
        # set_masks, every consistent set a task can have
        combos = np.array(list(itertools.combinations_with_replacement(range(P), d)))
        cells = family.consistent(first_bundle[combos][:, None], np.arange(F))
        # (a plain np.unique would import numpy.ma, about 1 MB of peak RSS)
        self.set_masks = np.array(sorted(set(cells.ravel().tolist())), dtype=np.int64)
        ok = (self.set_masks[:, None] >> np.arange(F)) & 1
        mm = np.stack([family.W @ row.astype(float) for row in ok])  # (sets, members)
        self.set_indicators = yatracos_sets(mm.T).T
        self.pairs = [(i, j) for i in range(M) for j in range(M) if i != j]  # as yatracos_sets orders them

        # G sums, combination by combination, the member masses of the
        # consistent sets in each pair's Yatracos set; a combination's sets
        # are taken in the order of their first function (f leads its set
        # when its lowest bit is f), as C-ordered (sets, members) and (sets,
        # pairs) gathers.  Keep this order and layout: either changed moves
        # G's last bits, and that flips min-distance ties.
        ids = np.searchsorted(self.set_masks, cells)
        leads = (cells & -cells) == np.int64(1) << np.arange(F, dtype=np.int64)
        indicators = self.set_indicators.astype(float)
        G = np.zeros((M, len(self.pairs)))
        for combo, row, lead in zip(combos.tolist(), ids, leads):
            # weight: (#ordered arrangements) * product of partition probs
            mult = factorial(d)
            for _, grp in itertools.groupby(combo):
                mult //= factorial(len(list(grp)))
            w = mult * np.prod([weights[p] for p in combo])
            sets = row[lead]
            G += w * np.einsum("cl,cp->lp", mm[sets], indicators[sets])
        self.G = G
        self._md = _MinDistance.from_sets(self.set_indicators.T, G)

        # _table[f, p_1, ..., p_d]: the set id of a task of function f whose
        # bundles fall in partitions p_1..p_d, built one function at a time
        self._part = part_of_bundle
        self._table = np.empty((F,) + (P,) * d, dtype=np.min_scalar_type(len(self.set_masks) - 1))
        cells_of = family.agree[first_bundle].T  # (functions, partitions)
        for f, cell in enumerate(cells_of):
            meets = np.asarray(-1)  # every function, before any bundle
            for _ in range(d):
                meets = meets[..., None] & cell
            self._table[f] = np.searchsorted(self.set_masks, meets)

    def consistent_sets(self, xs, f_idx) -> np.ndarray:
        """The consistent-set id of each task, in the narrowest unsigned
        dtype that holds every id: (T,) for (T, d) points and (T,)
        function indices, a scalar for one task.  Tasks of another width,
        bundles outside the menu and unknown functions raise ValueError
        (numpy would wrap a negative index)."""
        family = self.family
        xs, f_idx = np.asarray(xs), np.asarray(f_idx)
        if xs.ndim < 1 or xs.shape[-1] != family.d:
            raise ValueError(f"xs must hold tasks of d = {family.d} points, got shape {xs.shape}")
        if f_idx.shape != xs.shape[:-1]:
            raise ValueError(f"f_idx must hold one function index per task, not shape {f_idx.shape}")
        if xs.size and not (0 <= xs.min() and xs.max() < family.n_bundles):
            raise ValueError(f"xs must hold bundles in 0..{family.n_bundles - 1}")
        if f_idx.size and not (0 <= f_idx.min() and f_idx.max() < len(family.functions)):
            raise ValueError(f"f_idx must hold function indices in 0..{len(family.functions) - 1}")
        at = f_idx.astype(np.intp)
        for i in range(family.d):
            at = at * self._table.shape[1] + self._part[xs[..., i]]
        return self._table.ravel()[at]

    def observation_indicators(self, xs, f_idx) -> np.ndarray:
        """Membership of observed outcomes in each A_ij: (pairs,) bools for
        one task, (T, pairs) for a (T, d) batch."""
        return self.set_indicators[self.consistent_sets(xs, f_idx)]


class SequentialSelector:
    """Minimum-distance selection over the family after each prefix of a
    batch of tasks, given as (T, d) points and (T,) function indices.  The
    pair counts after the first t tasks are read back from the
    consistent-set ids, only at the task counts asked for."""

    def __init__(self, model: FamilyOutcomeModel, xs, f_idx):
        self.model = model
        self.sets = model.consistent_sets(xs, f_idx)

    def counts(self, grid) -> np.ndarray:
        """The (len(grid), sets) counts of the consistent sets of the first
        t tasks, for each t of a strictly increasing grid (exact integers
        in floats)."""
        # task i counts toward every t > i: bin it under the first such t
        # in the grid, then a running sum over the grid gives each t's
        # count of every consistent set
        n_sets = len(self.model.set_masks)
        seg = np.searchsorted(grid, np.arange(len(self.sets)), side="right")
        binned = np.bincount(seg * n_sets + self.sets, minlength=(len(grid) + 1) * n_sets)
        return np.cumsum(binned.reshape(-1, n_sets)[:-1], axis=0, dtype=float)

    def selected(self, ts) -> np.ndarray:
        """The member selected after the first t tasks, for each t in `ts`;
        member 0 before any task."""
        grid, back = np.unique(ts, return_inverse=True)
        picks = np.where(grid > 0, self.model._md.select_rows(self.counts(grid), np.maximum(grid, 1)), 0)
        return picks[back.reshape(-1)]


@dataclass
class ScheduleRDelta:
    """Tabulated radius/confidence schedule: at task count t the selected
    member is within R(t) of the truth except with probability delta(t)."""

    alpha: float
    knots: tuple[int, ...]  # strictly increasing, starting at 0
    R: tuple[float, ...]
    delta: tuple[float, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.knots or self.knots[0] != 0 or list(self.knots) != sorted(set(self.knots)):
            raise ValueError("knots must be nonempty, start at 0 and increase")
        if not len(self.R) == len(self.delta) == len(self.knots):
            raise ValueError("R and delta must hold one value per knot")
        if any(b > a + 1e-12 for a, b in zip(self.R, self.R[1:])):
            raise ValueError("R must be nonincreasing over the knots")
        if any(d > self.alpha + 1e-12 for d in self.delta):
            raise ValueError("delta must stay at or below alpha")


def calibrate_schedule(
    family: ValuationPriorFamily,
    model: FamilyOutcomeModel,
    alpha: float,
    T_grid: tuple[int, ...],
    replicates: int,
    seed: int,
) -> ScheduleRDelta:
    """Empirical schedule: R(T) is the nearest-rank (1-alpha) quantile of
    the selection error over truths and replicates, inflated by
    CALIBRATION_SAFETY and forced nonincreasing; delta(T) is the measured
    exceedance of the final R(T), which stays <= alpha by construction.
    T = 0 gets the trivial radius 1."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if not T_grid or list(T_grid) != sorted(set(T_grid)) or T_grid[0] < 1:
        raise ValueError("T_grid must be nonempty and strictly increasing with T >= 1")
    pooled = replicates * family.n_members
    if pooled < int(np.ceil(1.0 / alpha)):
        raise ValueError(
            f"{pooled} calibration runs cannot resolve a quantile at level {alpha}"
        )
    # run (truth, rep) draws T = T_grid[-1] tasks from stream(seed,
    # _CAL_STREAM, truth, rep), T functions and then T d bundles, and is
    # counted at each grid T; every run is selected at every grid T in
    # one call, and scored by tv(selected, truth)
    T, d, grid = T_grid[-1], family.d, np.asarray(T_grid)
    runs = [(truth, rep) for truth in range(family.n_members) for rep in range(replicates)]
    counts = np.empty((pooled, len(grid), len(model.set_masks)))
    run_words = keyed_words(seed, [(_CAL_STREAM, truth, rep) for truth, rep in runs], T + (T * d + 1) // 2)
    for row, ((truth, _), words) in enumerate(zip(runs, run_words)):
        f_idx = family.function_index(truth, words[:T])
        xs = raw_integers(words[None, T:], family.n_bundles, T * d).reshape(T, d)
        counts[row] = SequentialSelector(model, xs, f_idx).counts(grid)
    selected = model._md.select_rows(counts.reshape(pooled * len(grid), -1), np.tile(grid, pooled))
    truths = np.array([truth for truth, _ in runs])
    errors = family.tv_matrix[truths[:, None], selected.reshape(pooled, len(grid))]
    rank = int(np.ceil((1 - alpha) * pooled))  # nearest-rank quantile index
    raw = np.sort(errors, axis=0)[rank - 1]
    inflated = np.minimum(1.0, CALIBRATION_SAFETY * raw)
    # suffix max keeps the radius nonincreasing without shrinking any knot
    monotone = np.maximum.accumulate(inflated[::-1])[::-1]
    deltas = (errors > monotone[None, :]).mean(axis=0)
    return ScheduleRDelta(
        alpha,
        (0,) + tuple(T_grid),
        (1.0,) + tuple(float(r) for r in monotone),
        (0.0,) + tuple(float(x) for x in deltas),
        meta={
            "replicates": replicates,
            "safety": CALIBRATION_SAFETY,
            "quantile_rank": rank,
            "pooled_runs": pooled,
            "seed": seed,
        },
    )


# one served customer, or (as `RunResult.ledger`) one array per field over
# the customers; theta_check is the surrogate member, -1 on the prior-free
# branch
LedgerRow = namedtuple("LedgerRow", LEDGER_CSV_HEADER)


@dataclass
class RunResult:
    ledger: LedgerRow  # the ledger's columns, one array per CSV field
    mean_regret: float
    regret_se: float
    tail_query_avg: float
    exceedance_rate: float
    fallbacks: int  # prior-aware customers served by the prior-free fallback

    @cached_property
    def rows(self) -> list[LedgerRow]:
        """The ledger as one `LedgerRow` of Python values per customer."""
        # tuple.__new__ is what LedgerRow._make calls, with no Python frame per row
        columns = (column.tolist() for column in self.ledger)
        return list(map(tuple.__new__, itertools.repeat(LedgerRow), zip(*columns)))


def draw_customers(family: ValuationPriorFamily, truth: int, T: int, seed: int):
    """Function indices (T,) and sample points (T, d) of customers 1..T:
    customer t draws one function from stream(seed, t, _CUSTOMER_STREAM)
    and d uniform bundles from stream(seed, t, _POINTS_STREAM), all
    computed in one bulk pass per purpose."""
    t = np.arange(1, T + 1)
    raw_f = stream_raw(seed, np.column_stack([t, np.full(T, _CUSTOMER_STREAM)]), 1)
    raw_x = stream_raw(seed, np.column_stack([t, np.full(T, _POINTS_STREAM)]), (family.d + 1) // 2)
    f_idx = family.function_index(truth, raw_f[:, 0])
    return f_idx, raw_integers(raw_x, family.n_bundles, family.d)


def run_algorithm1(
    family: ValuationPriorFamily,
    model: FamilyOutcomeModel,
    schedule: ScheduleRDelta,
    truth: int,
    epsilon: float,
    T: int,
    seed: int,
    q_table: list[float],
    tail_len: int | None = None,
    cache: _PosteriorCache | None = None,
) -> RunResult:
    """The sequential loop: per customer draw d uniform sample points (these
    are value queries that feed the growing estimation batch), then either
    run the prior-free method while the radius is still coarse
    (R(t-1, eps/2) > eps/8) or pick the cheapest surrogate member in the
    ball around the current estimate and run the prior-aware method at
    eps/4 accuracy.  A prior-free row is closed-form: every bundle is
    asked once and the exact argmax has regret 0.  All prior-aware
    customers are served at once by the lock-step method A.  A shared
    `cache` may serve several runs on one family.  `tail_query_avg` is
    the mean query count of the last `tail_len` customers (1..T; default
    T // 4, at least 1)."""
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    if T < 1:
        raise ValueError("T must be >= 1")
    if len(q_table) != family.n_members:
        raise ValueError("q_table must hold one query estimate per member")
    tail = tail_len if tail_len is not None else max(1, T // 4)
    if not 1 <= tail <= T:
        raise ValueError(f"tail_len must lie in 1..T = 1..{T}, got {tail_len}")
    f_idx, xs = draw_customers(family, truth, T, seed)
    # customer t is served with the estimate and the radius after t - 1 tasks
    selector = SequentialSelector(model, xs, f_idx)
    theta_hats = selector.selected(np.arange(T))
    knots = np.searchsorted(schedule.knots, np.arange(T), side="right") - 1
    R_used = np.asarray(schedule.R)[knots]
    exceeded = family.tv_matrix[truth, theta_hats] > R_used
    # the cheapest surrogate in the ball of each knot's radius around each member
    order = sorted(range(family.n_members), key=lambda j: (q_table[j], j))
    in_ball = family.tv_matrix[:, None, order] <= np.asarray(schedule.R)[:, None] + 1e-12
    theta_checks = np.array(order)[in_ball.argmax(axis=2)]  # (members, knots)
    # every prior-aware customer of the stream at once; its d sample points
    # are its first answers
    aware = np.flatnonzero(R_used <= epsilon / 8.0)
    f, points = f_idx[aware], xs[aware]
    theta_check = np.full(T, -1)
    theta_check[aware] = theta_checks[theta_hats[aware], knots[aware]]
    bundle, asked, fallback = _method_A_batch(
        family, cache or _PosteriorCache(family), epsilon / 4.0, theta_check[aware], f, points,
        model.set_masks[selector.sets[aware]],
    )
    queries = np.full(T, family.n_bundles)
    queries[aware] = asked
    regret = np.zeros(T)
    regret[aware] = family.S.max(axis=1)[f] - family.S[f, bundle]
    ledger = LedgerRow(
        t=np.arange(1, T + 1), branch=np.where(theta_check >= 0, "A", "Aprime"), queries=queries,
        regret=regret, theta_check=theta_check, R_used=R_used,
    )
    return RunResult(
        ledger,
        float(regret.mean()),
        float(regret.std(ddof=1) / np.sqrt(T)) if T > 1 else 0.0,
        float(queries[-tail:].mean()),
        float(exceeded.mean()),
        int(fallback.sum()),
    )


def run_plan(family, model, T, replicates, calibration_T_grid, calibration_replicates, q_trials) -> list:
    """What an elicit run holds besides its model: a stream at a time, a block of greedy
    gains, every stream's regrets, `estimate_Q`'s trials and calibration's runs; the
    selections of T prefixes, or of every calibration run at every grid T, hold their set
    counts, empirical masses and member scores."""
    B, d, M, sets = family.n_bundles, family.d, family.n_members, len(model.set_masks)
    selection, T_cal = 2 * sets + len(model._md.PA[0]) + M, calibration_T_grid[-1]
    runs = (calibration_replicates * M, len(calibration_T_grid))  # one per (replicate, member) at each grid T
    return [
        Work("ledger files", replicates, "replicates", STREAM_BUDGET),
        Array("a stream's customers", (T, 16 + 2 * d), "int64", "T"),
        Array("a stream's prefix selections", (T, selection), "float64", "T"),
        Array("a block of greedy gains", (max(B, _GAP_BLOCK),), "float64", "n_items"),
        Array("every stream's regrets", (replicates, T), "float64", "replicates"),
        Array("estimate_Q's draws", (q_trials, 40), "float64", "q_trials"),
        Array("calibration selections", (*runs, selection), "float64", "calibration_replicates"),
        Array("a calibration run's words and draws", (T_cal, 4 + 2 * d), "int64", "calibration_T_grid"),
    ]


def check_presence_args(n_items: int, n_functions: int = 8) -> None:
    """Reject `presence_family` sizes it cannot build.  Pair p pins the
    weight of group p % n_groups; every other group weight takes one of 401
    rounded values, so each group has at most 401^(n_groups-1) distinct
    pairs, and a single group (n_items = 2) has one."""
    if n_items % 2 or not 2 <= n_items <= 16:
        raise ValueError(f"n_items must be even (groups of two) and in 2..16, got {n_items}")
    if n_functions % 2:
        raise ValueError("n_functions must be even (twin pairs)")
    n_groups = n_items // 2
    per_group = 401 ** (n_groups - 1)
    if -(-n_functions // 2 // n_groups) > per_group:
        raise ValueError(
            f"n_items={n_items} yields at most {2 * n_groups * per_group} distinct "
            f"functions, fewer than n_functions={n_functions}"
        )


def presence_family(
    seed: int = 0,
    n_items: int = 8,
    n_functions: int = 8,
    n_members: int = PRESENCE_MEMBERS,
):
    """The built-in acceptance family: 4 item groups of 2, group-presence
    valuations, presence-based prices, members sharing full support.

    Value tables depend on the bundle only through which groups it touches,
    so the outcome model's partition compression stays tiny; the recorded
    pseudo-dimension bound is log2(#functions).  Functions come in twin
    pairs whose effective utility on one group is +-TWIN_DELTA: the twins
    have different optimal bundles but a tiny value gap, so the prior-aware
    strategy may legitimately stop without resolving them, which keeps
    regret nonzero yet far inside any reasonable epsilon.
    """
    check_presence_args(n_items, n_functions)
    n_groups = n_items // 2
    rng = stream(seed, 77)
    n_bundles = 1 << n_items
    group_masks = [0b11 << (2 * g) for g in range(n_groups)]
    presence = np.zeros((n_bundles, n_groups))
    for x in range(n_bundles):
        for g, gm in enumerate(group_masks):
            presence[x, g] = 1.0 if x & gm else 0.0
    # prices: 0.1 per touched group, in [0, 0.1 * n_groups]
    prices = 0.1 * presence.sum(axis=1)
    menu = Menu(n_items, tuple(float(p) for p in prices))
    # base group weights keep valuations in [-1, 1]; each pair pins one
    # group's weight to price +- TWIN_DELTA so the twins straddle zero
    # effective utility there
    functions: list[SatisfactionFunction] = []
    seen = set()
    pair = 0
    while len(functions) < n_functions:
        w = np.round(rng.uniform(-0.2, 0.2, size=n_groups), 3)
        g = pair % n_groups
        for sign in (-1.0, 1.0):
            w_twin = w.copy()
            w_twin[g] = 0.1 + sign * TWIN_DELTA
            vals = presence @ w_twin
            key = tuple(np.round(vals, 9))
            if key in seen:
                break
            seen.add(key)
            functions.append(SatisfactionFunction.from_valuation(vals, menu))
        else:
            pair += 1
            continue
        functions = functions[: 2 * (len(functions) // 2)]  # drop a half pair
    members = []
    rest = (1.0 - FAVORITE_WEIGHT) / (n_functions - 1)
    for j in range(n_members):
        w = np.full(n_functions, rest)
        w[j % n_functions] = FAVORITE_WEIGHT
        members.append(w / w.sum())
    d = log2_pdim_bound(functions)
    return menu, ValuationPriorFamily(functions, members, d)
