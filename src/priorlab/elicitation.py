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
are drawn first, and one batch yields their pair indicators and prefix
counts.  A customer is plain data, its function index and the set of
bundles it has answered.  The prior-free branch queries every bundle and
its ledger row is closed-form, so only the prior-aware branch runs
customer by customer.  Customer t keeps its own streams
`stream(seed, t, purpose)`; their first outputs are computed for all
customers at once by `sampling.stream_raw`.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from .concepts import categorical_draw
from .errors import BudgetError
from .estimators import yatracos_scores, yatracos_sets
from .priors import tv_matrix
from .sampling import raw_integers, raw_random, stream, stream_raw

_CUSTOMER_STREAM = 0
_POINTS_STREAM = 1
_Q_STREAM = 2
_CAL_STREAM = 3

PDIM_BUDGET = 200_000  # (point set, witness) candidates the pseudo-dimension check tries
MEET_BUDGET = 2_000_000  # partition meets the outcome model enumerates
CALIBRATION_SAFETY = 1.25  # inflation of the calibrated radius quantile
FAVORITE_WEIGHT = 0.25  # presence_family: each member's weight on its favourite function
TWIN_DELTA = 0.0125  # presence_family: twins' effective utility on their pinned group

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
            if checked > PDIM_BUDGET:
                raise BudgetError("pseudo-dimension check exceeds budget")
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
        self._thresholds = np.cumsum(self.W, axis=1)[:, :-1]
        self.tv_matrix = tv_matrix(self.W)

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def n_bundles(self) -> int:
        return self.S.shape[1]

    def function_index(self, member: int, u: np.ndarray) -> np.ndarray:
        """The function indices that uniforms `u` select under `member`."""
        return categorical_draw(self._thresholds[member], u)

    def sample_function(self, member: int, rng: np.random.Generator, size: int | None = None):
        """A function index drawn from `member`, or an array of `size` of
        them (the same doubles as `size` single draws)."""
        idx = self.function_index(member, rng.random(size))
        return idx if size is not None else int(idx)


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
        # function bitmasks: each member's support, and agree[x][v] for s(x) = v
        self.support = [sum(1 << i for i, w in enumerate(m) if w > 0) for m in family.members]
        self.agree = [{} for _ in range(family.n_bundles)]
        for i, f in enumerate(family.functions):
            for x, v in enumerate(f.values):
                self.agree[x][v] = self.agree[x].get(v, 0) | 1 << i

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
        n_bundles = S.shape[1]
        phi = np.empty(n_bundles)
        seen: dict[tuple, float] = {}
        for x in range(n_bundles):
            col = S[:, x]
            labels: dict[float, int] = {}
            sig = tuple(labels.setdefault(v, len(labels)) for v in col)
            if sig in seen:
                phi[x] = seen[sig]
                continue
            val = 0.0
            for g in range(len(labels)):
                rows = [i for i, s in enumerate(sig) if s == g]
                val += WS[rows].sum(axis=0).max()
            seen[sig] = val
            phi[x] = val
        out = (means, exp_max, regret0, phi)
        self._cache[key] = out
        return out


QueryOutcome = namedtuple("QueryOutcome", "bundle queries fallback")


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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cache = cache or _PosteriorCache(family)
    n_bundles = family.n_bundles
    values = family.functions[f].values
    known = set(known)
    cons = cache.support[member]  # the support functions consistent with every answer
    for x in known:
        cons &= cache.agree[x].get(values[x], 0)
    queries = 0
    while True:
        state = cache.get(member, cons) if cons else None
        if state is None:
            # the prior-free pick asks every bundle not yet answered
            return QueryOutcome(method_A_prime(values), queries + n_bundles - len(known), True)
        means, exp_max, regret0, phi = state
        if regret0 <= epsilon + 1e-12 or len(known) == n_bundles:
            return QueryOutcome(int(np.argmax(means)), queries, False)
        gain = phi.copy()
        gain[list(known)] = -np.inf
        x = int(np.argmax(gain))
        known.add(x)
        queries += 1
        cons &= cache.agree[x].get(values[x], 0)


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
    cache = cache or _PosteriorCache(family)
    # trial r draws once from stream(seed, _Q_STREAM, member, r)
    keys = np.column_stack([np.full(trials, _Q_STREAM), np.full(trials, member), np.arange(trials)])
    f_idx = family.function_index(member, raw_random(stream_raw(seed, keys, 1)[:, 0]))
    counts = np.empty(trials)
    for r, f in enumerate(f_idx.tolist()):
        counts[r] = method_A(member, family, epsilon, f, (), cache).queries
    se = float(counts.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return QEstimate(float(counts.mean()), se)


class FamilyOutcomeModel:
    """Exact outcome-law machinery for the function family at k = d.

    A task outcome is (d bundles, d observed values); its member
    probability factors through the partition of the function set by
    agreement on the bundles.  Since the d points are i.i.d. uniform,
    P_member(A_ij) is computed exactly by enumerating weighted meets of the
    distinct single-bundle partitions rather than all (2^n)^d tuples.
    """

    def __init__(self, family: ValuationPriorFamily):
        self.family = family
        d = family.d
        F = len(family.functions)
        n_bundles = family.n_bundles

        # distinct single-bundle partitions of the function set
        part_of_bundle = np.empty(n_bundles, dtype=np.int64)
        parts: dict[tuple[int, ...], int] = {}
        part_groups: list[list[list[int]]] = []
        for x in range(n_bundles):
            col = family.S[:, x]
            labels: dict[float, int] = {}
            sig = tuple(labels.setdefault(v, len(labels)) for v in col)
            pid = parts.get(sig)
            if pid is None:
                pid = len(parts)
                parts[sig] = pid
                groups: list[list[int]] = [[] for _ in range(len(labels))]
                for i, s in enumerate(sig):
                    groups[s].append(i)
                part_groups.append(groups)
            part_of_bundle[x] = pid
        weights = np.bincount(part_of_bundle, minlength=len(parts)) / n_bundles
        P = len(parts)
        if comb(P + d - 1, d) > MEET_BUDGET:
            raise BudgetError(
                f"{comb(P + d - 1, d)} partition meets exceed the budget of {MEET_BUDGET}"
            )

        M = family.n_members
        self.pairs = [(i, j) for i in range(M) for j in range(M) if i != j]  # as yatracos_sets orders them
        G = np.zeros((M, len(self.pairs)))
        for combo in itertools.combinations_with_replacement(range(P), d):
            # weight: (#ordered arrangements) * product of partition probs
            mult = factorial(d)
            for _, grp in itertools.groupby(combo):
                mult //= factorial(len(list(grp)))
            w = mult * np.prod([weights[p] for p in combo])
            cells = self._meet(part_groups, combo, F)
            cell_mat = np.zeros((len(cells), F))
            for c, cell in enumerate(cells):
                cell_mat[c, cell] = 1.0
            cm = family.W @ cell_mat.T  # (members, cells)
            G += w * np.einsum("lc,pc->lp", cm, yatracos_sets(cm).astype(float))
        self.G = G

    @staticmethod
    def _meet(part_groups, combo, F) -> list[list[int]]:
        label = [0] * F
        for pid in combo:
            groups = part_groups[pid]
            sub = [0] * F
            for g, members in enumerate(groups):
                for i in members:
                    sub[i] = g
            label = [a * len(groups) + b for a, b in zip(label, sub)]
        cells: dict[int, list[int]] = {}
        for i, lab in enumerate(label):
            cells.setdefault(lab, []).append(i)
        return [cells[k] for k in sorted(cells)]

    def consistent_mask(self, xs, values) -> np.ndarray:
        """Functions agreeing with every observed value: (F,) for one task's
        (d,) points and values, (T, F) for a (T, d) batch."""
        xs, values = np.asarray(xs, dtype=np.intp), np.asarray(values)
        return (self.family.S.T[xs] == values[..., None]).all(axis=-2)

    def observation_indicators(self, xs, values) -> np.ndarray:
        """Membership of observed outcomes in each A_ij: (pairs,) bools for
        one task, (T, pairs) for a (T, d) batch.  Each distinct consistent
        set is scored once."""
        mask = self.consistent_mask(xs, values)
        flat = mask.reshape(-1, mask.shape[-1])
        packed = np.packbits(flat, axis=1)  # equal sets give equal byte strings
        keys = packed.view(f"S{packed.shape[1]}").ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        mm = np.zeros((len(first), self.family.n_members))
        for r, ok in enumerate(flat[first]):
            mm[r] = self.family.W @ ok.astype(float)
        ind = yatracos_sets(mm.T).T  # (distinct sets, pairs)
        return ind[inverse].reshape(mask.shape[:-1] + (len(self.pairs),))


class SequentialSelector:
    """Minimum-distance selection over the family after each prefix of a
    (T, d) batch of tasks; integer prefix counts (row t: the first t tasks)
    let the selection after any task count be read back."""

    def __init__(self, model: FamilyOutcomeModel, xs, values):
        self.model = model
        ind = model.observation_indicators(xs, values)
        self.counts = np.zeros((len(ind) + 1, len(model.pairs)), dtype=np.int32)
        np.cumsum(ind, axis=0, out=self.counts[1:])

    def selected(self, ts) -> np.ndarray:
        """The member selected after the first t tasks, for each t in `ts`;
        member 0 before any task."""
        ts = np.asarray(ts)
        picks = np.zeros(len(ts), dtype=np.int64)
        # score a chunk of task counts at a time: (chunk, members, pairs) floats
        step = max(1, (1 << 14) // max(self.model.G.size, 1))
        for lo in range(0, len(ts), step):
            tt = ts[lo : lo + step]
            scores = yatracos_scores(self.model.G, self.counts[tt] / np.maximum(tt, 1)[:, None])
            picks[lo : lo + step] = np.where(tt > 0, scores.argmin(axis=1), 0)
        return picks


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
        if self.knots[0] != 0 or list(self.knots) != sorted(set(self.knots)):
            raise ValueError("knots must start at 0 and increase")
        if any(b > a + 1e-12 for a, b in zip(self.R, self.R[1:])):
            raise ValueError("R must be nonincreasing over the knots")
        if any(d > self.alpha + 1e-12 for d in self.delta):
            raise ValueError("delta must stay at or below alpha")

    def radius(self, t: int) -> float:
        i = int(np.searchsorted(self.knots, t, side="right")) - 1
        return self.R[i]


def _simulate_errors(
    family: ValuationPriorFamily,
    model: FamilyOutcomeModel,
    truth: int,
    T_grid: tuple[int, ...],
    rng: np.random.Generator,
) -> list[float]:
    """One stream from `truth`; returns tv(selected, truth) at each grid T."""
    T_max = T_grid[-1]
    f_idx = family.sample_function(truth, rng, size=T_max)
    xs = rng.integers(0, family.n_bundles, size=(T_max, family.d))
    sel = SequentialSelector(model, xs, family.S[f_idx[:, None], xs])
    return [float(e) for e in family.tv_matrix[truth, sel.selected(T_grid)]]


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
    if list(T_grid) != sorted(set(T_grid)) or T_grid[0] < 1:
        raise ValueError("T_grid must be strictly increasing with T >= 1")
    pooled = replicates * family.n_members
    if pooled < int(np.ceil(1.0 / alpha)):
        raise ValueError(
            f"{pooled} calibration runs cannot resolve a quantile at level {alpha}"
        )
    errors = np.empty((pooled, len(T_grid)))
    row = 0
    for truth in range(family.n_members):
        for rep in range(replicates):
            rng = stream(seed, _CAL_STREAM, truth, rep)
            errors[row] = _simulate_errors(family, model, truth, T_grid, rng)
            row += 1
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


# one served customer; theta_check is the surrogate member, -1 on the
# prior-free branch
LedgerRow = namedtuple("LedgerRow", LEDGER_CSV_HEADER)


@dataclass
class RunResult:
    rows: list[LedgerRow]
    mean_regret: float
    regret_se: float
    tail_query_avg: float
    exceedance_rate: float
    fallbacks: int  # prior-aware customers served by the prior-free fallback


def draw_customers(family: ValuationPriorFamily, truth: int, T: int, seed: int):
    """Function indices (T,) and sample points (T, d) of customers 1..T:
    customer t draws one function from stream(seed, t, _CUSTOMER_STREAM)
    and d uniform bundles from stream(seed, t, _POINTS_STREAM), all
    computed in one bulk pass per purpose."""
    t = np.arange(1, T + 1)
    raw_f = stream_raw(seed, np.column_stack([t, np.full(T, _CUSTOMER_STREAM)]), 1)
    raw_x = stream_raw(seed, np.column_stack([t, np.full(T, _POINTS_STREAM)]), (family.d + 1) // 2)
    f_idx = family.function_index(truth, raw_random(raw_f[:, 0]))
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
    asked once and the exact argmax has regret 0.  A shared `cache` may
    serve several runs on one family."""
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    if T < 1:
        raise ValueError("T must be >= 1")
    if len(q_table) != family.n_members:
        raise ValueError("q_table must hold one query estimate per member")
    n_bundles = family.n_bundles
    f_idx, xs = draw_customers(family, truth, T, seed)
    # customer t is served with the estimate and the radius after t - 1 tasks
    sel = SequentialSelector(model, xs, family.S[f_idx[:, None], xs])
    theta_hats = sel.selected(np.arange(T))
    knots = np.searchsorted(schedule.knots, np.arange(T), side="right") - 1
    exceeded = family.tv_matrix[truth, theta_hats] > np.asarray(schedule.R)[knots]
    # the cheapest surrogate in the ball of each knot's radius around each member
    order = sorted(range(family.n_members), key=lambda j: (q_table[j], j))
    in_ball = family.tv_matrix[:, None, order] <= np.asarray(schedule.R)[:, None] + 1e-12
    theta_checks = np.array(order)[in_ball.argmax(axis=2)].tolist()
    top = family.S.max(axis=1)
    cache = cache or _PosteriorCache(family)
    rows: list[LedgerRow] = []
    fallbacks = 0
    for t, f, points, theta_hat, knot in zip(
        range(1, T + 1), f_idx.tolist(), xs.tolist(), theta_hats.tolist(), knots.tolist()
    ):
        R_used = schedule.R[knot]
        if R_used > epsilon / 8.0:
            rows.append(LedgerRow(t, "Aprime", n_bundles, 0.0, -1, R_used))
            continue
        theta_check = theta_checks[theta_hat][knot]
        out = method_A(theta_check, family, epsilon / 4.0, f, points, cache)
        fallbacks += out.fallback
        regret = float(top[f] - family.S[f, out.bundle])
        rows.append(LedgerRow(t, "A", len(set(points)) + out.queries, regret, theta_check, R_used))

    regrets = np.array([r.regret for r in rows])
    tail = tail_len if tail_len is not None else max(1, T // 4)
    return RunResult(
        rows,
        float(regrets.mean()),
        float(regrets.std(ddof=1) / np.sqrt(len(regrets))) if len(regrets) > 1 else 0.0,
        float(np.mean([r.queries for r in rows[-tail:]])),
        float(exceeded.mean()),
        fallbacks,
    )


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
    n_members: int = 8,
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
