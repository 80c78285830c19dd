import functools
import itertools

import numpy as np
import pytest

from priorlab import elicitation
from priorlab.elicitation import (
    LEDGER_CSV_HEADER,
    FamilyOutcomeModel,
    LedgerRow,
    Menu,
    SatisfactionFunction,
    ScheduleRDelta,
    SequentialSelector,
    ValuationPriorFamily,
    _PosteriorCache,
    calibrate_schedule,
    draw_customers,
    estimate_Q,
    log2_pdim_bound,
    method_A,
    method_A_prime,
    presence_family,
    pseudo_dimension_at_most,
    pseudo_shattered,
    run_algorithm1,
)
from priorlab.errors import BudgetError
from priorlab.estimators import yatracos_sets
from priorlab.ratelab import format_cell
from priorlab.sampling import stream

from elicitation_reference import (
    ValueOracle,
    meet_outcome_model,
    oracle_method_A,
    oracle_method_A_prime,
)


def tiny_family():
    """4 bundles (n=2), 4 distinct tables, 3 members sharing support."""
    menu = Menu(2, (0.0, 0.1, 0.1, 0.2))
    tables = [
        (0.0, 0.5, -0.2, 0.1),
        (0.0, -0.3, 0.6, 0.1),
        (0.4, 0.1, 0.1, -0.5),
        (-0.1, 0.2, 0.2, 0.7),
    ]
    functions = [SatisfactionFunction(t) for t in tables]
    members = [
        (0.4, 0.3, 0.2, 0.1),
        (0.1, 0.2, 0.3, 0.4),
        (0.25, 0.25, 0.25, 0.25),
    ]
    return menu, ValuationPriorFamily(functions, members, d=2)


def test_menu_validation_and_roundtrip():
    with pytest.raises(ValueError):
        Menu(2, (0.0, -0.1, 0.0, 0.0))
    with pytest.raises(ValueError):
        Menu(2, (0.0, 0.1))
    menu = Menu(2, (0.0, 0.25, 0.5, 0.75))
    assert menu.to_table_text() == "0\t0.0\n1\t0.25\n2\t0.5\n3\t0.75\n"


def test_satisfaction_from_valuation():
    menu = Menu(1, (0.0, 0.5))
    f = SatisfactionFunction.from_valuation((1.0, 1.0), menu)
    assert f.values == (1.0, 0.5)
    with pytest.raises(ValueError):
        SatisfactionFunction.from_valuation((1.5, 0.0), menu)
    with pytest.raises(ValueError):
        SatisfactionFunction((0.0, 3.0))


def test_family_validation():
    menu, fam = tiny_family()
    with pytest.raises(ValueError):
        ValuationPriorFamily(fam.functions, [(0.5, 0.5, 0.5, -0.5)], d=2)
    with pytest.raises(ValueError):
        ValuationPriorFamily([fam.functions[0], fam.functions[0]], [(0.5, 0.5)], d=1)


def test_pseudo_dimension_tiny():
    _, fam = tiny_family()
    # log2 bound: 4 functions cannot shatter 3 points
    assert log2_pdim_bound(fam.functions) == 2
    assert pseudo_dimension_at_most(fam.functions, 2)
    # two points are genuinely pseudo-shattered by these four tables
    found = False
    for pts in itertools.combinations(range(4), 2):
        vals0 = sorted({f.values[pts[0]] for f in fam.functions})
        vals1 = sorted({f.values[pts[1]] for f in fam.functions})
        for r0 in [(a + b) / 2 for a, b in zip(vals0, vals0[1:])]:
            for r1 in [(a + b) / 2 for a, b in zip(vals1, vals1[1:])]:
                found = found or pseudo_shattered(fam.functions, pts, (r0, r1))
    assert found


def test_method_A_prime_exhaustive():
    _, fam = tiny_family()
    for f in fam.functions:
        x = method_A_prime(f.values)
        assert f.values[x] == max(f.values)  # regret 0
    assert method_A_prime((0.1, 0.3, 0.3, 0.0)) == 1  # ties to the lowest bundle


def test_method_A_point_mass_zero_queries():
    menu, fam = tiny_family()
    members = [np.array([1.0, 0.0, 0.0, 0.0])]
    fam_pm = ValuationPriorFamily(fam.functions, members, d=2)
    out = method_A(0, fam_pm, 0.05, 0)
    assert out.queries == 0
    assert out.bundle == int(np.argmax(fam.functions[0].values))


def test_method_A_identical_argmax_zero_queries():
    menu = Menu(2, (0.0, 0.0, 0.0, 0.0))
    # same argmax bundle and same top value: residual uncertainty is free
    fns = [
        SatisfactionFunction((0.9, 0.1, 0.0, 0.2)),
        SatisfactionFunction((0.9, 0.2, 0.1, 0.0)),
    ]
    fam = ValuationPriorFamily(fns, [(0.5, 0.5)], d=1)
    out = method_A(0, fam, 0.01, 1)
    assert out.queries == 0 and out.bundle == 0


def test_method_A_two_functions_one_query():
    # distinguished by bundle 2's value; far-apart optima force a query
    fns = [
        SatisfactionFunction((0.0, 1.0, 0.5, -1.0)),
        SatisfactionFunction((0.0, -1.0, -0.5, 1.0)),
    ]
    fam = ValuationPriorFamily(fns, [(0.5, 0.5)], d=1)
    for truth in (0, 1):
        out = method_A(0, fam, 0.05, truth)
        assert out.queries <= 1
        assert fns[truth].values[out.bundle] == max(fns[truth].values)


def test_method_A_regret_contract():
    # E[regret] <= epsilon when the customer really comes from the prior
    _, fam = tiny_family()
    cache = _PosteriorCache(fam)
    epsilon = 0.15
    member = 0
    regrets = []
    for r in range(600):
        rng = stream(4, r)
        f_idx = sample_one(fam, member, rng)
        out = method_A(member, fam, epsilon, f_idx, (), cache)
        f = fam.functions[f_idx]
        regrets.append(max(f.values) - f.values[out.bundle])
    regrets = np.array(regrets)
    se = regrets.std(ddof=1) / np.sqrt(len(regrets))
    assert regrets.mean() <= epsilon + 2.6 * se


def test_method_A_uses_preseeded_answers():
    fns = [
        SatisfactionFunction((0.0, 1.0, 0.5, -1.0)),
        SatisfactionFunction((0.0, -1.0, -0.5, 1.0)),
    ]
    fam = ValuationPriorFamily(fns, [(0.5, 0.5)], d=1)
    out = method_A(0, fam, 0.05, 0, {2})  # bundle 2 already distinguishes the two tables
    assert out.queries == 0


def test_estimate_Q_examples():
    _, fam = tiny_family()
    fam_pm = ValuationPriorFamily(fam.functions, [np.array([0, 0, 1.0, 0])], d=2)
    q = estimate_Q(0, fam_pm, 0.1, trials=50, seed=1)
    assert q.mean == 0.0

    fns = [
        SatisfactionFunction((0.0, 1.0, 0.5, -1.0)),
        SatisfactionFunction((0.0, -1.0, -0.5, 1.0)),
    ]
    two = ValuationPriorFamily(fns, [(0.5, 0.5)], d=1)
    q = estimate_Q(0, two, 0.05, trials=100, seed=2)
    assert q.mean <= 1.0


def test_estimate_Q_nonincreasing_in_epsilon():
    _, fam = tiny_family()
    for member in range(fam.n_members):
        q_tight = estimate_Q(member, fam, 0.02, trials=150, seed=3)
        q_loose = estimate_Q(member, fam, 0.3, trials=150, seed=3)
        assert q_loose.mean <= q_tight.mean + 1e-12


def brute_force_G(fam: ValuationPriorFamily) -> np.ndarray:
    """Independent enumeration of P_member(A_ij) over all bundle tuples."""
    d, nb, F = fam.d, fam.n_bundles, len(fam.functions)
    pairs = [(i, j) for i in range(fam.n_members) for j in range(fam.n_members) if i != j]
    G = np.zeros((fam.n_members, len(pairs)))
    w_x = (1.0 / nb) ** d
    for xs in itertools.product(range(nb), repeat=d):
        cells = {}
        for fi in range(F):
            cells.setdefault(tuple(fam.S[fi, x] for x in xs), []).append(fi)
        for cell in cells.values():
            cm = fam.W[:, cell].sum(axis=1)
            for p, (i, j) in enumerate(pairs):
                if cm[i] > cm[j] + 1e-12:
                    G[:, p] += w_x * cm
    return G


def test_outcome_model_matches_brute_force():
    _, fam = tiny_family()
    model = FamilyOutcomeModel(fam)
    assert np.allclose(model.G, brute_force_G(fam), atol=1e-12)


def oracle_family(name):
    """The families the outcome model is checked on bit for bit: the test
    families and presence_family at seeds 0-9 and 4, 6 or 8 items."""
    if name.startswith("presence-"):
        seed, n_items = map(int, name.split("-")[1:])
        return presence_family(seed=seed, n_items=n_items)[1]
    if name == "two":
        _, fam = tiny_family()
        return ValuationPriorFamily(fam.functions, fam.members[:2], d=2)
    return family_and_model(name)[0]


ORACLE_FAMILIES = ["tiny", "sparse", "singleton", "two"] + [
    f"presence-{seed}-{n_items}" for seed in range(10) for n_items in (4, 6, 8)
]


@pytest.mark.parametrize("name", ORACLE_FAMILIES)
def test_outcome_model_matches_meet_oracle_bit_for_bit(name):
    fam = oracle_family(name)
    model = FamilyOutcomeModel(fam)
    G, set_masks, set_indicators = meet_outcome_model(fam)
    assert np.array_equal(model.G, G)
    assert np.array_equal(model.set_masks, set_masks)
    assert np.array_equal(model.set_indicators, set_indicators)
    M = fam.n_members
    assert model.pairs == [(i, j) for i in range(M) for j in range(M) if i != j]


def test_outcome_model_checks_the_meet_budget_before_enumerating(monkeypatch):
    _, fam = presence_family(seed=0)
    n_parts = len({row.tobytes() for row in fam.agree})
    n_combos = len(list(itertools.combinations_with_replacement(range(n_parts), fam.d)))
    monkeypatch.setattr(elicitation, "MEET_BUDGET", n_combos)
    FamilyOutcomeModel(fam)  # exactly at the budget
    monkeypatch.setattr(elicitation, "MEET_BUDGET", n_combos - 1)

    def no_enumeration(*args):
        raise AssertionError("partition combinations built past the budget")

    monkeypatch.setattr(ValuationPriorFamily, "consistent", no_enumeration)
    with pytest.raises(BudgetError, match="partition meets"):
        FamilyOutcomeModel(fam)


def test_sequential_selector_identifies_truth():
    _, fam = tiny_family()
    model = FamilyOutcomeModel(fam)
    truth = 1
    sel = SequentialSelector(model, *draw_tasks(fam, truth, 4000, stream(9, 0)))
    assert sel.selected([4000]).tolist() == [truth]


def radius(schedule, t):
    """R at task count t: the radius of the last knot at or below t."""
    return schedule.R[int(np.searchsorted(schedule.knots, t, side="right")) - 1]


def test_schedule_validation_and_lookup():
    sched = ScheduleRDelta(0.1, (0, 10, 50), (1.0, 0.4, 0.2), (0.0, 0.05, 0.1))
    assert radius(sched, 0) == 1.0
    assert radius(sched, 9) == 1.0
    assert radius(sched, 10) == 0.4
    assert radius(sched, 49) == 0.4
    assert radius(sched, 1000) == 0.2
    with pytest.raises(ValueError):
        ScheduleRDelta(0.1, (0, 10), (0.3, 0.5), (0.0, 0.0))  # increasing R
    with pytest.raises(ValueError):
        ScheduleRDelta(0.1, (0, 10), (1.0, 0.5), (0.0, 0.2))  # delta > alpha
    with pytest.raises(ValueError):
        ScheduleRDelta(0.1, (5, 10), (1.0, 0.5), (0.0, 0.0))  # missing t=0
    with pytest.raises(ValueError, match="knots"):
        ScheduleRDelta(0.1, (), (), ())  # no knot at all
    with pytest.raises(ValueError, match="one value per knot"):
        ScheduleRDelta(0.1, (0, 10), (1.0,), (0.0, 0.0))
    with pytest.raises(ValueError, match="one value per knot"):
        ScheduleRDelta(0.1, (0, 10), (1.0, 0.5), (0.0,))


def test_calibrate_schedule_singleton_family():
    _, fam = tiny_family()
    solo = ValuationPriorFamily(fam.functions, [fam.members[0]], d=2)
    model = FamilyOutcomeModel(solo)
    sched = calibrate_schedule(solo, model, alpha=0.1, T_grid=(5, 20), replicates=12, seed=0)
    assert sched.R[1:] == (0.0, 0.0)
    assert sched.delta == (0.0, 0.0, 0.0)


def test_calibrate_schedule_two_members():
    menu, fam = tiny_family()
    two = ValuationPriorFamily(fam.functions, fam.members[:2], d=2)
    model = FamilyOutcomeModel(two)
    sched = calibrate_schedule(two, model, alpha=0.2, T_grid=(5, 40, 160), replicates=25, seed=1)
    assert all(d <= 0.2 for d in sched.delta)
    assert list(sched.R) == sorted(sched.R, reverse=True)
    assert sched.R[-1] <= sched.R[1]
    with pytest.raises(ValueError):
        calibrate_schedule(two, model, alpha=0.0001, T_grid=(5,), replicates=2, seed=1)
    with pytest.raises(ValueError, match="T_grid"):
        calibrate_schedule(two, model, alpha=0.2, T_grid=(), replicates=25, seed=1)


def test_run_algorithm1_singleton_family():
    _, fam = tiny_family()
    solo = ValuationPriorFamily(fam.functions, [fam.members[0]], d=2)
    model = FamilyOutcomeModel(solo)
    sched = calibrate_schedule(solo, model, alpha=0.1, T_grid=(5,), replicates=12, seed=0)
    eps = 0.2
    res = run_algorithm1(solo, model, sched, 0, eps, T=60, seed=5, q_table=[0.0])
    # radius 0 from the first knot: the prior-aware branch from t > 5
    branches = {r.t: r.branch for r in res.rows}
    assert branches[60] == "A"
    assert res.fallbacks == 0
    se = res.regret_se
    assert res.mean_regret <= eps + 2.6 * se
    assert all(r.queries == fam.n_bundles for r in res.rows if r.branch == "Aprime")


def test_run_algorithm1_two_member_stream():
    _, fam = tiny_family()
    two = ValuationPriorFamily(fam.functions, fam.members[:2], d=2)
    model = FamilyOutcomeModel(two)
    sched = calibrate_schedule(two, model, alpha=0.1, T_grid=(10, 80, 320), replicates=30, seed=3)
    eps = 0.2
    q = [estimate_Q(j, two, eps / 4, trials=100, seed=11).mean for j in range(2)]
    res = run_algorithm1(two, model, sched, 1, eps, T=400, seed=6, q_table=q)
    assert res.mean_regret + 1.645 * res.regret_se <= eps
    assert res.exceedance_rate <= eps / 2
    assert res.fallbacks == 0
    # ledger rows are the documented CSV schema
    row = res.rows[0]
    assert row._fields == LEDGER_CSV_HEADER
    assert row[0] == 1 and row[1] in ("A", "Aprime")
    # the prior-free branch queries every bundle
    for r in res.rows:
        if r.branch == "Aprime":
            assert r.queries == fam.n_bundles


def test_run_algorithm1_determinism():
    _, fam = tiny_family()
    model = FamilyOutcomeModel(fam)
    sched = ScheduleRDelta(0.1, (0, 20), (1.0, 0.0), (0.0, 0.0))
    a = run_algorithm1(fam, model, sched, 0, 0.2, T=50, seed=8, q_table=[1.0, 1.0, 1.0])
    b = run_algorithm1(fam, model, sched, 0, 0.2, T=50, seed=8, q_table=[1.0, 1.0, 1.0])
    assert a.rows == b.rows


def test_presence_family_construction():
    menu, fam = presence_family(seed=0)
    assert fam.n_bundles == 256
    assert fam.d == 3
    assert fam.n_members == 8
    assert len(fam.functions) == 8
    # shared support: every member gives every function positive mass
    assert all((w > 0).all() for w in fam.members)
    # value tables really are presence-based: few distinct partitions
    model = FamilyOutcomeModel(fam)
    assert model.G.shape == (8, 56)
    # separated members: nonzero pairwise prior TV
    off = fam.tv_matrix[~np.eye(8, dtype=bool)]
    assert off.min() > 0.1


# ------------------------------------------------------------------ oracles
# The per-task elicitation loop as it ran before estimation was batched.  The
# bulk code must reproduce it bit for bit.


def oracle_indicators(model, xs, values):
    fam = model.family
    ok = np.ones(len(fam.functions), dtype=bool)
    for x, v in zip(xs, values):
        ok &= fam.S[:, x] == v
    mm = fam.W @ ok.astype(float)
    return mm[[p[0] for p in model.pairs]] > mm[[p[1] for p in model.pairs]] + 1e-12


class OracleSelector:
    def __init__(self, model):
        self.model = model
        self.counts = np.zeros(len(model.pairs))
        self.t = 0

    def update(self, xs, values):
        self.counts += oracle_indicators(self.model, xs, values)
        self.t += 1

    def selected(self):
        if self.t == 0 or not self.model.pairs:
            return 0
        mu = self.counts / self.t
        return int(np.argmin(np.abs(self.model.G - mu[None, :]).max(axis=1)))


def sample_one(fam, member, rng):
    """One function index drawn from `member`: one double from `rng`."""
    return int(fam.sample_function(member, rng, 1)[0])


def oracle_sample_function(fam, member, rng):
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(fam.members[member]), u, side="right"))
    return min(idx, len(fam.functions) - 1)


def oracle_simulate_errors(fam, model, truth, T_grid, rng):
    sel = OracleSelector(model)
    T_max = T_grid[-1]
    f_idx = np.array([oracle_sample_function(fam, truth, rng) for _ in range(T_max)])
    xs = rng.integers(0, fam.n_bundles, size=(T_max, fam.d))
    errs = []
    for t in range(1, T_max + 1):
        sel.update(xs[t - 1], fam.S[f_idx[t - 1], xs[t - 1]])
        if t in T_grid:
            errs.append(float(fam.tv_matrix[truth, sel.selected()]))
    return errs


def oracle_rows(fam, model, schedule, truth, epsilon, T, seed, q_table):
    """(ledger rows, exceedance rate, fallback count, exits), every customer
    asked through a ValueOracle; exits is the set of ways the prior-aware
    customers left the query loop: "stop" with no new query, "query" (a
    stop after at least one new query) and "fallback"."""
    cache = _PosteriorCache(fam)
    sel = OracleSelector(model)
    rows, exceeded, fallbacks, exits = [], [], 0, set()
    for t in range(1, T + 1):
        func = fam.functions[oracle_sample_function(fam, truth, stream(seed, t, 0))]
        oracle = ValueOracle(func)
        points = [int(x) for x in stream(seed, t, 1).integers(0, fam.n_bundles, size=fam.d)]
        values = [oracle.ask(x) for x in points]
        theta_hat = sel.selected()
        R_used = radius(schedule, t - 1)
        exceeded.append(float(fam.tv_matrix[truth, theta_hat]) > R_used)
        if R_used > epsilon / 8.0:
            x_hat, fallback = oracle_method_A_prime(oracle, fam.n_bundles), False
            branch, theta_check = "Aprime", -1
        else:
            ball = [
                j for j in range(fam.n_members) if fam.tv_matrix[theta_hat, j] <= R_used + 1e-12
            ]
            theta_check = min(ball, key=lambda j: (q_table[j], j))
            answered = oracle.count
            x_hat, fallback = oracle_method_A(theta_check, fam, epsilon / 4.0, oracle, cache)
            branch = "A"
            exits.add("fallback" if fallback else "query" if oracle.count > answered else "stop")
        regret = float(np.max(func.values) - func.values[x_hat])
        assert len(set(oracle.asked)) == len(oracle.asked)  # no bundle is asked twice
        rows.append(LedgerRow(t, branch, oracle.count, regret, theta_check, R_used))
        fallbacks += fallback
        sel.update(points, values)
    return rows, float(np.mean(exceeded)), fallbacks, exits


def sparse_family():
    """tiny_family's tables under members with partial supports, so a wrong
    surrogate can meet an answer outside its support (the fallback path)."""
    _, fam = tiny_family()
    members = [(0.5, 0.5, 0.0, 0.0), (0.0, 0.2, 0.3, 0.5), (0.25, 0.25, 0.25, 0.25)]
    return ValuationPriorFamily(fam.functions, members, d=2)


def test_method_A_counts_only_new_queries():
    # answered bundles are never counted again, and a fallback counts
    # exactly the bundles not yet answered
    fam = sparse_family()
    out = method_A(0, fam, 0.05, 3, {0})  # s(0) = -0.1 is outside member 0's support
    assert (out.bundle, out.queries, out.fallback) == (3, 3, True)
    out = method_A(0, fam, 0.05, 3, {0, 3})
    assert (out.bundle, out.queries, out.fallback) == (3, 2, True)
    cache = _PosteriorCache(fam)
    seen = set()
    for member, f, eps, r in itertools.product(range(fam.n_members), range(4), (0.01, 0.2), range(16)):
        known = {x for x in range(4) if r >> x & 1}
        oracle = ValueOracle(fam.functions[f])
        for x in sorted(known):
            oracle.ask(x)
        bundle, fallback = oracle_method_A(member, fam, eps, oracle, cache)
        out = method_A(member, fam, eps, f, known, cache)
        assert (out.bundle, out.queries, out.fallback) == (
            bundle, oracle.count - len(known), fallback
        )
        seen.add((out.fallback, out.queries > 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_method_A_breaks_greedy_ties_by_the_lowest_bundle():
    # bundles 1, 2 and 3 each single out one function: their phi are equal,
    # and asking bundle 1 first leaves two functions to tell apart
    fns = [SatisfactionFunction(tuple(0.9 * (x == b) for x in range(4))) for b in (1, 2, 3)]
    fam = ValuationPriorFamily(fns, [(1 / 3, 1 / 3, 1 / 3)], d=1)
    assert [tuple(method_A(0, fam, 0.01, f)) for f in range(3)] == [
        (1, 1, False), (2, 2, False), (3, 2, False)
    ]
    # the same rule for every customer of a lock-step batch
    q = estimate_Q(0, fam, 0.01, trials=60, seed=4)
    assert (q.mean, q.se) == oracle_estimate_Q(0, fam, 0.01, 60, 4)


def singleton_family():
    _, fam = tiny_family()
    return ValuationPriorFamily(fam.functions, [fam.members[0]], d=2)


@functools.lru_cache(maxsize=None)
def family_and_model(name):
    fam = {
        "tiny": lambda: tiny_family()[1],
        "presence": lambda: presence_family(seed=0)[1],
        "sparse": sparse_family,
        "singleton": singleton_family,
    }[name]()
    return fam, FamilyOutcomeModel(fam)


def draw_tasks(fam, truth, T, rng):
    """(points, function indices) of T tasks."""
    f_idx = fam.sample_function(truth, rng, size=T)
    return rng.integers(0, fam.n_bundles, size=(T, fam.d)), f_idx


@pytest.mark.parametrize("name", ["tiny", "presence", "singleton"])
def test_batched_indicators_match_per_task_oracle(name):
    fam, model = family_and_model(name)
    xs, f_idx = draw_tasks(fam, fam.n_members - 1, 400, stream(21, 0))
    values = fam.S[f_idx[:, None], xs]
    expected = np.array([oracle_indicators(model, x, v) for x, v in zip(xs, values)])
    batch = model.observation_indicators(xs, f_idx)
    assert batch.shape == (400, len(model.pairs)) and batch.dtype == bool
    assert np.array_equal(batch, expected)
    single = model.observation_indicators(list(xs[7]), int(f_idx[7]))
    assert single.shape == (len(model.pairs),)
    assert np.array_equal(single, expected[7])


def test_consistent_sets_reject_tasks_of_the_wrong_width_or_range():
    fam, model = family_and_model("presence")  # d = 3
    xs, f_idx = draw_tasks(fam, 0, 20, stream(23, 0))
    for width in (1, 2, 4, 5):
        with pytest.raises(ValueError, match="xs must hold tasks of d = 3"):
            model.consistent_sets(np.zeros((20, width), dtype=np.int64), f_idx)
    with pytest.raises(ValueError, match="xs must hold tasks"):
        SequentialSelector(model, xs[:, :2], f_idx)
    with pytest.raises(ValueError, match="xs must hold tasks"):
        model.consistent_sets(np.int64(0), f_idx[0])
    for bundle in (-1, fam.n_bundles):
        bad = xs.copy()
        bad[5, 1] = bundle
        with pytest.raises(ValueError, match="xs must hold bundles"):
            model.consistent_sets(bad, f_idx)
    with pytest.raises(ValueError, match="f_idx must hold one function index per task"):
        model.consistent_sets(xs, f_idx[:5])
    for f in (-1, len(fam.functions)):
        bad = f_idx.copy()
        bad[3] = f
        with pytest.raises(ValueError, match="f_idx"):
            model.consistent_sets(xs, bad)
    ids = model.consistent_sets(xs, f_idx)
    assert [model.consistent_sets(x, f) for x, f in zip(xs, f_idx)] == ids.tolist()


@pytest.mark.parametrize("name", ["tiny", "presence", "sparse"])
def test_yatracos_sets_match_the_pair_index_rules(name):
    # the outcome model compared the member masses of each meet cell, and
    # observation_indicators those of each distinct consistent set, by
    # gathering rows (columns) with the pair index lists
    fam, model = family_and_model(name)
    pair_i = [i for i, _ in model.pairs]
    pair_j = [j for _, j in model.pairs]
    xs, f_idx = draw_tasks(fam, 0, 300, stream(22, 0))
    values = fam.S[f_idx[:, None], xs]
    consistent = (fam.S.T[xs] == values[..., None]).all(axis=-2)  # (tasks, functions)
    mm = consistent.astype(float) @ fam.W.T  # (tasks, members)
    assert np.array_equal(yatracos_sets(mm.T).T, mm[:, pair_i] > mm[:, pair_j] + 1e-12)
    cm = fam.W @ np.eye(len(fam.functions))  # one cell per function
    assert np.array_equal(yatracos_sets(cm), cm[pair_i] > cm[pair_j] + 1e-12)


@pytest.mark.parametrize("family_seed", range(5))
def test_tv_matrix_matches_pairwise_loop(family_seed):
    _, fam = presence_family(seed=family_seed)
    W = fam.W
    M = fam.n_members
    expected = np.array(
        [[0.5 * np.abs(W[a] - W[b]).sum() for b in range(M)] for a in range(M)]
    )
    assert np.array_equal(fam.tv_matrix, expected)


@pytest.mark.parametrize("name", ["tiny", "presence"])
def test_sample_function_size_matches_scalar_draws(name):
    fam, _ = family_and_model(name)
    for member in range(fam.n_members):
        rng_bulk, rng_one = stream(5, member), stream(5, member)
        bulk = fam.sample_function(member, rng_bulk, size=300)
        assert bulk.tolist() == [oracle_sample_function(fam, member, rng_one) for _ in range(300)]
        assert rng_bulk.random() == rng_one.random()  # both streams end in the same place
        assert isinstance(sample_one(fam, member, rng_bulk), int)


@pytest.mark.parametrize("name", ["tiny", "presence", "singleton"])
def test_selector_batch_matches_per_task_oracle(name):
    fam, model = family_and_model(name)
    xs, f_idx = draw_tasks(fam, 0, 300, stream(22, 1))
    oracle = OracleSelector(model)
    expected = [oracle.selected()]  # t = 0: no task seen yet
    for x, v in zip(xs, fam.S[f_idx[:, None], xs]):
        oracle.update(x, v)
        expected.append(oracle.selected())
    sel = SequentialSelector(model, xs, f_idx)
    assert sel.selected(np.arange(301)).tolist() == expected
    assert sel.selected([150, 0, 300]).tolist() == [expected[150], 0, expected[300]]


def oracle_calibrate_schedule(fam, model, alpha, T_grid, replicates, seed):
    """(R, delta) of the calibrated schedule, every run scored task by task."""
    errors = np.array([
        oracle_simulate_errors(fam, model, truth, T_grid, stream(seed, 3, truth, rep))
        for truth in range(fam.n_members)
        for rep in range(replicates)
    ])
    rank = int(np.ceil((1 - alpha) * len(errors)))
    inflated = np.minimum(1.0, 1.25 * np.sort(errors, axis=0)[rank - 1])
    monotone = np.maximum.accumulate(inflated[::-1])[::-1]
    deltas = (errors > monotone[None, :]).mean(axis=0)
    return (1.0,) + tuple(float(r) for r in monotone), (0.0,) + tuple(float(x) for x in deltas)


@pytest.mark.parametrize("name", ["tiny", "presence"])
@pytest.mark.parametrize("seed", [0, 3, 109])
def test_calibrate_schedule_matches_per_task_oracle(name, seed):
    fam, model = family_and_model(name)
    args = dict(alpha=0.2, T_grid=(5, 20, 60, 150), replicates=5, seed=seed)
    batched = calibrate_schedule(fam, model, **args)
    assert (batched.R, batched.delta) == oracle_calibrate_schedule(fam, model, **args)


# (epsilon, schedule): the prior-free branch, then balls of several members
# under tied query estimates; or the prior-aware branch from the first
# customer, whose poor early estimates make sparse_family fall back; or
# the same at an epsilon small enough for presence_family customers to ask
# new queries
SERVE_CASES = [
    (2.0, ScheduleRDelta(0.1, (0, 15, 40), (1.0, 0.3, 0.25), (0.0, 0.0, 0.0))),
    (0.4, ScheduleRDelta(0.1, (0, 30), (0.05, 0.0), (0.0, 0.0))),
    (0.02, ScheduleRDelta(0.1, (0, 30), (0.002, 0.0), (0.0, 0.0))),
]


@pytest.mark.parametrize("name", ["tiny", "presence", "sparse", "singleton"])
@pytest.mark.parametrize("seed", [0, 3, 109])
def test_run_algorithm1_matches_per_task_oracle(name, seed):
    fam, model = family_and_model(name)
    M = fam.n_members
    q_table = [float((3 * j + 1) % 4) for j in range(M)]
    fallbacks, exits = 0, set()
    for (eps, schedule), truth in itertools.product(SERVE_CASES, sorted({0, M - 1})):
        res = run_algorithm1(fam, model, schedule, truth, eps, 120, seed, q_table)
        expected, exceedance, expected_fallbacks, case_exits = oracle_rows(
            fam, model, schedule, truth, eps, 120, seed, q_table
        )
        exits |= case_exits
        assert res.rows == expected
        assert [tuple(map(format_cell, r)) for r in res.rows] == [
            tuple(map(format_cell, r)) for r in expected
        ]
        assert (res.exceedance_rate, res.fallbacks) == (exceedance, expected_fallbacks)
        fallbacks += res.fallbacks
    assert fallbacks > 0 or name != "sparse"
    # every family stops both with and without new queries; sparse_family
    # also falls back
    assert exits == {"stop", "query"} | ({"fallback"} if name == "sparse" else set())


def oracle_draw_customers(fam, truth, T, seed):
    """Per-customer draws, one stream per customer and purpose."""
    f_idx, xs = np.zeros(T, dtype=np.int64), np.zeros((T, fam.d), dtype=np.int64)
    for t in range(1, T + 1):
        f_idx[t - 1] = oracle_sample_function(fam, truth, stream(seed, t, 0))
        xs[t - 1] = stream(seed, t, 1).integers(0, fam.n_bundles, size=fam.d)
    return f_idx, xs


@functools.lru_cache(maxsize=None)
def flat_family(n_bundles, d):
    """Three constant tables over `n_bundles` bundles, d points per customer."""
    fns = [SatisfactionFunction((0.1 * i,) * n_bundles) for i in range(3)]
    return ValuationPriorFamily(fns, [(0.2, 0.5, 0.3), (0.6, 0.1, 0.3)], d=d)


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**64 - 1, 2**130 + 7])
def test_draw_customers_matches_per_customer_streams(seed):
    cases = [(T, nb, d) for T in (1, 7) for nb in (2, 256, 65536) for d in range(1, 6)]
    cases += [(2000, nb, d) for nb, d in zip((2, 256, 65536, 2, 256), range(1, 6))]
    for T, nb, d in cases:
        fam = flat_family(nb, d)
        truth = T % 2
        f_idx, xs = draw_customers(fam, truth, T, seed)
        expected_f, expected_xs = oracle_draw_customers(fam, truth, T, seed)
        assert f_idx.tolist() == expected_f.tolist(), (T, nb, d)
        assert xs.tolist() == expected_xs.tolist(), (T, nb, d)


def test_draw_customers_presence_family():
    fam, _ = family_and_model("presence")
    for truth in (0, 5):
        f_idx, xs = draw_customers(fam, truth, 300, 1009)
        expected_f, expected_xs = oracle_draw_customers(fam, truth, 300, 1009)
        assert f_idx.tolist() == expected_f.tolist() and len(set(f_idx.tolist())) > 4
        assert xs.tolist() == expected_xs.tolist()


def oracle_estimate_Q(member, fam, epsilon, trials, seed):
    cache = _PosteriorCache(fam)
    counts = []
    for r in range(trials):
        func = fam.functions[oracle_sample_function(fam, member, stream(seed, 2, member, r))]
        oracle = ValueOracle(func)
        oracle_method_A(member, fam, epsilon, oracle, cache)
        counts.append(oracle.count)
    counts = np.array(counts, dtype=float)
    return float(counts.mean()), float(counts.std(ddof=1) / np.sqrt(trials))


@pytest.mark.parametrize("name", ["tiny", "presence"])
@pytest.mark.parametrize("seed", [0, 109, 2**130 + 7])
def test_estimate_Q_matches_per_trial_streams(name, seed):
    fam, _ = family_and_model(name)
    for member in range(fam.n_members):
        q = estimate_Q(member, fam, 0.05, trials=60, seed=seed)
        assert (q.mean, q.se) == oracle_estimate_Q(member, fam, 0.05, 60, seed)


def test_bulk_draws_reject_negative_seed_and_empty_stream():
    fam, model = family_and_model("tiny")
    sched = ScheduleRDelta(0.1, (0,), (1.0,), (0.0,))
    with pytest.raises(ValueError, match="non-negative"):
        run_algorithm1(fam, model, sched, 0, 0.2, T=5, seed=-1, q_table=[1.0] * 3)
    with pytest.raises(ValueError, match="non-negative"):
        estimate_Q(0, fam, 0.1, trials=5, seed=-3)
    with pytest.raises(ValueError, match="T must be"):
        run_algorithm1(fam, model, sched, 0, 0.2, T=0, seed=1, q_table=[1.0] * 3)


def test_shared_posterior_cache_keeps_runs_identical():
    fam, model = family_and_model("presence")
    q_table = [1.0] * fam.n_members
    sched = SERVE_CASES[1][1]
    shared = _PosteriorCache(fam)
    estimate_Q(3, fam, 0.05, trials=40, seed=0, cache=shared)
    for truth, seed in ((0, 1000), (3, 1001), (0, 1002)):
        alone = run_algorithm1(fam, model, sched, truth, 0.4, 150, seed, q_table)
        with_shared = run_algorithm1(fam, model, sched, truth, 0.4, 150, seed, q_table, cache=shared)
        assert with_shared.rows == alone.rows


def test_presence_family_rejects_sizes_it_cannot_reach():
    # one item group: every twin pair pins the group's only weight
    with pytest.raises(ValueError, match="at most 2 distinct"):
        presence_family(n_items=2)
    _, fam = presence_family(n_items=2, n_functions=2, n_members=2)
    assert len(fam.functions) == 2
    for n_items in (0, 3, 18):
        with pytest.raises(ValueError, match="n_items"):
            presence_family(n_items=n_items)
