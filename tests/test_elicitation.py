import functools
import itertools
from math import prod

import numpy as np
import pytest

from priorlab import elicitation, errors
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
    outcome_model_plan,
    presence_family,
    pseudo_dimension_at_most,
    pseudo_shattered,
    run_algorithm1,
)
from priorlab.errors import BudgetError, plan_bytes
from priorlab.estimators import _GAP_BLOCK, _MinDistance, yatracos_scores, yatracos_sets
from priorlab.ratelab import format_cell
from priorlab.sampling import stream

from elicitation_reference import (
    ValueOracle,
    generator_calibrate_schedule,
    generator_calibration_runs,
    meet_outcome_model,
    oracle_method_A,
    oracle_method_A_prime,
)
from min_distance_reference import AllPairsMinDistance, differences, scorer  # noqa: F401


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


def singleton_cell_family(seed):
    """Four or eight tables that differ at every bundle, so every
    consistent set holds one function and its member masses are exact,
    under three to five members of non-dyadic random weights: the order
    and the layout in which G adds those masses show in its last bits."""
    rng = np.random.default_rng(seed)
    F = (4, 8)[seed % 2]
    values = np.stack([rng.permutation(F) for _ in range(4)], axis=1) / 10 - 0.35
    functions = [SatisfactionFunction(tuple(row.tolist())) for row in values]
    members = list(rng.dirichlet(np.ones(F), size=3 + seed % 3))
    return ValuationPriorFamily(functions, members, log2_pdim_bound(functions))


def oracle_family(name):
    """The families the outcome model is checked on bit for bit: the test
    families, presence_family at seeds 0-9 and 4, 6 or 8 items, and
    singleton-cell families at seeds 0-11."""
    if name.startswith("presence-"):
        seed, n_items = map(int, name.split("-")[1:])
        return presence_family(seed=seed, n_items=n_items)[1]
    if name.startswith("singletons-"):
        return singleton_cell_family(int(name.split("-")[1]))
    if name == "two":
        _, fam = tiny_family()
        return ValuationPriorFamily(fam.functions, fam.members[:2], d=2)
    return family_and_model(name)[0]


ORACLE_FAMILIES = (
    ["tiny", "sparse", "singleton", "two"]
    + [f"presence-{seed}-{n_items}" for seed in range(10) for n_items in (4, 6, 8)]
    + [f"singletons-{seed}" for seed in range(12)]
)


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
    # the partition meets' arrays, one row per combination, are in the model's plan, in bytes
    _, fam = presence_family(seed=0)
    n_parts = len({row.tobytes() for row in fam.agree})
    n_combos = len(list(itertools.combinations_with_replacement(range(n_parts), fam.d)))
    plan = outcome_model_plan(len(fam.functions), n_parts, fam.d, fam.n_members)
    assert next(a for a in plan if a.name == "meet cells as Python ints").shape[0] == n_combos
    monkeypatch.setattr(errors, "BYTE_BUDGET", plan_bytes(plan))
    FamilyOutcomeModel(fam)  # exactly at the budget
    monkeypatch.setattr(errors, "BYTE_BUDGET", plan_bytes(plan) - 1)

    def no_enumeration(*args):
        raise AssertionError("partition combinations built past the budget")

    monkeypatch.setattr(ValuationPriorFamily, "consistent", no_enumeration)
    with pytest.raises(BudgetError, match="its largest array, meet cells"):
        FamilyOutcomeModel(fam)


def test_outcome_model_checks_the_table_budget_before_building(monkeypatch):
    # F x P^d entries, one per function and tuple of bundle partitions, in its plan's bytes
    _, fam = presence_family(seed=0)
    n_parts = len({row.tobytes() for row in fam.agree})
    entries = len(fam.functions) * n_parts**fam.d
    plan = outcome_model_plan(len(fam.functions), n_parts, fam.d, fam.n_members)
    assert ("consistent-set table", (len(fam.functions), n_parts**fam.d)) in [a[:2] for a in plan]
    assert prod(next(a for a in plan if a.name == "consistent-set table").shape) == entries
    monkeypatch.setattr(errors, "BYTE_BUDGET", plan_bytes(plan))
    FamilyOutcomeModel(fam)  # exactly at the budget
    monkeypatch.setattr(errors, "BYTE_BUDGET", plan_bytes(plan) - 1)

    def no_enumeration(*args):
        raise AssertionError("outcome model built past the table budget")

    monkeypatch.setattr(ValuationPriorFamily, "consistent", no_enumeration)
    monkeypatch.setattr(np, "empty", no_enumeration)
    with pytest.raises(BudgetError, match="'n_items': the plan holds"):
        FamilyOutcomeModel(fam)


@pytest.mark.parametrize("name", ["tiny", "presence", "sparse", "singleton"])
def test_consistent_set_table_matches_the_bitmask_meets(name):
    # every bundle tuple of a small family, or 20,000 drawn ones, under
    # every function
    fam, model = family_and_model(name)
    if fam.n_bundles**fam.d <= 20_000:
        grid = np.indices((fam.n_bundles,) * fam.d).reshape(fam.d, -1).T
    else:
        grid = np.random.default_rng(0).integers(0, fam.n_bundles, size=(20_000, fam.d))
    for f in range(len(fam.functions)):
        f_idx = np.full(len(grid), f)
        expected = np.searchsorted(model.set_masks, fam.consistent(grid, f_idx))
        assert model.consistent_sets(grid, f_idx).tolist() == expected.tolist()
    assert model.consistent_sets(grid, np.zeros(len(grid), dtype=int)).dtype == np.uint8


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


def test_run_algorithm1_tail_len_is_the_stream_tail():
    # queries[-0:] and queries[-51:] are the whole stream, so a tail_len
    # of 0 or above T reported the full mean as the tail mean
    _, fam = tiny_family()
    model = FamilyOutcomeModel(fam)
    sched = ScheduleRDelta(0.1, (0, 20), (1.0, 0.0), (0.0, 0.0))
    args = (fam, model, sched, 0, 0.2)
    for tail_len in (0, -3, 51):
        with pytest.raises(ValueError, match="tail_len"):
            run_algorithm1(*args, T=50, seed=8, q_table=[1.0] * 3, tail_len=tail_len)
    for tail_len, expected in ((None, 12), (1, 1), (50, 50)):
        res = run_algorithm1(*args, T=50, seed=8, q_table=[1.0] * 3, tail_len=tail_len)
        queries = [r.queries for r in res.rows]
        assert res.tail_query_avg == np.mean(queries[-expected:])


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
    """One function index drawn from `member`: one raw word from `rng`."""
    return int(fam.function_index(member, rng.bit_generator.random_raw(1))[0])


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
    f_idx = fam.function_index(truth, rng.bit_generator.random_raw(T))
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
def test_function_index_of_words_matches_scalar_draws(name):
    fam, _ = family_and_model(name)
    for member in range(fam.n_members):
        rng_words, rng_one = stream(5, member), stream(5, member)
        bulk = fam.function_index(member, rng_words.bit_generator.random_raw(300))
        assert bulk.tolist() == [oracle_sample_function(fam, member, rng_one) for _ in range(300)]
        assert rng_words.random() == rng_one.random()  # both streams end in the same place
        assert isinstance(sample_one(fam, member, rng_words), int)


@pytest.mark.parametrize("held", [False, True])
def test_calibration_words_leave_the_stream_where_doubles_did(held):
    # calibrate_schedule reads a run's T function draws as raw words, where
    # it drew T doubles before; the bundle draws after them must not move,
    # also when a 32-bit half is held over from an earlier bounded draw
    fam, _ = family_and_model("presence")
    for truth, rep, T in ((0, 0, 150), (fam.n_members - 1, 4, 1), (3, 2, 77)):
        words, doubles = stream(3, 3, truth, rep), stream(3, 3, truth, rep)
        if held:
            assert words.integers(0, 6) == doubles.integers(0, 6)
        words.bit_generator.random_raw(T)
        doubles.random(T)
        for high in (fam.n_bundles, 6):
            assert np.array_equal(
                words.integers(0, high, size=(T, fam.d)), doubles.integers(0, high, size=(T, fam.d))
            )


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


def test_selector_picks_member_0_before_any_task():
    # with no task every count is 0, and scoring the empty sample would
    # pick member 2 of tiny_family; the selector picks member 0
    fam, model = family_and_model("tiny")
    assert model._md.select_rows(np.zeros((1, len(model.set_masks))), 1).tolist() == [2]
    xs, f_idx = draw_tasks(fam, 2, 40, stream(24, 0))
    assert SequentialSelector(model, xs, f_idx).selected([0, 40, 0]).tolist()[::2] == [0, 0]
    assert SequentialSelector(model, xs, f_idx).selected([]).tolist() == []
    assert SequentialSelector(model, xs[:0], f_idx[:0]).selected([0]).tolist() == [0]


def _prefix_set_counts(model, xs, f_idx, grid):
    """(len(grid), sets) counts of the consistent sets of the first t tasks."""
    ids = model.consistent_sets(xs, f_idx)
    return np.stack([np.bincount(ids[:t], minlength=len(model.set_masks)) for t in grid]).astype(float)


@pytest.mark.parametrize("name", ["tiny", "presence"])
def test_selection_matches_all_pairs_with_one_total_per_row(name, scorer):
    # the selector's stacks: each row counts a prefix of the tasks, of
    # its own length, over the consistent sets
    fam, model = family_and_model(name)
    grid = np.arange(1, 301)
    counts = _prefix_set_counts(model, *draw_tasks(fam, 1, 300, stream(26, 0)), grid)
    oracle = AllPairsMinDistance.from_sets(model.set_indicators.T, model.G)
    assert differences(model._md, oracle, counts, grid) == []


@pytest.mark.parametrize("name", ["tiny", "presence"])
def test_selection_keeps_a_nudged_pair_column(name, scorer):
    # move one pair's masses by one ulp, away from the empirical mass of
    # its set, where that pair attains some member's score: its set then
    # keeps an odd column, and the scores stay the all-pairs ones
    fam, model = family_and_model(name)
    pair_sets = model.set_indicators.T
    first = {}
    repeats = [q for q, row in enumerate(pair_sets) if first.setdefault(row.tobytes(), q) != q]
    grid = np.arange(1, 301)
    counts = _prefix_set_counts(model, *draw_tasks(fam, 1, 300, stream(25, 0)), grid)
    mu = (counts @ model.set_indicators) / grid[:, None]
    gap = np.abs(model.G[None] - mu[:, None, :])  # (rows, members, pairs)
    scores = yatracos_scores(model.G, mu)
    r, l, q = next(
        (r, l, q) for r, l, q in itertools.product(range(len(grid)), range(fam.n_members), repeats)
        if gap[r, l, q] == scores[r, l]
    )
    G = model.G.copy()
    G[:, q] = np.nextafter(G[:, q], np.where(G[:, q] >= mu[r, q], np.inf, -np.inf))
    md = _MinDistance.from_sets(pair_sets, G)
    assert len(md.A) == len(first) + 1  # the distinct sets, and the nudged pair
    expected = yatracos_scores(G, mu)
    assert expected[r, l] > scores[r, l]
    assert md._scores(md.empirical(counts, grid)).tolist() == expected.tolist()
    assert md.select_rows(counts, grid).tolist() == expected.argmin(axis=1).tolist()


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


@pytest.mark.parametrize(
    "name, T_grid",
    [("tiny", (5, 20, 150)), ("presence", (3, 31)), ("flat-1", (4, 77)), ("flat-3", (9, 101))],
)
@pytest.mark.parametrize("seed", [0, 3, 109, 2**64 - 1])
def test_calibrate_schedule_matches_generator_calls(name, T_grid, seed, monkeypatch):
    # a run's bundles decoded from its words are the draws of rng.integers
    # after its function words; flat-1 and flat-3 take an odd d, and an odd
    # T d leaves the last word's high half unread
    if name.startswith("flat"):
        fam = flat_family(8, int(name[-1]))
        model = FamilyOutcomeModel(fam)
    else:
        fam, model = family_and_model(name)
    drawn = []
    selector = elicitation.SequentialSelector

    def spy(model, xs, f_idx):
        drawn.append((f_idx.tolist(), xs.tolist()))
        return selector(model, xs, f_idx)

    monkeypatch.setattr(elicitation, "SequentialSelector", spy)
    args = dict(alpha=0.2, T_grid=T_grid, replicates=4, seed=seed)
    assert calibrate_schedule(fam, model, **args) == generator_calibrate_schedule(fam, model, **args)
    runs = generator_calibration_runs(fam, T_grid[-1], 4, seed)
    assert drawn == [(f_idx.tolist(), xs.tolist()) for _, f_idx, xs in runs]


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


def test_estimate_Q_picks_greedy_queries_a_block_of_gains_at_a_time():
    # members 4 and 7 ask all 300 trials a first query: 256 gains each, three blocks
    fam, _ = family_and_model("presence")
    assert 300 * fam.n_bundles > 2 * _GAP_BLOCK
    for member in (4, 7):
        q = estimate_Q(member, fam, 0.05, trials=300, seed=7)
        assert (q.mean, q.se) == oracle_estimate_Q(member, fam, 0.05, 300, 7) and q.mean >= 1


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
