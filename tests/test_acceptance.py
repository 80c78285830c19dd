"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything statistical runs at the stated replicate counts and tolerances;
everything structural runs in exact rational arithmetic where the
criterion demands literal equality.  Run with `pytest -s` to see the
per-criterion lines, or rely on the test verdicts.
"""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from priorlab.concepts import (
    DataDistribution,
    enumerate_concepts,
    uniform_distribution,
)
from priorlab.elicitation import (
    FamilyOutcomeModel,
    _PosteriorCache,
    calibrate_schedule,
    draw_customers,
    estimate_Q,
    presence_family,
    run_algorithm1,
)
from priorlab.estimators import SkeletonEstimator, coin_floor, exact_bayes_error
from priorlab.outcomes import check_sauer, exact_outcome_dist, label_conditional_tv, tv
from priorlab.priors import (
    SmoothPriorParams,
    cover_of_family,
    density_table,
    point_mass,
    random_prior,
    reference_prior,
    smooth_prior,
    smooth_projection,
    parity_family,
    total_variation,
)
from priorlab.ratelab import (
    ExperimentConfig,
    counts_from_arrays_fast,
    lower_bound_floor,
    run_baseline_comparison,
    run_lower_experiment,
)
from priorlab.sampling import sample_arrays, stream

from elicitation_reference import ValueOracle, oracle_method_A


def report(n, name, ok, detail=""):
    line = f"ACCEPTANCE {n:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_construction_suite():
    rng = stream(101, 0)
    checked = rejected = 0
    ok = True
    for m in range(2, 9):
        for d in range(1, min(3, m) + 1):
            space = enumerate_concepts(m, d)
            dist = uniform_distribution(m)
            for L in (0.5, 1.0, 2.0):
                for alpha in (0.5, 1.0):
                    gamma = (L / 2.0) * (1.0 / m) ** alpha
                    if not 0 < gamma < 0.5:
                        with pytest.raises(ValueError):
                            SmoothPriorParams((1,) * comb(m, d), L, alpha, m, d)
                        rejected += 1
                        continue
                    exact = float(alpha).is_integer()
                    pi0 = reference_prior(space, exact=exact)
                    if exact:
                        ok &= sum(pi0.exact) == 1
                    else:
                        ok &= abs(pi0.mass.sum() - 1.0) <= 1e-12
                    signs = [tuple([1] * comb(m, d)), tuple([-1] * comb(m, d))]
                    signs += [
                        tuple(int(s) for s in rng.choice([-1, 1], size=comb(m, d)))
                        for _ in range(3)
                    ]
                    for b in signs:
                        params = SmoothPriorParams(b, L, alpha, m, d)
                        pb = smooth_prior(params, space, exact=exact)
                        if exact:
                            ok &= sum(pb.exact) == 1
                        else:
                            ok &= abs(pb.mass.sum() - 1.0) <= 1e-12
                        f = density_table(pb, pi0)
                        ok &= f.min() >= 1 - gamma - 1e-12
                        ok &= f.max() <= 1 + gamma + 1e-12
                        from priorlab.priors import holder_check

                        ok &= holder_check(pb, pi0, L, alpha, dist).ok
                        checked += 1
    assert report(1, "construction-suite", ok, f"{checked} priors, {rejected} rejected params")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_inequality_suite():
    from priorlab.outcomes import verify_sqrt_bound, verify_tree_inequality

    rng = stream(102, 0)
    ok = True
    n_pairs = 0
    instances = [(3, 1), (4, 1), (3, 2), (4, 2)]
    spaces = {md: enumerate_concepts(*md) for md in instances}
    pi0s = {md: reference_prior(spaces[md], exact=True) for md in instances}
    while n_pairs < 52:
        m, d = instances[n_pairs % len(instances)]
        space, dist = spaces[(m, d)], uniform_distribution(m)
        pa, pb = random_prior(space, rng), random_prior(space, rng)
        k = int(rng.integers(d, 5))
        anchors = tuple(int(x) for x in rng.integers(1, m + 1, size=k))
        # projection equality, exact: random rational tables this time
        pa_e = _random_exact_prior(space, rng)
        pb_e = _random_exact_prior(space, rng)
        lhs = label_conditional_tv(pa_e, pb_e, anchors)
        rhs = total_variation(
            smooth_projection(pa_e, anchors, reference=pi0s[(m, d)]).smoothed,
            smooth_projection(pb_e, anchors, reference=pi0s[(m, d)]).smoothed,
        )
        ok &= lhs == rhs
        tree = verify_tree_inequality(pa, pb, anchors, d)
        ok &= tree.passed
        ok &= all(r.passed for r in verify_sqrt_bound(pa, pb, dist, d))
        n_pairs += 1
    # growth-function sanity across the small instances
    for m, d in [(3, 2), (5, 2), (8, 3), (8, 1)]:
        ok &= all(r.passed for r in check_sauer(enumerate_concepts(m, d)))
    assert report(2, "inequality-suite", ok, f"{n_pairs} random pairs")


def _random_exact_prior(space, rng):
    from priorlab.priors import TabularPrior

    weights = [Fraction(int(x), 1) for x in rng.integers(1, 30, size=len(space))]
    total = sum(weights)
    return TabularPrior(space, None, exact=[w / total for w in weights])


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_lemma_chain():
    from priorlab.outcomes import verify_lemma_chain

    rng = stream(103, 0)
    ok = True
    checked = 0
    for md in [(2, 1), (3, 2)]:
        space = enumerate_concepts(*md)
        dist = uniform_distribution(md[0])
        for _ in range(26):
            pa, pb = random_prior(space, rng), random_prior(space, rng)
            rep = verify_lemma_chain(pa, pb, dist, 3)
            ok &= rep.passed
            checked += 1
    # the full parity family at (3, 2): all 28 unordered member pairs
    space = enumerate_concepts(3, 2)
    dist = uniform_distribution(3)
    _, members = parity_family(space, 1.0, 1.0)
    for a, b in itertools.combinations(range(len(members)), 2):
        rep = verify_lemma_chain(members[a], members[b], dist, 3)
        ok &= rep.passed
        checked += 1
    assert report(3, "lemma-chain", ok, f"{checked} pairs, zero violations required")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_coin_floor_full_grid():
    violations = 0
    cells = 0
    for g100 in range(5, 55, 5):
        gamma = Fraction(g100, 100)
        for n in range(201):
            cells += 1
            if float(exact_bayes_error(gamma, n)) < coin_floor(float(gamma), n):
                violations += 1
    assert report(4, "coin-bound-floor", violations == 0, f"{cells} grid cells exact")


# ----------------------------------------------------- criteria 5 + 6 (shared)

REPS_5 = 200


@pytest.fixture(scope="module")
def twopoint_runs():
    """Criterion 5a runs: separated two-member family, exact estimator."""
    space = enumerate_concepts(3, 1)
    dist = DataDistribution((0.05, 0.05, 0.9))
    members = [point_mass(space, 0b001, exact=True), point_mass(space, 0b010, exact=True)]
    cover = cover_of_family(members, 0.0)
    est = SkeletonEstimator(cover, dist, 1, exact=True)
    tvm = [[total_variation(a, b) for b in members] for a in members]
    qa_cache = [est.truth_vectors(od)[1] for od in est.outcome_dists]
    runs = {T: [] for T in (10, 1000)}
    for T in runs:
        for r in range(REPS_5):
            rng = stream(105, T, r)
            truth = int(rng.integers(2))
            tasks = sample_arrays(members[truth], space, dist, T, 1, rng)
            counts, total = counts_from_arrays_fast(est, 3, tasks)
            sel, _ = est.select_from_counts(counts, total)
            dev = est._md.deviation_exact(counts, total, qa_cache[truth])
            gap = tv(est.outcome_dists[sel], est.outcome_dists[truth])
            mind = min(tv(od, est.outcome_dists[truth]) for od in est.outcome_dists)
            runs[T].append(
                {"err": float(tvm[truth][sel]), "gap": gap, "mind": mind, "dev": dev}
            )
    return runs


@pytest.fixture(scope="module")
def parity_runs():
    """Criterion 5b runs: the 8-member exact cover at (3,2,L=1,alpha=1)."""
    space = enumerate_concepts(3, 2)
    dist = uniform_distribution(3)
    _, members = parity_family(space, 1.0, 1.0, exact=True)
    cover = cover_of_family(members, 0.0)
    est = SkeletonEstimator(cover, dist, 2, exact=True)
    params, _ = parity_family(space, 1.0, 1.0)
    tvm = np.array(
        [[float(total_variation(a, b)) for b in members] for a in members]
    )
    od_tv = [
        [tv(a, b) for b in est.outcome_dists] for a in est.outcome_dists
    ]
    qa_cache = [est.truth_vectors(od)[1] for od in est.outcome_dists]
    runs = {T: [] for T in (100, 1000, 10000)}
    for T in runs:
        for r in range(REPS_5):
            rng = stream(106, T, r)
            truth = int(rng.integers(8))
            tasks = sample_arrays(params[truth], space, dist, T, 2, rng)
            counts, total = counts_from_arrays_fast(est, 3, tasks)
            sel, _ = est.select_from_counts(counts, total)
            dev = est._md.deviation_exact(counts, total, qa_cache[truth])
            runs[T].append(
                {
                    "err": float(tvm[truth, sel]),
                    "gap": od_tv[sel][truth],
                    "mind": min(od_tv[l][truth] for l in range(8)),
                    "dev": dev,
                }
            )
    return runs


def _mean_se(vals):
    a = np.asarray(vals)
    return float(a.mean()), float(a.std(ddof=1) / np.sqrt(len(a)))


def test_criterion_5_skeleton_consistency(twopoint_runs, parity_runs):
    m10, s10 = _mean_se([r["err"] for r in twopoint_runs[10]])
    m1k, s1k = _mean_se([r["err"] for r in twopoint_runs[1000]])
    ok_a = m1k < 0.05 and m1k < m10 - 1.645 * np.sqrt(s10**2 + s1k**2)
    means = {}
    for T, rows in parity_runs.items():
        means[T] = _mean_se([r["err"] for r in rows])
    ts = sorted(means)
    ok_b = all(
        means[b][0] < means[a][0] + 2 * np.sqrt(means[a][1] ** 2 + means[b][1] ** 2)
        and means[b][0] < means[a][0]
        for a, b in zip(ts, ts[1:])
    )
    detail = (
        f"2pt: T=10 {m10:.3f}, T=1000 {m1k:.4f}; "
        + " > ".join(f"{means[T][0]:.4f}" for T in ts)
    )
    assert report(5, "skeleton-consistency", ok_a and ok_b, detail)


def test_criterion_6_yatracos_decomposition(twopoint_runs, parity_runs):
    # tv(selected, truth) <= 3 * min-distance + 2 * max-deviation, every
    # replicate, Fraction arithmetic end to end
    checked = 0
    ok = True
    for runs in (twopoint_runs, parity_runs):
        for rows in runs.values():
            for r in rows:
                ok &= r["gap"] <= 3 * r["mind"] + 2 * r["dev"]
                checked += 1
    assert report(6, "yatracos-decomposition", ok, f"{checked} replicates exact")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_lower_bound_testbed():
    config = ExperimentConfig(
        m=3, d=2, L=1.0, alpha=1.0, family="parity",
        T_grid=(100, 1000), replicates=200, seed=107,
    )
    res = run_lower_experiment(config)
    ok = all(cell["pass"] for cell in res.per_T.values())
    ok &= res.ni_within_3sigma
    detail = "; ".join(
        f"T={T}: {c['mean']:.4f}>{c['floor']:.2e}" for T, c in sorted(res.per_T.items())
    )
    detail += f"; N_i/task {res.ni_mean:.5f} vs {res.ni_expected_per_task:.5f}"
    assert report(7, "lower-bound-testbed", ok, detail)


def test_criterion_7_floor_values_frozen():
    # direct substitution of the floor formula at the tested scales
    config = ExperimentConfig(m=3, d=2, L=1.0, alpha=1.0, T_grid=(100,), replicates=1)
    g = 1.0 / 6.0
    expected = g / 128 * np.exp(-43 * 16 * 16 * g**6 * 100)
    assert lower_bound_floor(config, 100) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_baseline_ordering():
    config = ExperimentConfig(
        m=3, d=2, L=1.0, alpha=1.0, family="parity",
        T_grid=(1000,), replicates=100, seed=108, truth_count=8,
    )
    res = run_baseline_comparison(config, T=1000)
    ok = res.ordered
    assert report(
        8, "baseline-ordering", ok,
        f"direct {res.direct_mean:.4f} <= skeleton {res.skeleton_mean:.4f} "
        f"+ 2*{res.diff_se:.4f}",
    )


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_elicitation_suite():
    eps = 0.2
    T, n_streams, tail = 2000, 20, 500
    menu, family = presence_family(seed=0)
    assert family.n_members <= 16 and len(family.functions) <= 32
    model = FamilyOutcomeModel(family)
    schedule = calibrate_schedule(
        family, model, alpha=eps / 2, T_grid=(25, 50, 100, 200, 400, 800, 1600),
        replicates=25, seed=109,
    )
    q_table = [
        estimate_Q(j, family, eps / 4, trials=300, seed=109).mean
        for j in range(family.n_members)
    ]
    regrets = []
    ok_dup = ok_tail = ok_exceed = True
    cache = _PosteriorCache(family)
    for rep in range(n_streams):
        truth = rep % family.n_members
        res = run_algorithm1(
            family, model, schedule, truth, eps, T,
            seed=2000 + rep, q_table=q_table, tail_len=tail,
        )
        regrets.extend(r.regret for r in res.rows)
        # replay every prior-aware customer through the logging reference
        # oracle: no bundle asked twice, and the ledger counts every ask
        f_idx, xs = draw_customers(family, truth, T, 2000 + rep)
        for r, f, points in zip(res.rows, f_idx.tolist(), xs.tolist()):
            if r.branch == "Aprime":
                ok_dup &= r.queries == family.n_bundles
                continue
            oracle = ValueOracle(family.functions[f])
            for x in points:
                oracle.ask(x)
            oracle_method_A(r.theta_check, family, eps / 4, oracle, cache)
            ok_dup &= len(set(oracle.asked)) == len(oracle.asked) == r.queries
        ok_tail &= res.tail_query_avg <= q_table[truth] + family.d + 0.5
        ok_exceed &= res.exceedance_rate <= eps / 2
    reg = np.asarray(regrets)
    upper95 = reg.mean() + 1.645 * reg.std(ddof=1) / np.sqrt(len(reg))
    ok_regret = upper95 <= eps
    ok = ok_regret and ok_dup and ok_tail and ok_exceed
    assert report(
        9, "elicitation-suite", ok,
        f"regret95 {upper95:.4f}<={eps}; dup-free {ok_dup}; tail {ok_tail}; "
        f"exceed {ok_exceed}",
    )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(tmp_path):
    # every cell kind (upper, baseline and lowerbound; parity and two-point)
    # runs once in one process, again there, and under two workers: the
    # generator each cell reuses across its replicates carries nothing over
    from priorlab.cli import dispatch

    cfgs = {
        "rates": "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 50,200\n"
        "replicates = 10\ntruth_count = 3\n",
        "twopoint": "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 20,101\n"
        "replicates = 7\nfamily = twopoint\n",
        "lowerbound": "m = 3\nd = 2\nL = 1.0\nalpha = 1.0\nT_grid = 30,99\nreplicates = 9\n",
    }
    names = {
        "rates": ("rates.csv", "skeleton_report.csv", "baseline.csv", "summary.txt"),
        "twopoint": ("rates.csv", "skeleton_report.csv", "baseline.csv", "summary.txt"),
        "lowerbound": ("lowerbound.csv", "summary.txt"),
    }
    ok = True
    for label, text in cfgs.items():
        cfg = tmp_path / f"{label}.cfg"
        cfg.write_text(text)
        sub = "lowerbound" if label == "lowerbound" else "rates"
        outs = [tmp_path / f"{label}{i}" for i in range(3)]
        for out, workers in zip(outs, (1, 2, 1)):
            assert dispatch(sub, cfg, 42, out, workers=workers) == 0
        for name in names[label]:
            ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            ok &= (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes()
    coin_cfg = tmp_path / "coin.cfg"
    coin_cfg.write_text("gammas = 0.05,0.25,0.45\nn_max = 60\n")
    c_outs = [tmp_path / f"c{i}" for i in range(2)]
    for o in c_outs:
        assert dispatch("coinbound", coin_cfg, 7, o) == 0
    ok &= (c_outs[0] / "coinbound.csv").read_bytes() == (c_outs[1] / "coinbound.csv").read_bytes()
    assert report(10, "determinism", ok, "reruns and worker counts byte-identical")
