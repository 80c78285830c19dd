"""The `smoothness`, `cover-info`, `coinbound` and `lemmas` suites work on
whole arrays.  Each is checked here against the per-instance code it
replaced, kept as a test-local oracle, and against a planted defect that
its `pass` column must catch."""

import builtins
import csv
import math
import tracemalloc
from fractions import Fraction
from math import ceil, comb
from pathlib import Path

import numpy as np
import pytest

from priorlab import cli, outcomes, ratelab
from priorlab.cli import _smoothness_instances, dispatch, parse_config
from priorlab.concepts import DataDistribution, d_subsets, enumerate_concepts, rho_matrix, uniform_distribution
from priorlab.errors import BudgetError
from priorlab.estimators import _as_fraction, _bayes_error_ratios, coin_floor
from priorlab.outcomes import (
    CSV_HEADER as CHECK_HEADER,
    check_sauer,
    verify_lemma_chain,
    verify_lemma_pairs,
    verify_sqrt_bound,
    verify_tree_inequality,
)
from priorlab.priors import (
    SmoothPriorParams,
    TabularPrior,
    _diameter_partition,
    cover_priors,
    holder_check,
    point_mass,
    random_prior,
    reference_prior,
    smooth_prior,
)
from priorlab.ratelab import transpose, write_csv
from priorlab.sampling import stream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SMOOTHNESS_HEADER = (
    "m", "d", "L", "alpha", "gamma", "mass_gap", "density_lo", "density_hi", "holder_ok", "pass",
)


def loop_float_masses(b, gamma, space) -> np.ndarray:
    """Oracle: the float parity member as one (concepts, subsets) term
    table summed left to right, one sign vector at a time."""
    m, d = space.m, space.d
    inside = (space.masks[:, None] & ~np.array(d_subsets(m, d), dtype=np.int64)) == 0
    odd = np.array([bin(int(v)).count("1") % 2 for v in space.masks], dtype=bool)
    signed = gamma * np.array(b, dtype=float)
    terms = np.where(odd[:, None], 1 + signed, 1 - signed)
    total = np.cumsum(np.where(inside, terms, 0.0), axis=1)[:, -1]
    return 1.0 / (2**d * comb(m, d)) * total


def table_holder(f, space, dist, L, alpha):
    """Oracle: the Hölder check over a full (concepts, concepts) ratio
    table, as (ok, max_ratio, witness index pair)."""
    n = len(f)
    dists = rho_matrix(space, dist)
    diffs = np.abs(f[:, None] - f[None, :])
    off = ~np.eye(n, dtype=bool)
    zero_rho = off & (dists == 0)
    if (diffs[zero_rho] > 1e-12).any():
        i, j = np.argwhere(zero_rho & (diffs > 1e-12))[0]
        return False, np.inf, (int(i), int(j))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(off & (dists > 0), diffs / dists**alpha, 0.0)
    worst = float(ratio.max()) if n > 1 else 0.0
    if worst <= L + 1e-12:
        return True, worst, None
    i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    return False, worst, (int(i), int(j))


def oracle_smoothness(config: dict, seed: int, exact: bool, outdir: Path) -> None:
    """Oracle: the per-instance smoothness loop, one sign-vector draw,
    member, density table and Hölder table at a time."""
    rng = stream(seed, 2)
    rows = []
    for m, d, grid in _smoothness_instances(config):
        space = enumerate_concepts(m, d)
        dist = uniform_distribution(m)
        for L, alpha, gamma in grid:
            use_exact = exact and float(alpha).is_integer()
            ref = reference_prior(space, exact=use_exact)
            for _ in range(config["signs_per_instance"]):
                b = tuple(rng.choice([-1, 1], size=comb(m, d)).tolist())
                params = SmoothPriorParams(b, L, alpha, m, d)
                if use_exact:
                    pb = smooth_prior(params, space, exact=True)
                    mass = pb.mass
                    mass_gap = 0.0 if sum(pb.exact) == 1 else float(abs(sum(pb.exact) - 1))
                else:
                    mass = loop_float_masses(b, params.gamma_m, space)
                    mass_gap = abs(float(mass.sum()) - 1.0)
                f = mass / ref.mass
                hold = table_holder(f, space, dist, L, alpha)[0]
                ok = (
                    mass_gap <= 1e-12
                    and f.min() >= 1 - gamma - 1e-12
                    and f.max() <= 1 + gamma + 1e-12
                    and hold
                )
                rows.append((m, d, L, alpha, gamma, mass_gap, float(f.min()), float(f.max()), hold, ok))
    outdir.mkdir()
    write_csv(outdir / "smoothness.csv", SMOOTHNESS_HEADER, transpose(rows, len(SMOOTHNESS_HEADER)))
    n_fail = sum(1 for r in rows if not r[-1])
    (outdir / "summary.txt").write_text(f"rows={len(rows)}\nviolations={n_fail}\nall_pass={n_fail == 0}\n")


def smoothness_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "smoothness.cfg"
    path.write_text(text)
    return path


MIXED = "m_max = 5\nd_max = 3\nL_list = 0.5,1.0,1.7\nalpha_list = 0.5,1.0,0.7\nsigns_per_instance = 70\n"
SHIPPED_SMOOTHNESS = (CONFIGS / "smoothness.cfg").read_text()


@pytest.mark.parametrize(
    "text, seed, exact",
    [
        (None, 0, False),
        (None, 3, False),
        (None, 109, False),
        (None, 4, True),
        # alpha 0.5, 1 and 0.7 mixed, and more sign vectors than one block
        (MIXED, 5, False),
        (MIXED, 6, True),
        # one sign vector per instance, and one more than a block
        (SHIPPED_SMOOTHNESS.replace("signs_per_instance = 4", "signs_per_instance = 1"), 7, False),
        (SHIPPED_SMOOTHNESS.replace("signs_per_instance = 4", "signs_per_instance = 65"), 8, False),
        (SHIPPED_SMOOTHNESS.replace("signs_per_instance = 4", "signs_per_instance = 1"), 9, True),
    ],
)
def test_smoothness_csv_is_the_per_instance_loop_byte_for_byte(tmp_path, text, seed, exact):
    path = CONFIGS / "smoothness.cfg" if text is None else smoothness_config(tmp_path, text)
    assert dispatch("smoothness", path, seed, tmp_path / "out", exact_rational=exact) == 0
    oracle_smoothness(parse_config(path, "smoothness"), seed, exact, tmp_path / "oracle")
    for name in ("smoothness.csv", "summary.txt"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes(), name


def test_batched_smooth_prior_rows_are_the_one_vector_members():
    space = enumerate_concepts(6, 3)
    b = np.random.default_rng(2).choice([-1, 1], size=(9, comb(6, 3)))
    masses = smooth_prior(SmoothPriorParams(b, 1.0, 0.5, 6, 3), space)
    for row, signs in zip(masses, b.tolist()):
        assert np.array_equal(row, smooth_prior(SmoothPriorParams(tuple(signs), 1.0, 0.5, 6, 3), space).mass)
    # L and alpha per row: each row is its one-vector member at its own L and alpha
    L, alpha = np.resize([0.5, 1.0, 2.0], 9), np.resize([0.5, 1.0, 0.7, 1.0], 9)
    params = SmoothPriorParams(b, L, alpha, 6, 3)
    assert params.gamma_m.shape == (9,)
    for row, signs, l_r, a_r in zip(smooth_prior(params, space), b.tolist(), L.tolist(), alpha.tolist()):
        assert np.array_equal(row, smooth_prior(SmoothPriorParams(tuple(signs), l_r, a_r, 6, 3), space).mass)
    with pytest.raises(ValueError, match="gamma_m"):
        SmoothPriorParams(b, np.resize([1.0, 4.0], 9), 0.5, 6, 3)
    with pytest.raises(ValueError, match="one sign vector"):
        smooth_prior(SmoothPriorParams(b, 1.0, 1.0, 6, 3), space, exact=True)
    with pytest.raises(ValueError, match="-1 or \\+1"):
        SmoothPriorParams(np.zeros((2, comb(6, 3)), dtype=int), 1.0, 1.0, 6, 3)
    with pytest.raises(ValueError, match="length 3"):
        SmoothPriorParams(np.ones((2, 3), dtype=int), 1.0, 1.0, 6, 3)


@pytest.mark.parametrize(
    "m, d, weights",
    [
        (4, 2, None),
        (5, 1, (0.5, 0.0, 0.25, 0.0, 0.25)),  # zero-weight points: pairs at rho = 0
        (3, 3, (0.2, 0.3, 0.5)),
    ],
)
def test_holder_check_is_the_full_ratio_table(m, d, weights):
    space = enumerate_concepts(m, d)
    dist = uniform_distribution(m) if weights is None else DataDistribution(weights)
    ref = reference_prior(space)
    rng = np.random.default_rng(m * 10 + d)
    raw = rng.dirichlet(np.ones(len(space)), size=12)
    masses = raw / raw.sum(axis=1, keepdims=True)
    # rows 4..7 keep one density on each class of concepts at rho = 0, and
    # rows 0..3 are the reference itself, so that passes and both kinds
    # of failure occur
    cls = (rho_matrix(space, dist) == 0).argmax(axis=1)
    masses[4:8] = ref.mass * rng.uniform(0.5, 1.5, size=(4, len(space)))[:, cls]
    masses[4:8] /= masses[4:8].sum(axis=1, keepdims=True)
    masses[:4] = ref.mass
    kinds = set()
    for L, alpha in ((0.05, 1.0), (3.0, 0.5), (50.0, 0.7)):
        reports = holder_check(masses, ref, L, alpha, dist)
        assert len(reports) == len(masses)
        for row, rep in zip(masses, reports):
            ok, worst, pair = table_holder(row / ref.mass, space, dist, L, alpha)
            single = holder_check(TabularPrior(space, row), ref, L, alpha, dist)
            for got in (rep, single):
                assert (got.ok, got.max_ratio) == (ok, worst)
                want = None if pair is None else (space.concepts[pair[0]], space.concepts[pair[1]])
                assert got.witness == want
            kinds.add("pass" if ok else "rho = 0" if worst == np.inf else "ratio")
    assert kinds == ({"pass", "ratio", "rho = 0"} if 0.0 in dist.weights else {"pass", "ratio"})
    # L and alpha per row: each report is the one-row check at its own L and alpha
    L, alpha = np.resize([0.05, 3.0, 50.0], len(masses)), np.resize([1.0, 0.5, 0.7, 0.5], len(masses))
    for row, rep, l_r, a_r in zip(masses, holder_check(masses, ref, L, alpha, dist), L.tolist(), alpha.tolist()):
        assert rep == holder_check(TabularPrior(space, row), ref, l_r, a_r, dist)


def oracle_cover_masses(space, L, alpha, epsilon, budget=100_000) -> np.ndarray:
    """Oracle: the cover search on numpy scalars, each leaf's masses
    written one cell at a time; the members' masses, one row each."""
    reference = reference_prior(space)
    delta = (epsilon / L) ** (1.0 / alpha)
    cells = _diameter_partition(space, uniform_distribution(space.m), delta)
    cell_ref = np.array([reference.mass[c].sum() for c in cells])
    step = epsilon / 2.0
    grid = np.arange(int(ceil((1.0 + L) / step)) + 2) * step
    mass_tol = epsilon / 4.0 + 1e-9
    suffix_min = np.zeros(len(cells) + 1)
    suffix_max = np.zeros(len(cells) + 1)
    for i in range(len(cells) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + grid[0] * cell_ref[i]
        suffix_max[i] = suffix_max[i + 1] + grid[-1] * cell_ref[i]
    members = []
    assignment = np.zeros(len(cells))

    def extend(i, partial):
        if len(members) > budget:
            raise BudgetError("over budget")
        if i == len(cells):
            if abs(partial - 1.0) <= mass_tol and partial > 0:
                mass = np.zeros(len(space))
                for c, cell in enumerate(cells):
                    mass[cell] = assignment[c] * reference.mass[cell]
                members.append(mass / mass.sum())
            return
        for g in grid:
            new = partial + g * cell_ref[i]
            if new + suffix_max[i + 1] < 1.0 - mass_tol:
                continue
            if new + suffix_min[i + 1] > 1.0 + mass_tol:
                break
            assignment[i] = g
            extend(i + 1, new)

    extend(0, 0.0)
    return np.array(members)


@pytest.mark.parametrize(
    "m, d, epsilons",
    [
        (2, 1, parse_config(CONFIGS / "cover-info.cfg", "cover-info")["epsilons"]),
        (3, 2, (0.6, 0.5)),
        (4, 1, (0.5,)),
    ],
)
def test_cover_members_are_the_per_cell_leaf_loop_bit_for_bit(m, d, epsilons):
    space = enumerate_concepts(m, d)
    for eps in epsilons:
        fam = cover_priors(space, 1.0, 1.0, eps)
        want = oracle_cover_masses(space, 1.0, 1.0, eps)
        assert np.array_equal(np.array([p.mass for p in fam.members]), want), eps
    with pytest.raises(BudgetError, match="11 cover members exceed the limit of 10"):
        cover_priors(enumerate_concepts(3, 2), 1.0, 1.0, 0.05, budget=10)


def test_tabular_prior_rows_check_the_table():
    space = enumerate_concepts(2, 1)
    rows = TabularPrior.rows(space, [[0.5, 0.25, 0.25], [1.0, 0.0, 0.0]])
    assert [p.mass.tolist() for p in rows] == [[0.5, 0.25, 0.25], [1.0, 0.0, 0.0]]
    assert not rows[0].is_exact and rows[0].space is space
    with pytest.raises(ValueError, match="sum to 0.8999"):
        TabularPrior.rows(space, [[0.5, 0.25, 0.25], [0.5, 0.2, 0.2]])
    with pytest.raises(ValueError, match="nonnegative"):
        TabularPrior.rows(space, [[1.5, -0.25, -0.25]])
    with pytest.raises(ValueError, match="wrong length"):
        TabularPrior.rows(space, [[0.5, 0.5]])


def fraction_coin_rows(gammas, ns):
    """Oracle: the coin table through one Fraction per (gamma, n)."""
    rows = []
    for gamma in gammas:
        g = _as_fraction(gamma)
        errors = [Fraction(num, den) for num, den in _bayes_error_ratios(g, max(ns, default=0))]
        for n in ns:
            err = float(errors[n])
            floor = coin_floor(float(g), n)
            rows.append((float(g), n, err, floor, err >= floor))
    return rows


def test_coin_table_is_the_fraction_oracle():
    gammas = parse_config(CONFIGS / "coinbound.cfg", "coinbound")["gammas"]
    assert ratelab.coin_bound_table(gammas, range(201)) == fraction_coin_rows(gammas, range(201))
    for ns in ((7, 0, 7, 3), (200, 150, 3, 1), (5, 5, 5), (0,), (2, 40, 199, 41)):
        got = ratelab.coin_bound_table(gammas + (Fraction(1, 3),), ns)
        assert got == fraction_coin_rows(gammas + (Fraction(1, 3),), ns), ns
        assert all(type(r[0]) is float and type(r[2]) is float for r in got)


def comb_ratios(gamma, n_max: int):
    """Oracle: the coin pass with its middle term C(n, n/2) (ab)^(n/2)
    and (a+b)^n each computed afresh at every n."""
    g = _as_fraction(gamma)
    a, b = g.denominator + g.numerator, g.denominator - g.numerator
    yield 1, 2
    tail = edge = b
    k = 0
    for n in range(1, n_max + 1):
        total = 2 * tail + (comb(n, n // 2) * (a * b) ** (n // 2) if n % 2 == 0 else 0)
        yield total, 2 * (a + b) ** n
        tail = (a + b) * tail - a * edge
        if n % 2:
            edge = edge * b * (n + 1) // (n + 1 - k)
        else:
            edge = edge * a * (n + 1) // (k + 1)
            tail += edge
            k += 1


def test_stepped_coin_pass_is_the_comb_form():
    gammas = parse_config(CONFIGS / "coinbound.cfg", "coinbound")["gammas"]
    for gamma in gammas + (0.123456789, Fraction(1, 3)):
        assert list(_bayes_error_ratios(gamma, 2000)) == list(comb_ratios(gamma, 2000)), gamma


def lemma_pair_rows(pairs, dist, k_max: int, d: int) -> list[tuple]:
    """Oracle: each pair through the three one-pair verifiers, each
    building its own outcome laws and label masses."""
    rows = []
    for pa, pb, anchors in pairs:
        rows += verify_lemma_chain(pa, pb, dist, k_max).csv_rows()
        rows.append(verify_tree_inequality(pa, pb, anchors, d).csv_row())
        rows += [r.csv_row() for r in verify_sqrt_bound(pa, pb, dist, d)]
    return rows


@pytest.mark.parametrize("m, d, k_max", [(2, 1, 3), (3, 2, 3), (4, 2, 2)])
def test_lemma_pairs_are_the_per_pair_verifiers_bit_for_bit(m, d, k_max):
    space, dist, rng = enumerate_concepts(m, d), uniform_distribution(m), stream(61, m, d)
    sparse = random_prior(space, rng).mass * (rng.random(len(space)) < 0.5)
    sparse[0] += 1.0 - sparse.sum()  # zero mass on about half the concepts
    priors = [random_prior(space, rng) for _ in range(6)] + [
        point_mass(space, 0), point_mass(space, space.concepts[-1]), reference_prior(space),
        TabularPrior(space, sparse),
    ]
    pairs = []
    for i, pa in enumerate(priors):
        for pb in (priors[(i + 1) % len(priors)], priors[(i + 5) % len(priors)], pa):
            k = int(rng.integers(d, k_max + 1))
            pairs.append((pa, pb, tuple(int(x) for x in rng.integers(1, m + 1, size=k))))
    pairs += [(priors[0], priors[7], (m,) * k_max), (priors[9], priors[8], (1,) * d)]  # repeated anchors
    got = verify_lemma_pairs(pairs, dist, k_max)
    assert repr(got) == repr(lemma_pair_rows(pairs, dist, k_max, d))
    assert len(got) == len(pairs) * (k_max + 1 + 2**d)
    assert verify_lemma_pairs([], dist, k_max) == []


def oracle_lemma_rows(config: dict, seed: int) -> list[tuple]:
    """Oracle: the lemmas rows one pair at a time, drawing each pair's
    priors and anchors and checking them before the next pair's draws."""
    m, d, k_max = config["m"], config["d"], config["k_max"]
    space, dist, rng = enumerate_concepts(m, d), uniform_distribution(m), stream(seed, 1)
    rows = []
    for _ in range(config["pairs"]):
        pa, pb = random_prior(space, rng), random_prior(space, rng)
        k = int(rng.integers(d, k_max + 1))
        anchors = tuple(int(x) for x in rng.integers(1, m + 1, size=k))
        rows += lemma_pair_rows([(pa, pb, anchors)], dist, k_max, d)
    return rows + [r.csv_row() for r in check_sauer(space)]


def oracle_lemmas(config: dict, seed: int, outdir: Path) -> None:
    """Oracle: the lemmas run of `oracle_lemma_rows`."""
    rows = oracle_lemma_rows(config, seed)
    outdir.mkdir()
    write_csv(outdir / "lemmas.csv", CHECK_HEADER, transpose(rows, len(CHECK_HEADER)))
    n_fail = sum(1 for r in rows if not r[-1])
    (outdir / "summary.txt").write_text(f"rows={len(rows)}\nviolations={n_fail}\nall_pass={n_fail == 0}\n")


@pytest.mark.parametrize(
    "text, seed",
    [
        (None, 0),
        (None, 109),
        # 18 pairs to a block at m=3, k_max=3, and 64 at m=4, k_max=2
        ("m = 3\nd = 2\nk_max = 3\npairs = 40\n", 2),
        ("m = 4\nd = 2\nk_max = 2\npairs = 70\n", 3),
        ("m = 3\nd = 2\nk_max = 3\npairs = 0\n", 4),
    ],
)
def test_lemmas_csv_is_the_per_pair_loop_byte_for_byte(tmp_path, text, seed):
    path = CONFIGS / "lemmas.cfg" if text is None else tmp_path / "lemmas.cfg"
    if text is not None:
        path.write_text(text)
    assert dispatch("lemmas", path, seed, tmp_path / "out") == 0
    oracle_lemmas(parse_config(path, "lemmas"), seed, tmp_path / "oracle")
    for name in ("lemmas.csv", "summary.txt"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes(), name


def test_numpy_columns_write_the_list_column_bytes(tmp_path):
    # `transpose` gives `write_csv` numpy columns, which format each
    # distinct cell once; the bytes must be those of Python-list columns
    gammas = parse_config(CONFIGS / "coinbound.cfg", "coinbound")["gammas"]
    rng = np.random.default_rng(5)
    odd = [  # few distinct cells in the first five columns, many in the last
        (x, f, flag, text, n, float(v))
        for x, f, flag, text, n, v in zip(
            [-0.0, 0.0, float("nan"), -float("inf"), 1e-300] * 120,
            [float("nan"), -0.0, 0.1 + 0.2] * 200,
            [True, False, False] * 200,
            ["plain", "a,b", 'say "hi"', "line\nbreak", ""] * 120,
            [0, -7, 2**62, 3] * 150,
            rng.normal(size=600),
        )
    ]
    tables = {
        "coinbound": (ratelab.COIN_CSV_HEADER, ratelab.coin_bound_table(gammas, range(201))),
        "lemmas": (CHECK_HEADER, oracle_lemma_rows(parse_config(CONFIGS / "lemmas.cfg", "lemmas"), 0)),
        "odd": (("x", "f", "flag", "text", "n", "v"), odd),
        "empty": (("a", "b"), []),
    }
    for name, (header, rows) in tables.items():
        columns = transpose(rows, len(header))
        assert all(isinstance(c, np.ndarray) and c.dtype != object for c in columns), name
        write_csv(tmp_path / f"{name}-list.csv", header, list(zip(*rows)) or [()] * len(header))
        write_csv(tmp_path / f"{name}-numpy.csv", header, columns)
        assert (tmp_path / f"{name}-list.csv").read_bytes() == (tmp_path / f"{name}-numpy.csv").read_bytes(), name
    with pytest.raises(AssertionError):
        transpose([(1, 0.5), (2.0, 0.5)], 2)  # an int and a float in one column


def compensated_sum(iterable, start=0):
    """The builtin sum as CPython 3.12 takes it over floats, with
    Neumaier's compensation; any other terms go to the builtin."""
    terms = list(iterable)
    if not terms or type(start) not in (int, float) or any(type(v) is not float for v in terms):
        return builtins.sum(terms, start)
    total, low = float(start), 0.0
    for v in terms:
        t = total + v
        low += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + low if low and math.isfinite(low) else total


@pytest.mark.parametrize("sub", ["lemmas", "lowerbound"])
def test_csv_bytes_do_not_depend_on_a_compensated_sum(tmp_path, monkeypatch, sub):
    # CPython 3.12 made sum() compensated; the CSVs must not change with it
    assert compensated_sum([0.1] * 10) == 1.0 != builtins.sum([0.1] * 10)
    assert dispatch(sub, CONFIGS / f"{sub}.cfg", 0, tmp_path / "plain") == 0
    for module in (outcomes, ratelab):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert dispatch(sub, CONFIGS / f"{sub}.cfg", 0, tmp_path / "compensated") == 0
    names = sorted(p.name for p in (tmp_path / "plain").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "compensated").glob("*.csv")) and names
    for name in names:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "compensated" / name).read_bytes(), name


def read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SMALL = "m_max = 5\nd_max = 2\nL_list = 0.5,1.0\nalpha_list = 0.5,1.0\nsigns_per_instance = 3\n"


def test_smoothness_passes_without_a_planted_defect(tmp_path):
    assert dispatch("smoothness", smoothness_config(tmp_path, SMALL), 0, tmp_path / "out") == 0
    assert "all_pass=True" in (tmp_path / "out" / "summary.txt").read_text()


def test_smoothness_fails_a_mass_off_by_1e9(tmp_path, monkeypatch):
    real = cli.smooth_prior

    def off(params, space, exact=False):
        masses = real(params, space, exact)
        masses[:, 0] += 1e-9
        return masses

    monkeypatch.setattr(cli, "smooth_prior", off)
    assert dispatch("smoothness", smoothness_config(tmp_path, SMALL), 0, tmp_path / "out") == 0
    rows = read_table(tmp_path / "out" / "smoothness.csv")
    assert all(float(r["mass_gap"]) > 1e-12 and r["pass"] == "false" for r in rows)
    assert "all_pass=False" in (tmp_path / "out" / "summary.txt").read_text()


def test_smoothness_fails_a_halved_holder_constant(tmp_path, monkeypatch):
    real = cli.holder_check
    monkeypatch.setattr(cli, "holder_check", lambda p, r, L, alpha, dist: real(p, r, L / 2, alpha, dist))
    assert dispatch("smoothness", smoothness_config(tmp_path, SMALL), 0, tmp_path / "out") == 0
    rows = read_table(tmp_path / "out" / "smoothness.csv")
    failed = [r for r in rows if r["holder_ok"] == "false"]
    assert failed and all(r["pass"] == "false" for r in failed)


def test_coinbound_fails_a_floor_times_100(tmp_path, monkeypatch):
    real = ratelab.coin_floor
    monkeypatch.setattr(ratelab, "coin_floor", lambda gamma, n: 100 * real(gamma, n))
    assert dispatch("coinbound", CONFIGS / "coinbound.cfg", 0, tmp_path / "out") == 0
    rows = read_table(tmp_path / "out" / "coinbound.csv")
    assert any(r["pass"] == "false" for r in rows)
    assert "all_pass=False" in (tmp_path / "out" / "summary.txt").read_text()


def smoothness_peak(tmp_path: Path, signs: int) -> int:
    text = (CONFIGS / "smoothness.cfg").read_text().replace(
        "signs_per_instance = 4", f"signs_per_instance = {signs}"
    )
    path = smoothness_config(tmp_path, text)
    assert f"signs_per_instance = {signs}" in path.read_text()
    tracemalloc.start()
    try:
        assert dispatch("smoothness", path, 0, tmp_path / f"out{signs}") == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smoothness_memory_does_not_grow_with_the_sign_vectors(tmp_path):
    smoothness_peak(tmp_path, 4)  # fill the per-space caches first
    assert smoothness_peak(tmp_path, 64) <= 2 * smoothness_peak(tmp_path, 4)
