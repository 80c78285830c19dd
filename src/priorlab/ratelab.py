"""Monte Carlo rate experiments: worst-case risk vs number of tasks, the
sign-reduction lower-bound testbed, the exact coin-bound table, and
log-log rate fitting.

Work is decomposed into independent cells keyed by (seed, T index, truth
index); each replicate of a cell draws its randomness from its own stream,
so results are identical regardless of worker count, and rows are reduced
in cell order so output files are byte-stable for a fixed config.

A cell runs its replicates in lock-step, a block at a time
(`sampling.joint_blocks`): their streams are seeded at once, every task
of the block is decoded from the streams' words into one joint index
(concept branch, point digits), and each replicate's tasks are counted
with one `bincount` over the joint cells.  The cell reads what it needs
through tables of one entry per joint cell (`_mapped`): the support
point of each cell's outcome, its concept for the direct baseline, and
whether it is an N_i event for the lower bound.  A block's counts are
then scored in one pass.
"""

from __future__ import annotations

import csv
import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, exp

import numpy as np

from .concepts import DataDistribution, d_subsets, enumerate_concepts, uniform_distribution
from .errors import BudgetError
from .estimators import (
    DirectEstimator,
    SkeletonEstimator,
    _as_fraction,
    check_yatracos_budget,
    coin_floor,
    exact_bayes_error,  # noqa: F401  (perfbench/spans.py wraps it here)
    exact_bayes_errors,
    reduce_to_signs,
)
from .outcomes import DEFAULT_BUDGET
from .priors import (
    CoverFamily,
    PARITY_RULE,
    SmoothPriorParams,
    point_mass,
    parity_family,
    parity_family_size,
    parity_gamma,
    tv_matrix,
)
from .sampling import (
    Tasks,
    joint_blocks,
    keyed_streams,
    sample_arrays,  # noqa: F401  (perfbench/spans.py wraps it here)
    stream,
    task_layout,
    task_words,
)

# One Monte Carlo replicate of an experiment (the rates and lowerbound CSV
# schema), and the per-replicate records the three cell runners return.
RateRow = namedtuple(
    "RateRow", "experiment m d L alpha k T replicate truth_id selected_id tv_error"
)
EstimationRow = namedtuple("EstimationRow", "replicate T selected tv_to_truth max_yatracos_dev")
BaselineRow = namedtuple("BaselineRow", RateRow._fields + ("direct_id", "direct_tv_error"))
UpperRow = namedtuple("UpperRow", "rate report")
LowerRow = namedtuple("LowerRow", "rate n_events")

RATE_CSV_HEADER = RateRow._fields
ESTIMATION_CSV_HEADER = EstimationRow._fields
BASELINE_CSV_HEADER = BaselineRow._fields
COIN_CSV_HEADER = ("gamma", "n", "bayes_error", "floor", "pass")

# stream purposes (spawn keys) so no two draws share a stream
_TRUTH_PICK = 90
_UPPER = 91
_LOWER = 92
_BASELINE = 93


def theory_upper_exponent(d: int, alpha: float) -> float:
    return alpha**2 / (2 * (d + 2 * alpha) * (alpha + 2 * (d + 1)))


def theory_lower_exponent(d: int, alpha: float) -> float:
    return alpha / (2 * (d + alpha))


@dataclass(frozen=True)
class ExperimentConfig:
    m: int = 3
    d: int = 2
    L: float = 1.0
    alpha: float = 1.0
    family: str = "parity"  # or "twopoint"
    T_grid: tuple[int, ...] = (100, 1000)
    replicates: int = 100
    seed: int = 0
    k: int | None = None  # samples per task; defaults to d
    truth_count: int | None = None  # parity family only: sampled truths; defaults to 8
    twopoint_weight: float | None = None  # twopoint family only; defaults to 0.05

    def __post_init__(self):
        if self.family not in ("parity", "twopoint"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "parity" and self.twopoint_weight is not None:
            raise ValueError("'twopoint_weight' is read only by family = twopoint, not parity")
        if self.family == "twopoint" and self.truth_count is not None:
            raise ValueError("'truth_count' is read only by family = parity, not twopoint")
        if self.family == "twopoint" and self.twopoint_weight is None:
            object.__setattr__(self, "twopoint_weight", 0.05)
        if self.family == "parity" and self.truth_count is None:
            object.__setattr__(self, "truth_count", 8)
        if self.family == "twopoint" and self.m < 3:
            # the two point masses sit on points 1 and 2, the rest of D on 3..m
            raise ValueError(f"the twopoint family needs m >= 3, got m={self.m}")
        if self.family == "parity" and parity_gamma(self.L, self.alpha, self.m) is None:
            raise ValueError(f"'L' = {self.L}, 'alpha' = {self.alpha} at m = {self.m}: {PARITY_RULE}")
        if self.family == "twopoint" and not 0 <= self.twopoint_weight <= 0.5:
            # the two point masses weigh w each, the other m - 2 points share 1 - 2w
            raise ValueError(f"'twopoint_weight' must lie in [0, 1/2], got {self.twopoint_weight!r}")
        if not self.T_grid or self.T_grid[0] < 1 or list(self.T_grid) != sorted(set(self.T_grid)):
            raise ValueError(f"'T_grid' must be strictly increasing with T >= 1, got {self.T_grid}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.truth_count is not None and self.truth_count < 0:
            raise ValueError(f"'truth_count' must be >= 0, got {self.truth_count}")
        if self.truth_count is not None and self.truth_count > DEFAULT_BUDGET:
            # build_setup draws truth_count indices at once
            raise BudgetError(f"'truth_count' = {self.truth_count} exceeds the budget of {DEFAULT_BUDGET}")
        if self.k is not None and self.k < self.d:
            raise ValueError("k must be at least d")
        codes = (2 * self.m) ** self.samples_per_task
        if codes > DEFAULT_BUDGET:
            raise BudgetError(f"'k': (2m)^k = {codes} exceeds the budget of {DEFAULT_BUDGET}")

    @property
    def samples_per_task(self) -> int:
        return self.k if self.k is not None else self.d

    def check_budget(self, baseline_T: int | None = None) -> None:
        """BudgetError when the family or its selection tables exceed their
        budgets, or when a replicate at some T of `T_grid` (or at
        `baseline_T`) would draw more words than the budget, before
        anything is built (the baseline's concept space is never larger
        than the outcome support)."""
        members = 2 if self.family == "twopoint" else parity_family_size(self.m, self.d)
        check_yatracos_budget(members, self.outcome_support_size())
        for key, T in (("T_grid", self.T_grid[-1]), ("baseline_T", baseline_T)):
            if T is not None and self.replicate_words(T) > DEFAULT_BUDGET:
                raise BudgetError(
                    f"'{key}': a replicate of T = {T} tasks draws {self.replicate_words(T)} words,"
                    f" over the budget of {DEFAULT_BUDGET}"
                )

    def replicate_words(self, T: int) -> int:
        """The words one replicate of T tasks reads at most: the parity
        family's lower-bound cell draws its C(m, d) signs first."""
        if self.family == "twopoint":
            return task_words(T, self.samples_per_task, None)
        n_sub = comb(self.m, self.d)
        return task_words(T, self.samples_per_task, (n_sub, 1 << (self.d - 1)), n_sub)

    def outcome_support_size(self) -> int:
        """The outcomes (k-tuple, labels) the family's members can draw.
        A parity member weighs every concept, so a tuple of r distinct
        points takes every labelling with at most d positives; the two
        point masses label a tuple apart exactly when it holds point 1 or 2."""
        m, d, k = self.m, self.d, self.samples_per_task
        if self.family == "twopoint":
            return 2 * m**k - (m - 2) ** k
        # C(m, r) point sets, each filled by the k draws in onto(k, r) ways
        onto = [sum((-1) ** i * comb(r, i) * (r - i) ** k for i in range(r + 1)) for r in range(k + 1)]
        return sum(
            comb(m, r) * onto[r] * sum(comb(r, j) for j in range(min(d, r) + 1))
            for r in range(1, min(m, k) + 1)
        )

    def key(self) -> tuple:
        return (
            self.m, self.d, self.L, self.alpha, self.family, self.seed,
            self.samples_per_task, self.truth_count, self.twopoint_weight,
        )


@dataclass
class Setup:
    space: object
    dist: DataDistribution
    members: list
    params_list: list | None
    estimator: SkeletonEstimator
    truth_ids: list[int]
    tv_matrix: np.ndarray

    @cached_property
    def direct(self) -> DirectEstimator:
        """The baseline's estimator on the same cover, built on first use."""
        return DirectEstimator(self.estimator.cover)


_SETUP_CACHE: dict[tuple, Setup] = {}


def build_setup(config: ExperimentConfig) -> Setup:
    cached = _SETUP_CACHE.get(config.key())
    if cached is not None:
        return cached
    space = enumerate_concepts(config.m, config.d)
    if config.family == "parity":
        dist = uniform_distribution(config.m)
        params_list, members = parity_family(space, config.L, config.alpha)
        # sampled truths plus the two extreme sign vectors
        rng = stream(config.seed, _TRUTH_PICK)
        picks = set(int(i) for i in rng.integers(0, len(members), size=config.truth_count))
        picks.add(0)
        picks.add(len(members) - 1)
        truth_ids = sorted(picks)
    else:
        w = config.twopoint_weight
        rest = (1.0 - 2 * w) / (config.m - 2)
        dist = DataDistribution((w, w) + (rest,) * (config.m - 2))
        members = [point_mass(space, 0b01), point_mass(space, 0b10)]
        params_list = None
        truth_ids = [0, 1]
    # members are TV-distinct by construction, so every one is kept and
    # truth ids index params_list and the cover alike
    cover = CoverFamily(members, 0.0)
    est = SkeletonEstimator(cover, dist, config.samples_per_task)
    tvm = tv_matrix(np.stack([p.mass for p in cover.members]))
    setup = Setup(space, dist, members, params_list, est, truth_ids, tvm)
    _SETUP_CACHE[config.key()] = setup
    return setup


def counts_from_arrays_fast(est: SkeletonEstimator, m: int, tasks: Tasks):
    """Support counts of sampled tasks over m points, read from their
    outcome codes (the sampler draws only valid points and labels)."""
    if m != est.dist.m or tasks.m != m:
        raise ValueError(f"tasks over {tasks.m} points (m={m}), estimator built for {est.dist.m}")
    if tasks.k != est.d:
        raise ValueError(f"tasks of {tasks.k} points, estimator expects {est.d}")
    return est.count_codes(tasks.codes)


def _source(setup: Setup, truth_id: int):
    if setup.params_list is not None:
        return setup.params_list[truth_id]
    return setup.members[truth_id]


def _streams(config: ExperimentConfig, *coords: int):
    """Each replicate's stream, `stream(config.seed, *coords, rep)`,
    seeded in bulk (`keyed_streams`)."""
    return keyed_streams(config.seed, [(*coords, rep) for rep in range(config.replicates)])


def _joint_blocks(config: ExperimentConfig, layout, source, T: int, *coords: int, signs: int = 0):
    """`joint_blocks` of the replicates' streams at `coords`."""
    return joint_blocks(
        _streams(config, *coords), lambda rep: stream(config.seed, *coords, rep), source, layout, T, signs
    )


def _mapped(joint_counts: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """Each row of (rows, cells) joint counts summed into `size` bins,
    cell c into bin index[c] (index[c] = size drops it), as int64: one
    weighted bincount for the block, row r into bins r (size + 1) on."""
    rows = len(joint_counts)
    bins = index + np.arange(0, rows * (size + 1), size + 1)[:, None]
    counts = np.bincount(bins.ravel(), weights=joint_counts.ravel(), minlength=rows * (size + 1))
    return counts.reshape(rows, size + 1)[:, :size].astype(np.int64)


def _upper_cell(payload) -> list[UpperRow]:
    config_dict, T, T_idx, truth_id = payload
    config = ExperimentConfig(**config_dict)
    setup = build_setup(config)
    source = _source(setup, truth_id)
    est = setup.estimator
    k = config.samples_per_task
    truth_masses = est._md.truth_masses(est.truth_vector(est.outcome_dists[truth_id]))
    layout = task_layout(source, setup.space, setup.dist, k)
    support = est.support_index(layout.cells.codes)
    rows = []
    for first, joint_counts, _ in _joint_blocks(config, layout, source, T, _UPPER, T_idx, truth_id):
        counts = _mapped(joint_counts, support, len(est.support))
        selected = est.select_rows(counts, T)
        devs = est._md.deviation_rows(counts, T, truth_masses)
        for rep, sel, dev in zip(itertools.count(first), selected.tolist(), devs.tolist()):
            err = float(setup.tv_matrix[truth_id, sel])
            rows.append(UpperRow(
                RateRow("rates", config.m, config.d, config.L, config.alpha, k, T,
                        rep, truth_id, sel, err),
                EstimationRow(rep, T, sel, err, dev),
            ))
    return rows


def _pmap(fn, payloads, workers: int):
    if workers <= 1:
        return [fn(p) for p in payloads]
    import concurrent.futures  # only a pool needs it; its import is not free

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, payloads))


@dataclass
class RateCurve:
    """Worst-case risk curve with the two theoretical rate exponents attached."""

    points: list[tuple[int, float, float]]  # (T, mean risk, std error)
    pooled_points: list[tuple[int, float, float]]  # truth-averaged variant
    theory_upper_exponent: float
    theory_lower_exponent: float
    fitted_slope: float | None = None
    fit_r2: float | None = None


@dataclass
class UpperResult:
    curve: RateCurve
    rows: list[RateRow]
    report_rows: list[EstimationRow]


def run_upper_experiment(config: ExperimentConfig, workers: int = 1) -> UpperResult:
    """Risk of the skeleton selection vs T.

    For each T: per-truth replicate means; the curve's risk is the max of
    those means over the truth set (worst case over a sampled parameter
    set), and a pooled (truth-averaged) variant rides along.
    """
    setup = build_setup(config)
    payloads = [
        (config.__dict__, T, T_idx, truth_id)
        for T_idx, T in enumerate(config.T_grid)
        for truth_id in setup.truth_ids
    ]
    cells = list(itertools.chain.from_iterable(_pmap(_upper_cell, payloads, workers)))
    rows = [c.rate for c in cells]
    points, pooled = [], []
    for T in config.T_grid:
        t_rows = [r for r in rows if r.T == T]
        per_truth = {}
        for r in t_rows:
            per_truth.setdefault(r.truth_id, []).append(r.tv_error)
        means = {tid: float(np.mean(v)) for tid, v in per_truth.items()}
        worst_tid = max(means, key=lambda tid: (means[tid], tid))
        errs = np.asarray(per_truth[worst_tid])
        points.append((T, float(errs.mean()), float(errs.std(ddof=1) / np.sqrt(len(errs)))))
        pool = np.asarray([r.tv_error for r in t_rows])
        pooled.append((T, float(pool.mean()), float(pool.std(ddof=1) / np.sqrt(len(pool)))))
    curve = RateCurve(
        points,
        pooled,
        theory_upper_exponent(config.d, config.alpha),
        theory_lower_exponent(config.d, config.alpha),
    )
    try:
        fit = fit_rate_exponent(curve)
        curve.fitted_slope, curve.fit_r2 = fit.slope, fit.r2
    except ValueError:
        pass  # degenerate curves (zero risk) stay unfitted
    return UpperResult(curve, rows, [c.report for c in cells])


@dataclass
class FitResult:
    slope: float
    intercept: float
    r2: float
    n_used: int


def fit_rate_exponent(curve: RateCurve) -> FitResult:
    """Least-squares slope of log(mean risk) on log T; needs >= 3 positive
    mean-risk grid points."""
    pts = [(T, mean) for T, mean, _ in curve.points if mean > 0]
    if len(pts) < 3:
        raise ValueError(f"need >= 3 positive-risk points, have {len(pts)}")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float(res[0]) if len(res) else float(((A @ [slope, intercept] - y) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(float(slope), float(intercept), r2, len(pts))


def lower_bound_floor(config: ExperimentConfig, T: int) -> float:
    """(gamma_m / (32 * 2^d)) * exp(-43 (2/L)^(2d/a) d^(2d) gamma_m^(2+2d/a) T)."""
    d, L, alpha = config.d, config.L, config.alpha
    gamma = parity_gamma(L, alpha, config.m)
    expo = -43.0 * (2.0 / L) ** (2 * d / alpha) * d ** (2 * d) * gamma ** (2 + 2 * d / alpha) * T
    return gamma / (32.0 * 2**d) * exp(expo)


@dataclass
class LowerResult:
    rows: list[RateRow]
    per_T: dict[int, dict]  # T -> {mean, se, floor, pass, ...}
    ni_expected_per_task: float
    ni_mean: float
    ni_sigma: float
    ni_within_3sigma: bool


def _lower_cell(payload) -> list[LowerRow]:
    config_dict, T, T_idx = payload
    config = ExperimentConfig(**config_dict)
    setup = build_setup(config)
    est, template = setup.estimator, setup.params_list[0]
    n_signs = comb(config.m, config.d)
    gamma = template.gamma_m
    scale = Fraction(1, 2 ** config.d * comb(config.m, config.d))
    layout = task_layout(template, setup.space, setup.dist, config.d)
    cells = layout.cells
    support = est.support_index(cells.codes)
    # N_i: tasks whose subset index is i AND whose d draws cover X_i
    x_masks = np.bitwise_or.reduce(1 << (cells.xs - 1), axis=1)
    events = (x_masks == np.asarray(d_subsets(config.m, config.d))[cells.trace[0]]).astype(np.int64)
    rows = []
    for first, joint_counts, bits in _joint_blocks(config, layout, template, T, _LOWER, T_idx, signs=n_signs):
        selected = est.select_rows(_mapped(joint_counts, support, len(est.support)), T)
        block_events = joint_counts @ events
        for rep, sel, signs, n_events in zip(
            itertools.count(first), selected.tolist(), bits.tolist(), block_events.tolist()
        ):
            b = tuple(1 if v else -1 for v in signs)
            params = SmoothPriorParams(b, config.L, config.alpha, config.m, config.d)
            truth_id = sum((1 if s > 0 else 0) << (n_signs - 1 - i) for i, s in enumerate(b))
            red = reduce_to_signs(est.cover.members[sel], params)
            p_true = [(1.0 + gamma * s) / 2.0 for s in b]
            err = 0.5 * float(scale) * sum(
                abs(ph - pt) for ph, pt in zip(red.p_hat, p_true)
            )
            rows.append(LowerRow(
                RateRow("lowerbound", config.m, config.d, config.L, config.alpha, config.d,
                        T, rep, truth_id, sel, err),
                n_events,
            ))
    return rows


def run_lower_experiment(config: ExperimentConfig, workers: int = 1) -> LowerResult:
    """Uniform-over-b average of the sign-reduction error, against the theoretical
    floor, plus the N_i event-count calibration."""
    if config.family != "parity":
        raise ValueError("the lower-bound testbed runs on the parity family")
    if config.samples_per_task != config.d:
        raise ValueError("the lower-bound testbed draws k = d samples per task")
    payloads = [(config.__dict__, T, T_idx) for T_idx, T in enumerate(config.T_grid)]
    cells = list(itertools.chain.from_iterable(_pmap(_lower_cell, payloads, workers)))
    rows = [c.rate for c in cells]
    per_T = {}
    d = config.d
    for T in config.T_grid:
        errs = np.asarray([r.tv_error for r in rows if r.T == T])
        mean, se = float(errs.mean()), float(errs.std(ddof=1) / np.sqrt(len(errs)))
        floor = lower_bound_floor(config, T)
        per_T[T] = {
            "mean": mean,
            "se": se,
            "floor": floor,
            # one-sided 95% lower confidence bound sits above the floor
            "pass": mean - 1.645 * se > floor,
        }
    # N_i calibration: a task lands in N_i when i* = i and its d draws cover
    # X_i, so summing the counts over i gives Bernoulli(C(m,d) * q) tasks.
    q = 1.0
    for j in range(d):
        q *= (d - j) / config.m
    n_subs = comb(config.m, d)
    q /= n_subs
    total_events = sum(c.n_events for c in cells)
    total_tasks = sum(r.T for r in rows)
    ni_mean = total_events / total_tasks / n_subs
    p_task = q * n_subs
    ni_sigma = float(np.sqrt(p_task * (1 - p_task) / total_tasks) / n_subs)
    return LowerResult(
        rows,
        per_T,
        q,
        ni_mean,
        ni_sigma,
        abs(ni_mean - q) <= 3 * ni_sigma,
    )


@dataclass
class BaselineResult:
    rows: list[BaselineRow]
    skeleton_mean: float
    direct_mean: float
    diff_se: float

    @property
    def ordered(self) -> bool:
        """Direct access is statistically easier: its risk should not exceed
        the skeleton's by more than two standard errors of the difference."""
        return self.direct_mean <= self.skeleton_mean + 2 * self.diff_se


def _baseline_cell(payload) -> list[BaselineRow]:
    config_dict, T, T_idx, truth_id = payload
    config = ExperimentConfig(**config_dict)
    setup = build_setup(config)
    source = _source(setup, truth_id)
    direct = setup.direct  # built before any replicate's words exist
    est, n_concepts = setup.estimator, len(setup.space)
    layout = task_layout(source, setup.space, setup.dist, config.samples_per_task)
    support, concepts = est.support_index(layout.cells.codes), layout.cells.concepts
    rows = []
    for first, joint_counts, _ in _joint_blocks(config, layout, source, T, _BASELINE, T_idx, truth_id):
        sk_sel = est.select_rows(_mapped(joint_counts, support, len(est.support)), T)
        di_sel = direct.select_rows(_mapped(joint_counts, concepts, n_concepts), T)
        for rep, sk, di in zip(itertools.count(first), sk_sel.tolist(), di_sel.tolist()):
            rows.append(BaselineRow(
                "baseline", config.m, config.d, config.L, config.alpha,
                config.samples_per_task, T, rep, truth_id,
                sk, float(setup.tv_matrix[truth_id, sk]),
                di, float(setup.tv_matrix[truth_id, di]),
            ))
    return rows


def run_baseline_comparison(config: ExperimentConfig, T: int, workers: int = 1) -> BaselineResult:
    """Paired skeleton-vs-direct risks on identical task draws at one T."""
    setup = build_setup(config)
    payloads = [(config.__dict__, T, 0, tid) for tid in setup.truth_ids]
    rows = list(itertools.chain.from_iterable(_pmap(_baseline_cell, payloads, workers)))
    sk = np.asarray([r.tv_error for r in rows])
    di = np.asarray([r.direct_tv_error for r in rows])
    diff = di - sk
    return BaselineResult(
        rows,
        float(sk.mean()),
        float(di.mean()),
        float(diff.std(ddof=1) / np.sqrt(len(diff))),
    )


def coin_bound_table(gammas, ns) -> list[tuple]:
    """Rows (gamma, n, exact Bayes error, floor, pass) over the grid, in
    the order of `gammas` and then `ns` (which may skip, repeat or
    descend); one `exact_bayes_errors` pass per gamma up to max(ns).

    gamma = 1/2 is allowed: the two-point problem and its floor are still
    well defined there, and the acceptance grid ends at 1/2."""
    ns = [int(n) for n in ns]
    if any(n < 0 for n in ns):
        raise ValueError("n must be >= 0")
    rows = []
    for gamma in gammas:
        g = _as_fraction(gamma)
        if not 0 < g <= Fraction(1, 2):
            raise ValueError(f"gamma {gamma} outside (0, 1/2]")
        errors = exact_bayes_errors(g, max(ns, default=0))
        for n in ns:
            err = float(errors[n])
            floor = coin_floor(float(g), n)
            rows.append((float(g), n, err, floor, err >= floor))
    return rows


def format_cell(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()  # a numpy scalar is written as its Python value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


CSV_BLOCK_ROWS = 256  # rows formatted at a time: a block's strings fit in freed memory
# cells of these exact types need no formatting: the csv writer writes str(v),
# which is format_cell(v) for them (str(float) is its repr)
_PLAIN = frozenset((int, float, str))


def _cells(column) -> list:
    """A slice of a column as the cells the csv writer takes: a numpy
    column of numbers or strings through one `tolist`, and a column of
    any other kind, or of mixed types, through `format_cell`."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iufU":
        return column.tolist()
    cells = column.tolist() if isinstance(column, np.ndarray) else column
    return cells if set(map(type, cells)) <= _PLAIN else list(map(format_cell, cells))


def write_csv(path, header, columns) -> None:
    """Write the header and the table whose columns, one sequence (array
    or list) per header field, are `columns`, every cell as `format_cell`
    gives it, a block of rows at a time."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            w.writerows(zip(*[_cells(c[block]) for c in columns]))


def transpose(rows, width: int) -> list:
    """The `width` columns of a table given as rows."""
    return list(zip(*rows)) if rows else [()] * width
