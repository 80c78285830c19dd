"""Monte Carlo rate experiments: worst-case risk vs number of tasks, the
sign-reduction lower-bound testbed, the exact coin-bound table, and
log-log rate fitting.

Work is decomposed into independent cells keyed by (seed, T index, truth
index); each replicate of a cell draws its randomness from its own stream,
so results are identical regardless of worker count, and cells are joined
in order so output files are byte-stable for a fixed config.

One runner, `_cell`, runs a cell's replicates in lock-step, a block at a
time (`sampling.joint_blocks`): their streams are seeded at once, every
task of the block is decoded from the streams' words into one joint
index (concept branch, point digits), each replicate's tasks are counted
with one `bincount` over the joint cells, and the block's support counts
are scored in one pass (an upper cell takes their empirical masses once,
for its selection and for the deviation from the truth).  The upper,
baseline and lower-bound cells read their own column off each block
through tables of one entry per joint cell (`_mapped`): the concept for
the direct baseline, and whether it is an N_i event for the lower bound.
Each run keeps its table as columns.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, exp

import numpy as np

from .concepts import DataDistribution, concept_count, d_subsets, enumerate_concepts, uniform_distribution
from .errors import BYTE_BUDGET, Array, Work, capped_power, check_plan
from .estimators import (
    DirectEstimator,
    SkeletonEstimator,
    _as_fraction,
    _bayes_error_ratios,
    coin_floor,
    exact_bayes_error,  # noqa: F401  (perfbench/spans.py wraps it here)
    min_distance_plan,
    reduce_to_signs,
)
from .outcomes import law_plan, realizable_outcomes
from .priors import (
    CoverFamily,
    PARITY_RULE,
    SmoothPriorParams,
    point_mass,
    parity_family,
    parity_gamma,
    parity_plan,
    tv_matrix,
)
from .sampling import (
    _BLOCK,
    Tasks,
    joint_blocks,
    keyed_words,
    sample_arrays,  # noqa: F401  (perfbench/spans.py wraps it here)
    stream,
    task_layout,
    task_words,
)

# The rates and lowerbound CSV schema, and the baseline and estimation
# tables: a run keeps each table as one record whose values are its columns.
RateRow = namedtuple(
    "RateRow", "experiment m d L alpha k T replicate truth_id selected_id tv_error"
)
EstimationRow = namedtuple("EstimationRow", "replicate T selected tv_to_truth max_yatracos_dev")
BaselineRow = namedtuple("BaselineRow", RateRow._fields + ("direct_id", "direct_tv_error"))

RATE_CSV_HEADER = RateRow._fields
ESTIMATION_CSV_HEADER = EstimationRow._fields
BASELINE_CSV_HEADER = BaselineRow._fields
COIN_CSV_HEADER = ("gamma", "n", "bayes_error", "floor", "pass")

# stream purposes (spawn keys) so no two draws share a stream
_TRUTH_PICK = 90
TRUTH_CHUNK = 1 << 16  # truth picks drawn at a time
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
        if self.k is not None and self.k < self.d:
            raise ValueError("k must be at least d")

    @property
    def samples_per_task(self) -> int:
        return self.k if self.k is not None else self.d

    def setup_plan(self) -> list:
        """What `build_setup` holds: the family, its truth picks, and the
        skeleton's and the baseline's laws and selection tables."""
        m, d, k = self.m, self.d, self.samples_per_task
        members = 2 if self.family == "twopoint" else capped_power(2, comb(m, d))
        key = "k" if self.family == "twopoint" else "m"
        return [
            *(parity_plan(m, d) if self.family == "parity" else []),
            Work("truth picks", self.truth_count or 0, "truth_count"),
            *law_plan(m, concept_count(m, d), k, members),
            *min_distance_plan(members, self.outcome_support_size(), key),
            *min_distance_plan(members, concept_count(m, d), key),
        ]

    def cell_plan(self, T: int, key: str, signs: int = 0) -> list:
        """What a cell of T tasks a replicate, each opening with `signs`
        sign draws, holds at once (`_cell` and `joint_blocks`)."""
        k, n_sub = self.samples_per_task, comb(self.m, self.d)
        ranges = None if self.family == "twopoint" else (n_sub, 1 << (self.d - 1))
        words = task_words(T, k, ranges, signs)
        size = (2 if ranges is None else n_sub << self.d) * capped_power(self.m, k)  # the layout's cells
        run = max(1, min(_BLOCK // words, _BLOCK // size))  # replicates decoded at once
        return [
            Work("words read by one replicate", words, key),
            Array("layout cells", (size, 8 + k), "int64", key),
            Array("a run of replicates' words and decoded draws", (run, words + T * (3 + k)), "int64", key),
            Array("a block's joint counts", (4, max(size, _BLOCK)), "int64", key),
        ]

    def plan(self, experiment: str = "rates", baseline_T: int | None = None) -> list:
        """A rates or lowerbound run's plan: `setup_plan`, its largest
        cell's (a parity cell reads at most the words of C(m, d) signs
        first), and its tables with the columns they are joined from: 30
        entries per (T, replicate), or 16 per (T or baseline, truth,
        replicate) over at most truth_count + 2 truths."""
        signs = comb(self.m, self.d) if self.family == "parity" else 0
        T, key = max((self.T_grid[-1], "T_grid"), (baseline_T or 0, "baseline_T"))
        rows, width = len(self.T_grid) * self.replicates, 30
        if experiment == "rates":
            members = 2 if self.family == "twopoint" else capped_power(2, comb(self.m, self.d))
            rows = min(members, (self.truth_count or 0) + 2) * self.replicates * (len(self.T_grid) + 1)
            width = 16
        table = Array(f"{experiment} tables", (rows, width), "float64", "replicates")
        return [*self.setup_plan(), *self.cell_plan(T, key, signs), table]

    def outcome_support_size(self) -> int:
        """The outcomes (k-tuple, labels) the family's members can draw: a
        parity member weighs every concept, and the two point masses label
        a tuple apart exactly when it holds point 1 or 2."""
        m, k = self.m, min(self.samples_per_task, BYTE_BUDGET.bit_length())
        if self.family == "twopoint":
            return 2 * m**k - (m - 2) ** k
        return realizable_outcomes(m, self.d, k)

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

    @cached_property
    def truth_masses(self) -> dict[int, np.ndarray]:
        """The skeleton's `truth_masses` of each truth, taken once per setup, not per cell."""
        md = self.estimator._md
        return dict(zip(self.truth_ids, md.truth_masses(md.M[self.truth_ids])))


_SETUP_CACHE: dict[tuple, Setup] = {}  # the last config's setup only


def build_setup(config: ExperimentConfig) -> Setup:
    cached = _SETUP_CACHE.get(config.key())
    if cached is not None:
        return cached
    _SETUP_CACHE.clear()
    check_plan(config.setup_plan())
    space = enumerate_concepts(config.m, config.d)
    if config.family == "parity":
        dist = uniform_distribution(config.m)
        params_list, members = parity_family(space, config.L, config.alpha)
        # sampled truths plus the two extreme sign vectors, drawn until every member is in: a
        # power-of-two count rejects no draw, so the chunks read the words of one whole draw
        rng, seen = stream(config.seed, _TRUTH_PICK), {0, len(members) - 1}
        for start in range(0, config.truth_count, TRUTH_CHUNK):
            picks = rng.integers(0, len(members), size=min(TRUTH_CHUNK, config.truth_count - start))
            seen.update(np.flatnonzero(np.bincount(picks, minlength=len(members))).tolist())
            if len(seen) == len(members):
                break
        truth_ids = sorted(seen)
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
    return (setup.params_list or setup.members)[truth_id]


def _mapped(joint_counts: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """Each row of (rows, cells) joint counts summed into `size` bins,
    cell c into bin index[c] (index[c] = size drops it), as int64: one
    weighted bincount for the block, row r into bins r (size + 1) on."""
    rows = len(joint_counts)
    bins = index + np.arange(0, rows * (size + 1), size + 1)[:, None]
    counts = np.bincount(bins.ravel(), weights=joint_counts.ravel(), minlength=rows * (size + 1))
    return counts.reshape(rows, size + 1)[:, :size].astype(np.int64)


def _cell(config: ExperimentConfig, source, T: int, key: tuple[int, ...], signs: int = 0):
    """The replicates of one cell, T tasks each from `source`, replicate
    rep drawing from `stream(config.seed, *key, rep)`: yields each
    `joint_blocks` block, replicates in order, as (joint counts, support
    counts, sign bits); each cell selects from the support counts itself,
    so that no block's empirical masses outlive its own selection."""
    check_plan(config.cell_plan(T, "T", signs))
    setup = build_setup(config)
    est = setup.estimator
    layout = task_layout(source, setup.space, setup.dist, config.samples_per_task)
    support = est.support_index(layout.cells.codes)
    reps = np.arange(config.replicates)
    keys = np.column_stack([np.full(len(reps), c) for c in key] + [reps])
    rows = keyed_words(config.seed, keys, task_words(T, layout.k, layout.ranges, signs))
    for joint_counts, bits in joint_blocks(
        rows, lambda rep: stream(config.seed, *key, rep), source, layout, T, signs
    ):
        yield joint_counts, _mapped(joint_counts, support, len(est.support)), bits


def _columns(parts) -> tuple[np.ndarray, ...]:
    """Tuples of arrays (a cell's blocks, or the cells of a run) joined
    column by column."""
    return tuple(np.concatenate(column) for column in zip(*parts))


def _upper_cell(payload) -> tuple[np.ndarray, np.ndarray]:
    """A cell's skeleton picks and their max Yatracos deviations from the
    truth's outcome law, both read off each block's one set of empirical
    masses."""
    config, T, T_idx, truth_id = payload
    setup = build_setup(config)
    md = setup.estimator._md
    truth_masses = setup.truth_masses[truth_id]

    def picked(counts):
        mu = md.empirical(counts, T)
        return md.select_masses(mu), md.deviation_rows(mu, truth_masses)

    blocks = _cell(config, _source(setup, truth_id), T, (_UPPER, T_idx, truth_id))
    return _columns(picked(counts) for _, counts, _ in blocks)


def _pmap(fn, payloads, workers: int):
    # a forking pool starts all its workers at the first submit, so it gets no more than the payloads
    workers = min(workers, len(payloads))
    if workers <= 1:
        return [fn(p) for p in payloads]
    import concurrent.futures  # only a pool needs it; its import is not free

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, payloads))


def _rate_table(experiment: str, config: ExperimentConfig, Ts, truths, picks, errors) -> RateRow:
    """A rate table, as columns, of cells of `config.replicates` replicates
    each, with each replicate's T, truth id, pick and error."""
    n = len(picks)
    fixed = (experiment, config.m, config.d, config.L, config.alpha, config.samples_per_task)
    replicate = np.tile(np.arange(config.replicates), n // config.replicates)
    return RateRow(*(np.full(n, v) for v in fixed), Ts, replicate, truths, picks, errors)


def _mean_se(errors: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a 1-d array of errors: kept 1-d, it is
    summed pairwise in row order whatever the shape of its table."""
    return float(errors.mean()), float(errors.std(ddof=1) / np.sqrt(len(errors)))


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
    table: RateRow
    report: EstimationRow


def run_upper_experiment(config: ExperimentConfig, workers: int = 1) -> UpperResult:
    """Risk of the skeleton selection vs T.

    For each T: per-truth replicate means; the curve's risk is the max of
    those means over the truth set (worst case over a sampled parameter
    set), and a pooled (truth-averaged) variant rides along.
    """
    setup = build_setup(config)
    payloads = [
        (config, T, T_idx, truth_id)
        for T_idx, T in enumerate(config.T_grid)
        for truth_id in setup.truth_ids
    ]
    picks, devs = _columns(_pmap(_upper_cell, payloads, workers))
    Ts = np.repeat(config.T_grid, len(setup.truth_ids) * config.replicates)
    truths = np.tile(np.repeat(setup.truth_ids, config.replicates), len(config.T_grid))
    errors = setup.tv_matrix[truths, picks]
    table = _rate_table("rates", config, Ts, truths, picks, errors)
    points, pooled = [], []
    # each T's errors, one contiguous row of replicates per truth
    for T, by_truth in zip(config.T_grid, errors.reshape(len(config.T_grid), len(setup.truth_ids), -1)):
        means = [float(e.mean()) for e in by_truth]
        worst = max(range(len(means)), key=lambda i: (means[i], i))
        points.append((T, *_mean_se(by_truth[worst])))
        pooled.append((T, *_mean_se(by_truth.ravel())))
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
    return UpperResult(curve, table, EstimationRow(table.replicate, table.T, picks, errors, devs))


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
    table: RateRow
    per_T: dict[int, dict]  # T -> {mean, se, floor, pass, ...}
    ni_expected_per_task: float
    ni_mean: float
    ni_sigma: float
    ni_within_3sigma: bool


def _lower_cell(payload) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A cell's skeleton picks, the truth id of each replicate's sign
    vector b (bit C(m, d) - 1 - i set when b_i = +1), and its N_i event
    count."""
    config, T, T_idx = payload
    setup = build_setup(config)
    template = setup.params_list[0]
    n_signs = len(template.b)
    cells = task_layout(template, setup.space, setup.dist, config.d).cells
    # N_i: tasks whose subset index is i AND whose d draws cover X_i
    x_masks = np.bitwise_or.reduce(1 << (cells.xs - 1), axis=1)
    events = (x_masks == np.asarray(d_subsets(config.m, config.d))[cells.trace[0]]).astype(np.int64)
    place = 1 << np.arange(n_signs - 1, -1, -1)
    est = setup.estimator
    blocks = _cell(config, template, T, (_LOWER, T_idx), signs=n_signs)
    return _columns((est.select_rows(counts, T), bits @ place, joint @ events) for joint, counts, bits in blocks)


def _sign_errors(config: ExperimentConfig, members, picks: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Each replicate's sign-reduction error: half the scaled L1 distance
    between the coin biases `reduce_to_signs` reads off its pick and
    those of its truth's signs, computed once per distinct (pick, truth)."""
    n_signs = comb(config.m, config.d)
    scale = float(Fraction(1, 2**config.d * n_signs))
    pairs, inverse = np.unique(picks << n_signs | truths, return_inverse=True)
    errors = []
    for pair in pairs.tolist():
        b = tuple(1 if pair >> (n_signs - 1 - i) & 1 else -1 for i in range(n_signs))
        params = SmoothPriorParams(b, config.L, config.alpha, config.m, config.d)
        red = reduce_to_signs(members[pair >> n_signs], params)
        p_true = [(1.0 + params.gamma_m * s) / 2.0 for s in b]
        # summed left to right by cumsum: the builtin sum is compensated from CPython 3.12
        errors.append(0.5 * scale * np.cumsum(np.abs(np.subtract(red.p_hat, p_true)))[-1])
    return np.array(errors)[inverse]


def run_lower_experiment(config: ExperimentConfig, workers: int = 1) -> LowerResult:
    """Uniform-over-b average of the sign-reduction error, against the theoretical
    floor, plus the N_i event-count calibration."""
    if config.family != "parity":
        raise ValueError("the lower-bound testbed runs on the parity family")
    if config.samples_per_task != config.d:
        raise ValueError("the lower-bound testbed draws k = d samples per task")
    payloads = [(config, T, T_idx) for T_idx, T in enumerate(config.T_grid)]
    picks, truths, n_events = _columns(_pmap(_lower_cell, payloads, workers))
    errors = _sign_errors(config, build_setup(config).estimator.cover.members, picks, truths)
    table = _rate_table(
        "lowerbound", config, np.repeat(config.T_grid, config.replicates), truths, picks, errors
    )
    per_T = {}
    d = config.d
    for T, errs in zip(config.T_grid, errors.reshape(len(config.T_grid), -1)):
        mean, se = _mean_se(errs)
        floor = lower_bound_floor(config, T)
        # pass: the one-sided 95% lower confidence bound sits above the floor
        per_T[T] = {"mean": mean, "se": se, "floor": floor, "pass": mean - 1.645 * se > floor}
    # N_i calibration: a task lands in N_i when i* = i and its d draws cover
    # X_i, so summing the counts over i gives Bernoulli(C(m,d) * q) tasks.
    q = 1.0
    for j in range(d):
        q *= (d - j) / config.m
    n_subs = comb(config.m, d)
    q /= n_subs
    total_events = int(n_events.sum())
    total_tasks = config.replicates * sum(config.T_grid)
    ni_mean = total_events / total_tasks / n_subs
    p_task = q * n_subs
    ni_sigma = float(np.sqrt(p_task * (1 - p_task) / total_tasks) / n_subs)
    return LowerResult(table, per_T, q, ni_mean, ni_sigma, abs(ni_mean - q) <= 3 * ni_sigma)


@dataclass
class BaselineResult:
    table: BaselineRow
    skeleton_mean: float
    direct_mean: float
    diff_se: float

    @property
    def ordered(self) -> bool:
        """Direct access is statistically easier: its risk should not exceed
        the skeleton's by more than two standard errors of the difference."""
        return self.direct_mean <= self.skeleton_mean + 2 * self.diff_se


def _baseline_cell(payload) -> tuple[np.ndarray, np.ndarray]:
    """A cell's skeleton picks and direct-access picks on the same tasks."""
    config, T, T_idx, truth_id = payload
    setup = build_setup(config)
    source = _source(setup, truth_id)
    direct = setup.direct  # built before any replicate's words exist
    concepts = task_layout(source, setup.space, setup.dist, config.samples_per_task).cells.concepts
    est = setup.estimator
    blocks = _cell(config, source, T, (_BASELINE, T_idx, truth_id))
    return _columns(
        (est.select_rows(counts, T), direct.select_rows(_mapped(joint, concepts, len(setup.space)), T))
        for joint, counts, _ in blocks
    )


def run_baseline_comparison(config: ExperimentConfig, T: int, workers: int = 1) -> BaselineResult:
    """Paired skeleton-vs-direct risks on identical task draws at one T."""
    setup = build_setup(config)
    payloads = [(config, T, 0, tid) for tid in setup.truth_ids]
    skeleton, direct = _columns(_pmap(_baseline_cell, payloads, workers))
    truths = np.repeat(setup.truth_ids, config.replicates)
    sk, di = setup.tv_matrix[truths, np.stack([skeleton, direct])]
    table = _rate_table("baseline", config, np.full(len(truths), T), truths, skeleton, sk)
    return BaselineResult(
        BaselineRow(*table, direct, di), float(sk.mean()), float(di.mean()), _mean_se(di - sk)[1]
    )


def coin_plan(gammas, n_max: int, n_count: int) -> list:
    """What a coin table over `gammas` and `n_count` values of n up to `n_max` takes: at step n
    the exact pass for gamma = p/q writes integers of about n bits(2q) bits; a row, as a tuple,
    transposed and as arrays, took 241 bytes at 2,000,100 rows."""
    words = sum(
        n_max * (n_max + 1) * (2 * _as_fraction(g).denominator).bit_length() // 128 for g in gammas
    )
    return [
        Work("64-bit words written by the exact Bayes errors", words, "n_max"),
        Array("a gamma's exact errors", (n_max + 1,), "pyfloat", "n_max"),
        Array("coin table rows", (len(gammas), n_count, 32), "pyslot", "gammas"),
    ]


def coin_bound_table(gammas, ns) -> list[tuple]:
    """Rows (gamma, n, exact Bayes error, floor, pass) over the grid, in
    the order of `gammas` and then `ns` (which may skip, repeat or
    descend); one `_bayes_error_ratios` pass per gamma up to max(ns),
    after its `coin_plan` is met.

    gamma = 1/2 is allowed: the two-point problem and its floor are still
    well defined there, and the acceptance grid ends at 1/2."""
    ns = [int(n) for n in ns]
    if any(n < 0 for n in ns):
        raise ValueError("n must be >= 0")
    check_plan(coin_plan(gammas, max(ns, default=0), len(ns)))
    rows = []
    for gamma in gammas:
        g = _as_fraction(gamma)
        if not 0 < g <= Fraction(1, 2):
            raise ValueError(f"gamma {gamma} outside (0, 1/2]")
        # integer true division rounds correctly: each error is the float
        # of its Fraction, without building one
        errors = [num / den for num, den in _bayes_error_ratios(g, max(ns, default=0))]
        g = float(g)
        for n in ns:
            floor = coin_floor(g, n)
            rows.append((g, n, errors[n], floor, errors[n] >= floor))
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
_CHUNK_BLOCKS = 16  # blocks whose distinct cells are found at once, in numbers, not strings
# the text of a cell of a numpy column of this kind, from its Python value:
# format_cell(v) for each, as str(int) and repr(float) never need quoting
_FORMAT = {"i": str, "u": str, "f": repr}


def _text(v) -> str:
    """A cell as the csv writer writes it in a row of several fields:
    `format_cell`'s text, quoted when the writer quotes it."""
    text = format_cell(v)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((text, ""))
        text = buf.getvalue()[:-2]  # the field, without ",\n"
    return text


def _codes(keys: np.ndarray):
    """(the distinct values of a 1-d array of numbers, bools or strings,
    ascending; each value's position among them), or None when more than
    a quarter of 64 values spread over it, or more than CSV_BLOCK_ROWS
    values in all, are distinct.  Only the distinct values are sorted, and
    in Python: a process's first np.unique raises its peak RSS by up to
    0.8 MB, in code that the rates workloads touch nowhere else."""
    sample = keys[::max(1, len(keys) // 64)][:64]
    known = set(sample.tolist())
    if 4 * len(known) > len(sample):
        return None
    while len(known) <= CSV_BLOCK_ROWS:
        table = np.array(sorted(known), dtype=keys.dtype)
        codes = np.searchsorted(table, keys)
        missing = keys[np.searchsorted(table, keys, side="right") == codes]
        if not len(missing):
            return table, codes
        known.update(missing.tolist())
    return None


def _runs(chunk) -> list:
    """A chunk of a table's columns as runs of adjacent columns: numpy
    columns of numbers, bools or strings with few distinct cells (by
    `_codes`, a float by its bits, so -0.0 stays apart from 0.0) next to
    each other as one run of (the texts of its distinct rows, each row's
    position among them), each distinct row formatted once, so long as
    `_codes` finds few of them; any other column as (None, its cells)."""
    runs = []
    for cells in chunk:
        kind = cells.dtype.kind if isinstance(cells, np.ndarray) and cells.ndim == 1 else "?"
        found = (kind in "iubU" or kind == "f" and cells.itemsize in (2, 4, 8)) and _codes(
            cells.view(f"i{cells.itemsize}") if kind == "f" else cells
        )
        if not found:
            runs.append((None, cells))
            continue
        texts, codes = [_text(v) for v in found[0].view(cells.dtype).tolist()], found[1]
        joint = runs and runs[-1][0] is not None and _codes(runs[-1][1] * len(texts) + codes)
        if joint:
            # the distinct rows of the run with this column
            run_texts = runs.pop()[0]
            texts = [run_texts[p // len(texts)] + "," + texts[p % len(texts)] for p in joint[0].tolist()]
            codes = joint[1]
        runs.append((np.array(texts, dtype=object), codes))
    return runs


def _block_texts(run, block: slice) -> list:
    """The texts of a run's cells in a block of rows of its chunk."""
    texts, cells = run
    if texts is not None:
        return texts[cells[block]].tolist()
    cells = cells[block]
    if isinstance(cells, np.ndarray):
        return list(map(_FORMAT.get(cells.dtype.kind, _text), cells.tolist()))
    return list(map(_text, cells))


def write_csv(path, header, columns) -> None:
    """Write the header and the table whose columns, one sequence (array
    or list) per header field, are `columns`, every cell as `format_cell`
    gives it and quoted as the csv writer quotes it, a block of rows at a
    time.  Each distinct cell of a chunk of a numpy column with few of
    them is formatted once, and so is each distinct row of a run of such
    columns."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    chunk = _CHUNK_BLOCKS * CSV_BLOCK_ROWS
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for first in range(0, n_rows, chunk):
            runs = _runs([c[first:first + chunk] for c in columns])
            for start in range(0, min(chunk, n_rows - first), CSV_BLOCK_ROWS):
                parts = [_block_texts(run, slice(start, start + CSV_BLOCK_ROWS)) for run in runs]
                if len(columns) == 1:
                    # the writer quotes a one-field row that would be empty
                    lines = [text or '""' for text in parts[0]]
                else:
                    lines = map(",".join, zip(*parts))
                fh.write("\n".join(lines))
                fh.write("\n")


def transpose(rows, width: int) -> list:
    """The `width` columns of a table given as rows, as numpy arrays, each
    of values that share one Python type, which the array keeps."""
    columns = list(zip(*rows)) if rows else [()] * width
    assert all(len(set(map(type, c))) <= 1 for c in columns), "a column mixes Python types"
    return [np.array(c) for c in columns]
