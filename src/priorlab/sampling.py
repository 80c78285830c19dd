"""Task generation: draw a target concept per task, then k labeled points.

Randomness is organised so that task t of a batch is reproducible in
isolation: every (seed, task, purpose) triple gets its own numpy
SeedSequence stream, with concept draws and x draws on separate streams.
A vectorized bulk path (one stream per call) backs the Monte Carlo
experiments, where per-task stream isolation is not needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .concepts import Concept, ConceptSpace, DataDistribution, d_subsets
from .priors import SmoothPriorParams, TabularPrior, smooth_prior

_CONCEPT_STREAM = 0
_X_STREAM = 1


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) coordinate."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class TaskSample:
    """One task: k sample points, their labels, and (when generated from
    the parity family) the generative trace (subset index, parity bit)."""

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    trace: tuple[int, int] | None = None

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")
        if any(y not in (-1, 1) for y in self.ys):
            raise ValueError("labels must be -1 or +1")

    @property
    def k(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class TaskBatch:
    tasks: tuple[TaskSample, ...]
    k: int
    seed: int

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)


def sample_concept(prior: TabularPrior, rng: np.random.Generator) -> Concept:
    """Draw one concept with probability equal to its table mass."""
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(prior.mass), u, side="right"))
    idx = min(idx, len(prior.space) - 1)
    return prior.space.concepts[idx]


def sample_points(dist: DataDistribution, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    cum = dist.cumulative()
    draws = np.searchsorted(cum, rng.random(k), side="right") + 1
    return tuple(int(min(x, dist.m)) for x in draws)


def _labels(mask: int, xs: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if (mask >> (x - 1)) & 1 else -1 for x in xs)


@lru_cache(maxsize=64)
def _parity_submask_table(m: int, d: int) -> np.ndarray:
    """Concept masks reachable from each (subset, parity bit, choice).

    Shape (C(m,d), 2, 2^(d-1)): entry [i, c, j] is the j-th subset of X_i
    whose positive count has parity c, in increasing mask order.  Built
    once per (m, d) and read-only.
    """
    subs = d_subsets(m, d)
    by_parity: list[list[int]] = [[], []]
    for sub_bits in range(1 << d):
        by_parity[bin(sub_bits).count("1") % 2].append(sub_bits)
    table = np.zeros((len(subs), 2, 1 << (d - 1)), dtype=np.int64)
    for i, x_mask in enumerate(subs):
        positions = [p for p in range(m) if (x_mask >> p) & 1]
        for c in (0, 1):
            for j, sub_bits in enumerate(by_parity[c]):
                mask = 0
                for t, p in enumerate(positions):
                    if (sub_bits >> t) & 1:
                        mask |= 1 << p
                table[i, c, j] = mask
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _parity_index_table(m: int, d: int, space_masks: bytes) -> np.ndarray:
    """`_parity_submask_table(m, d)` as positions in a concept space whose
    int64 masks, in enumeration order, are `space_masks`; read-only."""
    index = {int(v): i for i, v in enumerate(np.frombuffer(space_masks, dtype=np.int64))}
    table = _parity_submask_table(m, d)
    out = np.array([index[int(v)] for v in table.flat]).reshape(table.shape)
    out.flags.writeable = False
    return out


def sample_task_traced(
    params: SmoothPriorParams,
    space: ConceptSpace,
    dist: DataDistribution,
    k: int,
    rng: np.random.Generator,
    x_rng: np.random.Generator | None = None,
) -> TaskSample:
    """One task from the parity family's generative model, trace included.

    Draw order is pinned: subset index, parity coin, concept choice, then
    the k sample points (from `x_rng` when separate streams are wanted).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if space.m != params.m or space.d != params.d:
        raise ValueError("params built for a different concept space")
    table = _parity_submask_table(params.m, params.d)
    i_star = int(rng.integers(len(table)))
    p1 = (1.0 + params.gamma_m * params.b[i_star]) / 2.0
    c = int(rng.random() < p1)
    mask = int(table[i_star, c, int(rng.integers(table.shape[2]))])
    xs = sample_points(dist, k, x_rng if x_rng is not None else rng)
    return TaskSample(xs, _labels(mask, xs), trace=(i_star, c))


def sample_task(
    prior: TabularPrior,
    dist: DataDistribution,
    k: int,
    rng: np.random.Generator,
    x_rng: np.random.Generator | None = None,
) -> TaskSample:
    if k < 1:
        raise ValueError("k must be >= 1")
    h = sample_concept(prior, rng)
    xs = sample_points(dist, k, x_rng if x_rng is not None else rng)
    return TaskSample(xs, _labels(h.mask, xs))


def sample_batch(
    source: TabularPrior | SmoothPriorParams,
    space: ConceptSpace,
    dist: DataDistribution,
    T: int,
    k: int,
    seed: int,
) -> TaskBatch:
    """T independent tasks; task t depends only on (seed, t)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    tasks = []
    for t in range(T):
        c_rng = stream(seed, t, _CONCEPT_STREAM)
        x_rng = stream(seed, t, _X_STREAM)
        if isinstance(source, SmoothPriorParams):
            tasks.append(sample_task_traced(source, space, dist, k, c_rng, x_rng))
        else:
            tasks.append(sample_task(source, dist, k, c_rng, x_rng))
    return TaskBatch(tuple(tasks), k, seed)


def sample_arrays(
    source: TabularPrior | SmoothPriorParams,
    space: ConceptSpace,
    dist: DataDistribution,
    T: int,
    k: int,
    rng: np.random.Generator,
):
    """Bulk path: (xs, ys, concept_indices, trace) as arrays from one stream.

    xs has shape (T, k) with points in 1..m, ys in {-1, +1}; concept
    indices are positions in `space`; trace is (i_star, c) arrays for the
    parity family, else None.
    """
    if T < 1 or k < 1:
        raise ValueError("need T >= 1 and k >= 1")
    trace = None
    if isinstance(source, SmoothPriorParams):
        index_table = _parity_index_table(source.m, source.d, space.masks.tobytes())
        b = np.asarray(source.b)
        i_star = rng.integers(0, len(index_table), size=T)
        p1 = (1.0 + source.gamma_m * b[i_star]) / 2.0
        c = (rng.random(T) < p1).astype(np.int64)
        choice = rng.integers(0, index_table.shape[2], size=T)
        idx = index_table[i_star, c, choice]
        trace = (i_star, c)
    else:
        cum = np.cumsum(source.mass)
        idx = np.minimum(
            np.searchsorted(cum, rng.random(T), side="right"), len(space) - 1
        )
    cum_x = dist.cumulative()
    xs = np.minimum(
        np.searchsorted(cum_x, rng.random((T, k)), side="right") + 1, dist.m
    )
    ys = 2 * ((space.masks[idx][:, None] >> (xs - 1)) & 1) - 1
    return xs, ys, idx, trace


def export_batch(batch: TaskBatch, m: int, d: int) -> str:
    """Text export: a header with (m, d, k, T, seed), then one
    ``t<TAB>i<TAB>x<TAB>y`` line per observation."""
    lines = [f"# m={m}\td={d}\tk={batch.k}\tT={len(batch)}\tseed={batch.seed}"]
    for t, task in enumerate(batch):
        for i, (x, y) in enumerate(zip(task.xs, task.ys)):
            lines.append(f"{t}\t{i}\t{x}\t{y}")
    return "\n".join(lines) + "\n"
