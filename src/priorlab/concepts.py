"""Finite instance spaces and the bounded-size concept class.

The instance space is X = {1, ..., m}.  A concept is a classifier
X -> {-1, +1} encoded by the set of points it labels +1, stored as an
m-bit mask (bit i-1 set <=> point i is positive).  The class C(m, d)
contains every concept with at most d positive points; its VC dimension
is exactly d, which `verify_vc_dimension` confirms by brute force on
small spaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

MAX_POINTS = 63  # masks are stored as int64; point 64 would need the sign bit
SHATTER_GUARD = 12  # largest m for the brute-force VC check


@dataclass(frozen=True)
class Concept:
    """A classifier on {1..m}, encoded by its positive-point bit mask."""

    mask: int
    m: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.m:
            raise ValueError(f"mask {self.mask:#x} does not fit in {self.m} bits")

    @property
    def positives(self) -> tuple[int, ...]:
        return tuple(x for x in range(1, self.m + 1) if (self.mask >> (x - 1)) & 1)

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    def label(self, x: int) -> int:
        """+1 if x is a positive point, else -1."""
        if not 1 <= x <= self.m:
            raise ValueError(f"point {x} outside instance space of size {self.m}")
        return 1 if (self.mask >> (x - 1)) & 1 else -1


@dataclass(frozen=True)
class DataDistribution:
    """A categorical distribution over {1, ..., m}."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) < 1:
            raise ValueError("weights must be a nonempty vector")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @property
    def m(self) -> int:
        return len(self.weights)

    def prob(self, x: int) -> float:
        return self.weights[x - 1]

    def mask_prob(self, mask: int) -> float:
        """Total weight of the points in `mask`."""
        return sum(w for i, w in enumerate(self.weights) if (mask >> i) & 1)


def categorical_draw(thresholds, u) -> np.ndarray:
    """The category drawn by each uniform in `u` from a categorical law
    whose cumulative sums are cs: the number of thresholds cs[:-1] at or
    below it.  This is `min(searchsorted(cs, u, side="right"),
    len(cs) - 1)` bit for bit (the clip covers a cumsum that ends below
    1), in len(cs) - 1 comparison passes instead of a binary search per
    draw."""
    idx = np.zeros(np.shape(u), dtype=np.int64)
    for threshold in thresholds:
        idx += u >= threshold
    return idx


def uniform_distribution(m: int) -> DataDistribution:
    return DataDistribution(tuple(1.0 / m for _ in range(m)))


def d_subsets(m: int, d: int) -> list[int]:
    """Masks of all d-sized subsets of {1..m}, in increasing mask order.

    This enumeration order is shared by the smooth-prior construction and
    the sign-reduction estimator, so it must stay lexicographic over masks.
    """
    if not 0 <= d <= m:
        raise ValueError(f"need 0 <= d <= m, got d={d}, m={m}")
    masks = [sum(1 << i for i in sub) for sub in itertools.combinations(range(m), d)]
    masks.sort()
    return masks


class ConceptSpace:
    """The enumerated class C(m, d): all concepts with at most d positives.

    Enumeration order is size-then-lexicographic-mask, giving every module
    the same deterministic concept indexing.
    """

    def __init__(self, m: int, d: int, concepts: list[Concept]):
        self.m = m
        self.d = d
        self.concepts = concepts
        self.masks = np.array([c.mask for c in concepts], dtype=np.int64)
        self._index = {c.mask: i for i, c in enumerate(concepts)}
        if len(self._index) != len(concepts):
            raise ValueError("duplicate concepts in enumeration")

    def __len__(self) -> int:
        return len(self.concepts)

    def __iter__(self):
        return iter(self.concepts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConceptSpace)
            and self.m == other.m
            and self.d == other.d
        )

    def index_of(self, concept: Concept | int) -> int:
        mask = concept.mask if isinstance(concept, Concept) else concept
        return self._index[mask]

    def concept(self, mask: int) -> Concept:
        return self.concepts[self._index[mask]]

    def label_matrix(self, points: tuple[int, ...]) -> np.ndarray:
        """Labels (+-1) of every concept at the given points; shape (|C|, k)."""
        pts = np.asarray(points, dtype=np.int64)
        if len(pts) and (pts.min() < 1 or pts.max() > self.m):
            raise ValueError("points outside instance space")
        bits = (self.masks[:, None] >> (pts[None, :] - 1)) & 1
        return 2 * bits - 1


def concept_count(m: int, d: int) -> int:
    """|C(m, d)| = sum_{q<=d} C(m, q), without enumerating it."""
    return sum(comb(m, q) for q in range(d + 1))


def enumerate_concepts(m: int, d: int) -> ConceptSpace:
    """Build C(m, d): expected size is sum_{q<=d} C(m, q)."""
    if not 1 <= d <= m:
        raise ValueError(f"need 1 <= d <= m, got d={d}, m={m}")
    if m > MAX_POINTS:
        raise ValueError(f"m={m} exceeds the {MAX_POINTS}-bit mask limit")
    concepts = []
    for q in range(d + 1):
        concepts.extend(Concept(mask, m) for mask in d_subsets(m, q))
    space = ConceptSpace(m, d, concepts)
    assert len(space) == concept_count(m, d)
    return space


def rho(h: Concept, g: Concept, dist: DataDistribution) -> float:
    """Task pseudo-metric: the D-mass of {x : h(x) != g(x)}."""
    if h.m != g.m or h.m != dist.m:
        raise ValueError("concepts and distribution live on different instance spaces")
    return dist.mask_prob(h.mask ^ g.mask)


def rho_matrix(space: ConceptSpace, dist: DataDistribution) -> np.ndarray:
    """Pairwise rho over the whole enumeration; shape (|C|, |C|).  Built
    once per concept order and distribution, and read-only."""
    if dist.m != space.m:
        raise ValueError("distribution does not match the concept space")
    return _rho_table(space.masks.tobytes(), dist.weights)


@lru_cache(maxsize=4)
def _rho_table(space_masks: bytes, weights: tuple[float, ...]) -> np.ndarray:
    """rho between every pair of the concepts whose int64 masks, in
    enumeration order, are `space_masks`, under the distribution with
    these point weights."""
    masks = np.frombuffer(space_masks, dtype=np.int64)
    diff = masks[:, None] ^ masks[None, :]
    bits = (diff[:, :, None] >> np.arange(len(weights))[None, None, :]) & 1
    table = (bits * np.asarray(weights)).sum(axis=2)
    table.flags.writeable = False
    return table


def _is_shattered(space: ConceptSpace, subset_mask: int, size: int) -> bool:
    traces = {int(msk) & subset_mask for msk in space.masks}
    return len(traces) == 1 << size


def verify_vc_dimension(space: ConceptSpace) -> bool:
    """True iff some d-subset of X is shattered and no (d+1)-subset is.

    Pure brute force over subsets and concept traces; refuses spaces with
    m > SHATTER_GUARD rather than degrade to sampling.
    """
    if space.m > SHATTER_GUARD:
        raise ValueError(
            f"m={space.m} exceeds the brute-force shattering guard ({SHATTER_GUARD})"
        )
    m, d = space.m, space.d
    some_d_shattered = any(
        _is_shattered(space, mask, d) for mask in d_subsets(m, d)
    )
    no_d1_shattered = all(
        not _is_shattered(space, mask, d + 1) for mask in d_subsets(m, d + 1)
    ) if d + 1 <= m else True
    return some_d_shattered and no_d1_shattered
