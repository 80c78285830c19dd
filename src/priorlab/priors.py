"""Priors over the concept class: the reference measure, the parity-based
smooth family, partition smoothing, the Hölder check, and epsilon-covers.

All priors are explicit probability tables indexed by the concept
enumeration.  Tables are float64 by default; constructions accept
``exact=True`` to carry exact `fractions.Fraction` masses alongside, which
the invariant suites use wherever a criterion demands literal equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, ceil

import numpy as np

from .concepts import (
    Concept,
    ConceptSpace,
    DataDistribution,
    d_subsets,
    rho_matrix,
    uniform_distribution,
)
from .errors import AbsoluteContinuityError, BudgetError

MASS_TOL = 1e-12
PARITY_BUDGET = 4096  # largest parity family built: 2^C(m,d) members
HOLDER_SLACK = 1e-12
PARITY_RULE = "need L > 0, alpha in (0, 1] and gamma_m = (L/2)(1/m)^alpha in (0, 1/2)"


class TabularPrior:
    """A probability table over an enumerated concept space.

    `mass[i]` is the probability of `space.concepts[i]`.  When `exact` is
    given it must be a list of Fractions summing to exactly 1; the float
    table is then derived from it.
    """

    def __init__(self, space: ConceptSpace, mass, exact: list[Fraction] | None = None):
        self.space = space
        if exact is not None:
            if len(exact) != len(space):
                raise ValueError("exact mass table has wrong length")
            total = sum(exact, start=Fraction(0))
            if total != 1:
                raise ValueError(f"exact masses sum to {total}, not 1")
            if any(x < 0 for x in exact):
                raise ValueError("exact masses must be nonnegative")
            mass = [float(x) for x in exact]
        self.exact = exact
        self.mass = np.asarray(mass, dtype=float)
        if self.mass.shape != (len(space),):
            raise ValueError("mass table has wrong length")
        if (self.mass < 0).any():
            raise ValueError("masses must be nonnegative")
        if abs(self.mass.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {self.mass.sum()!r}, not 1")

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def mass_of(self, h: Concept | int) -> float:
        return float(self.mass[self.space.index_of(h)])

    def exact_mass_of(self, h: Concept | int) -> Fraction:
        if self.exact is None:
            raise ValueError("prior does not carry exact masses")
        return self.exact[self.space.index_of(h)]


def point_mass(space: ConceptSpace, h: Concept | int, exact: bool = False) -> TabularPrior:
    idx = space.index_of(h)
    if exact:
        return TabularPrior(
            space, None, exact=[Fraction(1 if i == idx else 0) for i in range(len(space))]
        )
    mass = np.zeros(len(space))
    mass[idx] = 1.0
    return TabularPrior(space, mass)


def uniform_prior(space: ConceptSpace) -> TabularPrior:
    n = len(space)
    return TabularPrior(space, np.full(n, 1.0 / n))


def random_prior(space: ConceptSpace, rng: np.random.Generator) -> TabularPrior:
    mass = rng.dirichlet(np.ones(len(space)))
    return TabularPrior(space, mass / mass.sum())


def reference_prior(space: ConceptSpace, exact: bool = False) -> TabularPrior:
    """The reference measure: mass (1/2)^d C(m-q, d-q) / C(m, d) at each
    concept with q positive points.  Always strictly positive on C(m, d)."""
    m, d = space.m, space.d
    exact_mass = []
    for c in space.concepts:
        q = c.size
        exact_mass.append(Fraction(comb(m - q, d - q), 2**d * comb(m, d)))
    if exact:
        return TabularPrior(space, None, exact=exact_mass)
    return TabularPrior(space, [float(x) for x in exact_mass])


def parity_gamma(L: float, alpha: float, m: int) -> float | None:
    """The parity family's smoothing scale gamma_m on m points, or None
    where the family has no member (PARITY_RULE)."""
    gamma = (L / 2.0) * (1.0 / m) ** alpha
    return gamma if 0 < L and 0 < alpha <= 1 and 0 < gamma < 0.5 else None


def _exact_gamma(L, alpha, m: int) -> Fraction:
    if float(alpha) != int(alpha):
        raise ValueError(f"exact mode needs an integer alpha, got {alpha}")
    Lf = Fraction(str(L)) if not isinstance(L, Fraction) else L
    return Lf / 2 * Fraction(1, m) ** int(alpha)


@dataclass(frozen=True)
class SmoothPriorParams:
    """Parameters of one member of the parity family on C(m, d).

    `b` is a sign vector, one entry per d-subset of {1..m} in mask order.
    The smoothing scale gamma_m = (L/2)(1/m)^alpha must land in (0, 1/2).
    """

    b: tuple[int, ...]
    L: float
    alpha: float
    m: int
    d: int
    gamma_m: float = field(init=False)

    def __post_init__(self):
        if len(self.b) != comb(self.m, self.d):
            raise ValueError(
                f"b has length {len(self.b)}, expected C({self.m},{self.d})"
                f" = {comb(self.m, self.d)}"
            )
        if any(x not in (-1, 1) for x in self.b):
            raise ValueError("b entries must be -1 or +1")
        gamma = parity_gamma(self.L, self.alpha, self.m)
        if gamma is None:
            raise ValueError(f"L={self.L!r}, alpha={self.alpha!r}, m={self.m}: {PARITY_RULE}")
        object.__setattr__(self, "gamma_m", gamma)

    def exact_gamma(self) -> Fraction:
        return _exact_gamma(self.L, self.alpha, self.m)


def smooth_prior(params: SmoothPriorParams, space: ConceptSpace, exact: bool = False) -> TabularPrior:
    """The parity-family member for sign vector b.

    mass(h) = (1/2)^d C(m,d)^{-1} sum_i 1[H in X_i]
              (1 + g b_i)^{parity(|H|)} (1 - g b_i)^{1 - parity(|H|)}
    with g = gamma_m; its density against the reference measure stays in
    [1 - g, 1 + g].
    """
    if space.m != params.m or space.d != params.d:
        raise ValueError("params built for a different concept space")
    m, d = space.m, space.d
    subs = d_subsets(m, d)
    gamma = params.exact_gamma() if exact else params.gamma_m
    scale = Fraction(1, 2**d * comb(m, d)) if exact else 1.0 / (2**d * comb(m, d))
    masses = []
    for c in space.concepts:
        parity = c.size % 2
        total = Fraction(0) if exact else 0.0
        for b_i, x_mask in zip(params.b, subs):
            if c.mask & ~x_mask:
                continue
            total += (1 + gamma * b_i) if parity else (1 - gamma * b_i)
        masses.append(scale * total)
    if exact:
        return TabularPrior(space, None, exact=masses)
    return TabularPrior(space, masses)


def parity_family_size(m: int, d: int) -> int:
    """The parity family's member count on C(m, d), 2^C(m,d); BudgetError
    past PARITY_BUDGET, before anything is built."""
    n = comb(m, d)
    if 2**n > PARITY_BUDGET:
        raise BudgetError(f"2^{n} sign vectors exceed the budget of {PARITY_BUDGET}")
    return 2**n


def parity_family(
    space: ConceptSpace, L: float, alpha: float, exact: bool = False
) -> tuple[list[SmoothPriorParams], list[TabularPrior]]:
    """All 2^C(m,d) parity-family members, in lexicographic sign order
    (-1 before +1 coordinate-wise)."""
    n = comb(space.m, space.d)
    parity_family_size(space.m, space.d)
    params, members = [], []
    for signs in itertools.product((-1, 1), repeat=n):
        p = SmoothPriorParams(signs, L, alpha, space.m, space.d)
        params.append(p)
        members.append(smooth_prior(p, space, exact=exact))
    return params, members


def density(prior: TabularPrior, reference: TabularPrior, h: Concept | int) -> float:
    """Radon-Nikodym density of `prior` against `reference` at h; 0/0 is 0."""
    if prior.space != reference.space:
        raise ValueError("priors live on different concept spaces")
    p = prior.mass_of(h)
    r = reference.mass_of(h)
    if r == 0.0:
        if p == 0.0:
            return 0.0
        raise AbsoluteContinuityError(
            f"prior mass {p!r} where the reference has none (mask "
            f"{h.mask if isinstance(h, Concept) else h:#x})"
        )
    return p / r


def density_table(prior: TabularPrior, reference: TabularPrior) -> np.ndarray:
    """Density at every concept, with the same 0/0 and continuity rules."""
    if prior.space != reference.space:
        raise ValueError("priors live on different concept spaces")
    p, r = prior.mass, reference.mass
    bad = (r == 0) & (p > 0)
    if bad.any():
        raise AbsoluteContinuityError(
            f"prior mass on {int(bad.sum())} concepts outside the reference support"
        )
    out = np.zeros_like(p)
    pos = r > 0
    out[pos] = p[pos] / r[pos]
    return out


@dataclass(frozen=True)
class HolderReport:
    ok: bool
    max_ratio: float
    witness: tuple[Concept, Concept] | None

    def __bool__(self) -> bool:
        return self.ok


def holder_check(
    prior: TabularPrior,
    reference: TabularPrior,
    L: float,
    alpha: float,
    dist: DataDistribution,
) -> HolderReport:
    """Exhaustive check of |f(h) - f(g)| <= L rho(h,g)^alpha over all pairs.

    Returns the pair maximizing |f(h) - f(g)| / rho^alpha as witness when
    the check fails.  Guarded to at most 2^16 concept pairs.
    """
    space = prior.space
    n = len(space)
    if n * n > 1 << 16:
        raise BudgetError(f"{n}^2 concept pairs exceed the 2^16 pair guard")
    f = density_table(prior, reference)
    dists = rho_matrix(space, dist)
    diffs = np.abs(f[:, None] - f[None, :])
    off = ~np.eye(n, dtype=bool)
    zero_rho = off & (dists == 0)
    if (diffs[zero_rho] > HOLDER_SLACK).any():
        i, j = np.argwhere(zero_rho & (diffs > HOLDER_SLACK))[0]
        return HolderReport(False, np.inf, (space.concepts[i], space.concepts[j]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(off & (dists > 0), diffs / dists**alpha, 0.0)
    worst = float(ratio.max()) if n > 1 else 0.0
    if worst <= L + HOLDER_SLACK:
        return HolderReport(True, worst, None)
    i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    return HolderReport(False, worst, (space.concepts[i], space.concepts[j]))


@dataclass
class PartitionSmoothedPrior:
    """A prior flattened over the equivalence classes induced by anchors.

    Concepts agreeing on every anchor point form one cell; the smoothed
    prior keeps each cell's total mass and redistributes it inside the
    cell proportionally to the reference measure.
    """

    base: TabularPrior
    reference: TabularPrior
    anchor_points: tuple[int, ...]
    cell_of: np.ndarray  # cell id per concept index
    smoothed: TabularPrior

    @property
    def n_cells(self) -> int:
        return int(self.cell_of.max()) + 1

    def cell_members(self, cell: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.cell_of == cell)]

    def max_diameter(self, dist: DataDistribution) -> float:
        """Largest rho-diameter among the cells."""
        dmat = rho_matrix(self.base.space, dist)
        worst = 0.0
        for cell in range(self.n_cells):
            idx = np.flatnonzero(self.cell_of == cell)
            if len(idx) > 1:
                worst = max(worst, float(dmat[np.ix_(idx, idx)].max()))
        return worst


def anchor_cells(space: ConceptSpace, anchors: tuple[int, ...]) -> np.ndarray:
    """Cell ids (first-seen order) of each concept under anchor agreement."""
    labels = space.label_matrix(tuple(anchors))
    seen: dict[tuple[int, ...], int] = {}
    ids = np.empty(len(space), dtype=np.int64)
    for i, row in enumerate(labels):
        key = tuple(int(v) for v in row)
        ids[i] = seen.setdefault(key, len(seen))
    return ids


def smooth_projection(
    prior: TabularPrior,
    anchors: tuple[int, ...] | list[int],
    reference: TabularPrior | None = None,
) -> PartitionSmoothedPrior:
    """Flatten `prior` over the anchor-induced partition.

    Cell masses are preserved exactly; within a cell the smoothed table is
    proportional to the reference (the space's reference measure unless one
    is passed).  Empty anchor lists are rejected: the degenerate one-cell
    partition silently erases the prior and is never what a caller wants.
    """
    anchors = tuple(int(a) for a in anchors)
    if not anchors:
        raise ValueError("anchors must be nonempty")
    space = prior.space
    if any(not 1 <= a <= space.m for a in anchors):
        raise ValueError("anchor point outside the instance space")
    if reference is None:
        reference = reference_prior(space, exact=prior.is_exact)
    cell_of = anchor_cells(space, anchors)
    n_cells = int(cell_of.max()) + 1

    if prior.is_exact and reference.is_exact:
        cell_mass = [Fraction(0)] * n_cells
        ref_cell = [Fraction(0)] * n_cells
        for i in range(len(space)):
            cell_mass[cell_of[i]] += prior.exact[i]
            ref_cell[cell_of[i]] += reference.exact[i]
        out = []
        for i in range(len(space)):
            c = cell_of[i]
            if ref_cell[c] == 0:
                out.append(Fraction(0))
            else:
                out.append(cell_mass[c] * reference.exact[i] / ref_cell[c])
        smoothed = TabularPrior(space, None, exact=out)
    else:
        cell_mass = np.bincount(cell_of, weights=prior.mass, minlength=n_cells)
        ref_cell = np.bincount(cell_of, weights=reference.mass, minlength=n_cells)
        ratio = np.zeros(n_cells)
        pos = ref_cell > 0
        ratio[pos] = cell_mass[pos] / ref_cell[pos]
        mass = reference.mass * ratio[cell_of]
        # rescale away float drift; cell masses are preserved to ~1e-16
        mass = mass / mass.sum()
        smoothed = TabularPrior(space, mass)
    return PartitionSmoothedPrior(prior, reference, anchors, cell_of, smoothed)


def total_variation(p: TabularPrior, q: TabularPrior):
    """TV distance between two priors; exact Fraction if both are exact."""
    if p.space != q.space:
        raise ValueError("priors live on different concept spaces")
    if p.is_exact and q.is_exact:
        return sum(
            (abs(a - b) for a, b in zip(p.exact, q.exact)), start=Fraction(0)
        ) / 2
    return float(np.abs(p.mass - q.mass).sum() / 2.0)


def tv_matrix(masses) -> np.ndarray:
    """TV distances between every pair of rows of a (members, support)
    float mass table, summed as `total_variation` sums one pair: one
    vectorised pass per row, so memory stays at one table."""
    W = np.asarray(masses, dtype=float)
    return np.stack([np.abs(w - W).sum(axis=1) for w in W]) / 2.0


@dataclass
class CoverFamily:
    """A finite family of priors covering a target class within epsilon TV."""

    members: list[TabularPrior]
    epsilon: float
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.members)

    def nearest(self, prior: TabularPrior) -> tuple[int, float]:
        dists = [float(total_variation(m, prior)) for m in self.members]
        best = int(np.argmin(dists))
        return best, dists[best]


def cover_of_family(members: list[TabularPrior], epsilon: float) -> CoverFamily:
    """Greedy epsilon-net of an explicit finite family (epsilon = 0 keeps
    every TV-distinct member)."""
    if not members:
        raise ValueError("empty family")
    kept: list[TabularPrior] = []
    for cand in members:
        if all(float(total_variation(cand, k)) > epsilon for k in kept):
            kept.append(cand)
    return CoverFamily(kept, epsilon, meta={"source": "explicit-family", "input_size": len(members)})


def _diameter_partition(space: ConceptSpace, dist: DataDistribution, delta: float) -> list[list[int]]:
    """Greedy partition of the concepts into cells of rho-diameter <= delta."""
    dmat = rho_matrix(space, dist)
    cells: list[list[int]] = []
    for i in range(len(space)):
        for cell in cells:
            if all(dmat[i, j] <= delta for j in cell):
                cell.append(i)
                break
        else:
            cells.append([i])
    return cells


def cover_priors(
    space: ConceptSpace,
    L: float,
    alpha: float,
    epsilon: float,
    budget: int = 100_000,
) -> CoverFamily:
    """Construct an epsilon-cover of all (L, alpha)-Hölder-smooth priors
    under the uniform data distribution.

    Concepts are grouped into cells of rho-diameter at most (eps/L)^(1/alpha)
    and candidate densities take one grid value (step eps/2) per cell;
    assignments whose raw mass strays more than eps/4 from 1 cannot arise
    from a smooth density's cell averages and are pruned, and the survivors
    are renormalized into valid priors.  Every smooth prior then sits within
    3*eps/4 of some member.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive (use cover_of_family for exact covers)")
    reference = reference_prior(space)
    delta = (epsilon / L) ** (1.0 / alpha)
    cells = _diameter_partition(space, uniform_distribution(space.m), delta)
    cell_ref = np.array([reference.mass[c].sum() for c in cells])
    step = epsilon / 2.0
    n_grid = int(ceil((1.0 + L) / step)) + 1
    grid = np.arange(n_grid + 1) * step  # 0 .. >= 1+L
    mass_tol = epsilon / 4.0 + 1e-9

    # cheapest remaining-mass envelope for pruning the DFS
    suffix_min = np.zeros(len(cells) + 1)
    suffix_max = np.zeros(len(cells) + 1)
    for i in range(len(cells) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + grid[0] * cell_ref[i]
        suffix_max[i] = suffix_max[i + 1] + grid[-1] * cell_ref[i]

    members: list[TabularPrior] = []
    assignment = np.zeros(len(cells))

    def extend(i: int, partial: float):
        if len(members) > budget:
            raise BudgetError(f"cover construction exceeded the budget of {budget} members")
        if i == len(cells):
            if abs(partial - 1.0) <= mass_tol and partial > 0:
                mass = np.zeros(len(space))
                for c, cell in enumerate(cells):
                    mass[cell] = assignment[c] * reference.mass[cell]
                members.append(TabularPrior(space, mass / mass.sum()))
            return
        for g in grid:
            new = partial + g * cell_ref[i]
            if new + suffix_max[i + 1] < 1.0 - mass_tol:
                continue
            if new + suffix_min[i + 1] > 1.0 + mass_tol:
                break  # grid is increasing; later values only overshoot more
            assignment[i] = g
            extend(i + 1, new)

    extend(0, 0.0)
    if not members:
        raise BudgetError("cover construction produced no members (epsilon grid too coarse)")
    return CoverFamily(
        members,
        epsilon,
        meta={
            "source": "smooth-grid",
            "n_cells": len(cells),
            "cell_diameter_target": delta,
            "grid_step": step,
            "L": L,
            "alpha": alpha,
        },
    )
