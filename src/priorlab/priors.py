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
from functools import lru_cache
from fractions import Fraction
from math import comb, ceil

import numpy as np

from .concepts import (
    Concept,
    ConceptSpace,
    DataDistribution,
    _distinct_rows,
    d_subsets,
    _rho_table,
    rho_matrix,
    rho_plan,
    uniform_distribution,
)
from .errors import WORK_BUDGET, AbsoluteContinuityError, Array, BudgetError, Work, capped_power, check_plan

MASS_TOL = 1e-12
HOLDER_SLACK = 1e-12
PRIOR_SLOTS = 27  # a TabularPrior row object, in 8-byte slots
PARITY_RULE = "need L > 0, alpha in (0, 1] and gamma_m = (L/2)(1/m)^alpha in (0, 1/2)"


def _check_mass_rows(masses: np.ndarray) -> None:
    """ValueError unless each row of a (rows, concepts) float table is
    nonnegative and sums to 1 within MASS_TOL."""
    if (masses < 0).any():
        raise ValueError("masses must be nonnegative")
    sums = masses.sum(axis=1)
    off = np.abs(sums - 1.0) > MASS_TOL
    if off.any():
        raise ValueError(f"masses sum to {float(sums[off][0])!r}, not 1")


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
        _check_mass_rows(self.mass[None])

    @classmethod
    def rows(cls, space: ConceptSpace, masses: np.ndarray) -> list[TabularPrior]:
        """One prior per row of a (rows, concepts) float mass table, the
        whole table checked at once as `__init__` checks one table; each
        prior's `mass` is its row."""
        masses = np.asarray(masses, dtype=float)
        if masses.ndim != 2 or masses.shape[1] != len(space):
            raise ValueError("mass table has wrong length")
        _check_mass_rows(masses)
        priors = []
        for row in masses:
            prior = cls.__new__(cls)
            prior.space, prior.exact, prior.mass = space, None, row
            priors.append(prior)
        return priors

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

    `b` is a sign vector, one entry per d-subset of {1..m} in mask order,
    or a (rows, C(m, d)) array of sign vectors: members, one per row, that
    `smooth_prior` builds as one mass table.  L and alpha may then also
    give one value per row, and gamma_m is then the array of the rows'
    scales.  The smoothing scale gamma_m = (L/2)(1/m)^alpha must land in
    (0, 1/2).
    """

    b: tuple[int, ...] | np.ndarray
    L: float | np.ndarray
    alpha: float | np.ndarray
    m: int
    d: int
    gamma_m: float | np.ndarray = field(init=False)

    def __post_init__(self):
        batch = self.batch
        width = self.b.shape[1] if batch else len(self.b)
        if width != comb(self.m, self.d):
            raise ValueError(
                f"b has length {width}, expected C({self.m},{self.d})"
                f" = {comb(self.m, self.d)}"
            )
        if ((self.b != 1) & (self.b != -1)).any() if batch else any(x not in (-1, 1) for x in self.b):
            raise ValueError("b entries must be -1 or +1")
        per_row, pairs = batch and np.ndim(self.L) + np.ndim(self.alpha) > 0, [(self.L, self.alpha)]
        if per_row:
            pairs = zip(*(np.broadcast_to(v, len(self.b)).tolist() for v in (self.L, self.alpha)))
        gamma = [parity_gamma(L, alpha, self.m) for L, alpha in pairs]
        if None in gamma:
            raise ValueError(f"L={self.L!r}, alpha={self.alpha!r}, m={self.m}: {PARITY_RULE}")
        object.__setattr__(self, "gamma_m", np.array(gamma) if per_row else gamma[0])

    @property
    def batch(self) -> bool:
        """Whether `b` holds a table of sign vectors, one member per row."""
        return isinstance(self.b, np.ndarray) and self.b.ndim == 2

    def exact_gamma(self) -> Fraction:
        return _exact_gamma(self.L, self.alpha, self.m)


@lru_cache(maxsize=4)
def _subset_lists(m: int, d: int, space_masks: bytes) -> tuple[tuple[np.ndarray, np.ndarray, bool], ...]:
    """For a concept space whose int64 masks, in enumeration order, are
    `space_masks`: one (concepts, subsets, odd) entry per concept size q
    that some d-subset of {1..m} can hold.  `concepts` lists the concepts
    of size q in enumeration order, row r of `subsets` the indices (in
    mask order) of the C(m-q, d-q) d-subsets holding concepts[r], and
    `odd` whether q is odd.  Built once per (m, d) and concept order, and
    read-only."""
    masks = np.frombuffer(space_masks, dtype=np.int64)
    inside = (masks[:, None] & ~np.array(d_subsets(m, d), dtype=np.int64)) == 0
    sizes = np.array([bin(int(v)).count("1") for v in masks])
    lists = []
    for q in range(d + 1):
        concepts = np.flatnonzero(sizes == q)
        subsets = np.nonzero(inside[concepts])[1].reshape(len(concepts), comb(m - q, d - q))
        concepts.flags.writeable = subsets.flags.writeable = False
        lists.append((concepts, subsets, q % 2 == 1))
    return tuple(lists)


def smooth_prior(params: SmoothPriorParams, space: ConceptSpace, exact: bool = False):
    """The parity-family member for sign vector b.

    mass(h) = (1/2)^d C(m,d)^{-1} sum_i 1[H in X_i]
              (1 + g b_i)^{parity(|H|)} (1 - g b_i)^{1 - parity(|H|)}
    with g = gamma_m; its density against the reference measure stays in
    [1 - g, 1 + g].  When `params.b` is a table of sign vectors, returns
    the (rows, concepts) float masses of those members, each row the mass
    its one-vector call gives, bit for bit.
    """
    if space.m != params.m or space.d != params.d:
        raise ValueError("params built for a different concept space")
    m, d = space.m, space.d
    if not exact:
        # each concept's terms summed left to right over the subsets that
        # hold it, in mask order, as the exact path does (np.sum's pairwise
        # order would not be)
        signed = np.reshape(params.gamma_m, (-1, 1)) * np.array(params.b, dtype=float, ndmin=2)
        up, down = 1 + signed, 1 - signed
        total = np.zeros((len(signed), len(space)))
        for concepts, subsets, odd in _subset_lists(m, d, space.masks.tobytes()):
            total[:, concepts] = np.cumsum((up if odd else down)[:, subsets], axis=2)[:, :, -1]
        masses = 1.0 / (2**d * comb(m, d)) * total
        return masses if params.batch else TabularPrior(space, masses[0])
    if params.batch:
        raise ValueError("the exact parity member takes one sign vector")
    signed = [params.exact_gamma() * b_i for b_i in params.b]
    scale = Fraction(1, 2**d * comb(m, d))
    masses = [None] * len(space)
    for concepts, subsets, odd in _subset_lists(m, d, space.masks.tobytes()):
        for c, subs in zip(concepts.tolist(), subsets.tolist()):
            masses[c] = scale * sum((1 + signed[i] if odd else 1 - signed[i] for i in subs), Fraction(0))
    return TabularPrior(space, None, exact=masses)


def parity_plan(m: int, d: int, key: str = "m") -> list:
    """What `parity_family` holds: its 2^C(m,d) members, and what builds them."""
    n = comb(m, d)
    members = capped_power(2, n)
    concepts = sum(comb(m, q) for q in range(d + 1))
    gather = max(comb(m, q) * comb(m - q, d - q) for q in range(d + 1))
    return [
        Array("parity member masses and their build", (3, members, concepts), "float64", key),
        Array("parity member objects", (members, 56 + n), "pyslot", key),
        Array("parity sign tables", (4, members, n), "float64", key),
        Array("parity subset terms", (2, members, gather), "float64", key),
    ]


def parity_family(
    space: ConceptSpace, L: float, alpha: float, exact: bool = False
) -> tuple[list[SmoothPriorParams], list[TabularPrior]]:
    """All 2^C(m,d) parity-family members, in lexicographic sign order
    (-1 before +1 coordinate-wise)."""
    n = comb(space.m, space.d)
    check_plan(parity_plan(space.m, space.d))
    signs = list(itertools.product((-1, 1), repeat=n))
    params = [SmoothPriorParams(b, L, alpha, space.m, space.d) for b in signs]
    if exact:
        return params, [smooth_prior(p, space, exact=True) for p in params]
    batch = SmoothPriorParams(np.array(signs), L, alpha, space.m, space.d)
    return params, TabularPrior.rows(space, smooth_prior(batch, space))


def density_table(prior, reference: TabularPrior) -> np.ndarray:
    """Radon-Nikodym density against `reference` at every concept (0/0 is 0)
    of `prior`, a TabularPrior, or of each row of a (rows, concepts) float
    mass table on the reference's space, one density row per mass row."""
    if isinstance(prior, TabularPrior):
        if prior.space != reference.space:
            raise ValueError("priors live on different concept spaces")
        p = prior.mass
    else:
        p = np.asarray(prior, dtype=float)
        if p.ndim != 2 or p.shape[1] != len(reference.space):
            raise ValueError("mass table does not match the reference's space")
    r = reference.mass
    bad = (r == 0) & (p > 0)
    if bad.any():
        raise AbsoluteContinuityError(
            f"prior mass on {int(bad.sum())} concepts outside the reference support"
        )
    out = np.zeros_like(p)
    pos = r > 0
    out[..., pos] = p[..., pos] / r[pos]
    return out


@dataclass(frozen=True)
class HolderReport:
    ok: bool
    max_ratio: float
    witness: tuple[Concept, Concept] | None

    def __bool__(self) -> bool:
        return self.ok


HOLDER_BLOCK = 1 << 14  # (density row, pair) differences held at a time


def holder_plan(n: int, m: int, key: str = "d") -> list:
    """What `holder_check` holds on n concepts over m points."""
    pairs = n * (n - 1) // 2
    return [
        *rho_plan(n, m, key),
        Array("rho pair runs", (6, pairs), "int64", key),
        Array("Hölder pair differences", (3, max(pairs, HOLDER_BLOCK)), "float64", key),
    ]


@lru_cache(maxsize=4)
def _rho_runs(space_masks: bytes, weights: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """The concept pairs i < j of `_rho_table(space_masks, weights)`,
    sorted stably by rho, so that pairs at equal rho form runs and each
    run keeps row-major order: (i, j, the start of each run, each run's
    rho).  Read-only."""
    table = _rho_table(space_masks, weights)
    first, second = np.triu_indices(len(table), 1)
    order = np.argsort(table[first, second], kind="stable")
    first, second = first[order], second[order]
    rho = table[first, second]
    starts = np.flatnonzero(np.diff(rho, prepend=-1.0))  # rho >= 0, so a run starts at 0
    runs = (first, second, starts, rho[starts])
    for a in runs:
        a.flags.writeable = False
    return runs


def holder_check(
    prior,
    reference: TabularPrior,
    L: float,
    alpha: float,
    dist: DataDistribution,
):
    """Exhaustive check of |f(h) - f(g)| <= L rho(h,g)^alpha over all pairs.

    Returns the pair maximizing |f(h) - f(g)| / rho^alpha as witness when
    the check fails (the first such pair in row-major order, h before g).
    Its `holder_plan` is met first.  `prior` may also be a (rows,
    concepts) float mass table on the reference's space, and L and alpha
    then one value per row; the reports, one per row, then come as a list.

    Each pair is compared once.  Pairs at equal rho share the divisor
    rho^alpha, and a correctly rounded division by a positive number is
    monotone, so a run's largest ratio is its largest |f(h) - f(g)| over
    that divisor: max_ratio is the maximum of a full ratio table, bit for
    bit, with no (concepts, concepts) table per row.
    """
    space = reference.space
    n = len(space)
    check_plan(holder_plan(n, space.m))
    f = density_table(prior, reference)
    rows = np.atleast_2d(f)
    rho_matrix(space, dist)  # checks dist against the space
    first, second, starts, rho = _rho_runs(space.masks.tobytes(), dist.weights)
    zero = int(len(rho) > 0 and rho[0] == 0)  # a run at rho = 0 comes first
    Ls, alphas = (np.broadcast_to(v, len(rows)).tolist() for v in (L, alpha))
    divisors = {a: rho[zero:] ** a for a in set(alphas)}  # Python scalar powers, as for one alpha
    reports = []
    step = max(1, HOLDER_BLOCK // max(len(first), 1))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        diffs = block[:, first]
        np.subtract(diffs, block[:, second], out=diffs)
        np.abs(diffs, out=diffs)
        run_max = np.maximum.reduceat(diffs, starts, axis=1) if len(starts) else diffs
        divisor = np.array([divisors[a] for a in alphas[lo:lo + step]])
        worst = (run_max[:, zero:] / divisor).max(axis=1, initial=0.0)
        for r, w in enumerate(worst.tolist()):
            if zero and run_max[r, 0] > HOLDER_SLACK:
                k = int(np.argmax(diffs[r] > HOLDER_SLACK))  # in the rho = 0 run, which comes first
                w = np.inf
            elif w <= Ls[lo + r] + HOLDER_SLACK:
                reports.append(HolderReport(True, w, None))
                continue
            else:
                counts = np.diff(np.r_[starts, len(first)])[zero:]
                ratio = diffs[r, starts[zero]:] / np.repeat(divisor[r], counts)
                hits = starts[zero] + np.flatnonzero(ratio == w)
                k = int(hits[np.argmin(first[hits] * n + second[hits])])
            reports.append(HolderReport(False, w, (space.concepts[first[k]], space.concepts[second[k]])))
    return reports if f.ndim == 2 else reports[0]


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


def anchor_cells(space: ConceptSpace, anchors: tuple[int, ...]) -> np.ndarray:
    """Cell ids (first-seen order) of each concept under anchor agreement."""
    return _distinct_rows(space.label_matrix(tuple(anchors)))[1]


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


def cover_plan(concepts: int, cells: int, members: int, n_grid: int) -> list:
    """What `cover_priors` holds for `members` members on `cells` cells."""
    return [
        Work("cover grid values", n_grid + 1, "epsilons"),
        Array("cover grid", (2, n_grid + 1), "pyfloat", "epsilons"),
        Array("cover leaves", (members, cells + 8), "pyslot", "budget"),
        Array("cover member masses", (3, members, concepts), "float64", "budget"),
        Array("cover member objects", (members, PRIOR_SLOTS), "pyslot", "budget"),
    ]


def cover_priors(
    space: ConceptSpace,
    L: float,
    alpha: float,
    epsilon: float,
    budget: int = 100_000,
    spent: int = 0,
) -> CoverFamily:
    """Construct an epsilon-cover of all (L, alpha)-Hölder-smooth priors
    under the uniform data distribution.

    Concepts are grouped into cells of rho-diameter at most (eps/L)^(1/alpha)
    and candidate densities take one grid value (step eps/2) per cell;
    assignments whose raw mass strays more than eps/4 from 1 cannot arise
    from a smooth density's cell averages and are pruned, and the survivors
    are renormalized into valid priors.  Every smooth prior then sits within
    3*eps/4 of some member.

    Its `cover_plan` at `budget` members, a cell per concept, is met
    first; BudgetError once the search keeps more than `budget` members or
    has tried more than WORK_BUDGET grid values, counting those `spent` by
    earlier covers.  `meta` gives the cover's `spent` and its plan.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive (use cover_of_family for exact covers)")
    step = epsilon / 2.0
    # a grid past the work budget counts as one value past it, as (1 + L) / step may be inf
    n_grid = int(ceil(min((1.0 + L) / step, WORK_BUDGET + 1))) + 1
    check_plan(cover_plan(len(space), len(space), budget, n_grid))
    reference = reference_prior(space)
    delta = (epsilon / L) ** (1.0 / alpha)
    cells = _diameter_partition(space, uniform_distribution(space.m), delta)
    cell_of = np.empty(len(space), dtype=np.intp)
    for c, cell in enumerate(cells):
        cell_of[cell] = c
    # the search runs on Python floats: the same doubles as numpy scalars,
    # at a fraction of the cost per step
    cell_ref = [float(reference.mass[c].sum()) for c in cells]
    grid = (np.arange(n_grid + 1) * step).tolist()  # 0 .. >= 1+L
    mass_tol = epsilon / 4.0 + 1e-9

    # cheapest remaining-mass envelope for pruning the DFS
    suffix_min = [0.0] * (len(cells) + 1)
    suffix_max = [0.0] * (len(cells) + 1)
    for i in range(len(cells) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + grid[0] * cell_ref[i]
        suffix_max[i] = suffix_max[i + 1] + grid[-1] * cell_ref[i]

    leaves: list[list[float]] = []  # each kept assignment of grid values to cells
    assignment = [0.0] * len(cells)
    tried = 0

    def extend(i: int, partial: float):
        nonlocal tried
        if len(leaves) > budget:
            check_plan([Work("cover members", len(leaves), "budget", budget)])
        if i == len(cells):
            if abs(partial - 1.0) <= mass_tol and partial > 0:
                leaves.append(assignment.copy())
            return
        for g in grid:
            tried += 1
            if spent + tried > WORK_BUDGET:
                check_plan([Work("cover grid values tried", spent + tried, "epsilons")])
            new = partial + g * cell_ref[i]
            if new + suffix_max[i + 1] < 1.0 - mass_tol:
                continue
            if new + suffix_min[i + 1] > 1.0 + mass_tol:
                break  # grid is increasing; later values only overshoot more
            assignment[i] = g
            extend(i + 1, new)

    extend(0, 0.0)
    if not leaves:
        raise BudgetError("cover construction produced no members (epsilon grid too coarse)")
    # each leaf's masses in one gather through the concept -> cell index
    mass = np.array(leaves)[:, cell_of] * reference.mass
    members = TabularPrior.rows(space, mass / mass.sum(axis=1, keepdims=True))
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
            "spent": spent + tried,
            "plan": cover_plan(len(space), len(cells), len(members), n_grid),
        },
    )
