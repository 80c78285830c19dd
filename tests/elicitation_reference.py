"""Reference implementations for the elicitation tests.

Query strategies: a customer served through a value oracle that logs
every bundle it is asked, one `ask` at a time.  The library serves
customers as plain data (a function index and the answered bundles);
these ask-by-ask versions are what it must match.

The outcome model: `meet_outcome_model` builds G by labelling the meet of
each partition combination function by function, and the consistent-set
table in a second pass.  The library reads G from that table in one
enumeration; this two-pass build is what it must match bit for bit.

The calibration: `generator_calibrate_schedule` draws each run through a
`Generator` set to the run's seeded state, T function words and then
`rng.integers` bundles, as `calibrate_schedule` drew them before it
decoded a run's words; the library must give the same schedule."""

import itertools
from math import factorial

import numpy as np

from priorlab.elicitation import (
    _CAL_STREAM,
    CALIBRATION_SAFETY,
    ScheduleRDelta,
    SequentialSelector,
)
from priorlab.estimators import yatracos_sets
from priorlab.sampling import _pcg_seed


class ValueOracle:
    """Answers value queries for one customer; repeats are served from the
    cache, and `asked` logs each bundle the first time it is asked."""

    def __init__(self, func):
        self._func = func
        self.known: dict[int, float] = {}
        self.asked: list[int] = []

    def ask(self, bundle: int) -> float:
        if bundle not in self.known:
            self.asked.append(bundle)
            self.known[bundle] = self._func.values[bundle]
        return self.known[bundle]

    @property
    def count(self) -> int:
        return len(self.asked)


def oracle_method_A_prime(oracle, n_bundles):
    best, best_v = 0, -np.inf
    for x in range(n_bundles):
        v = oracle.ask(x)
        if v > best_v:
            best, best_v = x, v
    return best


def oracle_method_A(member, fam, epsilon, oracle, cache):
    """(bundle, fallback) of the prior-aware strategy, rebuilding the
    consistent set from every answer on every step."""
    while True:
        cons = 0
        for i, f in enumerate(fam.functions):
            if fam.members[member][i] > 0 and all(
                f.values[x] == v for x, v in oracle.known.items()
            ):
                cons |= 1 << i
        state = cache.get(member, cons) if cons else None
        if state is None:
            return oracle_method_A_prime(oracle, fam.n_bundles), True
        means, _, regret0, phi = state
        unqueried = [x for x in range(fam.n_bundles) if x not in oracle.known]
        if regret0 <= epsilon + 1e-12 or not unqueried:
            return int(np.argmax(means)), False
        oracle.ask(max(unqueried, key=lambda x: (phi[x], -x)))


def _meet(part_groups, combo, F) -> list[list[int]]:
    label = [0] * F
    for pid in combo:
        groups = part_groups[pid]
        sub = [0] * F
        for g, members in enumerate(groups):
            for i in members:
                sub[i] = g
        label = [a * len(groups) + b for a, b in zip(label, sub)]
    cells: dict[int, list[int]] = {}
    for i, lab in enumerate(label):
        cells.setdefault(lab, []).append(i)
    return list(cells.values())  # in order of their first function


def meet_outcome_model(family):
    """(G, set_masks, set_indicators) of the outcome model, G summed over
    the labelled meet cells of every partition combination.  Each
    combination's cells are taken in the order of their first function and
    contracted as C-ordered (cells, members) and (cells, pairs) arrays, as
    the model documents: on non-dyadic weights another order or layout
    moves the last bits of G."""
    d = family.d
    F = len(family.functions)
    n_bundles = family.n_bundles

    # distinct single-bundle partitions of the function set
    part_of_bundle = np.empty(n_bundles, dtype=np.int64)
    parts: dict[tuple[int, ...], int] = {}
    part_groups: list[list[list[int]]] = []
    for x in range(n_bundles):
        col = family.S[:, x]
        labels: dict[float, int] = {}
        sig = tuple(labels.setdefault(v, len(labels)) for v in col)
        pid = parts.get(sig)
        if pid is None:
            pid = len(parts)
            parts[sig] = pid
            groups: list[list[int]] = [[] for _ in range(len(labels))]
            for i, s in enumerate(sig):
                groups[s].append(i)
            part_groups.append(groups)
        part_of_bundle[x] = pid
    weights = np.bincount(part_of_bundle, minlength=len(parts)) / n_bundles
    P = len(parts)

    M = family.n_members
    G = np.zeros((M, M * (M - 1)))
    for combo in itertools.combinations_with_replacement(range(P), d):
        # weight: (#ordered arrangements) * product of partition probs
        mult = factorial(d)
        for _, grp in itertools.groupby(combo):
            mult //= factorial(len(list(grp)))
        w = mult * np.prod([weights[p] for p in combo])
        cells = _meet(part_groups, combo, F)
        cell_mat = np.zeros((len(cells), F))
        for c, cell in enumerate(cells):
            cell_mat[c, cell] = 1.0
        cm = family.W @ cell_mat.T  # (members, cells)
        indicators = np.ascontiguousarray(yatracos_sets(cm).T, dtype=float)  # (cells, pairs)
        G += w * np.einsum("cl,cp->lp", np.ascontiguousarray(cm.T), indicators)
    # every consistent set a task can have, and their pair indicators
    first_bundle = np.unique(part_of_bundle, return_index=True)[1]
    combos = np.array(list(itertools.combinations_with_replacement(range(P), d)))
    cells = family.consistent(first_bundle[combos][:, None], np.arange(F))
    set_masks = np.array(sorted(set(cells.ravel().tolist())), dtype=np.int64)
    ok = (set_masks[:, None] >> np.arange(F)) & 1
    mm = np.stack([family.W @ row.astype(float) for row in ok])  # (sets, members)
    return G, set_masks, yatracos_sets(mm.T).T


def keyed_generators(seed, keys):
    """`stream(seed, *key)` for each row of `keys` in turn: one generator
    whose PCG64 is set to each row's seeded state."""
    limbs = [a.tolist() for a in _pcg_seed(seed, keys)]
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    for state_hi, state_lo, inc_hi, inc_lo in zip(*limbs):
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def generator_calibration_runs(family, T, replicates, seed):
    """(truth, function indices, bundles) of each calibration run of T
    tasks, in run order, drawn by `Generator` calls."""
    runs = [(truth, rep) for truth in range(family.n_members) for rep in range(replicates)]
    rngs = keyed_generators(seed, [(_CAL_STREAM, truth, rep) for truth, rep in runs])
    for (truth, _), rng in zip(runs, rngs):
        f_idx = family.function_index(truth, rng.bit_generator.random_raw(T))
        yield truth, f_idx, rng.integers(0, family.n_bundles, size=(T, family.d))


def generator_calibrate_schedule(family, model, alpha, T_grid, replicates, seed):
    """The calibrated schedule of the `generator_calibration_runs`."""
    pooled = replicates * family.n_members
    errors = np.array([
        family.tv_matrix[truth, SequentialSelector(model, xs, f_idx).selected(T_grid)]
        for truth, f_idx, xs in generator_calibration_runs(family, T_grid[-1], replicates, seed)
    ])
    rank = int(np.ceil((1 - alpha) * pooled))
    raw = np.sort(errors, axis=0)[rank - 1]
    monotone = np.maximum.accumulate(np.minimum(1.0, CALIBRATION_SAFETY * raw)[::-1])[::-1]
    deltas = (errors > monotone[None, :]).mean(axis=0)
    return ScheduleRDelta(
        alpha,
        (0,) + tuple(T_grid),
        (1.0,) + tuple(float(r) for r in monotone),
        (0.0,) + tuple(float(x) for x in deltas),
        meta={
            "replicates": replicates,
            "safety": CALIBRATION_SAFETY,
            "quantile_rank": rank,
            "pooled_runs": pooled,
            "seed": seed,
        },
    )
