"""Reference implementations for the elicitation tests.

Query strategies: a customer served through a value oracle that logs
every bundle it is asked, one `ask` at a time.  The library serves
customers as plain data (a function index and the answered bundles);
these ask-by-ask versions are what it must match.

The outcome model: `meet_outcome_model` builds G by labelling the meet of
each partition combination function by function, and the consistent-set
table in a second pass.  The library reads G from that table in one
enumeration; this two-pass build is what it must match bit for bit."""

import itertools
from math import factorial

import numpy as np

from priorlab.estimators import yatracos_sets


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
    return [cells[k] for k in sorted(cells)]


def meet_outcome_model(family):
    """(G, set_masks, set_indicators) of the outcome model, G summed over
    the labelled meet cells of every partition combination."""
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
        G += w * np.einsum("lc,pc->lp", cm, yatracos_sets(cm).astype(float))
    # every consistent set a task can have, and their pair indicators
    first_bundle = np.unique(part_of_bundle, return_index=True)[1]
    combos = np.array(list(itertools.combinations_with_replacement(range(P), d)))
    cells = family.consistent(first_bundle[combos][:, None], np.arange(F))
    set_masks = np.array(sorted(set(cells.ravel().tolist())), dtype=np.int64)
    ok = (set_masks[:, None] >> np.arange(F)) & 1
    mm = np.stack([family.W @ row.astype(float) for row in ok])  # (sets, members)
    return G, set_masks, yatracos_sets(mm.T).T
