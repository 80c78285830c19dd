"""Reference query strategies for the elicitation tests: a customer served
through a value oracle that logs every bundle it is asked, one `ask` at a
time.  The library serves customers as plain data (a function index and
the answered bundles); these ask-by-ask versions are what it must match."""

import numpy as np


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
