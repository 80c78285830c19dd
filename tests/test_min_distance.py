"""Min-distance selection, dense and pruned, against the float all-pairs
oracle: every score, pick and deviation bit for bit, and the defects in
pruning that the comparison must catch.

The `scorer` fixture runs each comparison twice, with every table scored
densely and with every table that has a column pruned, whatever the size
rule would choose."""

import numpy as np
import pytest

from priorlab import estimators, ratelab
from priorlab.estimators import _MinDistance, yatracos_scores
from priorlab.sampling import sample_arrays, stream

from min_distance_reference import AllPairsMinDistance, differences, scorer  # noqa: F401

CONFIGS = {
    "parity-3-2": dict(m=3, d=2, truth_count=2),
    "parity-4-2": dict(m=4, d=2, truth_count=2),
    "parity-5-1": dict(m=5, d=1, truth_count=2),
    "parity-6-1": dict(m=6, d=1, truth_count=2),
    "parity-4-3": dict(m=4, d=3, truth_count=2),
    "twopoint-k3": dict(m=4, d=2, family="twopoint", k=3),
}

# dyadic member masses, so that counts of 8 tasks can give a member's law exactly
DYADIC = np.array([[4, 2, 1, 1], [1, 1, 2, 4], [2, 2, 2, 2], [3, 3, 1, 1]]) / 8


def _setup(name):
    config = ratelab.ExperimentConfig(T_grid=(10,), replicates=1, **CONFIGS[name])
    return config, ratelab.build_setup(config)


def _count_rows(setup, config, direct=False):
    """Count rows of the first and last truth at T = 1, 10, 100 and 1000,
    and an all-zero row, with the total of each row: support counts for
    the skeleton, concept counts for the direct baseline."""
    est, rng = setup.estimator, stream(31, 0)
    rows, totals = [], []
    for truth_id in (setup.truth_ids[0], setup.truth_ids[-1]):
        for T in (1, 10, 100, 1000):
            tasks = sample_arrays(ratelab._source(setup, truth_id), setup.space, setup.dist, T,
                                  config.samples_per_task, rng)
            if direct:
                rows.append(np.bincount(tasks.concepts, minlength=len(setup.space)))
            else:
                rows.append(est.count_codes(tasks.codes)[0])
            totals.append(T)
    rows.append(np.zeros_like(rows[0]))
    totals.append(10)
    return np.stack(rows), np.array(totals)


def _cover_differences(name, direct=False):
    """Scores, picks and deviations of a config's skeleton table, or of
    its direct baseline's, on `_count_rows`, for its first and last member."""
    config, setup = _setup(name)
    md = (setup.direct if direct else setup.estimator)._md
    counts, totals = _count_rows(setup, config, direct)
    return differences(md, AllPairsMinDistance(md.M), counts, totals, md.M[[0, -1]])


def _dyadic_differences(members):
    """Scores, picks and deviations of a table of DYADIC members, on
    counts of 8 tasks that give each member's law exactly, at T = 1 and
    on an all-zero row."""
    mass = DYADIC[members]
    counts = np.vstack([8 * mass, np.eye(1, 4, 2), np.zeros((1, 4))]).astype(np.int64)
    totals = np.array([8] * len(mass) + [1, 5])
    return differences(_MinDistance(mass), AllPairsMinDistance(mass), counts, totals, mass)


def _nudged_deviation_differences():
    """Deviations of the m=4, d=2 skeleton when one pair's truth mass is
    moved one ulp away from the empirical mass of its set, in a set of
    several pairs and where that pair attains the row's maximum: its
    set's least and greatest pair masses then differ."""
    config, setup = _setup("parity-4-2")
    md = setup.estimator._md
    oracle = AllPairsMinDistance(md.M)
    counts, totals = _count_rows(setup, config)
    pair_masses = oracle.A @ md.M[0]
    mu = (counts @ oracle.A.T) / totals[:, None]
    gap = np.abs(mu - pair_masses)
    shared = np.flatnonzero(np.bincount(md._pair_set)[md._pair_set] > 1)
    for r, p in ((r, p) for r in range(len(counts)) for p in shared if gap[r, p] == gap[r].max()):
        nudged = pair_masses.copy()
        nudged[p] = np.nextafter(nudged[p], -np.inf if nudged[p] <= mu[r, p] else np.inf)
        want = [oracle.pair_deviation(c, t, nudged) for c, t in zip(counts, totals)]
        if want[r] > gap[r].max():  # the ulp survives the subtraction
            break
    else:
        raise AssertionError("no nudge moves a deviation")
    got = md.deviation_rows(md.empirical(counts, totals), md._extremes(nudged))
    return [] if got.tolist() == want else ["deviations"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_skeleton_matches_all_pairs(name, scorer):
    assert _cover_differences(name) == []


@pytest.mark.parametrize("name", ["parity-3-2", "parity-4-2"])
def test_direct_matches_all_pairs(name, scorer):
    assert _cover_differences(name, direct=True) == []


@pytest.mark.parametrize("members", [[0], [1, 1], [1, 1, 0], [0, 1, 2, 3]], ids=str)
def test_dyadic_tables_match_all_pairs(members, scorer):
    # one member has no pairs; equal members tie exactly, lowest index
    # first; a row whose mu is a member's law scores that member 0
    assert _dyadic_differences(members) == []


def test_deviation_reads_each_sets_extreme_pair_masses():
    assert _nudged_deviation_differences() == []


def test_size_rule_prunes_only_the_wide_skeleton():
    # measured: pruning pays on the m=4, d=2 skeleton (64 x 728) and not
    # on its direct table (64 x 272), nor on the shipped rates (8 x 26)
    _, wide = _setup("parity-4-2")
    _, shipped = _setup("parity-3-2")
    assert wide.estimator._md.PA.size >= estimators._PRUNE_FROM
    assert wide.direct._md.PA.size < estimators._PRUNE_FROM
    assert shipped.estimator._md.PA.size < estimators._PRUNE_FROM


def _ties_to_highest(self, mu):
    scores = self._scores(mu)
    return scores.shape[1] - 1 - np.argmin(scores[:, ::-1], axis=1)


_extremes = _MinDistance._extremes

# each planted defect: the attribute of `_MinDistance` it replaces, and the
# comparison that must flag it, with its arguments
PLANTED = {
    "envelope-from-hi-only": (
        "_envelope", lambda self, mu: np.abs(self._hi - mu), _cover_differences, "parity-4-2"
    ),
    "skip-level-from-the-largest-bound": (
        "_skip_level", staticmethod(lambda lower: lower.max(axis=1)), _cover_differences, "parity-4-2", True
    ),
    "least-and-greatest-swapped": (
        "_extremes", lambda self, t: _extremes(self, t)[::-1], _nudged_deviation_differences
    ),
    "ties-to-the-highest-index": ("select_masses", _ties_to_highest, _dyadic_differences, [1, 1, 0]),
}


@pytest.mark.parametrize("defect", sorted(PLANTED))
def test_a_planted_defect_fails_the_all_pairs_comparison(defect, monkeypatch):
    attribute, planted, check, *args = PLANTED[defect]
    monkeypatch.setattr(estimators, "_PRUNE_FROM", 1)
    assert check(*args) == []
    monkeypatch.setattr(_MinDistance, attribute, planted)
    assert check(*args) != []


def _singleton_table(members: int, sets: int, rng):
    """A selection table of `sets` distinct singleton sets over as many
    support points, with random member masses, and the masses alone."""
    PA = rng.random((members, sets))
    return _MinDistance.from_sets(np.eye(sets, dtype=bool), PA), PA


@pytest.mark.parametrize("rows", [1, 2000])
@pytest.mark.parametrize("members, sets", [(8, 1), (8, 16), (8, 26), (64, 272), (1, 0)])
def test_set_major_kernel_matches_the_oracle_bit_for_bit(rows, members, sets):
    # the kernel itself, on any stack, and the selection that routes to it
    # or to the row-major scores; (1, 0) is a table with no pairs
    rng = np.random.default_rng(rows * 1000 + sets)
    md, PA = _singleton_table(members, sets, rng)
    counts = rng.integers(0, 50, size=(rows, sets))
    totals = rng.integers(1, 3000, size=rows)
    mu = md.empirical(counts, totals)
    expected = yatracos_scores(PA, (counts @ np.eye(sets)) / totals[:, None])
    assert md._set_major_scores(mu).tobytes() == expected.tobytes()
    assert md._scores(mu).tobytes() == expected.tobytes()
    assert md.select_rows(counts, totals).tolist() == expected.argmin(axis=1).tolist()


@pytest.mark.parametrize("rows", [1, 2000])
def test_set_major_kernel_sends_exact_ties_to_the_lowest_index(rows):
    # members 0 and 2 mirror each other about mu = (1/2, 1/2), and member 1
    # repeats member 2: all three score 1/4 exactly
    PA = np.array([[0.25, 0.75], [0.75, 0.25], [0.75, 0.25], [1.0, 0.0]])
    md = _MinDistance.from_sets(np.eye(2, dtype=bool), PA)
    counts = np.tile([[3, 3]], (rows, 1))
    mu = md.empirical(counts, 6)
    assert md._set_major_scores(mu).tolist() == [[0.25, 0.25, 0.25, 0.5]] * rows
    assert md.select_masses(mu).tolist() == [0] * rows


def test_direct_table_is_built_holding_one_all_pairs_product():
    # the m=4, d=2 direct table: a float copy of its 4,032 x 16 sets and
    # its 64 x 4,032 product are 2.6 MB; a whole-table comparison of the
    # product with its sets' first pairs held a second copy (4.54 MB)
    import tracemalloc

    _, setup = _setup("parity-4-2")
    cover = setup.estimator.cover
    estimators.DirectEstimator(cover)  # first-use allocations stay out of the peak
    tracemalloc.start()
    try:
        estimators.DirectEstimator(cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6, peak


def test_an_odd_column_past_the_first_block_keeps_its_column(scorer):
    # the m=4, d=2 skeleton's 4,032 pairs span several comparison blocks:
    # nudge one pair of the last block by one ulp, away from the empirical
    # mass of its set, where it attains a member's score; it must keep a
    # column of its own, and the scores stay the all-pairs ones
    config, setup = _setup("parity-4-2")
    M = setup.estimator._md.M
    oracle = AllPairsMinDistance(M)
    counts, totals = _count_rows(setup, config)
    mu = oracle.empirical(counts, totals)
    scores = yatracos_scores(oracle.PA, mu)
    step = estimators._GAP_BLOCK // len(M)
    last = (len(oracle.pairs) - 1) // step * step
    assert last >= 2 * step
    first = {}
    repeats = [p for p, row in enumerate(oracle.A) if first.setdefault(row.tobytes(), p) != p and p >= last]
    gaps = np.abs(oracle.PA[None, :, repeats] - mu[:, None, repeats])  # (rows, members, repeats)
    for r, l, i in np.argwhere(gaps == scores[:, :, None]):
        q = repeats[i]
        PA = oracle.PA.copy()
        PA[:, q] = np.nextafter(PA[:, q], np.where(PA[:, q] >= mu[r, q], np.inf, -np.inf))
        nudged = AllPairsMinDistance.from_sets(oracle.A, PA)
        picks, expected = zip(*(nudged.select(c, t) for c, t in zip(counts, totals)))
        if expected[r][l] > scores[r, l]:  # the ulp survives the subtraction
            break
    else:
        raise AssertionError("no nudge of a last-block pair moves a score")
    md = _MinDistance.from_sets(oracle.A, PA)
    assert len(md.A) == len(first) + 1  # the distinct sets, and the nudged pair
    assert md.A[-1].tolist() == oracle.A[q].tolist() and md.PA[:, -1].tolist() == PA[:, q].tolist()
    assert md._scores(md.empirical(counts, totals)).tobytes() == np.array(expected).tobytes()
    assert md.select_rows(counts, totals).tolist() == list(picks)
