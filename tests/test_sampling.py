import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from priorlab import ratelab
from priorlab.cli import dispatch
from priorlab.concepts import (
    ConceptSpace,
    DataDistribution,
    categorical_draw,
    d_subsets,
    enumerate_concepts,
    uniform_distribution,
)
from priorlab.elicitation import SatisfactionFunction, ValuationPriorFamily, log2_pdim_bound
from priorlab.priors import (
    SmoothPriorParams,
    TabularPrior,
    point_mass,
    reference_prior,
    smooth_prior,
    uniform_prior,
)
from priorlab.sampling import (
    Tasks,
    _categorical,
    _count_cuts,
    _digit_table,
    _lemire,
    _parity_index_table,
    keyed_streams,
    outcome_codes,
    sample_arrays,
    raw_integers,
    raw_random,
    stream,
    stream_raw,
)

SP32 = enumerate_concepts(3, 2)
D3 = uniform_distribution(3)
PARAMS = SmoothPriorParams((1, 1, 1), 1.0, 1.0, 3, 2)


def test_point_mass_always_returns_that_concept():
    sp = enumerate_concepts(3, 1)
    pm = point_mass(sp, 0b010)
    rng = np.random.default_rng(0)
    idx = sample_arrays(pm, sp, D3, 100, 1, rng).concepts
    assert (sp.masks[idx] == 0b010).all()


def test_sample_concept_frequencies_match_reference():
    # pi0 on (2,1) has masses (1/2, 1/4, 1/4); 10^5 draws within 4 sigma
    sp = enumerate_concepts(2, 1)
    pi0 = reference_prior(sp)
    rng = np.random.default_rng(123)
    n = 100_000
    idx = sample_arrays(pi0, sp, uniform_distribution(2), n, 1, rng).concepts
    counts = np.bincount(idx, minlength=len(sp))
    for i, p in enumerate([0.5, 0.25, 0.25]):
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(counts[i] / n - p) < 4 * sigma


def test_uniform_prior_chi_square():
    sp = enumerate_concepts(3, 2)
    unif = uniform_prior(sp)
    rng = np.random.default_rng(8)
    n = 70_000
    idx = sample_arrays(unif, sp, D3, n, 1, rng).concepts
    counts = np.bincount(idx, minlength=len(sp))
    expected = n / len(sp)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chi-square with 6 dof: 99th percentile is 16.81
    assert chi2 < 16.81


def test_traced_task_labels_consistent_and_trace_present():
    rng = np.random.default_rng(5)
    tasks = sample_arrays(PARAMS, SP32, D3, 200, 4, rng)
    xs, ys, trace = tasks.xs, tasks.ys, tasks.trace
    assert trace is not None
    i_star, c = trace
    assert ((0 <= i_star) & (i_star < 3)).all()
    assert np.isin(c, (0, 1)).all()
    for task_xs, task_ys in zip(xs, ys):
        # labels must come from a single concept of C(3,2)
        consistent = [
            h for h in SP32
            if all(h.label(int(x)) == y for x, y in zip(task_xs, task_ys))
        ]
        assert consistent


def test_traced_task_d1_degenerate_choice():
    # d = 1: parity 1 forces the singleton, parity 0 forces the empty set
    sp = enumerate_concepts(2, 1)
    params = SmoothPriorParams((1, -1), 0.5, 1.0, 2, 1)
    rng = np.random.default_rng(9)
    tasks = sample_arrays(params, sp, uniform_distribution(2), 200, 2, rng)
    xs, ys, trace = tasks.xs, tasks.ys, tasks.trace
    for task_xs, task_ys, i_star, c in zip(xs, ys, *trace):
        positives = {int(x) for x, y in zip(task_xs, task_ys) if y == 1}
        if c == 1:
            assert positives <= {i_star + 1}
        else:
            assert not positives


def test_traced_concept_law_matches_smooth_prior():
    # marginal law of the generated concept equals the explicit table
    pb = smooth_prior(PARAMS, SP32)
    rng = np.random.default_rng(21)
    n = 200_000
    idx = sample_arrays(PARAMS, SP32, D3, n, 2, rng).concepts
    counts = np.bincount(idx, minlength=len(SP32))
    for i, p in enumerate(pb.mass):
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(counts[i] / n - p) < 4 * sigma


def test_sample_arrays_concept_indices():
    # parity family: each concept lies inside X_{i*} with c positives mod 2
    tasks = sample_arrays(PARAMS, SP32, D3, 2_000, 2, np.random.default_rng(5))
    idx, (i_star, c) = tasks.concepts, tasks.trace
    masks = SP32.masks[idx]
    subs = np.asarray(d_subsets(3, 2))
    assert not (masks & ~subs[i_star]).any()
    assert np.array_equal([bin(int(m)).count("1") % 2 for m in masks], c)
    # tabular prior: a point mass is drawn every time
    pm = point_mass(SP32, 0b101)
    tasks = sample_arrays(pm, SP32, D3, 100, 2, np.random.default_rng(6))
    idx, trace = tasks.concepts, tasks.trace
    assert trace is None and (idx == SP32.index_of(0b101)).all()


PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's multiplier
MASK64 = (1 << 64) - 1


def rigged_stream(word: int) -> np.random.Generator:
    """A PCG64 generator whose next raw word is `word`.  PCG64 steps its
    state (hi, lo) to state * mult + inc mod 2**128, then outputs hi ^ lo
    rotated right by hi >> 58; so fix hi, solve lo, and undo the step."""
    inc = 0xDA3E39CB94B95BDB853C49E6748FEA9B
    hi = 0x9E3779B97F4A7C15
    rot = hi >> 58
    lo = hi ^ ((word << rot | word >> (64 - rot)) & MASK64)
    state = ((hi << 64 | lo) - inc) * pow(PCG_MULT, -1, 1 << 128) % (1 << 128)
    bit_gen = np.random.PCG64(0)
    bit_gen.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    return np.random.Generator(bit_gen)


def test_rigged_stream_gives_the_chosen_word():
    for word in (0, 1, 2**32, MASK64, 0xABCDEF1200000000):
        assert rigged_stream(word).bit_generator.random_raw(1)[0] == word
        assert rigged_stream(word).random() == (word >> 11) * 2.0**-53


def words_near(u: np.ndarray) -> np.ndarray:
    """The words whose doubles `random()` = (w >> 11) 2^-53 are the two
    multiples of 2^-53 around each value in `u` (in [0, 1)), each with
    its 11 dropped bits clear and all set: for a threshold t these are
    the last words below it and the first at or above it."""
    scaled = np.concatenate([np.floor(u * 2.0**53), np.ceil(u * 2.0**53)])
    words = np.unique(np.minimum(scaled, 2.0**53 - 1)).astype(np.uint64) << np.uint64(11)
    return np.concatenate([words, words | np.uint64(0x7FF)])


@pytest.mark.parametrize(
    "weights",
    [(0.1,) * 10, (0.1,) * 4 + (0.0,) + (0.1,) * 6],
    ids=["tenths", "zero-weight-point"],
)
def test_point_draws_match_searchsorted(weights):
    def words_and_expected(cum):
        # around 0.0, every threshold and its two neighbours, and the largest uniform
        u = np.concatenate([
            [0.0], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), [1.0 - 2.0**-53],
        ])
        words = words_near(u[u < 1.0])
        index = np.searchsorted(cum, raw_random(words), side="right")
        assert cum[-1] < 1.0 and (index == len(cum)).any()  # some draws need the clip
        return words, np.minimum(index, len(cum) - 1)

    # a categorical draw of D's points, and of a tabular prior's concepts
    # with a cumsum that ends below 1, by integer compares on the words
    space = enumerate_concepts(len(weights), 1)
    for w in (weights, tuple(TabularPrior(space, (0.0,) + weights).mass)):
        words, expected = words_and_expected(np.cumsum(w))
        cuts, categories = _categorical(w)
        assert np.array_equal(categories[_count_cuts(cuts, words)], expected)
    # an elicitation member's function draw, in bulk and one at a time
    functions = [SatisfactionFunction((i / 100, 0.0)) for i in range(len(weights))]
    family = ValuationPriorFamily(functions, [weights], log2_pdim_bound(functions))
    words, expected = words_and_expected(np.cumsum(weights))
    u = raw_random(words)
    assert np.array_equal(family.function_index(0, u), expected)
    assert [int(family.function_index(0, x)) for x in u.tolist()] == expected.tolist()


@pytest.mark.parametrize(
    "weights",
    [
        (0.0, 0.0, 0.5, 0.5),  # thresholds at 0: every word passes them
        (0.6, 0.4 + 5e-13, 0.0),  # a threshold past 1: no word passes it
        (0.5, 0.5, 0.0, 0.0),  # thresholds at exactly 1
        (-0.5, 0.75, 0.5, 0.5, -0.25),  # below 0, past 1, and out of order
        (1.0,),  # no threshold at all
    ],
)
def test_categorical_cuts_at_and_beyond_the_unit_interval(weights):
    # ceil(t 2^53) << 11 is no uint64 for t < 0 or t >= 1; such thresholds
    # count for every word or for none, as the double compare has them
    thresholds = np.cumsum(weights)[:-1]
    u = np.clip(np.concatenate([[0.0, 0.5], thresholds]), 0.0, 1.0 - 2.0**-53)
    words = words_near(np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)]))
    cuts, categories = _categorical(weights)
    assert cuts.dtype == np.uint64 and list(cuts) == sorted(set(cuts.tolist()))
    expected = categorical_draw(thresholds, raw_random(words))
    assert np.array_equal(categories[_count_cuts(cuts, words)], expected)


def test_tabular_draw_clips_a_cumsum_below_one():
    mass = np.full(len(SP32), 1 / len(SP32))
    mass[-1] -= 5e-13  # within the prior's tolerance, so the cumsum ends below 1
    prior = TabularPrior(SP32, mass)
    assert np.searchsorted(np.cumsum(prior.mass), 1.0 - 2.0**-53, side="right") == len(SP32)
    # the first word is the concept draw: the largest uniform, then 0.0
    for word, concept in ((MASK64, len(SP32) - 1), (0, 0)):
        rng = rigged_stream(word)
        assert sample_arrays(prior, SP32, D3, 1, 2, rng).concepts.tolist() == [concept]


def test_parity_tables_built_once_per_space():
    _parity_index_table.cache_clear()
    flipped = SmoothPriorParams((1, -1, 1), 1.0, 1.0, 3, 2)
    reordered = ConceptSpace(3, 2, SP32.concepts[::-1])
    draws = [
        sample_arrays(params, space, D3, 50, 2, np.random.default_rng(3))
        for params, space in ((PARAMS, SP32), (flipped, SP32), (PARAMS, reordered))
    ]
    assert _parity_index_table.cache_info().misses == 2  # one table per concept order
    # the same draws, read as masks through either concept order
    assert np.array_equal(SP32.masks[draws[0].concepts], reordered.masks[draws[2].concepts])
    table = _parity_index_table(3, 2, SP32.masks.tobytes())
    assert not table.flags.writeable


def test_traced_parity_coin_rate():
    # gamma_m = 0.5 itself is rejected (the open-interval invariant), so the
    # coin-rate check P(C = 1) = (1 + gamma)/2 runs at the largest legal gamma
    with pytest.raises(ValueError):
        SmoothPriorParams((1, 1, 1), 3.0, 1.0, 3, 2)
    params = SmoothPriorParams((1, 1, 1), 2.9, 1.0, 3, 2)
    p1 = (1 + params.gamma_m) / 2
    rng = np.random.default_rng(2)
    n = 100_000
    i_star, c = sample_arrays(params, SP32, D3, n, 2, rng).trace
    sigma = np.sqrt(p1 * (1 - p1) / n)
    assert abs(c.mean() - p1) < 4 * sigma


def test_parity_sufficiency():
    # conditional on the d draws exactly covering X_i, the parity of the
    # +1 labels is Bernoulli((1 + gamma b_i)/2)
    params = SmoothPriorParams((1, -1, 1), 1.0, 1.0, 3, 2)
    rng = np.random.default_rng(31)
    n = 300_000
    tasks = sample_arrays(params, SP32, D3, n, 2, rng)
    xs, ys, (i_star, c) = tasks.xs, tasks.ys, tasks.trace
    from priorlab.concepts import d_subsets

    subs = d_subsets(3, 2)
    for i, x_mask in enumerate(subs):
        covers = np.array(
            [
                (1 << (row[0] - 1)) | (1 << (row[1] - 1)) == x_mask
                for row in xs
            ]
        )
        sel = covers & (i_star == i)
        if sel.sum() < 100:
            continue
        parity = ((ys[sel] == 1).sum(axis=1) % 2).astype(float)
        p_i = (1 + params.gamma_m * params.b[i]) / 2
        sigma = np.sqrt(p_i * (1 - p_i) / sel.sum())
        assert abs(parity.mean() - p_i) < 4 * sigma


def test_event_frequency_matches_formula():
    # P(i* = i and the d draws enumerate X_i) = (d!/m^d) / C(m,d)
    params = SmoothPriorParams((1, 1, 1), 1.0, 1.0, 3, 2)
    rng = np.random.default_rng(17)
    n = 200_000
    tasks = sample_arrays(params, SP32, D3, n, 2, rng)
    xs, ys, (i_star, c) = tasks.xs, tasks.ys, tasks.trace
    from priorlab.concepts import d_subsets

    subs = d_subsets(3, 2)
    p_event = (2 / 9) / 3  # d! / m^d / C(m, d) = 2/27
    for i, x_mask in enumerate(subs):
        covers = np.array(
            [(1 << (row[0] - 1)) | (1 << (row[1] - 1)) == x_mask for row in xs]
        )
        freq = (covers & (i_star == i)).mean()
        sigma = np.sqrt(p_event * (1 - p_event) / n)
        assert abs(freq - p_event) < 3 * sigma


def test_batch_determinism():
    def draw(seed):
        tasks = sample_arrays(PARAMS, SP32, D3, 20, 2, stream(seed))
        xs, ys, idx, (i_star, c) = tasks.xs, tasks.ys, tasks.concepts, tasks.trace
        return np.concatenate([xs.ravel(), ys.ravel(), idx, i_star, c])

    assert np.array_equal(draw(99), draw(99))
    assert not np.array_equal(draw(99), draw(100))


def test_batch_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_arrays(PARAMS, SP32, D3, 0, 2, stream(1))
    with pytest.raises(ValueError):
        sample_arrays(PARAMS, SP32, D3, 5, 0, stream(1))
    # the m=3 table would draw only concepts over points 1..3 of the m=4 space
    with pytest.raises(ValueError, match="different concept space"):
        sample_arrays(PARAMS, enumerate_concepts(4, 2), uniform_distribution(4), 5, 2, stream(1))


def test_batch_works_with_plain_prior():
    pi0 = reference_prior(SP32)
    tasks = sample_arrays(pi0, SP32, D3, 10, 3, stream(4))
    xs, ys, idx, trace = tasks.xs, tasks.ys, tasks.concepts, tasks.trace
    assert xs.shape == ys.shape == (10, 3) and idx.shape == (10,)
    assert trace is None


def test_labels_realizable_in_class():
    tasks = sample_arrays(PARAMS, SP32, D3, 50, 3, stream(12))
    xs, ys = tasks.xs, tasks.ys
    for task_xs, task_ys in zip(xs, ys):
        assert any(
            all(h.label(int(x)) == y for x, y in zip(task_xs, task_ys)) for h in SP32
        )



def test_tabular_prior_from_another_space_rejected():
    # an m=4 prior on the m=3 space drew concept 6 for all of its mass on 7-10
    with pytest.raises(ValueError, match="different concept space"):
        sample_arrays(uniform_prior(enumerate_concepts(4, 2)), SP32, D3, 2_000, 2, stream(1))
    # the same class in another concept order would relabel every draw
    reordered = ConceptSpace(3, 2, SP32.concepts[::-1])
    with pytest.raises(ValueError, match="different concept space"):
        sample_arrays(smooth_prior(PARAMS, SP32), reordered, D3, 10, 2, stream(1))
    # a prior on an equal space built separately is accepted
    tasks = sample_arrays(uniform_prior(enumerate_concepts(3, 2)), SP32, D3, 10, 2, stream(1))
    assert tasks.concepts.max() < len(SP32)


def test_distribution_over_other_point_count_rejected():
    # points 4 and 5 of a 5-point distribution lie outside the m=3 space
    for params in (PARAMS, smooth_prior(PARAMS, SP32)):
        with pytest.raises(ValueError, match="5 points"):
            sample_arrays(params, SP32, uniform_distribution(5), 100, 2, stream(2))


def test_codes_must_fit_in_int64():
    # 6^24 fits in int64, 6^25 does not
    assert sample_arrays(PARAMS, SP32, D3, 3, 24, stream(3)).codes.dtype == np.int64
    with pytest.raises(ValueError, match="int64"):
        sample_arrays(PARAMS, SP32, D3, 3, 25, stream(3))


def test_tasks_are_not_iterable():
    tasks = sample_arrays(PARAMS, SP32, D3, 5, 2, stream(4))
    with pytest.raises(TypeError):
        xs, ys, idx, trace = tasks
    assert not _digit_table(3, SP32.masks.tobytes()).flags.writeable


def labels_oracle(source, space, dist, T, k, rng):
    """Oracle: the sampler as it drew through Generator calls, with a
    three-index concept gather, a binary search per point and labels read
    off the concept masks, then coded by `outcome_codes`.  `tasks` holds
    the same draws as a `Tasks` over every point and, for the parity
    family, every branch."""
    trace = None
    if isinstance(source, SmoothPriorParams):
        table = _parity_index_table(source.m, source.d, space.masks.tobytes())
        i_star = rng.integers(0, len(table), size=T)
        p1 = ((1.0 + source.gamma_m * np.asarray(source.b)) / 2.0)[i_star]
        c = (rng.random(T) < p1).astype(np.int64)
        choice = rng.integers(0, table.shape[2], size=T)
        idx = table[i_star, c, choice]
        trace = (i_star, c)
        branch, branches, width = (2 * i_star + c) * table.shape[2] + choice, table.reshape(-1), table.shape[2]
    else:
        cum = np.cumsum(source.mass)
        idx = np.minimum(np.searchsorted(cum, rng.random(T), side="right"), len(space) - 1)
        branch, branches, width = idx, np.arange(len(space)), None
    cum = np.cumsum(dist.weights)
    xs = np.minimum(np.searchsorted(cum, rng.random((T, k)), side="right") + 1, dist.m)
    ys = 2 * ((space.masks[idx][:, None] >> (xs - 1)) & 1) - 1
    codes = outcome_codes(xs, ys, space.m)
    tasks = Tasks(
        branch, xs - 1, space.m, np.arange(space.m), branches, width,
        _digit_table(space.m, space.masks.tobytes()),
    )
    return SimpleNamespace(xs=xs, ys=ys, concepts=idx, trace=trace, codes=codes, tasks=tasks)


def later_draws(rng) -> tuple:
    """What a generator's state decides: its PCG64 state, the held 32-bit
    half if any (numpy keeps the last one in `uinteger` after using it,
    but never reads it again), and the next draws."""
    state = rng.bit_generator.state
    held = state["has_uint32"] and state["uinteger"]
    return state["state"], held, rng.integers(0, 7, size=3).tolist(), rng.random(2).tolist()


def assert_tasks_match(got, want):
    """Every field of `got`, a Tasks, equals the oracle's, and so do
    those of the oracle's own Tasks."""
    for tasks in (got, want.tasks):
        for field in ("xs", "ys", "concepts", "codes"):
            assert np.array_equal(getattr(tasks, field), getattr(want, field)), field
        assert tasks.codes.dtype == tasks.xs.dtype == np.int64
        if want.trace is None:
            assert tasks.trace is None
        else:
            assert all(np.array_equal(a, b) for a, b in zip(tasks.trace, want.trace))


@pytest.mark.parametrize("k_offset", [-1, 0, 1], ids=["k1", "k-d", "k-d+1"])
@pytest.mark.parametrize(
    "m, d", [(2, 1), (2, 2), (3, 2), (4, 2), (4, 3), (5, 2)], ids=lambda v: str(v)
)
def test_sampler_matches_labels_oracle(m, d, k_offset):
    # (2, 1) draws no choice, (2, 2) no subset; the others integers(0, 3),
    # (0, 6), (0, 4) and (0, 10) and a choice of 2 or 4
    k = 1 if k_offset == -1 else d + k_offset
    space = enumerate_concepts(m, d)
    n_signs = len(d_subsets(m, d))
    params = SmoothPriorParams(tuple((-1) ** i for i in range(n_signs)), 1.0, 1.0, m, d)
    sources = [params, smooth_prior(params, space), point_mass(space, 0b1)]
    dists = [
        DataDistribution(tuple(np.arange(1, m + 1) / (m * (m + 1) / 2))),
        DataDistribution((0.0,) * (m - 1) + (1.0,)),  # one point left to draw
    ]
    for source, dist in itertools.product(sources, dists):
        for T, held in ((1, 0), (7, 3), (10_000, 0), (10_001, 1)):
            rngs = stream(m, k, T), stream(m, k, T)
            for rng in rngs:
                rng.integers(0, 2, size=held)  # an odd size holds a half over
            got = sample_arrays(source, space, dist, T, k, rngs[0])
            assert_tasks_match(got, labels_oracle(source, space, dist, T, k, rngs[1]))
            assert later_draws(rngs[0]) == later_draws(rngs[1])


@pytest.mark.parametrize("m, d", [(3, 2), (4, 2)], ids=["range-3", "range-6"])
def test_rejected_draw_falls_back_to_generator_calls(m, d):
    # a first word whose low half is 0: numpy rejects that draw from every
    # range but a power of two, and redraws from the high half
    word = 0xABCDEF1200000000
    n_sub = len(d_subsets(m, d))
    assert _lemire(np.zeros(1, dtype=np.uint32), n_sub)[1]
    assert rigged_stream(word).integers(0, n_sub, size=2).tolist() != [0, 0]
    space, dist = enumerate_concepts(m, d), uniform_distribution(m)
    params = SmoothPriorParams(tuple((-1) ** i for i in range(n_sub)), 1.0, 1.0, m, d)
    rngs = rigged_stream(word), rigged_stream(word)
    got = sample_arrays(params, space, dist, 50, d, rngs[0])
    assert_tasks_match(got, labels_oracle(params, space, dist, 50, d, rngs[1]))
    assert later_draws(rngs[0]) == later_draws(rngs[1])


def test_sampler_needs_pcg64_words():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(ValueError, match="PCG64"):
        sample_arrays(PARAMS, SP32, D3, 5, 2, rng)


@pytest.mark.parametrize(
    "subcommand, config",
    [
        ("rates", "m = 3\nd = 2\ntruth_count = 3\n"),
        ("rates", "m = 4\nd = 1\nfamily = twopoint\n"),
        ("lowerbound", "m = 3\nd = 2\n"),
    ],
    ids=["rates-parity", "rates-twopoint", "lowerbound"],
)
def test_cli_byte_identical_to_labels_oracle(tmp_path, monkeypatch, subcommand, config):
    # the Generator-call sampler, monkeypatched in with its own branch and
    # point layout, writes the same bytes
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config + "L = 1.0\nalpha = 1.0\nT_grid = 20,200\nreplicates = 3\n")
    assert dispatch(subcommand, cfg, 5, tmp_path / "codes") == 0
    monkeypatch.setattr(ratelab, "sample_arrays", lambda *args: labels_oracle(*args).tasks)
    monkeypatch.setattr(ratelab, "_SETUP_CACHE", {})
    assert dispatch(subcommand, cfg, 5, tmp_path / "labels") == 0
    names = sorted(
        p.name for p in (tmp_path / "codes").iterdir()
        if p.suffix == ".csv" or p.name == "summary.txt"
    )
    assert "summary.txt" in names and len(names) >= 2
    for name in names:
        assert (tmp_path / "codes" / name).read_bytes() == (
            tmp_path / "labels" / name
        ).read_bytes(), name


# seeds of one, two, three and five uint32 words
BULK_SEEDS = [0, 2**32 + 5, 2**64 - 1, 2**130 + 7]


@pytest.mark.parametrize("seed", BULK_SEEDS)
def test_stream_raw_matches_stream(seed):
    keys = [(t, p) for t in (1, 2, 7, 2000, 2**32 - 1) for p in (0, 1)]
    keys += [(2, member, r) for member in (0, 7) for r in (0, 1, 299)]
    for shape in (keys[:10], keys[10:], [(77,)]):
        raw = stream_raw(seed, shape, 3)
        expected = [stream(seed, *key).bit_generator.random_raw(3) for key in shape]
        assert raw.dtype == np.uint64 and raw.shape == (len(shape), 3)
        assert np.array_equal(raw, np.array(expected, dtype=np.uint64))
    assert stream_raw(seed, np.zeros((0, 2), dtype=np.int64), 2).shape == (0, 2)


@pytest.mark.parametrize("seed", BULK_SEEDS)
def test_raw_conversions_match_generator_draws(seed):
    keys = [(t, 1) for t in range(1, 40)]
    raw = stream_raw(seed, keys, 3)
    assert raw_random(raw[:, 0]).tolist() == [stream(seed, *k).random() for k in keys]
    for high in (1, 2, 3, 6, 256, 1000, 65536, 2**32):
        for size in range(1, 6):  # an odd size leaves a half-word unused
            expected = [stream(seed, *k).integers(0, high, size=size).tolist() for k in keys]
            assert raw_integers(raw, high, size).tolist() == expected, (high, size)


def test_bulk_stream_rejects_what_it_cannot_reproduce():
    with pytest.raises(ValueError, match="non-negative"):
        stream_raw(-1, [(1, 0)], 1)  # as SeedSequence does
    with pytest.raises(ValueError):
        stream(-1, 1, 0)
    with pytest.raises(ValueError, match="key entries"):
        stream_raw(0, [(1, -1)], 1)
    with pytest.raises(ValueError, match="key entries"):
        stream_raw(0, [(2**32, 0)], 1)
    with pytest.raises(ValueError, match="2-d"):
        stream_raw(0, [1, 2], 1)
    raw = stream_raw(0, [(1, 0)], 2)
    for high in (0, 2**32 + 1, 2**33):
        with pytest.raises(ValueError, match="range"):
            raw_integers(raw, high, 2)
    with pytest.raises(ValueError, match="raw outputs"):
        raw_integers(raw, 4, 5)
    # a low half of 0 is rejected and redrawn by numpy from every range but
    # a power of two, which a fixed row of outputs cannot do
    zero = np.array([[0xABCDEF1200000000]], dtype=np.uint64)
    assert raw_integers(zero, 4, 2).tolist() == [[0, 2]]
    for high in (3, 6, 1000):
        with pytest.raises(ValueError, match="rejected"):
            raw_integers(zero, high, 1)


@pytest.mark.parametrize("seed", BULK_SEEDS)
def test_keyed_streams_match_stream(seed):
    keys = [(91, t, truth, rep) for t in (0, 4) for truth in (0, 63) for rep in (0, 1, 99)]
    for key, rng in zip(keys, keyed_streams(seed, keys), strict=True):
        want = stream(seed, *key)
        assert later_draws(rng) == later_draws(want)
        assert rng.bit_generator.random_raw(2).tolist() == want.bit_generator.random_raw(2).tolist()
