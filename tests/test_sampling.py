from types import SimpleNamespace

import numpy as np
import pytest

from priorlab import ratelab
from priorlab.cli import dispatch
from priorlab.concepts import (
    ConceptSpace,
    DataDistribution,
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
    _digit_table,
    _parity_index_table,
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


class QueuedUniforms:
    """A stand-in rng whose `random(size)` calls return fixed arrays in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        u = self.draws.pop(0)
        assert u.shape == np.empty(size).shape
        return u


@pytest.mark.parametrize(
    "weights",
    [(0.1,) * 10, (0.1,) * 4 + (0.0,) + (0.1,) * 6],
    ids=["tenths", "zero-weight-point"],
)
def test_point_draws_match_searchsorted(weights):
    def uniforms_and_expected(cum):
        # 0.0, every threshold and its two neighbours, and the largest uniform
        u = np.concatenate([
            [0.0], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), [1.0 - 2.0**-53],
        ])
        u = u[u < 1.0]
        index = np.searchsorted(cum, u, side="right")
        assert cum[-1] < 1.0 and (index == len(cum)).any()  # some draws need the clip
        return u, np.minimum(index, len(cum) - 1)

    dist = DataDistribution(weights)
    m = dist.m
    u, expected = uniforms_and_expected(np.cumsum(weights))
    assert np.array_equal(dist.inverse_cdf(u), expected + 1)
    # bulk path: a concept draw of T uniforms, then the (T, k) point draw
    space = enumerate_concepts(m, 1)
    rng = QueuedUniforms(np.zeros(len(u)), u.reshape(-1, 1))
    tasks = sample_arrays(uniform_prior(space), space, dist, len(u), 1, rng)
    xs, ys = tasks.xs, tasks.ys
    assert not rng.draws
    assert xs.dtype == np.int64 and np.array_equal(xs[:, 0], expected + 1)
    # the tabular prior's concept draw, with a cumsum that ends below 1
    prior = TabularPrior(space, (0.0,) + weights)
    u, expected = uniforms_and_expected(np.cumsum(prior.mass))
    rng = QueuedUniforms(u, np.zeros((len(u), 1)))
    assert np.array_equal(sample_arrays(prior, space, dist, len(u), 1, rng).concepts, expected)
    # an elicitation member's function draw, in bulk and one at a time
    functions = [SatisfactionFunction((i / 100, 0.0)) for i in range(m)]
    family = ValuationPriorFamily(functions, [weights], log2_pdim_bound(functions))
    u, expected = uniforms_and_expected(np.cumsum(weights))
    assert np.array_equal(family.function_index(0, u), expected)
    assert [int(family.function_index(0, x)) for x in u.tolist()] == expected.tolist()


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


def test_tabular_draw_clips_a_cumsum_below_one():
    mass = np.full(len(SP32), 1 / len(SP32))
    mass[-1] -= 5e-13  # within the prior's tolerance, so the cumsum ends below 1
    prior = TabularPrior(SP32, mass)
    u = np.array([1.0 - 2.0**-53, 0.0])
    assert np.searchsorted(np.cumsum(prior.mass), u[0], side="right") == len(SP32)
    rng = QueuedUniforms(u, np.full((2, 2), 0.5))
    assert sample_arrays(prior, SP32, D3, 2, 2, rng).concepts.tolist() == [len(SP32) - 1, 0]


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
    """Oracle: the sampler as it drew labels, with a three-index concept
    gather, a binary search per point and labels read off the concept
    masks, then coded by `outcome_codes`."""
    trace = None
    if isinstance(source, SmoothPriorParams):
        table = _parity_index_table(source.m, source.d, space.masks.tobytes())
        i_star = rng.integers(0, len(table), size=T)
        p1 = ((1.0 + source.gamma_m * np.asarray(source.b)) / 2.0)[i_star]
        c = (rng.random(T) < p1).astype(np.int64)
        choice = rng.integers(0, table.shape[2], size=T)
        idx = table[i_star, c, choice]
        trace = (i_star, c)
    else:
        cum = np.cumsum(source.mass)
        idx = np.minimum(np.searchsorted(cum, rng.random(T), side="right"), len(space) - 1)
    cum = np.cumsum(dist.weights)
    xs = np.minimum(np.searchsorted(cum, rng.random((T, k)), side="right") + 1, dist.m)
    ys = 2 * ((space.masks[idx][:, None] >> (xs - 1)) & 1) - 1
    codes = outcome_codes(xs, ys, space.m)
    return SimpleNamespace(xs=xs, ys=ys, concepts=idx, trace=trace, codes=codes, m=space.m)


@pytest.mark.parametrize("k_offset", [-1, 0, 1], ids=["k1", "k-d", "k-d+1"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sampler_matches_labels_oracle(m, k_offset):
    d = 2
    k = 1 if k_offset == -1 else d + k_offset
    space = enumerate_concepts(m, d)
    dist = DataDistribution(tuple(np.arange(1, m + 1) / (m * (m + 1) / 2)))
    n_signs = len(d_subsets(m, d))
    params = SmoothPriorParams(tuple((-1) ** i for i in range(n_signs)), 1.0, 1.0, m, d)
    for source in (params, smooth_prior(params, space)):
        for T in (1, 7, 10_000):
            got = sample_arrays(source, space, dist, T, k, stream(m, k, T))
            want = labels_oracle(source, space, dist, T, k, stream(m, k, T))
            for field in ("xs", "ys", "concepts", "codes"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            assert got.codes.dtype == got.xs.dtype == np.int64
            if want.trace is None:
                assert got.trace is None
            else:
                assert all(np.array_equal(a, b) for a, b in zip(got.trace, want.trace))


def labels_counter(est, m, tasks):
    """Oracle: the counter as it re-checked and re-coded sampled labels."""
    if m != est.dist.m:
        raise ValueError(f"tasks over {m} points, estimator built for {est.dist.m}")
    return est.count_outcomes(tasks.xs, tasks.ys)


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
    # the old sampler and counter, monkeypatched in, write the same bytes
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config + "L = 1.0\nalpha = 1.0\nT_grid = 20,200\nreplicates = 3\n")
    assert dispatch(subcommand, cfg, 5, tmp_path / "codes") == 0
    monkeypatch.setattr(ratelab, "sample_arrays", labels_oracle)
    monkeypatch.setattr(ratelab, "counts_from_arrays_fast", labels_counter)
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
    for high in (1, 2, 256, 65536, 2**32):
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
    for high in (3, 6, 1000, 2**33):
        with pytest.raises(ValueError, match="power-of-two"):
            raw_integers(raw, high, 2)
    with pytest.raises(ValueError, match="raw outputs"):
        raw_integers(raw, 4, 5)
