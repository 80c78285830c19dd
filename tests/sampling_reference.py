"""Reference implementations for the sampler tests.

`labels_oracle` draws tasks through numpy's `Generator` calls, with a
binary search per draw in place of the word decoders, and reads labels
off the concept masks.  `rigged_stream` is a PCG64 generator whose next
raw word is chosen, so a test can put a word numpy would reject where it
likes; `later_draws` is what a generator's state decides for the draws
after.  `raw_random` reads raw words as the doubles `Generator.random()`
makes of them, and `categorical_draw` draws categories from such doubles
by comparing them with the cumulative sums, the rule the word decode of
`sampling._categorical` must reproduce.
"""

from types import SimpleNamespace

import numpy as np

from priorlab.priors import SmoothPriorParams
from priorlab.sampling import Tasks, _parity_index_table, outcome_codes, task_layout

PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's multiplier
MASK64 = (1 << 64) - 1


def raw_random(words: np.ndarray) -> np.ndarray:
    """`Generator.random()` of each raw output: its top 53 bits / 2**53."""
    return (words >> np.uint64(11)) * 2.0**-53


def categorical_draw(thresholds, u) -> np.ndarray:
    """The category drawn by each uniform in `u` from a categorical law
    whose cumulative sums are cs: the number of thresholds cs[:-1] at or
    below it, which is `min(searchsorted(cs, u, side="right"),
    len(cs) - 1)` bit for bit (the clip covers a cumsum that ends below
    1)."""
    idx = np.zeros(np.shape(u), dtype=np.int64)
    for threshold in thresholds:
        idx += u >= threshold
    return idx


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


def labels_oracle(source, space, dist, T, k, rng):
    """Oracle: the sampler as it drew through Generator calls, with a
    three-index concept gather, a binary search per point and labels read
    off the concept masks, then coded by `outcome_codes`.  `tasks` holds
    the same draws as a `Tasks`: joint indices in the sampler's layout,
    built from the oracle's own branch and points."""
    layout = task_layout(source, space, dist, k)
    trace = None
    if isinstance(source, SmoothPriorParams):
        table = _parity_index_table(source.m, source.d, space.masks.tobytes())
        i_star = rng.integers(0, len(table), size=T)
        p1 = ((1.0 + source.gamma_m * np.asarray(source.b)) / 2.0)[i_star]
        c = (rng.random(T) < p1).astype(np.int64)
        choice = rng.integers(0, table.shape[2], size=T)
        idx = table[i_star, c, choice]
        trace = (i_star, c)
        branch = (2 * i_star + c) * table.shape[2] + choice
    else:
        cum = np.cumsum(source.mass)
        idx = np.minimum(np.searchsorted(cum, rng.random(T), side="right"), len(space) - 1)
        branch = np.searchsorted(layout.branches, idx)
    cum = np.cumsum(dist.weights)
    xs = np.minimum(np.searchsorted(cum, rng.random((T, k)), side="right") + 1, dist.m)
    ys = 2 * ((space.masks[idx][:, None] >> (xs - 1)) & 1) - 1
    codes = outcome_codes(xs, ys, space.m)
    joint = branch
    for j in range(k):
        joint = joint * len(layout.points) + np.searchsorted(layout.points, xs[:, j] - 1)
    return SimpleNamespace(xs=xs, ys=ys, concepts=idx, trace=trace, codes=codes, tasks=Tasks(joint, layout))


def later_draws(rng) -> tuple:
    """What a generator's state decides: its PCG64 state, the held 32-bit
    half if any (numpy keeps the last one in `uinteger` after using it,
    but never reads it again), and the next draws."""
    state = rng.bit_generator.state
    held = state["has_uint32"] and state["uinteger"]
    return state["state"], held, rng.integers(0, 7, size=3).tolist(), rng.random(2).tolist()
