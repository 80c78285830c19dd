"""Task generation: draw a target concept per task, then k labeled points.

Every draw follows one convention: a keyed stream, its PCG64 words, and
an exact decode of those words.

- **Keyed streams.**  `stream(seed, *key)` is numpy's generator for a
  (seed, key...) coordinate, so a draw depends only on its key and never
  on the worker count.  `_pcg_seed` computes the seeded PCG64 state of
  many keys at once (numpy's SeedSequence hash, then PCG64's seeding).
  `keyed_streams` hands each state to one reused generator, and
  `stream_raw` steps the states and applies PCG64's XSL-RR output
  itself; both are bit for bit `stream(seed, *key)`.
- **Exact decode.**  A word w is the double (w >> 11) 2^-53 that
  `random()` returns, so `random() >= t` is the integer compare
  w >= ceil(t 2^53) << 11 (`_cut`), and a categorical draw counts the
  cut-offs at or below a word (`_categorical`).  `integers(0, n)` is
  numpy's 32-bit Lemire rule on the halves of the words, low half first,
  with a half left over held for the next bounded draw (`_lemire`, also
  behind `raw_integers`).  `raw_random` gives the doubles themselves.
- **Tasks.**  `sample_arrays` draws the T tasks of one replicate, the
  concept draws first and then the (T, k) points, from one read of its
  stream's words.  It keeps each task's branch (the drawn concept for a
  tabular prior, (2 i* + c) * width + choice for the parity family) and
  its k point digits; `Tasks` decodes points, concepts, the parity trace
  and outcome codes from them on first use.

A task's outcome code, the statistic the estimators count, holds the
digits 2(x - 1) + [y > 0] of its k (point, label) pairs in base 2m.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .concepts import ConceptSpace, DataDistribution, d_subsets
from .priors import SmoothPriorParams, TabularPrior


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) coordinate."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's multiplier
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _words32(n: int) -> list[int]:
    """`n` as little-endian uint32 words, as SeedSequence splits it."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _seed_state(seed: int, keys: np.ndarray) -> list[np.ndarray]:
    """`SeedSequence(seed, spawn_key=key).generate_state(8, uint32)` for
    each row of `keys`, as 8 word arrays.  The hash constants depend only
    on the word position, so each step is one uint32 pass over all rows;
    the seed's own words (the first 4 of every row) are mixed as scalars."""
    seed_words = _words32(seed)
    if keys.shape[1] and len(seed_words) < _POOL:
        seed_words += [0] * (_POOL - len(seed_words))
    entropy = [np.array([w], dtype=np.uint32) for w in seed_words]
    entropy += [col.astype(np.uint32) for col in keys.T]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def _mul64(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The full 128-bit product of uint64s `a` and `b`, as (high, low)
    uint64 limbs, from four 32-bit partial products."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1 = a & m32, a >> s32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    carry = ((p00 >> s32) + (p01 & m32) + (p10 & m32)) >> s32
    return a1 * b1 + (p01 >> s32) + (p10 >> s32) + carry, a * np.uint64(b)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 state step, state * multiplier + inc mod 2**128, on limbs."""
    prod_hi, prod_lo = _mul64(lo, _PCG_MULT_LO)
    prod_hi += hi * np.uint64(_PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI)
    new_lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (new_lo < prod_lo), new_lo


def _pcg_seed(seed: int, keys) -> tuple[np.ndarray, ...]:
    """The seeded PCG64 state and increment of `stream(seed, *key)` for
    every row `key` of `keys` (one row per stream, entries in [0, 2**32)),
    as uint64 limbs (state_hi, state_lo, inc_hi, inc_lo)."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2:
        raise ValueError("keys must be a 2-d array, one row per stream")
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("key entries must lie in [0, 2**32)")
    # generate_state(4, uint64): words (2i, 2i+1) form the i-th uint64
    w = [np.broadcast_to(v, len(keys)).astype(np.uint64) for v in _seed_state(seed, keys)]
    s32 = np.uint64(32)
    state_hi, state_lo, seq_hi, seq_lo = (w[i] | w[i + 1] << s32 for i in range(0, 8, 2))
    # PCG64 seeding: state 0, step (state = inc), add the initial state, step
    one, s63 = np.uint64(1), np.uint64(63)
    inc_hi, inc_lo = seq_hi << one | seq_lo >> s63, seq_lo << one | one
    lo = inc_lo + state_lo
    hi, lo = _pcg_step(inc_hi + state_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def stream_raw(seed: int, keys, n: int) -> np.ndarray:
    """The first `n` raw 64-bit outputs of `stream(seed, *key)` for every
    row `key` of `keys`, as a (len(keys), n) uint64 array, bit for bit."""
    hi, lo, inc_hi, inc_lo = _pcg_seed(seed, keys)
    out = np.empty((len(hi), n), dtype=np.uint64)
    s63 = np.uint64(63)
    for j in range(n):
        # XSL-RR: step, then rotate hi ^ lo right by the top 6 bits of hi
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out[:, j] = x >> rot | x << (-rot & s63)
    return out


def keyed_streams(seed: int, keys) -> Iterator[np.random.Generator]:
    """`stream(seed, *key)` for each row `key` of `keys` in turn, bit for
    bit, seeded in bulk: one generator whose PCG64 is set to each row's
    seeded state.  The same object comes back every time, so finish with
    one stream before taking the next."""
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


def raw_random(words: np.ndarray) -> np.ndarray:
    """`Generator.random()` of each raw output: its top 53 bits / 2**53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of uint64 words, low half first."""
    return words.astype("<u8", copy=False).view("<u4")


def _lemire(halves: np.ndarray, high: int) -> tuple[np.ndarray, bool]:
    """`integers(0, high)` of 32-bit draws, for 1 <= high <= 2**32, by
    numpy's rule (Lemire's multiply-shift): the high word of draw * high.
    numpy rejects and redraws a draw whose low word lies below
    2**32 % high, which a fixed set of draws cannot do, so the second
    value says whether any draw would be rejected."""
    if high & (high - 1) == 0:  # a power of two: the top bits, never rejected
        return np.right_shift(halves, 33 - high.bit_length(), dtype=np.int64), False
    threshold = (1 << 32) % high
    # the low word of draw * high, in wrapping uint32 arithmetic
    rejected = np.count_nonzero(halves * high < threshold) > 0
    values = np.multiply(halves, high, dtype=np.uint64)
    values >>= 32
    return values.view(np.int64), rejected


def raw_integers(words: np.ndarray, high: int, size: int) -> np.ndarray:
    """`Generator.integers(0, high, size=size)` of each row of raw outputs
    (at least ceil(size / 2) per row), for 1 <= high <= 2**32: each
    output gives two 32-bit draws, low half first, decoded by `_lemire`.
    A draw numpy would reject and redraw raises ValueError; for a power
    of two none can."""
    if not 1 <= high <= 1 << 32:
        raise ValueError(f"bounded draws need a range of 1 to 2**32, got {high}")
    if 2 * words.shape[1] < size:
        raise ValueError(f"{size} draws need {(size + 1) // 2} raw outputs per row")
    values, rejected = _lemire(_halves(words).reshape(len(words), -1)[:, :size], high)
    if rejected:
        raise ValueError(f"a draw from range {high} would be rejected and redrawn")
    return values


def _bounded(high: int, n: int, held: list[int], words: np.ndarray):
    """`integers(0, high, size=n)` from the half held over from an earlier
    bounded draw, if any, then the halves of `words` (exactly the words
    the draws take, `_bounded_words`); returns the draws, whether numpy
    would reject any, and the half then held.  A range of 1 draws nothing."""
    if high == 1:
        return np.zeros(n, dtype=np.int64), False, held
    halves = _halves(words)
    if held:
        halves = np.concatenate([np.array(held, dtype=halves.dtype), halves])
    values, rejected = _lemire(halves[:n], high)
    return values, rejected, halves[n:].tolist()


def _bounded_words(high: int, n: int, held: int) -> tuple[int, int]:
    """The words `_bounded` takes for n draws with `held` (0 or 1) halves
    held over, and the halves held after them."""
    if high == 1:
        return 0, held
    words = max(n - held, 0) + 1 >> 1
    return words, held + 2 * words - n


def _cut(t: float) -> int:
    """The least word w whose double (w >> 11) 2^-53 is >= t:
    ceil(t 2^53) << 11, where t <= 0 gives 0 (every word) and t >= 1
    gives 2**64 (no word)."""
    return min(max(math.ceil(t * 2.0**53), 0), 1 << 53) << 11


@lru_cache(maxsize=64)
def _categorical(weights: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A categorical draw of `weights` on words.  A uniform u draws the
    number of thresholds cumsum(weights)[:-1] at or below it, which is
    `min(searchsorted(cumsum, u, side="right"), len(cumsum) - 1)` bit for
    bit (the clip covers a cumsum that ends below 1).

    Returns (cuts, categories): the distinct cut-offs (`_cut`) of the
    thresholds that some words pass and others do not, ascending, as
    uint64; word w draws categories[number of cuts <= w].  A category no
    word can draw gets no index.  Both arrays are read-only."""
    cuts = [_cut(t) for t in np.cumsum(weights)[:-1].tolist()]
    inner, repeats = np.unique(
        np.array([c for c in cuts if 0 < c < 1 << 64], dtype=np.uint64), return_counts=True
    )
    passed = sum(c == 0 for c in cuts)
    categories = passed + np.concatenate([[0], np.cumsum(repeats)]).astype(np.int64)
    inner.flags.writeable = categories.flags.writeable = False
    return inner, categories


def _count_cuts(cuts: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The number of `cuts` at or below each word: one compare pass per
    cut, summed in uint8 below 256 cuts."""
    if not len(cuts):
        return np.zeros(words.shape, dtype=np.uint8)
    count = words >= cuts[0]
    count = count.view(np.uint8) if len(cuts) < 256 else count.astype(np.int64)
    for cut in cuts[1:]:
        count += words >= cut
    return count


@lru_cache(maxsize=64)
def _parity_index_table(m: int, d: int, space_masks: bytes) -> np.ndarray:
    """Concepts reachable from each (subset, parity bit, choice), as
    positions in a concept space whose int64 masks, in enumeration order,
    are `space_masks`.

    Shape (C(m,d), 2, 2^(d-1)): entry [i, c, j] is the j-th subset of X_i
    whose positive count has parity c, in increasing mask order.  Built
    once per (m, d) and concept order, and read-only.
    """
    index = {int(v): i for i, v in enumerate(np.frombuffer(space_masks, dtype=np.int64))}
    subs = d_subsets(m, d)
    by_parity: list[list[int]] = [[], []]
    for sub_bits in range(1 << d):
        by_parity[bin(sub_bits).count("1") % 2].append(sub_bits)
    table = np.zeros((len(subs), 2, 1 << (d - 1)), dtype=np.int64)
    for i, x_mask in enumerate(subs):
        positions = [p for p in range(m) if (x_mask >> p) & 1]
        for c in (0, 1):
            for j, sub_bits in enumerate(by_parity[c]):
                mask = 0
                for t, p in enumerate(positions):
                    if (sub_bits >> t) & 1:
                        mask |= 1 << p
                table[i, c, j] = index[mask]
    table.flags.writeable = False
    return table


def outcome_codes(xs: np.ndarray, ys: np.ndarray, m: int) -> np.ndarray:
    """One integer in [0, (2m)^k) per task outcome of k points in 1..m: the
    digits 2(x - 1) + [y > 0] of its (point, label) pairs in base 2m."""
    digits = ((xs - 1) << 1) | (ys > 0)
    codes = np.zeros(len(xs), dtype=np.int64)
    for j in range(xs.shape[1]):
        codes = codes * (2 * m) + digits[:, j]
    return codes


@lru_cache(maxsize=64)
def _digit_table(m: int, space_masks: bytes) -> np.ndarray:
    """The `outcome_codes` digits 2(x - 1) + [x in h] of every concept h
    of a space whose int64 masks, in enumeration order, are `space_masks`,
    at every point x in 1..m: entry h * m + x - 1, flattened.  Read-only."""
    masks = np.frombuffer(space_masks, dtype=np.int64)
    points = np.arange(m, dtype=np.int64)
    table = (2 * points + ((masks[:, None] >> points) & 1)).ravel()
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class Tasks:
    """T sampled tasks of k points each, from one concept space over m
    points, as each task's branch and point digits.

    A point digit indexes `points`, the points that can be drawn, as
    0..m-1; `point_digits` holds k of them per task, first point first.  A
    branch indexes `branches`, the concept position it draws.
    Parity-family tasks have `width` choices per (i*, c) and the branch
    (2 i* + c) * width + choice; a tabular prior's tasks have width None.
    `digits` is the space's `_digit_table`.

    `xs` (T, k) holds the points, `concepts` (T,) the concept positions,
    `trace` the (i_star, c) arrays of the parity family (else None) and
    `codes` (T,) each task's outcome code; each is decoded on first use,
    and `ys` from the codes.  Not iterable: read the fields by name.
    """

    branch: np.ndarray
    point_digits: np.ndarray
    m: int
    points: np.ndarray
    branches: np.ndarray
    width: int | None
    digits: np.ndarray

    @property
    def k(self) -> int:
        return self.point_digits.shape[1]

    @cached_property
    def xs(self) -> np.ndarray:
        xs = self.points.take(self.point_digits)
        xs += 1
        return xs

    @cached_property
    def concepts(self) -> np.ndarray:
        return self.branches.take(self.branch)

    @cached_property
    def trace(self) -> tuple[np.ndarray, np.ndarray] | None:
        if self.width is None:
            return None
        pair = self.branch // self.width
        return pair >> 1, pair & 1

    @cached_property
    def codes(self) -> np.ndarray:
        # the code digit of every (branch, point digit), gathered per point
        table = self.digits.reshape(-1, self.m)[self.branches][:, self.points].ravel()
        rows = self.branch * len(self.points)
        codes = table.take(rows + self.point_digits[:, 0])
        for j in range(1, self.k):
            codes *= 2 * self.m
            codes += table.take(rows + self.point_digits[:, j])
        return codes

    @property
    def ys(self) -> np.ndarray:
        """The (T, k) labels in {-1, +1}, decoded from the codes."""
        ys = np.empty_like(self.xs)
        rest = self.codes
        for j in reversed(range(self.k)):
            rest, digit = np.divmod(rest, 2 * self.m)
            ys[:, j] = 2 * (digit & 1) - 1
        return ys


@lru_cache(maxsize=64)
def _coin(params: SmoothPriorParams) -> tuple[np.ndarray, np.ndarray]:
    """The parity coin's P(c = 1) per subset, (1 + gamma_m b_i) / 2, and
    the cut-offs (`_cut`) below which a word draws c = 1.  gamma_m < 1/2
    keeps every probability inside (1/4, 3/4), so each cut-off is a
    uint64.  Both arrays are read-only."""
    p1 = (1.0 + params.gamma_m * np.asarray(params.b)) / 2.0
    cuts = np.array([_cut(p) for p in p1.tolist()], dtype=np.uint64)
    p1.flags.writeable = cuts.flags.writeable = False
    return p1, cuts


def _parity_draws(params, n_sub: int, width: int, T: int, n_points: int, rng):
    """The branches (2 i* + c) * width + choice of T parity-family tasks,
    and the `n_points` words after them, as `integers(0, n_sub, size=T)`,
    `random(T) < p1[i*]`, `integers(0, width, size=T)` and
    `random_raw(n_points)` would draw them: one read of the words, or the
    calls themselves when numpy would reject a bounded draw.  The
    generator is left as those calls leave it for every later draw."""
    bit_gen = rng.bit_generator
    start = bit_gen.state
    held = [start["uinteger"]] if start["has_uint32"] else []
    n_sub_words, held_after = _bounded_words(n_sub, T, len(held))
    n_choice_words, _ = _bounded_words(width, T, held_after)
    words = bit_gen.random_raw(n_sub_words + T + n_choice_words + n_points)
    choice_at = n_sub_words + T
    p1, coin_cuts = _coin(params)
    i_star, rejected_sub, end_held = _bounded(n_sub, T, held, words[:n_sub_words])
    choice, rejected_choice, end_held = _bounded(
        width, T, end_held, words[choice_at:choice_at + n_choice_words]
    )
    if rejected_sub or rejected_choice:
        bit_gen.state = start
        i_star = rng.integers(0, n_sub, size=T)
        coin = rng.random(T) < p1[i_star]
        choice = rng.integers(0, width, size=T)
        point_words = bit_gen.random_raw(n_points)
    else:
        coin = words[n_sub_words:choice_at] < coin_cuts.take(i_star)
        point_words = words[choice_at + n_choice_words:]
        if end_held != held:
            # random_raw leaves the held half alone; set it as the draws would
            state = bit_gen.state
            state["has_uint32"] = len(end_held)
            if end_held:
                state["uinteger"] = end_held[0]
            bit_gen.state = state
    branch = 2 * i_star
    branch += coin
    branch *= width
    branch += choice
    return branch, point_words


def sample_arrays(
    source: TabularPrior | SmoothPriorParams,
    space: ConceptSpace,
    dist: DataDistribution,
    T: int,
    k: int,
    rng: np.random.Generator,
) -> Tasks:
    """T tasks of k points from one stream, as a `Tasks` record.

    The draws are those of `Generator` calls on a PCG64 stream (`stream`
    and numpy's `default_rng` give one): first the concepts, as the
    parity family's `integers(0, C(m, d))`, `random() < p` and
    `integers(0, width)` per task or a tabular prior's categorical draw
    of `random()`, then the (T, k) points as a categorical draw of D.
    They are decoded from one read of the stream's words and leave the
    generator as the calls would, bit for bit; only when numpy would
    reject a bounded draw (under 2**-31 per draw) does a replicate make
    the calls themselves.
    """
    if T < 1 or k < 1:
        raise ValueError("need T >= 1 and k >= 1")
    m = space.m
    if dist.m != m:
        raise ValueError(f"distribution over {dist.m} points, concept space over {m}")
    if (2 * m) ** k > np.iinfo(np.int64).max:
        raise ValueError(f"outcome codes of {k} points over {m} exceed int64")
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ValueError(f"tasks are decoded from PCG64 words, not {type(rng.bit_generator).__name__}")
    space_masks = space.masks.tobytes()
    point_cuts, points = _categorical(dist.weights)
    if isinstance(source, SmoothPriorParams):
        if (m, space.d) != (source.m, source.d):
            raise ValueError("params built for a different concept space")
        index_table = _parity_index_table(m, source.d, space_masks)
        branches, width = index_table.reshape(-1), index_table.shape[2]
    else:
        if source.space is not space and not np.array_equal(source.space.masks, space.masks):
            raise ValueError("prior built for a different concept space")
        concept_cuts, branches = _categorical(tuple(source.mass.tolist()))
        width = None
    if width is None:
        words = rng.bit_generator.random_raw(T + T * k)
        branch, point_words = _count_cuts(concept_cuts, words[:T]).astype(np.int64), words[T:]
    else:
        branch, point_words = _parity_draws(source, len(index_table), width, T, T * k, rng)
    point_digits = _count_cuts(point_cuts, point_words).reshape(T, k)
    return Tasks(branch, point_digits, m, points, branches, width, _digit_table(m, space_masks))
