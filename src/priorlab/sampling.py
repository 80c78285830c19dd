"""Task generation: draw a target concept per task, then k labeled points.

Every bulk draw follows one convention: a keyed stream hands out its
PCG64 words, and an exact decode turns them into the `Generator` calls'
draws.  The calls themselves remain for scalar draws, `sample_arrays`
and a replicate whose bounded draw numpy would reject.

- **Keyed streams.**  `stream(seed, *key)` is numpy's generator for a
  (seed, key...) coordinate, so a draw depends only on its key and never
  on the worker count.  `_pcg_seed` computes the seeded PCG64 state of
  many keys at once (numpy's SeedSequence hash, then PCG64's seeding),
  and each key's first n words, bit for bit, are read by `stream_raw`
  (all states stepped at once: few words, many keys) or `keyed_words`
  (one `random_raw` call per key: many words).
- **Exact decode.**  A word w is the double (w >> 11) 2^-53 that
  `random()` returns, so `random() >= t` is the integer compare
  w >= ceil(t 2^53) << 11 (`_cut`), and a categorical draw counts the
  cut-offs at or below a word (`_categorical`).  `integers(0, n)` is
  numpy's 32-bit Lemire rule on the halves of the words, low half first,
  with a half left over held for the next bounded draw (`_lemire`, also
  behind `raw_integers`); `_plan` places each draw in a row of words.
- **Tasks.**  A task draws a concept branch (the drawn concept for a
  tabular prior, (2 i* + c) * width + choice for the parity family) and
  then k point digits, each a position among the P points D can draw.
  Its joint index is branch * P^k plus the digits in base P, one of the
  J cells of its source's `TaskLayout`.  `_decode` turns rows of words
  into joint indices with whole-block array ops, in the narrowest
  unsigned type that holds them, and `joint_blocks` decodes a run of
  replicates' rows at once and counts each replicate with one
  `bincount` over its J cells.  `sample_arrays` draws the T tasks of one
  stream by the calls themselves (`_call_draws`), and `Tasks` decodes
  points, concepts, labels, the parity trace and outcome codes from the
  joint indices on first use.  `TaskLayout.cells` does the same for
  every cell, so tables over the cells are read off it.

A task's outcome code, the statistic the estimators count, is its index
in the outcome laws (`outcome_codes`, `outcomes._label_table`).
"""

from __future__ import annotations

import itertools
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


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The constants of n successive steps of numpy's seed hash from
    `init`: step i xors with c_i and multiplies by c_(i+1) = c_i * mult."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    return tuple(c[:-1]), tuple(c[1:])


def _hash(v, xor, mul):
    """(v ^ xor) * mul mod 2**32, folded: a Python int, or a uint32 array
    hashed with each (xor, mul) pair down a new first axis."""
    if isinstance(v, int):
        v = (v ^ xor) * mul & _MASK32
    else:
        v = (v ^ np.asarray(xor, dtype=np.uint32)[:, None]) * np.asarray(mul, dtype=np.uint32)[:, None]
    return v ^ (v >> 16)


def _mix(x, y):
    """numpy's pool mix of each word of `x` with the matching word of `y`:
    lists of Python ints, or uint32 arrays once either one varies by row."""
    if isinstance(x, list) and isinstance(y, list):
        return [r ^ r >> 16 for r in ((_MIX_MULT_L * a - _MIX_MULT_R * b) & _MASK32 for a, b in zip(x, y))]
    x, y = (np.asarray(v, dtype=np.uint32).reshape(len(v), -1) for v in (x, y))
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


@lru_cache(maxsize=64)
def _seed_pool(words: tuple[int, ...]) -> tuple[int, ...]:
    """numpy's hash pool after its first `_POOL` entropy words: each word
    hashed in, then every pool word mixed into every other."""
    xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
    pool = [_hash(w, x, m) for w, x, m in zip(words, xor, mul)]
    step = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix([pool[dst]], [_hash(pool[src], xor[step], mul[step])])[0]
                step += 1
    return tuple(pool)


def _seed_state(seed: int, keys: np.ndarray):
    """`SeedSequence(seed, spawn_key=key).generate_state(8, uint32)` for
    each row of `keys`: a list of 8 Python ints when every row gives the
    same words, else an (8, rows) uint32 array.  The hash constants
    depend only on the word position, so the seed's words and every key
    column that holds one value are hashed once as Python ints, and each
    varying column is hashed into the 4 pool words with one pass of
    (4, rows) array ops."""
    words = _words32(seed)
    words += [0] * (_POOL - len(words))  # as numpy pads; a short pool hashes zeros alike
    for col in keys.T:
        varying = len(col) and (col != col[0]).any()
        words.append(col.astype(np.uint32) if varying else int(col.max(initial=0)))
    pool = list(_seed_pool(tuple(words[:_POOL])))
    xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL * len(words))
    for i, word in enumerate(words[_POOL:], start=_POOL):
        x, m = xor[_POOL * i:_POOL * (i + 1)], mul[_POOL * i:_POOL * (i + 1)]
        hashed = [_hash(word, a, b) for a, b in zip(x, m)] if isinstance(word, int) else _hash(word, x, m)
        pool = _mix(pool, hashed)
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    if isinstance(pool, list):
        return [_hash(pool[i % _POOL], a, b) for i, (a, b) in enumerate(zip(xor, mul))]
    return _hash(pool[np.arange(2 * _POOL) % _POOL], xor, mul)


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
    w = np.asarray(_seed_state(seed, keys), dtype=np.uint64).reshape(2 * _POOL, -1)
    w = np.broadcast_to(w, (2 * _POOL, len(keys)))
    state_hi, state_lo, seq_hi, seq_lo = w[0::2] | w[1::2] << np.uint64(32)
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


def keyed_words(seed: int, keys, n: int) -> Iterator[np.ndarray]:
    """The first `n` raw outputs of `stream(seed, *key)` for each row
    `key` of `keys` in turn, bit for bit, as uint64 arrays: the states
    are seeded in bulk (`_pcg_seed`), and each row is read with one
    `random_raw` call of a PCG64 set to its state."""
    limbs = [a.tolist() for a in _pcg_seed(seed, keys)]
    bit_gen = np.random.PCG64(0)
    for state_hi, state_lo, inc_hi, inc_lo in zip(*limbs):
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield bit_gen.random_raw(n)


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of uint64 words, low half first."""
    return words.astype("<u8", copy=False).view("<u4")


@lru_cache(maxsize=64)
def _lemire_cuts(high: int) -> np.ndarray:
    """The cut-offs ceil(j 2^32 / high), j = 1..high-1, as uint32: the
    high word of draw * high is at least j exactly when the draw is at
    least the j-th cut-off.  Read-only."""
    cuts = np.array([((j << 32) + high - 1) // high for j in range(1, high)], dtype=np.uint32)
    cuts.flags.writeable = False
    return cuts


def _lemire(halves: np.ndarray, high: int) -> tuple[np.ndarray, np.ndarray | None]:
    """`integers(0, high)` of 32-bit draws, for 1 <= high <= 2**32, by
    numpy's rule (Lemire's multiply-shift): the high word of draw * high.
    Up to range 3 that is the number of `_lemire_cuts` at or below the
    draw, as uint8 (one or two compares beat the 64-bit multiply); other
    powers of two take the top bits, other ranges multiply, as int64.

    numpy rejects and redraws a draw whose low word lies below
    2**32 % high, which a fixed set of draws cannot do, so the second
    value marks each draw that would be rejected; it is None for a power
    of two, where none can be."""
    if high <= 3:
        values = _count_cuts(_lemire_cuts(high), halves)
    elif high & (high - 1) == 0:
        values = np.right_shift(halves, 33 - high.bit_length(), dtype=np.int64)
    else:
        values = np.multiply(halves, high, dtype=np.uint64)
        values >>= 32
        values = values.view(np.int64)
    if high & (high - 1) == 0:
        return values, None
    # the low word of draw * high, in wrapping uint32 arithmetic
    return values, halves * np.uint32(high) < (1 << 32) % high


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
    if rejected is not None and rejected.any():
        raise ValueError(f"a draw from range {high} would be rejected and redrawn")
    return values.astype(np.int64, copy=False)


@lru_cache(maxsize=64)
def _plan(T: int, k: int, ranges: tuple[int, int] | None, used: int = 0) -> tuple[tuple, int]:
    """Where each draw of T tasks of k points sits in a row of words that
    opens with `used` halves of earlier bounded draws.  The draws, in
    stream order: the parity family's `integers(0, C(m, d))`, `random()`
    coins, `integers(0, width)` and points when `ranges` is
    (C(m, d), width), else a tabular prior's concept words and the
    points.  A bounded draw takes the half held over first, then the
    halves of fresh words, low half first, and holds a half it leaves
    over; a range of 1 takes nothing.  Returns each draw's slices (of the
    row's halves for a bounded draw, else of its words) and the row's
    words."""
    if ranges is None:
        draws = (None, T), (None, T * k)
    else:
        draws = (ranges[0], T), (None, T), (ranges[1], T), (None, T * k)
    word, held = (used + 1) // 2, used if used % 2 else None
    plan = []
    for high, n in draws:
        if high is None:
            plan.append((slice(word, word + n),))
            word += n
            continue
        pieces = []
        if high > 1 and held is not None:
            pieces.append(slice(held, held + 1))
            n, held = n - 1, None
        if high > 1 and n:
            pieces.append(slice(2 * word, 2 * word + n))
            held = 2 * word + n if n % 2 else None
            word += (n + 1) // 2
        plan.append(tuple(pieces))
    return tuple(plan), word


def task_words(T: int, k: int, ranges: tuple[int, int] | None, used: int = 0) -> int:
    """The words one row of T tasks of k points takes (`_plan`), with
    `used` halves of bounded draws before them."""
    return _plan(T, k, ranges, used)[1]


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
    count = (words >= cuts[0]).view(np.uint8)
    if len(cuts) >= 256:
        count = count.astype(np.int64)
    for cut in cuts[1:]:
        count += (words >= cut).view(np.uint8)
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
    """One integer in [0, (2m)^k) per task outcome of k points in 1..m, its
    index in the outcome laws: the digits x - 1 of its points in base m,
    then one bit per label, set for y > 0, first point first."""
    powers = np.arange(xs.shape[1] - 1, -1, -1)
    return ((xs - 1) @ m**powers << xs.shape[1]) + (ys > 0) @ (1 << powers)


def _index_dtype(n: int) -> type:
    """The narrowest unsigned type that holds 0..n (int64 past uint32)."""
    for dtype, top in ((np.uint8, 0xFF), (np.uint16, 0xFFFF), (np.uint32, 0xFFFF_FFFF)):
        if n <= top:
            return dtype
    return np.int64


@dataclass(frozen=True, eq=False)
class TaskLayout:
    """How tasks of k points from one source are drawn and indexed.

    A task draws a branch and then k point digits.  A branch indexes
    `branches`, the concept position it draws: the parity family's
    branch is (2 i* + c) * width + choice, with `ranges` = (C(m, d),
    width) its two bounded draws; a tabular prior's branch counts the
    cut-offs `concept_cuts` at or below its word, and `ranges` is None.
    A point digit indexes `points`, the P points (as 0..m-1) that can be
    drawn, by the cut-offs `point_cuts`.  The task's joint index is
    branch * P^k plus its point digits in base P, first point first:
    `size` cells in all.  `cells` decodes every cell, so a table over the
    cells (outcome code, concept, event) is read off its fields.
    """

    m: int
    k: int
    masks: np.ndarray
    points: np.ndarray
    point_cuts: np.ndarray
    branches: np.ndarray
    concept_cuts: np.ndarray | None
    ranges: tuple[int, int] | None

    @property
    def width(self) -> int | None:
        return None if self.ranges is None else self.ranges[1]

    @property
    def per_branch(self) -> int:
        return len(self.points) ** self.k

    @property
    def size(self) -> int:
        return len(self.branches) * self.per_branch

    @cached_property
    def cells(self) -> Tasks:
        return Tasks(np.arange(self.size), self)

    def fold(self, joint: np.ndarray, point_words: np.ndarray) -> np.ndarray:
        """The joint indices of rows of branches, `joint` (rows, T) in an
        integer type that holds them, updated in place, and their
        (rows, T k) point words, first task first."""
        digits = _count_cuts(self.point_cuts, point_words).reshape(*joint.shape, self.k)
        # one contiguous column per point: strided adds are slower than the copy
        for column in np.ascontiguousarray(digits.transpose(2, 0, 1)):
            joint *= len(self.points)
            np.add(joint, column, out=joint, casting="unsafe")
        return joint


@lru_cache(maxsize=64)
def _layout(space_masks: bytes, m: int, k: int, point_weights: tuple, d: int | None,
            concept_weights: tuple | None) -> TaskLayout:
    """The layout of a parity family (`d` given) or a tabular prior
    (`concept_weights` given) on a concept space whose int64 masks, in
    enumeration order, are `space_masks`.  Built once per source kind."""
    point_cuts, points = _categorical(point_weights)
    if d is not None:
        table = _parity_index_table(m, d, space_masks)
        branches, concept_cuts, ranges = table.reshape(-1), None, (table.shape[0], table.shape[2])
    else:
        concept_cuts, branches = _categorical(concept_weights)
        ranges = None
    masks = np.frombuffer(space_masks, dtype=np.int64)
    layout = TaskLayout(m, k, masks, points, point_cuts, branches, concept_cuts, ranges)
    if layout.size > np.iinfo(np.int64).max:
        raise ValueError(f"{layout.size} joint cells of {k} points over {m} exceed int64")
    return layout


def task_layout(
    source: TabularPrior | SmoothPriorParams, space: ConceptSpace, dist: DataDistribution, k: int
) -> TaskLayout:
    """The layout of tasks of k points from `source` on `space` under
    `dist`, after checking that they fit together."""
    if k < 1:
        raise ValueError("need k >= 1")
    m = space.m
    if dist.m != m:
        raise ValueError(f"distribution over {dist.m} points, concept space over {m}")
    if (2 * m) ** k > np.iinfo(np.int64).max:
        raise ValueError(f"outcome codes of {k} points over {m} exceed int64")
    if isinstance(source, SmoothPriorParams):
        if (m, space.d) != (source.m, source.d):
            raise ValueError("params built for a different concept space")
        return _layout(space.masks.tobytes(), m, k, dist.weights, source.d, None)
    if source.space is not space and not np.array_equal(source.space.masks, space.masks):
        raise ValueError("prior built for a different concept space")
    return _layout(space.masks.tobytes(), m, k, dist.weights, None, tuple(source.mass.tolist()))


@dataclass(frozen=True, eq=False)
class Tasks:
    """T sampled tasks, as each task's joint index in a `TaskLayout`.

    `branch` (T,) and `point_digits` (T, k) split the joint index; `xs`
    (T, k) holds the points, `ys` the labels in {-1, +1} the concepts
    give them, `concepts` (T,) the concept positions, `trace` the
    (i_star, c) arrays of the parity family (else None) and `codes` (T,)
    each task's outcome code.  Each is decoded on first use, as int64.
    Not iterable: read the fields by name.
    """

    joint: np.ndarray
    layout: TaskLayout

    @property
    def m(self) -> int:
        return self.layout.m

    @property
    def k(self) -> int:
        return self.layout.k

    @cached_property
    def branch(self) -> np.ndarray:
        return self.joint.astype(np.int64) // self.layout.per_branch

    @cached_property
    def point_digits(self) -> np.ndarray:
        n_points = len(self.layout.points)
        rest = self.joint.astype(np.int64) % self.layout.per_branch
        digits = np.empty((len(rest), self.k), dtype=np.int64)
        for j in reversed(range(self.k)):
            rest, digits[:, j] = np.divmod(rest, n_points)
        return digits

    @cached_property
    def xs(self) -> np.ndarray:
        return self.layout.points.take(self.point_digits) + 1

    @cached_property
    def concepts(self) -> np.ndarray:
        return self.layout.branches.take(self.branch)

    @cached_property
    def trace(self) -> tuple[np.ndarray, np.ndarray] | None:
        if self.layout.width is None:
            return None
        pair = self.branch // self.layout.width
        return pair >> 1, pair & 1

    @cached_property
    def ys(self) -> np.ndarray:
        masks = self.layout.masks.take(self.concepts)
        return 2 * ((masks[:, None] >> (self.xs - 1)) & 1) - 1

    @cached_property
    def codes(self) -> np.ndarray:
        return outcome_codes(self.xs, self.ys, self.layout.m)


@lru_cache(maxsize=64)
def _coin(gamma_m: float, b: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The parity coin's P(c = 1) per subset, (1 + gamma_m b_i) / 2, and
    the cut-offs (`_cut`) below which a word draws c = 1.  gamma_m < 1/2
    keeps every probability inside (1/4, 3/4), so each cut-off is a
    uint64.  Both arrays are read-only."""
    p1 = (1.0 + gamma_m * np.asarray(b)) / 2.0
    cuts = np.array([_cut(p) for p in p1.tolist()], dtype=np.uint64)
    p1.flags.writeable = cuts.flags.writeable = False
    return p1, cuts


def _decode(layout: TaskLayout, words: np.ndarray, T: int, coin_cuts, used: int = 0):
    """The cells of T tasks drawn from each row of `words` (`task_words`
    of them, opening with `used` halves of earlier bounded draws), as the
    `Generator` calls would draw them: row r's tasks fall in cells
    r J .. r J + J - 1, J = `layout.size`, by their joint indices, held
    in the narrowest type that holds them all.  Also returns the rows in
    which numpy would reject a bounded draw.  `coin_cuts` (1 or rows,
    C(m, d)) are each row's parity coin cut-offs (`_coin`)."""
    plan, _ = _plan(T, layout.k, layout.ranges, used)
    dtype = _index_dtype(len(words) * layout.size)
    halves = _halves(words).reshape(len(words), -1)
    rejected = np.zeros(len(words), dtype=bool)

    def bounded(high, pieces):
        if not pieces:  # a range of 1
            return np.zeros((len(words), T), dtype=dtype)
        draws = np.concatenate([halves[:, piece] for piece in pieces], axis=1) if len(pieces) > 1 \
            else halves[:, pieces[0]]
        values, rejects = _lemire(draws, high)
        if rejects is not None:
            np.logical_or(rejected, rejects.any(axis=1), out=rejected)
        return values.astype(dtype, copy=False)

    if layout.ranges is None:
        (concept,), (point,) = plan
        joint = _count_cuts(layout.concept_cuts, words[:, concept]).astype(dtype)
    else:
        sub, (coin,), choice, (point,) = plan
        n_sub, width = layout.ranges
        joint = bounded(n_sub, sub)  # i*
        if len(coin_cuts) > 1:  # each row's own cut-offs
            cuts = coin_cuts.ravel().take(joint + np.arange(0, coin_cuts.size, n_sub)[:, None])
        else:
            cuts = coin_cuts[0].take(joint)
        joint *= 2
        joint += words[:, coin] < cuts
        joint *= width
        joint += bounded(width, choice)
    joint = layout.fold(joint, words[:, point])
    if len(words) > 1:  # row r's cells are r J .. r J + J - 1
        joint += np.arange(0, len(words) * layout.size, layout.size, dtype=dtype)[:, None]
    return joint, rejected


def _call_draws(layout: TaskLayout, T: int, p1: np.ndarray | None, rng: np.random.Generator) -> np.ndarray:
    """The joint indices of T tasks drawn by the `Generator` calls
    themselves: the parity family's `integers(0, C(m, d))`, `random() <
    p1[i*]` and `integers(0, width)`, or a tabular prior's categorical
    draw of `random()` (`p1` None), then the points, whose doubles are
    read as their words."""
    if layout.ranges is None:
        joint = _count_cuts(layout.concept_cuts, rng.bit_generator.random_raw(T))
    else:
        n_sub, width = layout.ranges
        i_star = rng.integers(0, n_sub, size=T)
        coin = rng.random(T) < p1[i_star]
        choice = rng.integers(0, width, size=T)
        joint = (2 * i_star + coin) * width + choice
    joint = joint.astype(_index_dtype(layout.size))
    return layout.fold(joint[None], rng.bit_generator.random_raw(T * layout.k)[None])[0]


_BLOCK = 1 << 15  # words a decoded run of replicates holds, and joint counts a block


def joint_blocks(rows, redo, source, layout: TaskLayout, T: int, signs: int = 0):
    """Joint counts of T tasks per replicate, a block of replicates at a
    time.

    `rows` gives each replicate's first `task_words(T, layout.k,
    layout.ranges, signs)` words in turn, read from a fresh stream (as
    `keyed_words` reads them); `redo(rep)` gives replicate rep's stream
    afresh, for the rare replicate in which numpy would reject a bounded
    draw.  With `signs`, each replicate first draws `integers(0, 2,
    size=signs)`, the sign vector b of its parity member (bit 1 for
    b_i = +1), and `source` gives only gamma_m.

    Replicates are decoded (`_decode`) and counted (one `bincount`) in
    runs of about _BLOCK words, and yielded in order, in blocks of about
    _BLOCK joint counts, as (the block's (rows, layout.size) joint
    counts, its (rows, signs) sign bits).
    """
    n_words = task_words(T, layout.k, layout.ranges, signs)
    per_block = max(1, _BLOCK // layout.size)
    per_run = max(1, min(_BLOCK // n_words, per_block))
    rows = iter(rows)

    def runs():
        first = 0
        while run := list(itertools.islice(rows, per_run)):
            words = np.stack(run) if len(run) > 1 else run[0][None]
            bits = _halves(words).reshape(len(words), -1)[:, :signs] >> 31
            if layout.ranges is None:
                coin_cuts = None
            elif signs:  # each row's cut-offs, by its signs
                coin_cuts = _coin(source.gamma_m, (-1, 1))[1][bits]
            else:
                coin_cuts = _coin(source.gamma_m, source.b)[1][None]
            cells, rejected = _decode(layout, words, T, coin_cuts, signs)
            for row in np.flatnonzero(rejected).tolist():
                rng = redo(first + row)
                b = tuple(1 if v else -1 for v in rng.integers(0, 2, size=signs)) if signs else source.b
                cells[row] = _call_draws(layout, T, _coin(source.gamma_m, b)[0], rng)
                cells[row] += row * layout.size  # in the cells' type, which holds the offset
            counts = np.bincount(cells.ravel(), minlength=len(words) * layout.size)
            yield counts.reshape(len(words), layout.size), bits
            first += len(words)

    decoded = runs()
    while block := list(itertools.islice(decoded, max(1, per_block // per_run))):
        yield tuple(np.concatenate(parts) for parts in zip(*block))


def sample_arrays(
    source: TabularPrior | SmoothPriorParams,
    space: ConceptSpace,
    dist: DataDistribution,
    T: int,
    k: int,
    rng: np.random.Generator,
) -> Tasks:
    """T tasks of k points from one stream, as a `Tasks` record, drawn
    by the `Generator` calls (`_call_draws`): first the concepts, as the
    parity family's `integers(0, C(m, d))`, `random() < p` and
    `integers(0, width)` per task or a tabular prior's categorical draw
    of `random()`, then the (T, k) points as a categorical draw of D.
    The stream must be a PCG64 one (`stream` and numpy's `default_rng`
    give one), whose words are the doubles `random()` returns.
    """
    if T < 1 or k < 1:
        raise ValueError("need T >= 1 and k >= 1")
    layout = task_layout(source, space, dist, k)
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ValueError(f"tasks are decoded from PCG64 words, not {type(rng.bit_generator).__name__}")
    p1 = None if layout.ranges is None else _coin(source.gamma_m, source.b)[0]
    return Tasks(_call_draws(layout, T, p1, rng), layout)
