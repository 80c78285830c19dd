"""Task generation: draw a target concept per task, then k labeled points.

Every random draw comes from a keyed stream, `stream(seed, *key)`, so a
draw depends only on its key and never on the worker count.  Tasks are
drawn in bulk: `sample_arrays` draws all T tasks of one replicate from a
single stream, the T concepts first and then the (T, k) points, and
returns them as a `Tasks` record.  Each experiment cell keys that stream
by its coordinates, such as (purpose, T index, truth, replicate).

A task's product is its outcome code, the statistic the estimators
count: the digits 2(x - 1) + [y > 0] of its k (point, label) pairs in
base 2m.  Each digit is one gather from a per-space digit table indexed
by (concept, point), so no label array is built; `Tasks.ys` decodes the
labels from the codes on demand.

`stream_raw` computes the first raw 64-bit outputs of many keyed streams
at once, bit for bit as `stream(seed, *key)` would give them (numpy's
SeedSequence hash, then PCG64's seeding and XSL-RR output), and
`raw_random` / `raw_integers` turn them into the doubles and integers a
Generator would draw.  The elicitation customers' per-customer draws come
from this path, with the same bits as `stream(seed, t, purpose)`.
`raw_integers` covers power-of-two ranges only, where numpy's bounded
draw never rejects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .concepts import ConceptSpace, DataDistribution, categorical_draw, d_subsets
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


def stream_raw(seed: int, keys, n: int) -> np.ndarray:
    """The first `n` raw 64-bit outputs of `stream(seed, *key)` for every
    row `key` of `keys` (one row per stream, entries in [0, 2**32)), as a
    (len(keys), n) uint64 array, bit for bit."""
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
    out = np.empty((len(keys), n), dtype=np.uint64)
    for j in range(n):
        # XSL-RR: step, then rotate hi ^ lo right by the top 6 bits of hi
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        out[:, j] = x >> rot | x << (-rot & s63)
    return out


def raw_random(words: np.ndarray) -> np.ndarray:
    """`Generator.random()` of each raw output: its top 53 bits / 2**53."""
    return (words >> np.uint64(11)) * 2.0**-53


def raw_integers(words: np.ndarray, high: int, size: int) -> np.ndarray:
    """`Generator.integers(0, high, size=size)` of each row of raw outputs
    (at least ceil(size / 2) per row), for a power of two `high` <= 2**32:
    each output gives two 32-bit draws, low half first, and a draw u maps
    to (u * high) >> 32, which never rejects for a power of two."""
    if high < 1 or high & (high - 1) or high > 1 << 32:
        raise ValueError(f"bulk integer draws need a power-of-two range up to 2**32, got {high}")
    if 2 * words.shape[1] < size:
        raise ValueError(f"{size} draws need {(size + 1) // 2} raw outputs per row")
    halves = np.stack([words & np.uint64(_MASK32), words >> np.uint64(32)], axis=-1)
    u32 = halves.reshape(len(words), -1)[:, :size]
    return (u32 >> np.uint64(33 - high.bit_length())).astype(np.int64)


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
    """T sampled tasks of k points each, from one concept space over m points.

    `xs` (T, k) holds the points in 1..m; `codes` (T,) each task's outcome
    code, as `outcome_codes` writes it; `concepts` (T,) the positions of the drawn concepts in the
    space; `trace` the (i_star, c) arrays of the parity family, else None.
    Not iterable: read the fields by name.
    """

    xs: np.ndarray
    codes: np.ndarray
    concepts: np.ndarray
    trace: tuple[np.ndarray, np.ndarray] | None
    m: int

    @property
    def ys(self) -> np.ndarray:
        """The (T, k) labels in {-1, +1}, decoded from the codes."""
        ys = np.empty_like(self.xs)
        rest = self.codes
        for j in reversed(range(self.xs.shape[1])):
            rest, digit = np.divmod(rest, 2 * self.m)
            ys[:, j] = 2 * (digit & 1) - 1
        return ys


def sample_arrays(
    source: TabularPrior | SmoothPriorParams,
    space: ConceptSpace,
    dist: DataDistribution,
    T: int,
    k: int,
    rng: np.random.Generator,
) -> Tasks:
    """Bulk path: T tasks of k points from one stream, as a `Tasks` record.

    Draws the T concepts, then the (T, k) points; each task's outcome code
    is gathered digit by digit from the space's digit table, so labels are
    never materialised (`Tasks.ys` decodes them on demand).
    """
    if T < 1 or k < 1:
        raise ValueError("need T >= 1 and k >= 1")
    m = space.m
    if dist.m != m:
        raise ValueError(f"distribution over {dist.m} points, concept space over {m}")
    if (2 * m) ** k > np.iinfo(np.int64).max:
        raise ValueError(f"outcome codes of {k} points over {m} exceed int64")
    space_masks = space.masks.tobytes()
    trace = None
    if isinstance(source, SmoothPriorParams):
        if (m, space.d) != (source.m, source.d):
            raise ValueError("params built for a different concept space")
        index_table = _parity_index_table(m, source.d, space_masks)
        i_star = rng.integers(0, len(index_table), size=T)
        p1 = ((1.0 + source.gamma_m * np.asarray(source.b)) / 2.0)[i_star]
        c = (rng.random(T) < p1).astype(np.int64)
        width = index_table.shape[2]
        choice = rng.integers(0, width, size=T)
        idx = index_table.reshape(-1)[(2 * i_star + c) * width + choice]
        trace = (i_star, c)
    else:
        if source.space is not space and not np.array_equal(source.space.masks, space.masks):
            raise ValueError("prior built for a different concept space")
        idx = categorical_draw(np.cumsum(source.mass)[:-1], rng.random(T))
    xs = dist.inverse_cdf(rng.random((T, k)))
    table = _digit_table(m, space_masks)
    rows = idx * m - 1
    pos = np.add(rows, xs[:, 0])
    codes = table.take(pos)
    for j in range(1, k):
        codes *= 2 * m
        np.add(rows, xs[:, j], out=pos)
        codes += table.take(pos)
    return Tasks(xs, codes, idx, trace, m)
