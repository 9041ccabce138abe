"""Per-proposal features and the noise-conditioned scorer.

The scorer maps concat(features(u), z) to a row of C+1 scores (column 0
is background) through a single weight matrix. Feature layout, for C
classes:

    [area, cx, cy, mean_r, mean_g, mean_b, boundary_edge,
     seed_frac_class_1 .. seed_frac_class_C, 1.0]

seed_frac is |r ∩ s| / |r|, maximized over seeds of that class: the
fraction of the proposal covered by the seed. Seed-sized proposals score
near 1, full extents are diluted, so a scorer trained on seeds alone
prefers the discriminative part of an object.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .masks import inner_boundary
from .scenes import SceneRecord


def feature_dim(num_classes: int) -> int:
    return 8 + num_classes


def features(rec: SceneRecord) -> np.ndarray:
    """(P, D) feature matrix; cached on the record.

    Areas, centroids and seed overlaps are exact integer counts over the
    pool stack, divided in the order a per-proposal pass divides them. The
    colour and ring-edge means stay per proposal, since they are float32
    reductions, each over its proposal's pixels in row-major order."""
    if rec._features is not None:
        return rec._features
    p = rec.num_proposals
    d = feature_dim(rec.num_classes)
    h, w = rec.height, rec.width
    out = np.zeros((p, d), dtype=np.float64)
    flat = rec.pool.reshape(p, h * w)
    area = np.count_nonzero(flat, axis=1)
    if not area.all():
        raise ValueError("pool contains an empty mask")
    out[:, 0] = area / (h * w)
    # the mean x of a mask is sum x / area, as np.mean of its coordinates
    out[:, 1] = rec.pool.sum(axis=1) @ np.arange(w) / area / w
    out[:, 2] = rec.pool.sum(axis=2) @ np.arange(h) / area / h
    image = rec.image.reshape(h * w, 3)
    for i, px in enumerate(_pixels_by_row(flat)):
        out[i, 3:6] = image[px].mean(axis=0)
    edges = rec.edges.reshape(h * w)
    for i, px in enumerate(_pixels_by_row(
            inner_boundary(rec.pool).reshape(p, h * w))):
        out[i, 6] = edges[px].mean() if px.size else 0.0
    seeds = rec.seeds
    for j in sorted(set(seeds.class_ids.tolist())):
        rows = seeds.masks[seeds.class_ids == j].reshape(-1, 1, h * w)
        inter = np.count_nonzero(flat & rows, axis=2)
        out[:, 7 + j - 1] = (inter / area).max(axis=0)
    out[:, d - 1] = 1.0
    rec._features = out
    return out


def _pixels_by_row(flat: np.ndarray) -> list:
    """Per row of a (P, N) bool stack, its set column indices, ascending."""
    idx = np.flatnonzero(flat)
    idx %= flat.shape[1]
    return np.split(idx, np.cumsum(np.count_nonzero(flat, axis=1))[:-1])


def cond_init(num_classes: int, noise_dim: int) -> np.ndarray:
    """Zero scorer weights: the linear map w of shape (C+1, D+d)."""
    return np.zeros((num_classes + 1, feature_dim(num_classes) + noise_dim))


def score_from_input(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x @ w.T


def score_vjp(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Gradient of sum(q * F(x)) with respect to the weights.

    q has the score table's shape; this is the only backward pass the
    trainer needs, since every loss term is a weighted sum of entries.
    """
    return q.T @ x


def draw_noise(seed, scene_id, k, extra, dim: int) -> np.ndarray:
    """U[0,1)^dim per key (seed, scene_id, k, extra), for a whole batch.

    The four arguments are non-negative ints or integer arrays, broadcast
    together; the result has the broadcast shape plus (dim,). Each row is
    bit for bit Generator(PCG64(SeedSequence((seed, scene_id, k, extra))))
    .random(dim), and so equals uniform(0.0, 1.0), whose 0.0 + 1.0 * r is
    exactly r. Rather than building those three objects per key, the
    SeedSequence hash, the PCG64 seeding and its XSL-RR outputs run as
    array arithmetic over every key at once. random(d) is the first d
    entries of random(d') for d <= d'. A negative key raises ValueError,
    a key that is not an int (a bool, a float) TypeError."""
    if dim < 0:
        raise ValueError("dim must be non-negative")
    keys = [_as_key(a) for a in (seed, scene_id, k, extra)]
    shape = np.broadcast_shapes(*(a.shape for a in keys))
    n = math.prod(shape)
    words = [_entropy_words(a) for a in keys]
    out = np.empty((n, dim), dtype=np.float64)
    if n == 0 or dim == 0:
        return out.reshape(shape + (dim,))
    # each key's entropy, a column of the (L, n) array, is its components'
    # words, concatenated. A word past an int's count is 0 and lands where
    # the next component's words go, which are written after it, or past
    # the key's length. Index and value arrays broadcast to `shape`.
    entropy = np.zeros((sum(len(w) for w, _ in words), n), dtype=np.uint32)
    cols = np.arange(n).reshape(shape)
    offset = np.zeros(shape, dtype=np.int64)
    for w, counts in words:
        for j, row in enumerate(w):
            entropy[offset + j, cols] = row
        offset += counts
    lengths = offset.reshape(n)
    # the hash's steps depend on the entropy length only
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        sel = lengths == length
        out[sel] = _pcg64_random(_seed_state(entropy[:length, sel]), dim)
    return out.reshape(shape + (dim,))


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
# numpy's SeedSequence constants (pool size 4)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _as_key(a) -> np.ndarray:
    a = np.asarray(a)
    if a.dtype.kind not in "iuO":
        raise TypeError(f"noise key must be an int, not {a.dtype}")
    return a


def _entropy_words(a: np.ndarray) -> tuple:
    """The 32-bit words SeedSequence splits each int of an array into: a
    list of uint32 arrays of a's shape, least significant word first, as
    many as the longest int has, and each int's count of words (0 is one
    word, as in SeedSequence). Words past an int's count are 0. The keys
    of a batch are a few hundred ints at most, so they are split as
    Python ints, which holds for any size."""
    vals = a.ravel().tolist()
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise TypeError(f"noise key must be an int, not {v!r}")
        if v < 0:
            raise ValueError("noise key must be a non-negative int")
    vals = [int(v) for v in vals]
    counts = [max(1, -(-v.bit_length() // 32)) for v in vals]
    words = [np.array([v >> 32 * j & _MASK32 for v in vals],
                      dtype=np.uint32).reshape(a.shape)
             for j in range(max(counts, default=1))]
    return words, np.array(counts, dtype=np.int64).reshape(a.shape)


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """(n+1, 1) uint32 column init * mult^i mod 2^32: the running hash
    constant of n successive hashmix steps."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    out = np.array(h, dtype=np.uint32)[:, None]
    out.flags.writeable = False
    return out


def _hashmix(value: np.ndarray, h: np.ndarray, i: int, m: int) -> np.ndarray:
    """Hashmix steps i .. i+m-1 of one constant run h, one per row of the
    (m, N) result, on a uint32 array that broadcasts to it: xor the
    constant, advance it, multiply by it."""
    value = (value ^ h[i:i + m]) * h[i + 1:i + m + 1]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ r >> 16


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, uint64) for each column of
    an (L, N) uint32 entropy array, L >= 4, as (4, N) uint64: the pool
    mix, then the output hash, in uint32 arithmetic that wraps as
    SeedSequence's does. A pool word's updates within one source word
    read only that source, so they run as one step over the other rows."""
    length = len(entropy)
    h = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE ** 2
                     + _POOL_SIZE * (length - _POOL_SIZE))
    pool = _hashmix(entropy[:_POOL_SIZE], h, 0, _POOL_SIZE)
    i = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h, i, len(dst)))
        i += len(dst)
    for src in range(_POOL_SIZE, length):
        pool = _mix(pool, _hashmix(entropy[src], h, i, _POOL_SIZE))
        i += _POOL_SIZE
    state = _hashmix(np.concatenate([pool, pool]),
                     _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE), 0,
                     2 * _POOL_SIZE)
    state = state.astype(np.uint64)
    # little-endian pairs of uint32 words
    return state[0::2] | state[1::2] << 32


def _pcg64_random(state: np.ndarray, dim: int) -> np.ndarray:
    """(N, dim) doubles of PCG64 generators seeded with (4, N) uint64
    generate_state words: random(dim) of each, as
    (next_uint64 >> 11) * 2**-53."""
    # initstate = (s0 << 64) | s1, initseq = (s2 << 64) | s3
    s0, s1, s2, s3 = state
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    # seeding steps from 0 (giving inc), adds initstate and steps again;
    # output n steps n more times, so its state is M^(n+1) p
    # + C_(n+1) inc, with p = inc + initstate and C_m = sum_(i<m) M^i
    p_lo = inc_lo + s1
    p_hi = inc_hi + s0 + (p_lo < inc_lo)
    j_hi, j_lo = _jumps(dim)
    hi, lo = _mul128(np.stack([p_hi, inc_hi])[:, :, None],
                     np.stack([p_lo, inc_lo])[:, :, None], j_hi, j_lo)
    hi, lo = _add128(hi[0], lo[0], hi[1], lo[1])
    # XSL-RR output: rotate hi ^ lo right by the top 6 bits of hi
    x = hi ^ lo
    rot = hi >> 58
    x = x >> rot | x << ((64 - rot) & 63)
    return (x >> 11).astype(np.float64) * 2.0 ** -53


@functools.lru_cache(maxsize=None)
def _jumps(dim: int) -> tuple:
    """(hi, lo) uint64 limbs of shape (2, 1, dim): row 0 holds M^m, row 1
    sum_(i<m) M^i, mod 2^128, for m = 2 .. dim+1."""
    mask = (1 << 128) - 1
    a, c = _PCG_MULT, 1  # m = 1
    rows = [[], []]
    for _ in range(dim):
        a, c = a * _PCG_MULT & mask, c + a & mask
        rows[0].append(a)
        rows[1].append(c)
    limbs = tuple(np.array([[[v >> shift & _MASK64 for v in row]]
                            for row in rows], dtype=np.uint64)
                  for shift in (64, 0))
    for limb in limbs:
        limb.flags.writeable = False
    return limbs


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple:
    """The 128-bit product of uint64 arrays, as (hi, lo), from 32-bit
    halves so no partial product overflows."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return (p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32),
            p00 & _MASK32 | mid << 32)


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """a * b mod 2^128 on (hi, lo) uint64 limbs."""
    hi, lo = _mul64(a_lo, b_lo)
    return hi + a_lo * b_hi + a_hi * b_lo, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo

