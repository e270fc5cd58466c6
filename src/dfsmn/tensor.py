"""Minimal deterministic dense kernel: sequence checks and seeded RNG.

Everything downstream (layers, training, metrics) builds on the helpers here.
Arrays are plain numpy ndarrays; a "sequence" is a T x D float matrix with one
feature row per frame. Two dtypes are supported: float32 for speed paths and
float64 for finite-difference verification.

Random numbers come from a self-contained counter-based generator (SplitMix64
finalizer over a 64-bit counter, Box-Muller for normals) rather than numpy's
Generator. Its integers and uniforms are exact integer and power-of-two
arithmetic, the same bits anywhere. A normal's Box-Muller angle is a table
angle plus a remainder: the angle's top bits pick one of 1024 angles whose
cos and sin are tabled at import, short Taylor polynomials give the small
remainder's, and the angle-addition formulas join the two, so no cos or sin
is called per value. The normals' bytes therefore rest on numpy's log and on
the table's cos and sin: they are fixed for one numpy and libm build, not
for every platform. Because the generator is seekable, seeded_normal splits
a large draw into pieces that each read their own counter range, and fills
them on one thread per available core with the Box-Muller fill that
Counter64.normal uses; the bytes do not depend on how many threads ran or
in what order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "ShapeError",
    "as_sequence",
    "Counter64",
    "derive_seed",
    "seeded_normal",
]

_U64 = np.uint64
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment of SplitMix64
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_FINALIZER = ((30, _MIX1), (27, _MIX2), (31, None))  # x ^= x >> shift; x *= mix
# Values seeded_normal holds in flight: 64k Box-Muller pairs, split into one
# piece per worker thread, each piece a whole number of pairs so that every
# piece but the last consumes exactly its own counter slots.
NORMAL_CHUNK = 1 << 17
# Box-Muller angles: the top _ANGLE_BITS of a 53-bit uniform pick one of
# 1024 table angles k * 2pi / 1024, and the other bits a remainder x below
# 2pi / 1024, whose cos and sin take Taylor terms up to x**6 and x**7 (the
# first terms left out are below 1e-22).
_ANGLE_BITS = 10
_REMAINDER_BITS = 53 - _ANGLE_BITS
_TABLE_ANGLES = 2.0 * math.pi / (1 << _ANGLE_BITS) * np.arange(1 << _ANGLE_BITS)
_COS_TABLE, _SIN_TABLE = np.cos(_TABLE_ANGLES), np.sin(_TABLE_ANGLES)
_COS_TERMS = (-1 / 2, 1 / 24, -1 / 720)  # cos x = 1 + sum of terms[i - 1] x**2i
_SIN_TERMS = (-1 / 6, 1 / 120, -1 / 5040)  # sin x = x (1 + sum of terms[i - 1] x**2i)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; message names both shapes."""


def as_sequence(x, dtype=None) -> np.ndarray:
    """Validate and return a T x D frame matrix (T >= 1, D >= 1, finite)."""
    arr = np.asarray(x, dtype=dtype if dtype is not None else np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"sequence must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"sequence needs at least one frame and one dim, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sequence contains NaN or Inf")
    return arr


def _mix64(x: int) -> int:
    """SplitMix64 finalizer on a python int (used for seed derivation)."""
    x &= _MASK64
    for shift, mix in _FINALIZER:
        x ^= x >> shift
        if mix is not None:
            x = (x * mix) & _MASK64
    return x


def _finalize(z: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64 finalizer on uint64 z in place, overwriting scratch."""
    for shift, mix in _FINALIZER:
        np.right_shift(z, _U64(shift), out=scratch)
        z ^= scratch
        if mix is not None:
            z *= _U64(mix)


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent child seed from (seed, tags...).

    Folds every tag through the SplitMix64 finalizer so distinct tag tuples
    give decorrelated streams. Pure function of its arguments.
    """
    s = _mix64(seed)
    for t in tags:
        s = _mix64(s ^ _mix64((t + 0x632BE59BD9B4E019) & _MASK64))
    return s


class Counter64:
    """Counter-based PRNG: out[k] = splitmix_finalize(seed + (k+1) * GAMMA).

    The state is just (seed, counter); drawing n values consumes n counter
    slots, so streams are reproducible and trivially seekable. normal(n) turns
    each pair of slots into two normals (Box-Muller) and consumes n + n % 2.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def next_uint64(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=_U64)
        self.counter += n
        z = _U64(self.seed) + idx * _U64(_GAMMA)
        _finalize(z, idx)
        return z

    def uniform(self, n: int) -> np.ndarray:
        # top 53 bits + half-ulp offset: values lie strictly inside (0, 1)
        bits = self.next_uint64(n) >> _U64(11)
        return (bits.astype(np.float64) + 0.5) * 2.0**-53

    def normal(self, n: int) -> np.ndarray:
        out, slots = np.empty(n), n + n % 2
        steps = np.arange(1, slots + 1, dtype=_U64) * _U64(_GAMMA)
        _NormalPieces(steps).fill(self.seed, self.counter, out, 1.0)
        self.counter += slots
        return out

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = int(self.next_uint64(1)[0])
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _draw_workers() -> int:
    """Threads a draw or a model load may use: one per CPU this process may
    run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_threads(fn, items, threads: int) -> None:
    """fn(item) for each of items: in order on the calling thread when
    threads <= 1, else on a pool of that many threads, all ended before
    this returns."""
    if threads <= 1:
        for item in items:
            fn(item)
    else:
        with ThreadPoolExecutor(threads) as pool:
            # list() reads every result, so a worker's exception is raised here
            list(pool.map(fn, items))


class _NormalPieces:
    """Draws pieces of a seed's normal stream into buffers made by the
    constructor.

    A worker thread that fills pieces therefore allocates nothing. glibc
    keeps what a thread frees in that thread's own arena, where the caller's
    later allocations cannot reuse it: with per-piece temporaries made on two
    workers, preset-I init left about 6 MB more resident.
    """

    def __init__(self, steps: np.ndarray):
        self.steps = steps  # (k + 1) * GAMMA mod 2**64 for k below an even length
        self.bits = np.empty(steps.size, _U64)
        self.spare = np.empty(steps.size, _U64)
        self.trig = np.empty(steps.size // 2)

    def fill(self, seed: int, start: int, dst: np.ndarray, stddev: float) -> None:
        """dst[...] = stddev * Box-Muller normals of seed's counter slots
        start + 1, start + 2, ..., a pair per two slots, from any start. The
        pieces of one seeded_normal draw start even to pair as the draw does.

        A pair's even slot gives the radius r = sqrt(-2 log u) and its odd
        slot the angle: the top _ANGLE_BITS of its 53 bits pick a table
        angle, the rest a remainder x, and r cos and r sin of the sum are
        joined from the table's and x's by the angle-addition formulas."""
        m = (dst.size + 1) // 2
        z, t = self.bits[:2 * m], self.spare[:2 * m]
        np.add(self.steps[:2 * m], _U64((seed + start * _GAMMA) & _MASK64), out=z)
        _finalize(z, t)
        z >>= _U64(11)
        k = self.trig[:m].view(_U64)
        np.right_shift(z[1::2], _U64(_REMAINDER_BITS), out=k)
        z[1::2] &= _U64((1 << _REMAINDER_BITS) - 1)
        u = t.view(np.float64)
        r, x = u[:m], u[m:]
        r[...] = z[0::2]
        x[...] = z[1::2]
        u += 0.5
        r *= 2.0**-53
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        x *= 2.0 * math.pi * 2.0**-53
        rc, rs = z.view(np.float64)[:m], z.view(np.float64)[m:]
        # mode "raise" (the default) would copy out through a new array
        np.take(_COS_TABLE, k.view(np.intp), out=rc, mode="wrap")
        np.take(_SIN_TABLE, k.view(np.intp), out=rs, mode="wrap")
        rc *= r
        rs *= r
        # sin x takes r's slot, now folded into rc and rs; cos x takes x's
        w, sx, cx = self.trig[:m], r, x
        np.multiply(x, x, out=w)
        _taylor(w, _SIN_TERMS, out=sx)
        sx *= x
        _taylor(w, _COS_TERMS, out=cx)
        # r cos = rc cx - rs sx and r sin = rs cx + rc sx, in the freed slots
        np.multiply(rs, cx, out=w)
        cx *= rc
        rs *= sx
        rc *= sx
        np.subtract(cx, rs, out=rs)
        np.add(w, rc, out=rc)
        np.multiply(rs, stddev, out=dst[0::2])
        np.multiply(rc[:dst.size // 2], stddev, out=dst[1::2])


def _taylor(w: np.ndarray, terms: tuple, out: np.ndarray) -> None:
    """out[...] = 1 + terms[0] w + terms[1] w**2 + ..., by Horner's rule."""
    np.multiply(w, terms[-1], out=out)
    for c in reversed(terms[:-1]):
        out += c
        out *= w
    out += 1.0


def seeded_normal(seed: int, rows: int, cols: int, stddev: float = 1.0,
                  out=None) -> np.ndarray:
    """Reproducible rows x cols zero-mean normal draw; same seed, same bits.

    Equal to (stddev * Counter64(seed).normal(rows * cols)).astype(out.dtype),
    written straight into the result, so no fp64 temporary grows with the
    draw. The draw is cut into pieces of NORMAL_CHUNK // workers values
    (whole Box-Muller pairs), with one worker thread per CPU in the
    process's affinity set, so all workers together hold about NORMAL_CHUNK
    values in flight. Piece k reads its own counter range, so the bytes are
    the same for any worker count; a draw of one piece runs on the calling
    thread, and the threads of a larger one end before it returns. The
    result is out, a C-contiguous rows x cols array whose dtype it keeps, or
    a new fp64 array when out is None: filling a parameter allocates nothing
    of its size.
    """
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dims must be positive, got {rows}x{cols}")
    if not (math.isfinite(stddev) and stddev >= 0):
        raise ValueError(f"stddev must be finite and >= 0, got {stddev}")
    if out is None:
        out = np.empty((rows, cols))
    elif out.shape != (rows, cols) or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-contiguous {rows}x{cols} array, "
                         f"got shape {out.shape}")
    flat = out.reshape(-1)
    workers = _draw_workers()
    piece = max(2, NORMAL_CHUNK // workers // 2 * 2)
    starts = range(0, flat.size, piece)
    threads = min(workers, len(starts))
    longest = min(piece, flat.size + flat.size % 2)
    steps = np.arange(1, longest + 1, dtype=_U64) * _U64(_GAMMA)
    # made here, so the buffers come from the calling thread's arena
    drawers = [_NormalPieces(steps) for _ in range(threads)]

    def fill(w):
        for start in starts[w::threads]:
            drawers[w].fill(seed, start, flat[start:start + piece], stddev)

    _run_threads(fill, range(threads), threads)
    return out
