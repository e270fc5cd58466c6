"""Minimal deterministic dense kernel: sequence checks and seeded RNG.

Everything downstream (layers, training, metrics) builds on the helpers here.
Arrays are plain numpy ndarrays; a "sequence" is a T x D float matrix with one
feature row per frame. Two dtypes are supported: float32 for speed paths and
float64 for finite-difference verification.

Random numbers come from a self-contained counter-based generator (SplitMix64
finalizer over a 64-bit counter, Box-Muller for normals) rather than numpy's
Generator, so that a given seed produces bit-identical streams on any platform
or language that reimplements the same 20 lines.
"""

from __future__ import annotations

import math

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
# Values per step of seeded_normal: 64k Box-Muller pairs. Even, so every step
# but the last consumes exactly its own counter slots.
NORMAL_CHUNK = 1 << 17


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
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


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
    slots, so streams are reproducible and trivially seekable. Normal variates
    use the Box-Muller transform on pairs of uniforms.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def next_uint64(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=_U64)
        self.counter += n
        z = _U64(self.seed) + idx * _U64(_GAMMA)
        z ^= z >> _U64(30)
        z *= _U64(_MIX1)
        z ^= z >> _U64(27)
        z *= _U64(_MIX2)
        z ^= z >> _U64(31)
        return z

    def uniform(self, n: int) -> np.ndarray:
        # top 53 bits + half-ulp offset: values lie strictly inside (0, 1)
        bits = self.next_uint64(n) >> _U64(11)
        return (bits.astype(np.float64) + 0.5) * 2.0**-53

    def normal(self, n: int) -> np.ndarray:
        m = (n + 1) // 2
        u = self.uniform(2 * m)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

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


def seeded_normal(seed: int, rows: int, cols: int, stddev: float = 1.0,
                  out=None) -> np.ndarray:
    """Reproducible rows x cols zero-mean normal draw; same seed, same bits.

    Equal to (stddev * Counter64(seed).normal(rows * cols)).astype(out.dtype),
    drawn NORMAL_CHUNK values (whole Box-Muller pairs) at a time and written
    straight into the result, so no fp64 temporary grows with the draw. The
    result is out, a C-contiguous rows x cols array whose dtype it keeps, or
    a new fp64 array when out is None: filling a parameter allocates nothing
    of its size.
    """
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dims must be positive, got {rows}x{cols}")
    if stddev < 0:
        raise ValueError(f"stddev must be >= 0, got {stddev}")
    if out is None:
        out = np.empty((rows, cols))
    elif out.shape != (rows, cols) or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-contiguous {rows}x{cols} array, "
                         f"got shape {out.shape}")
    flat = out.reshape(-1)
    rng = Counter64(seed)
    for start in range(0, flat.size, NORMAL_CHUNK):
        chunk = flat[start:start + NORMAL_CHUNK]
        chunk[...] = stddev * rng.normal(chunk.size)
    return out
