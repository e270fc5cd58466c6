"""Sequence-layer math: low-rank projection, FIR-style memory blocks, output
transforms, and hand-written backward passes for all of them.

A memory-block layer computes, per frame t of the projected sequence p,

    ptilde[t] = [skip[t] +] p[t] + sum_q taps[q] * p[t + offsets[q]]

with taps = [*back_taps, *ahead_taps] (element-wise vectors) and the signed
offsets 0, -s_b, ..., -n_back*s_b, s_a, ..., n_ahead*s_a (s = stride), zero
padded outside each bounds segment. A layer outputs act(ptilde @ out_weight +
out_bias); the optional skip input, the previous layer's ptilde, is added
through an identity map, so skip-connected layers share one projection width.

The tap sum takes one of two paths, chosen by the spec's tap count alone:

- fewer than GEMM_MIN_TAPS taps: a walk over `_tap_rows`' (q, rows, src) pairs:
  out[rows] += taps[q] * p[src]; backward, gp[src] += taps[q] * grad[rows];
- otherwise the filter, with the identity folded into offset 0, runs as one
  batched GEMM per channel (`_fir`). Every offset is a multiple of
  g = gcd(offsets), so rows t = r (mod g) of a segment read only each other:
  each such phase is an independent sequence filtered with the offsets
  divided by g. The phases of every segment are laid out on one zero-padded
  channel-major time axis, each starting on a GEMM_BLOCK boundary with at
  least the filter's reach of zero frames before the next; each block of
  output frames is then its input window times a banded Toeplitz block. A
  row's result depends only on its own segment and on the spec, so a packed
  batch gives the same bytes as separate calls. The input gradient runs the
  mirrored filter; the tap gradient is the gradient blocks times the forward's
  input windows, summed along diagonals. Both read one padded copy of the
  gradient (`_GemmPlan.pad`).

The two paths round differently (they agree to about 1e-6 relative in fp32);
each is bit-exactly causal. A non-finite frame on the GEMM path also reaches the
other rows of its blocks' windows (0 * inf is nan).

Epilogues run in place: `affine` adds the bias to h @ W without a second
array and `activate` overwrites its argument. A layer cache holds h, p,
ptilde and out; backward reads each activation's derivative from out
(`activate_grad`), so no pre-activation is kept. Every affine backward
(projection, output transform, fc layer and the network's heads) is
`_affine_backward`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .tensor import ShapeError

if TYPE_CHECKING:
    from .network import DfsmnLayerSpec

ACTIVATIONS = ("relu", "tanh", "sigmoid", "linear")

# Tap filters with at least this many taps run as Toeplitz-block GEMMs; 16
# sends presets D..I (21+ taps) to the GEMM and A..C (3-11 taps) to the walk.
# At d = 512 fp32, walk time over GEMM time for one memory block is 0.38 at
# 100 frames and 1.00 at 400 for 21 taps, 1.24 at 200 frames for 41 taps, and
# 0.39 at 100 frames and 1.76 at 200 for 161 taps: the walk wins on short
# sequences whatever the tap count. On whole preset-E forwards and training
# steps the ratio is 0.93-1.04, so a rule on sequence length would not pay.
GEMM_MIN_TAPS = 16
# Output frames per Toeplitz block. A constant, so a row's GEMM operands do not
# depend on the sequence length or on the rest of a packed batch.
GEMM_BLOCK = 16
# Channels per batched GEMM are capped so one batch's input windows stay
# within this many bytes (cache-sized temporaries instead of page-faulting
# ones); the result does not depend on it.
GEMM_WINDOW_BYTES = 1 << 20


def activate(name: str, pre: np.ndarray) -> np.ndarray:
    """act(pre) in place: overwrites and returns pre, which callers pass fresh."""
    if name == "relu":
        return np.maximum(pre, 0, out=pre)
    if name == "tanh":
        return np.tanh(pre, out=pre)
    if name == "sigmoid":
        np.exp(np.negative(pre, out=pre), out=pre)
        pre += 1.0
        return np.divide(1.0, pre, out=pre)
    if name == "linear":
        return pre
    raise ValueError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


def activate_grad(name: str, out: np.ndarray) -> np.ndarray:
    """d out / d pre from the output alone (relu: out > 0 iff pre > 0, nan too)."""
    if name == "relu":
        return (out > 0).astype(out.dtype)
    if name == "tanh":
        return 1.0 - out * out
    if name == "sigmoid":
        return out * (1.0 - out)
    if name == "linear":
        return np.ones_like(out)
    raise ValueError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


def affine(h_seq: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """h_seq @ weight + bias in one allocation: the bias is added in place."""
    out = h_seq @ weight
    out += bias
    return out


@dataclass
class DfsmnLayerParams:
    """All learnable tensors of one memory-block layer.

    back_taps holds n_back+1 vectors (tap 0 weights the current frame, on top
    of the fixed identity contribution); ahead_taps holds n_ahead vectors for
    future frames. Every tap vector has the projection width.
    """

    proj_weight: np.ndarray   # d_in x d_proj
    proj_bias: np.ndarray     # d_proj
    back_taps: np.ndarray     # (n_back+1) x d_proj
    ahead_taps: np.ndarray    # n_ahead x d_proj
    out_weight: np.ndarray    # d_proj x d_hidden
    out_bias: np.ndarray      # d_hidden


def project(h_seq: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Per-frame linear projection onto the memory-block width."""
    if h_seq.shape[1] != weight.shape[0]:
        raise ShapeError(
            f"projection input dim {h_seq.shape[1]} != weight rows {weight.shape[0]}")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"bias shape {bias.shape} != ({weight.shape[1]},)")
    return affine(h_seq, weight, bias)


def memory_block(p_seq: np.ndarray, back_taps: np.ndarray, ahead_taps: np.ndarray,
                 spec: DfsmnLayerSpec, skip_seq: Optional[np.ndarray] = None,
                 bounds=None) -> np.ndarray:
    """Weighted tap sum over past/future frames, zero padded at each bounds
    segment; spec gives the orders, strides and skip flag."""
    if spec.skip and skip_seq is None:
        raise ShapeError("skip enabled but no skip sequence given")
    if not spec.skip and skip_seq is not None:
        raise ShapeError("skip sequence given but skip flag is off")
    _check_block_args(p_seq, back_taps, ahead_taps, spec, skip=skip_seq)
    offsets, segments = _tap_offsets(spec), _segments(bounds, p_seq.shape[0])
    if len(offsets) >= GEMM_MIN_TAPS:
        plan = _GemmPlan(offsets, segments)
        out = _fir(plan.pad(p_seq), plan.filter(back_taps, ahead_taps), plan.back, plan)
        if skip_seq is not None:
            out += skip_seq
        return out
    out = p_seq.copy() if skip_seq is None else p_seq + skip_seq
    taps = [*back_taps, *ahead_taps]
    for q, rows, src in _tap_rows(offsets, segments):
        out[rows] += taps[q] * p_seq[src]
    return out


def memory_block_backward(grad_ptilde: np.ndarray, p_seq: np.ndarray,
                          back_taps: np.ndarray, ahead_taps: np.ndarray,
                          spec: DfsmnLayerSpec, bounds=None):
    """Gradients of the tap sum: returns (d p_seq, d back_taps, d ahead_taps,
    d skip); d skip is grad_ptilde itself, or None when spec has no skip."""
    _check_block_args(p_seq, back_taps, ahead_taps, spec, grad_ptilde=grad_ptilde)
    offsets, segments = _tap_offsets(spec), _segments(bounds, p_seq.shape[0])
    if len(offsets) >= GEMM_MIN_TAPS:
        plan = _GemmPlan(offsets, segments)
        grad_buf = plan.pad(grad_ptilde)  # read by both products
        gp = _fir(grad_buf, plan.filter(back_taps, ahead_taps)[:, ::-1], plan.ahead, plan)
        d_taps = _tap_grad(grad_buf, plan.pad(p_seq), plan)
    else:
        taps, gp = [*back_taps, *ahead_taps], grad_ptilde.copy()
        for q, rows, src in _tap_rows(offsets, segments):
            gp[src] += taps[q] * grad_ptilde[rows]
        d_taps = np.zeros((len(offsets), p_seq.shape[1]), p_seq.dtype)
        d_rows = list(d_taps)
        for q, rows, src in _tap_rows(offsets, segments):
            d_rows[q] += (grad_ptilde[rows] * p_seq[src]).sum(axis=0)
    n = back_taps.shape[0]
    return gp, d_taps[:n], d_taps[n:], grad_ptilde if spec.skip else None


def _tap_offsets(spec: DfsmnLayerSpec) -> list:
    """Each stored tap's signed frame offset: 0, -s_b, -2 s_b, ..., then s_a, 2 s_a, ..."""
    return ([-i * spec.stride_back for i in range(spec.n_back + 1)]
            + [j * spec.stride_ahead for j in range(1, spec.n_ahead + 1)])


def _tap_rows(offsets, bounds):
    """(q, rows, rows + offsets[q]) slices per segment and tap, both inside the segment."""
    for a, b in bounds:
        for q, k in enumerate(offsets):
            if abs(k) < b - a:
                lo, hi = a + max(0, -k), b - max(0, k)
                yield q, slice(lo, hi), slice(lo + k, hi + k)


class _GemmPlan:
    """Gapped polyphase layout of the bounds segments for the GEMM path.

    Each (segment, phase) sub-sequence occupies whole GEMM_BLOCK-frame blocks
    of a channel-major buffer, followed by at least `reach` zero frames, so no
    block's input window reaches another sub-sequence. Only blocks holding
    frames are multiplied, plus one all-zero block, which keeps the GEMM's row
    count at 2 or more (numpy sends a one-row product to GEMV, whose
    summation order differs).
    """

    def __init__(self, offsets: list, segments: list):
        g = math.gcd(*offsets) or 1
        self.offsets = np.array(offsets) // g
        self.back, self.ahead = -int(self.offsets.min()), int(self.offsets.max())
        self.reach = max(self.back, self.ahead)
        B = GEMM_BLOCK
        starts = np.array([a for a, _ in segments])
        lengths = np.array([b - a for a, b in segments])
        sub_len = np.maximum((lengths[:, None] - np.arange(g) + g - 1) // g, 0).ravel()
        used = -(-sub_len // B)
        span = np.where(used > 0, used + -(-self.reach // B), 0)
        first = np.cumsum(span) - span            # first block of each sub-sequence
        first_used = np.cumsum(used) - used       # its rank among the multiplied blocks
        total = int(span.sum())
        self.blocks = np.append(np.repeat(first - first_used, used) + np.arange(used.sum()),
                                total)
        seg = np.repeat(np.arange(len(segments)), lengths)
        r = np.arange(lengths.sum()) - starts[seg]
        sub, u = seg * g + r % g, r // g
        self.buffer_slot = self.reach + first[sub] * B + u
        self.block_slot = first_used[sub] * B + u
        self.buffer_len = (total + 1) * B + 2 * self.reach

    def filter(self, back_taps: np.ndarray, ahead_taps: np.ndarray) -> np.ndarray:
        """(d, back + ahead + 1) per-channel filter over the phase offsets,
        column back + k weighting offset k, identity folded into offset 0."""
        f = np.zeros((back_taps.shape[1], self.back + self.ahead + 1), back_taps.dtype)
        f[:, self.offsets + self.back] = np.concatenate([back_taps, ahead_taps]).T
        f[:, self.back] += 1
        return f

    def pad(self, x: np.ndarray) -> np.ndarray:
        """(d, buffer_len) buffer holding the (T, d) frames x in this layout."""
        buf = np.zeros((x.shape[1], self.buffer_len), x.dtype)
        buf[:, self.buffer_slot] = x.T
        return buf

    def windows(self, buf: np.ndarray, lead: int, width: int):
        """Sliding `width`-frame windows over a pad buffer and the start of
        each multiplied block's window, `lead` frames before the block."""
        view = sliding_window_view(buf, width, axis=1)
        return view, self.reach - lead + self.blocks * GEMM_BLOCK

    def chunks(self, d: int, width: int, itemsize: int):
        step = max(1, GEMM_WINDOW_BYTES // (len(self.blocks) * width * itemsize))
        return [slice(c, c + step) for c in range(0, d, step)]

    def rows(self, blocks: np.ndarray) -> np.ndarray:
        """(T, d) frames from (d, blocks, GEMM_BLOCK) block outputs."""
        d = blocks.shape[0]
        return np.ascontiguousarray(blocks.reshape(d, -1)[:, self.block_slot].T)


def _toeplitz(f: np.ndarray) -> np.ndarray:
    """(d, W, B) banded blocks with [c, j, i] = f[c, j - i] (0 outside f),
    W = B + S - 1: the reversed sliding windows of the zero-padded filter."""
    B, (d, S) = GEMM_BLOCK, f.shape
    padded = np.zeros((d, S + 2 * B - 2), f.dtype)
    padded[:, B - 1:B - 1 + S] = f
    return np.ascontiguousarray(sliding_window_view(padded, B, axis=1)[:, :B + S - 1, ::-1])


def _fir(buf: np.ndarray, f: np.ndarray, lead: int, plan: _GemmPlan) -> np.ndarray:
    """out[t] = sum_s f[:, s] * x[t + g * (s - lead)] within t's segment, buf =
    plan.pad(x), g the phase count: input windows times Toeplitz blocks."""
    d, S = f.shape
    width = GEMM_BLOCK + S - 1
    view, starts = plan.windows(buf, lead, width)
    out = np.empty((d, len(starts), GEMM_BLOCK), buf.dtype)
    for c in plan.chunks(d, width, buf.itemsize):
        np.matmul(view[c, starts], _toeplitz(f[c]), out=out[c])
    return plan.rows(out)


def _tap_grad(grad_buf: np.ndarray, p_buf: np.ndarray, plan: _GemmPlan) -> np.ndarray:
    """(taps, d) tap gradients, back taps then ahead, from the pad buffers: per
    chunk, the GEMM m[c, i, j] = sum over blocks of grad[block + i] * p[block -
    back + j], whose diagonal j - i = s sums to the gradient of column s."""
    B, S = GEMM_BLOCK, plan.back + plan.ahead + 1
    width = B + S - 1
    gview, gstarts = plan.windows(grad_buf, 0, B)
    pview, pstarts = plan.windows(p_buf, plan.back, width)
    d_f = np.empty((p_buf.shape[0], S), p_buf.dtype)
    for c in plan.chunks(len(d_f), width, p_buf.itemsize):
        m = np.matmul(gview[c, gstarts].transpose(0, 2, 1), pview[c, pstarts])
        s0, s1, s2 = m.strides
        d_f[c] = as_strided(m, (m.shape[0], B, S), (s0, s1 + s2, s2)).sum(axis=1)
    return np.ascontiguousarray(d_f[:, plan.offsets + plan.back].T)


def _segments(bounds, T: int) -> list:
    """bounds, checked to tile rows [0, T) in order with non-empty (start, end)
    ranges; None stands for the one range (0, T)."""
    if bounds is None:
        return [(0, T)]
    ends = [0] + [b for _, b in bounds]
    if [a for a, _ in bounds] + [T] != ends or any(b <= a for a, b in bounds):
        raise ShapeError(f"bounds {bounds} do not tile [0, {T}) with non-empty ranges")
    return bounds


@dataclass
class DfsmnLayerCache:
    h_seq: np.ndarray
    p_seq: np.ndarray
    ptilde_seq: np.ndarray
    out_seq: np.ndarray
    params: DfsmnLayerParams
    spec: DfsmnLayerSpec
    bounds: Optional[list]


@dataclass
class FcLayerCache:
    h_seq: np.ndarray
    out_seq: np.ndarray
    weight: np.ndarray
    activation: str


def dfsmn_layer_forward(h_seq: np.ndarray, params: DfsmnLayerParams,
                        spec: DfsmnLayerSpec, skip_seq: Optional[np.ndarray] = None,
                        bounds=None):
    """Full layer: project -> memory block -> output transform (spec.activation).

    Returns (h_next, cache, ptilde); ptilde is what a following layer's skip
    input consumes. bounds is passed to memory_block and kept for backward.
    """
    p_seq = project(h_seq, params.proj_weight, params.proj_bias)
    ptilde = memory_block(p_seq, params.back_taps, params.ahead_taps, spec, skip_seq,
                          bounds=bounds)
    out = activate(spec.activation, affine(ptilde, params.out_weight, params.out_bias))
    return out, DfsmnLayerCache(h_seq, p_seq, ptilde, out, params, spec, bounds), ptilde


def fc_layer_forward(h_seq: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                     activation: str):
    """Plain per-frame affine layer."""
    if h_seq.shape[1] != weight.shape[0]:
        raise ShapeError(f"fc input dim {h_seq.shape[1]} != weight rows {weight.shape[0]}")
    out = activate(activation, affine(h_seq, weight, bias))
    return out, FcLayerCache(h_seq, out, weight, activation)


def layer_backward(cache: DfsmnLayerCache, grad_out: np.ndarray,
                   grad_ptilde: Optional[np.ndarray] = None):
    """Backward pass of one memory-block layer.

    grad_out is dLoss/d h_next; grad_ptilde, when given, is the gradient that
    arrived at this layer's exported ptilde through a downstream skip path.
    Returns (grad_in, grad_skip or None, param gradients shaped like the
    layer's DfsmnLayerParams).
    """
    if grad_out.shape != cache.out_seq.shape:
        raise ShapeError(
            f"grad shape {grad_out.shape} != output shape {cache.out_seq.shape}")
    p = cache.params
    dptilde, d_out_weight, d_out_bias = _affine_backward(
        grad_out, cache.ptilde_seq, p.out_weight, cache.spec.activation, cache.out_seq)
    if grad_ptilde is not None:
        dptilde += grad_ptilde
    dp, d_back, d_ahead, g_skip = memory_block_backward(
        dptilde, cache.p_seq, p.back_taps, p.ahead_taps, cache.spec, bounds=cache.bounds)
    grad_in, d_proj_weight, d_proj_bias = _affine_backward(dp, cache.h_seq, p.proj_weight)
    grads = DfsmnLayerParams(d_proj_weight, d_proj_bias, d_back, d_ahead,
                             d_out_weight, d_out_bias)
    return grad_in, g_skip, grads


def fc_layer_backward(cache: FcLayerCache, grad_out: np.ndarray):
    """Backward pass of a plain affine layer: (grad_in, d weight, d bias)."""
    if grad_out.shape != cache.out_seq.shape:
        raise ShapeError(
            f"grad shape {grad_out.shape} != output shape {cache.out_seq.shape}")
    return _affine_backward(grad_out, cache.h_seq, cache.weight, cache.activation,
                            cache.out_seq)


def _affine_backward(grad_out: np.ndarray, h_seq: np.ndarray, weight: np.ndarray,
                     activation: str = "linear", out: Optional[np.ndarray] = None):
    """(d h_seq, d weight, d bias) of out = act(h_seq @ weight + bias), the
    activation's derivative read from out; a linear one passes grad_out on."""
    dpre = grad_out if activation == "linear" else grad_out * activate_grad(activation, out)
    return dpre @ weight.T, h_seq.T @ dpre, dpre.sum(axis=0)


def _check_block_args(p_seq, back_taps, ahead_taps, spec, **seqs):
    """Tap shapes against spec and p_seq's width; the shape of each named
    sequence (None skipped) and the dtype of every array against p_seq."""
    d_proj = p_seq.shape[1]
    if back_taps.shape != (spec.n_back + 1, d_proj):
        raise ShapeError(
            f"back taps shape {back_taps.shape} != ({spec.n_back + 1}, {d_proj})")
    if ahead_taps.shape != (spec.n_ahead, d_proj):
        raise ShapeError(
            f"ahead taps shape {ahead_taps.shape} != ({spec.n_ahead}, {d_proj})")
    for name, arr in seqs.items():
        if arr is not None and arr.shape != p_seq.shape:
            raise ShapeError(f"{name} shape {arr.shape} != projected shape {p_seq.shape}")
    for name, arr in (("back taps", back_taps), ("ahead taps", ahead_taps), *seqs.items()):
        if arr is not None and arr.dtype != p_seq.dtype:
            raise ShapeError(f"{name} dtype {arr.dtype} != projected dtype {p_seq.dtype}")
