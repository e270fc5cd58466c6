"""Sequence-layer math: low-rank projection, FIR-style memory blocks, output
transforms, and hand-written backward passes for all of them.

A memory-block layer computes, per frame t of the projected sequence p,

    ptilde[t] = [skip[t] +] p[t] + sum_q taps[q] * p[t + offsets[q]]

with taps = [*back_taps, *ahead_taps] (element-wise vectors) and the signed
offsets 0, -s_b, ..., -n_back*s_b, s_a, ..., n_ahead*s_a (s = stride), zero
padded outside each bounds segment. The input gradient is the same tap walk
with every offset negated. The layer output is act(ptilde @ out_weight +
out_bias); the optional skip input, the previous layer's ptilde, is added
through an identity map, so skip-connected layers share one projection width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .tensor import ShapeError

if TYPE_CHECKING:
    from .network import DfsmnLayerSpec

ACTIVATIONS = ("relu", "tanh", "sigmoid", "linear")


def activate(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(pre, 0)
    if name == "tanh":
        return np.tanh(pre)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-pre))
    if name == "linear":
        return pre
    raise ValueError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


def activate_grad(name: str, pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d out / d pre, from the cached pre-activation and output."""
    if name == "relu":
        return (pre > 0).astype(pre.dtype)
    if name == "tanh":
        return 1.0 - out * out
    if name == "sigmoid":
        return out * (1.0 - out)
    if name == "linear":
        return np.ones_like(pre)
    raise ValueError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


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
    return h_seq @ weight + bias


def memory_block(p_seq: np.ndarray, back_taps: np.ndarray, ahead_taps: np.ndarray,
                 spec: DfsmnLayerSpec, skip_seq: Optional[np.ndarray] = None,
                 bounds=None) -> np.ndarray:
    """Weighted tap sum over past/future frames, zero padded at each bounds
    segment; spec gives the orders, strides and skip flag."""
    _check_block_args(p_seq, back_taps, ahead_taps, spec, skip_seq)
    out = p_seq.copy()
    if skip_seq is not None:
        out += skip_seq
    _tap_sum(out, p_seq, [*back_taps, *ahead_taps], _tap_offsets(spec),
             _segments(bounds, p_seq.shape[0]))
    return out


def memory_block_backward(grad_ptilde: np.ndarray, p_seq: np.ndarray,
                          back_taps: np.ndarray, ahead_taps: np.ndarray,
                          spec: DfsmnLayerSpec, bounds=None):
    """Gradients of the tap sum: returns (d p_seq, d back_taps, d ahead_taps,
    d skip); d skip is grad_ptilde itself, or None when spec has no skip."""
    offsets, segments = _tap_offsets(spec), _segments(bounds, p_seq.shape[0])
    gp = grad_ptilde.copy()
    _tap_sum(gp, grad_ptilde, [*back_taps, *ahead_taps], [-k for k in offsets], segments)
    d_back, d_ahead = np.zeros_like(back_taps), np.zeros_like(ahead_taps)
    d_taps = [*d_back, *d_ahead]
    for q, rows, src in _tap_rows(offsets, segments):
        d_taps[q] += (grad_ptilde[rows] * p_seq[src]).sum(axis=0)
    return gp, d_back, d_ahead, grad_ptilde if spec.skip else None


def _tap_offsets(spec: DfsmnLayerSpec) -> list:
    """Each stored tap's signed frame offset: 0, -s_b, -2 s_b, ..., then s_a, 2 s_a, ..."""
    return ([-i * spec.stride_back for i in range(spec.n_back + 1)]
            + [j * spec.stride_ahead for j in range(1, spec.n_ahead + 1)])


def _tap_sum(out: np.ndarray, x: np.ndarray, taps, offsets, bounds) -> None:
    """out[t] += taps[q] * x[t + offsets[q]], taps in order, within each segment."""
    for q, rows, src in _tap_rows(offsets, bounds):
        out[rows] += taps[q] * x[src]


def _tap_rows(offsets, bounds):
    """(q, rows, rows + offsets[q]) slices per segment and tap, both inside the segment."""
    for a, b in bounds:
        for q, k in enumerate(offsets):
            if abs(k) < b - a:
                lo, hi = a + max(0, -k), b - max(0, k)
                yield q, slice(lo, hi), slice(lo + k, hi + k)


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
    pre_seq: np.ndarray
    out_seq: np.ndarray
    params: DfsmnLayerParams
    spec: DfsmnLayerSpec
    bounds: Optional[list] = None


@dataclass
class FcLayerCache:
    h_seq: np.ndarray
    pre_seq: np.ndarray
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
    pre = ptilde @ params.out_weight + params.out_bias
    out = activate(spec.activation, pre)
    cache = DfsmnLayerCache(h_seq, p_seq, ptilde, pre, out, params, spec, bounds)
    return out, cache, ptilde


def fc_layer_forward(h_seq: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                     activation: str):
    """Plain per-frame affine layer."""
    if h_seq.shape[1] != weight.shape[0]:
        raise ShapeError(f"fc input dim {h_seq.shape[1]} != weight rows {weight.shape[0]}")
    pre = h_seq @ weight + bias
    out = activate(activation, pre)
    return out, FcLayerCache(h_seq, pre, out, weight, activation)


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
    dpre = grad_out * activate_grad(cache.spec.activation, cache.pre_seq, cache.out_seq)
    d_out_weight = cache.ptilde_seq.T @ dpre
    d_out_bias = dpre.sum(axis=0)
    dptilde = dpre @ p.out_weight.T
    if grad_ptilde is not None:
        dptilde = dptilde + grad_ptilde
    dp, d_back, d_ahead, g_skip = memory_block_backward(
        dptilde, cache.p_seq, p.back_taps, p.ahead_taps, cache.spec, bounds=cache.bounds)
    d_proj_weight = cache.h_seq.T @ dp
    d_proj_bias = dp.sum(axis=0)
    grad_in = dp @ p.proj_weight.T
    grads = DfsmnLayerParams(d_proj_weight, d_proj_bias, d_back, d_ahead,
                             d_out_weight, d_out_bias)
    return grad_in, g_skip, grads


def fc_layer_backward(cache: FcLayerCache, grad_out: np.ndarray):
    """Backward pass of a plain affine layer: (grad_in, d weight, d bias)."""
    if grad_out.shape != cache.out_seq.shape:
        raise ShapeError(
            f"grad shape {grad_out.shape} != output shape {cache.out_seq.shape}")
    dpre = grad_out * activate_grad(cache.activation, cache.pre_seq, cache.out_seq)
    d_weight = cache.h_seq.T @ dpre
    d_bias = dpre.sum(axis=0)
    grad_in = dpre @ cache.weight.T
    return grad_in, d_weight, d_bias


def _check_block_args(p_seq, back_taps, ahead_taps, spec, skip_seq):
    d_proj = p_seq.shape[1]
    if back_taps.shape != (spec.n_back + 1, d_proj):
        raise ShapeError(
            f"back taps shape {back_taps.shape} != ({spec.n_back + 1}, {d_proj})")
    if ahead_taps.shape != (spec.n_ahead, d_proj):
        raise ShapeError(
            f"ahead taps shape {ahead_taps.shape} != ({spec.n_ahead}, {d_proj})")
    if spec.skip and skip_seq is None:
        raise ShapeError("skip enabled but no skip sequence given")
    if not spec.skip and skip_seq is not None:
        raise ShapeError("skip sequence given but skip flag is off")
    if skip_seq is not None and skip_seq.shape != p_seq.shape:
        raise ShapeError(
            f"skip shape {skip_seq.shape} != projected shape {p_seq.shape}")
