"""FLOP and byte counts per traced call, joined with `dfsmn.analysis`.

The package's cost model counts a whole memory-block layer at once
(`analysis.dfsmn_layer_flops`). Tracing times its parts separately, so the
layer count is split into projection, memory taps and output transform
under the same convention: a k x n matmul costs 2*k*n per frame, bias and
activation 1 per scalar each. `split_error` checks the split adds up to the
analysis totals for a config. Backward passes count 2x the forward matmul
FLOPs. Bytes are computed from array sizes (compulsory traffic: every
operand read once, every result written once), not measured.
"""

from __future__ import annotations

import numpy as np

from dfsmn import analysis
from dfsmn.network import DfsmnLayerSpec, layer_dims


def project_flops(d_in: int, proj: int) -> int:
    return 2 * d_in * proj + proj


def memory_flops(n_taps: int, proj: int) -> int:
    return 2 * n_taps * proj


def output_flops(proj: int, hidden: int) -> int:
    return 2 * proj * hidden + hidden + hidden


def split_error(cfg) -> str:
    """Empty when the per-part split adds up to the analysis totals for cfg,
    otherwise where it does not."""
    dims = layer_dims(cfg)
    total = 0
    for li, spec in enumerate(cfg.layers):
        if isinstance(spec, DfsmnLayerSpec):
            parts = (project_flops(dims[li], spec.proj)
                     + memory_flops(spec.n_back + 1 + spec.n_ahead, spec.proj)
                     + output_flops(spec.proj, spec.hidden))
            want = analysis.dfsmn_layer_flops(dims[li], spec)
            if parts != want:
                return f"layer {li}: split {parts} != analysis {want}"
            total += parts
        else:
            total += analysis.fc_layer_flops(dims[li], spec.hidden)
    total += sum(analysis.fc_layer_flops(dims[-1], s.dim) for s in cfg.output_streams)
    if total != analysis.flops_per_frame(cfg):
        return f"split total {total} != analysis {analysis.flops_per_frame(cfg)}"
    return ""


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


# Each cost function takes (args, kwargs, result) of one call and returns
# (flops, bytes) for the work of that call's own self time.

def project(args, kwargs, result):
    h, w = args[0], args[1]
    return h.shape[0] * project_flops(w.shape[0], w.shape[1]), 0


def memory_block(args, kwargs, result):
    p, back, ahead = args[0], args[1], args[2]
    skip = _arg(args, kwargs, 4, "skip_seq")
    T, d = p.shape
    taps = back.shape[0] + ahead.shape[0]
    arrays = 2 + (skip is not None)               # p (+ skip) in, ptilde out
    return T * memory_flops(taps, d), p.itemsize * (arrays * T * d + taps * d)


def memory_block_backward(args, kwargs, result):
    g, p, back, ahead = args[0], args[1], args[2], args[3]
    T, d = p.shape
    taps = back.shape[0] + ahead.shape[0]
    arrays = 3 + (result[3] is not None)          # g, p in; gp (+ g_skip) out
    return 2 * T * memory_flops(taps, d), p.itemsize * (arrays * T * d + 2 * taps * d)


def layer_output(args, kwargs, result):
    h, params = args[0], args[1]
    proj, hidden = params.out_weight.shape
    return h.shape[0] * output_flops(proj, hidden), 0


def fc_forward(args, kwargs, result):
    h, w = args[0], args[1]
    return h.shape[0] * analysis.fc_layer_flops(w.shape[0], w.shape[1]), 0


def layer_backward(args, kwargs, result):
    grad_in, grads = result[0], result[2]
    T = grad_in.shape[0]
    d_in, proj = grads.proj_weight.shape
    hidden = grads.out_weight.shape[1]
    return 2 * T * (2 * d_in * proj + 2 * proj * hidden), 0


def fc_backward(args, kwargs, result):
    T = args[1].shape[0]
    d_in, hidden = result[1].shape
    return 2 * T * 2 * d_in * hidden, 0


def network_forward(args, kwargs, result):
    params = args[0]
    outs = result[0]
    T = next(iter(outs.values())).shape[0]
    return T * sum(analysis.fc_layer_flops(*params.heads[n].weight.shape)
                   for n in outs), 0


def network_backward(args, kwargs, result):
    grad_streams = args[1]
    grads = result[0] if isinstance(result, tuple) else result
    return sum(2 * g.shape[0] * 2 * int(np.prod(grads.heads[n].weight.shape))
               for n, g in grad_streams.items()), 0


def _payload_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_payload_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return _payload_bytes(vars(obj))
    return 0


def dataset_bytes(args, kwargs, result):
    return 0, _payload_bytes(result)


def model_bytes_loaded(args, kwargs, result):
    return 0, _payload_bytes(result[0])


def model_bytes_saved(args, kwargs, result):
    return 0, _payload_bytes(args[0])
