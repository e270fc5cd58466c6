"""An fp64 forward pass written from the DFSMN equations, independent of the
package's forward code, so that a wrong package forward cannot also be the
yardstick it is checked against.

Per memory-block layer, with x the layer input and p its projection:

    p[t]      = x[t] @ W_proj + b_proj
    ptilde[t] = [ptilde_prev[t] +] p[t]
                + sum_{i=0..n_back}  back[i]    * p[t - stride_back * i]
                + sum_{j=1..n_ahead} ahead[j-1] * p[t + stride_ahead * j]
    h[t]      = act(ptilde[t] @ W_out + b_out)

with element-wise taps and zero padding outside [0, T); fully connected
layers are act(h @ W + b), and each output stream is act(h @ W_head + b).
Only the parameter containers and activation names are read from the package.
"""

from __future__ import annotations

import numpy as np

ACTIVATIONS = {
    "relu": lambda z: np.maximum(z, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "linear": lambda z: z,
}


def f64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def memory_taps(p: np.ndarray, back: np.ndarray, ahead: np.ndarray,
                stride_back: int, stride_ahead: int) -> np.ndarray:
    """The tap sum alone, one tap at a time, with explicit frame bounds."""
    T = p.shape[0]
    out = np.zeros_like(p)
    for i, tap in enumerate(back):
        k = stride_back * i
        if k < T:
            out[k:T] += tap * p[0:T - k]          # frame t reads t - k
    for j, tap in enumerate(ahead, start=1):
        k = stride_ahead * j
        if k < T:
            out[0:T - k] += tap * p[k:T]          # frame t reads t + k
    return out


def forward(params, cfg, inputs) -> dict:
    """{stream: T x dim} in fp64 for the package's `NetworkConfig` and params."""
    h = f64(inputs)
    prev_ptilde = None
    for spec, layer in zip(cfg.layers, params.layers):
        act = ACTIVATIONS[spec.activation]
        if hasattr(spec, "n_back"):
            p = h @ f64(layer.proj_weight) + f64(layer.proj_bias)
            ptilde = p + memory_taps(p, f64(layer.back_taps), f64(layer.ahead_taps),
                                     spec.stride_back, spec.stride_ahead)
            if spec.skip:
                ptilde = ptilde + prev_ptilde
            h = act(ptilde @ f64(layer.out_weight) + f64(layer.out_bias))
            prev_ptilde = ptilde
        else:
            h = act(h @ f64(layer.weight) + f64(layer.bias))
            prev_ptilde = None
    return {s.name: ACTIVATIONS[s.activation](h @ f64(params.heads[s.name].weight)
                                              + f64(params.heads[s.name].bias))
            for s in cfg.output_streams}
