"""Static cost and context analysis of a network configuration: receptive
field, parameter count / fp32 size, and floating-point operations per second
of generated speech.

Counting convention (documented so numbers are comparable across tools):
every matrix product against a k x n weight costs 2*k*n per frame (multiply
and add each count 1), the memory block costs 2 * (n_back + 1 + n_ahead) *
proj per frame, and biases and activations cost 1 per scalar (linear
included). Frame shift is 5 ms, i.e. 200 frames per second of speech.

This package counts 2 operations per multiply-add; the published table
counts 1. Its GFLOPS steps between presets (D -> E, E -> F, F -> I) match
half the counted steps to the table's 0.01 rounding. Its totals exceed half
the counted totals by about 1.24 GFLOPS on every preset, and its sizes the
counted sizes by 7.8-8.7 MB: a fixed part that the presets here lack.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .network import (PRESETS, DfsmnLayerSpec, NetworkConfig, count_params, layer_dims,
                      preset_config)

FRAME_SHIFT_MS = 5
FRAMES_PER_SECOND = 1000 // FRAME_SHIFT_MS

# Reference values published for the original full-scale systems (size in MB,
# GFLOPS per second of speech). Echoed in reports for comparison only; the
# BLSTM row is a baseline, not something this package can build.
PUBLISHED_REFERENCE = {
    "A": (62.0, 4.08),
    "B": (62.0, 4.08),
    "C": (62.0, 4.08),
    "D": (62.0, 4.09),
    "E": (87.0, 5.35),
    "F": (119.0, 7.04),
    "G": (119.0, 7.06),
    "H": (120.0, 7.10),
    "I": (122.0, 7.18),
}
PUBLISHED_BLSTM = ("BLSTM", 295.0, 21.09)


@dataclass
class CostReport:
    name: str
    look_back_frames: int
    look_ahead_frames: int
    look_back_ms: int
    look_ahead_ms: int
    param_count: int
    size_mb: float
    flops_per_frame: int
    gflops_per_second: float
    ref_size_mb: Optional[float]     # published reference, when known
    ref_gflops: Optional[float]


def receptive_field(cfg: NetworkConfig):
    """(look-back frames, look-ahead frames): memory-block layers contribute
    order x stride each and stack additively; fc layers contribute nothing."""
    back = 0
    ahead = 0
    for spec in cfg.layers:
        if isinstance(spec, DfsmnLayerSpec):
            back += spec.n_back * spec.stride_back
            ahead += spec.n_ahead * spec.stride_ahead
    return back, ahead


def fc_layer_flops(d_in: int, hidden: int) -> int:
    """Per frame: 2*k*n matmul + bias + activation (1 per scalar each)."""
    return 2 * d_in * hidden + hidden + hidden


def dfsmn_layer_flops(d_in: int, spec: DfsmnLayerSpec) -> int:
    total = 2 * d_in * spec.proj + spec.proj                   # projection + bias
    total += 2 * (spec.n_back + 1 + spec.n_ahead) * spec.proj  # memory taps
    total += 2 * spec.proj * spec.hidden + spec.hidden         # output + bias
    total += spec.hidden                                       # activation
    return total


def flops_per_frame(cfg: NetworkConfig) -> int:
    dims = layer_dims(cfg)
    total = 0
    for li, spec in enumerate(cfg.layers):
        if isinstance(spec, DfsmnLayerSpec):
            total += dfsmn_layer_flops(dims[li], spec)
        else:
            total += fc_layer_flops(dims[li], spec.hidden)
    for s in cfg.output_streams:
        total += fc_layer_flops(dims[-1], s.dim)
    return total


def size_mb(param_count: int) -> float:
    """fp32 storage convention: 4 bytes per parameter."""
    return param_count * 4 / 2**20


def analyze(cfg: NetworkConfig) -> CostReport:
    """Cost report of cfg, named after the preset it equals, else "custom"."""
    name = next((n for n in PRESETS if preset_config(n, cfg.precision) == cfg), "custom")
    back, ahead = receptive_field(cfg)
    count = count_params(cfg)
    fpf = flops_per_frame(cfg)
    ref = PUBLISHED_REFERENCE.get(name, (None, None))
    return CostReport(
        name=name,
        look_back_frames=back,
        look_ahead_frames=ahead,
        look_back_ms=back * FRAME_SHIFT_MS,
        look_ahead_ms=ahead * FRAME_SHIFT_MS,
        param_count=count,
        size_mb=size_mb(count),
        flops_per_frame=fpf,
        gflops_per_second=fpf * FRAMES_PER_SECOND / 1e9,
        ref_size_mb=ref[0],
        ref_gflops=ref[1],
    )


def table_report(preset_names) -> tuple:
    """Cost table for the named presets: (aligned text, list of record dicts).

    Computed columns sit next to the published reference values; the BLSTM
    baseline row carries published numbers only.
    """
    reports = [analyze(preset_config(n)) for n in preset_names]
    records = [asdict(r) for r in reports]

    header = (f"{'id':<6}{'back':>6}{'ahead':>7}{'back_ms':>9}{'ahead_ms':>10}"
              f"{'params':>13}{'size_mb':>9}{'ref_mb':>8}{'gflops':>8}{'ref_gf':>8}")
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.name:<6}{r.look_back_frames:>6}{r.look_ahead_frames:>7}"
            f"{r.look_back_ms:>9}{r.look_ahead_ms:>10}{r.param_count:>13,}"
            f"{r.size_mb:>9.1f}{_fmt(r.ref_size_mb):>8}"
            f"{r.gflops_per_second:>8.2f}{_fmt(r.ref_gflops):>8}")
    blstm_name, blstm_mb, blstm_gf = PUBLISHED_BLSTM
    lines.append(f"{blstm_name:<6}{'-':>6}{'-':>7}{'-':>9}{'-':>10}{'-':>13}"
                 f"{'-':>9}{blstm_mb:>8.0f}{'-':>8}{blstm_gf:>8.2f}")
    lines.append("(ref_mb / ref_gf are published reference values; "
                 "BLSTM row is published baseline data only)")
    return "\n".join(lines), records


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.2f}"
