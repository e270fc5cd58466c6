"""Feature normalization and the objective measures used to compare predicted
and reference acoustic streams: mel-cepstral distortion, F0 RMSE on commonly
voiced frames, band-aperiodicity distortion, voicing error rate, and pooled
MSE over normalized streams. Plus the F0 linear-interpolation preprocessing
that fills unvoiced gaps before modeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError

STD_FLOOR = 1e-8
MCD_DB = 10.0 / math.log(10.0)  # nats -> dB


@dataclass
class NormStats:
    """Per-dimension mean/std over a fitting set (population convention)."""

    mean: np.ndarray
    std: np.ndarray           # floored at STD_FLOOR
    floored: np.ndarray       # bool mask of dims whose std hit the floor


def fit_norm(sequences) -> NormStats:
    """Pool frames of all sequences and fit per-dim zero-mean/unit-variance stats."""
    seqs = [np.asarray(s, dtype=np.float64) for s in sequences]
    if not seqs:
        raise ValueError("need at least one sequence")
    dim = seqs[0].shape[1]
    for s in seqs:
        if s.ndim != 2 or s.shape[1] != dim:
            raise ShapeError(f"inconsistent sequence shape {s.shape}, expected T x {dim}")
    pooled = np.concatenate(seqs, axis=0)
    if pooled.shape[0] < 2:
        raise ValueError(f"need >= 2 frames to fit stats, got {pooled.shape[0]}")
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)  # population (1/N)
    floored = std < STD_FLOOR
    return NormStats(mean=mean, std=np.maximum(std, STD_FLOOR), floored=floored)


def apply_norm(seq, stats: NormStats) -> np.ndarray:
    seq = np.asarray(seq)
    if seq.shape[1] != stats.mean.shape[0]:
        raise ShapeError(f"dim {seq.shape[1]} != stats dim {stats.mean.shape[0]}")
    return (seq - stats.mean) / stats.std


def invert_norm(seq, stats: NormStats) -> np.ndarray:
    seq = np.asarray(seq)
    if seq.shape[1] != stats.mean.shape[0]:
        raise ShapeError(f"dim {seq.shape[1]} != stats dim {stats.mean.shape[0]}")
    return seq * stats.std + stats.mean


def interpolate_f0(f0_hz, uv):
    """Fill unvoiced gaps by linear interpolation between voiced neighbours;
    leading/trailing unvoiced runs hold the nearest voiced value."""
    f0 = np.asarray(f0_hz, dtype=np.float64)
    flat = f0.reshape(-1)
    voiced = _voiced_mask(uv, flat.shape[0])
    if not voiced.any():
        raise ValueError("cannot interpolate an all-unvoiced sequence")
    idx = np.arange(flat.shape[0])
    filled = np.interp(idx, idx[voiced], flat[voiced])
    return filled.reshape(f0.shape)


def mcd(ref_mcep, hyp_mcep) -> float:
    """Mean mel-cepstral distortion in dB, energy coefficient (dim 0) excluded."""
    ref, hyp = _paired(ref_mcep, hyp_mcep)
    if ref.shape[1] < 2:
        raise ShapeError("mcd needs at least 2 cepstral dims (dim 0 is excluded)")
    diff = ref[:, 1:] - hyp[:, 1:]
    return float(np.mean(MCD_DB * np.sqrt(2.0 * np.sum(diff * diff, axis=1))))


def f0_rmse(ref_f0_hz, hyp_lf0, ref_uv, hyp_uv) -> float:
    """RMSE in Hz between exp(predicted static log-F0) and reference Hz,
    over frames voiced in both reference and hypothesis."""
    ref_hz = np.asarray(ref_f0_hz, dtype=np.float64).reshape(-1)
    lf0 = np.asarray(hyp_lf0, dtype=np.float64)
    hyp_hz = np.exp(lf0[:, 0] if lf0.ndim == 2 else lf0.reshape(-1))
    if ref_hz.shape[0] != hyp_hz.shape[0]:
        raise ShapeError(f"length mismatch {ref_hz.shape[0]} vs {hyp_hz.shape[0]}")
    both = _voiced_mask(ref_uv, ref_hz.shape[0]) & _voiced_mask(hyp_uv, ref_hz.shape[0])
    if not both.any():
        raise ValueError("no frame is voiced in both reference and hypothesis")
    err = hyp_hz[both] - ref_hz[both]
    return float(np.sqrt(np.mean(err * err)))


def uv_error(ref_uv, hyp_uv_prob, threshold: float = 0.5) -> float:
    """Fraction of frames whose thresholded voicing decision disagrees."""
    prob = np.asarray(hyp_uv_prob, dtype=np.float64).reshape(-1)
    ref = _voiced_mask(ref_uv, prob.shape[0])
    return float(np.mean((prob >= threshold) != ref))


def bapd(ref_bap, hyp_bap) -> float:
    """Mean over frames of the per-frame RMSE across aperiodicity dims."""
    ref, hyp = _paired(ref_bap, hyp_bap)
    diff = ref - hyp
    return float(np.mean(np.sqrt(np.mean(diff * diff, axis=1))))


def total_mse(ref_streams: dict, hyp_streams: dict) -> float:
    """MSE pooled over every stream's frames x dims (concatenated-feature
    convention: each scalar counts once, regardless of stream)."""
    if set(ref_streams) != set(hyp_streams):
        raise ShapeError(f"stream names differ: {sorted(ref_streams)} vs "
                         f"{sorted(hyp_streams)}")
    sq_sum = 0.0
    count = 0
    for name in sorted(ref_streams):
        ref = np.asarray(ref_streams[name], dtype=np.float64)
        hyp = np.asarray(hyp_streams[name], dtype=np.float64)
        if ref.shape != hyp.shape:
            raise ShapeError(f"stream {name!r}: shape {ref.shape} vs {hyp.shape}")
        diff = ref - hyp
        sq_sum += float(np.sum(diff * diff))
        count += diff.size
    if count == 0:
        raise ShapeError("no scalars to compare")
    return sq_sum / count


def _paired(ref, hyp):
    ref = np.asarray(ref, dtype=np.float64)
    hyp = np.asarray(hyp, dtype=np.float64)
    if ref.ndim != 2 or hyp.ndim != 2:
        raise ShapeError(f"expected T x D matrices, got {ref.shape} and {hyp.shape}")
    if ref.shape != hyp.shape:
        raise ShapeError(f"frame/dim mismatch: {ref.shape} vs {hyp.shape}")
    return ref, hyp


def _voiced_mask(uv, expect_len: int) -> np.ndarray:
    mask = np.asarray(uv).reshape(-1) >= 0.5
    if mask.shape[0] != expect_len:
        raise ShapeError(f"voicing length {mask.shape[0]} != {expect_len}")
    return mask
