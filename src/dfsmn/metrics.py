"""The objective measures used to compare predicted and reference acoustic
streams: mel-cepstral distortion, F0 RMSE on commonly voiced frames,
band-aperiodicity distortion, voicing error rate, and pooled MSE.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ShapeError

MCD_DB = 10.0 / math.log(10.0)  # nats -> dB


def mcd(ref_mcep, hyp_mcep) -> float:
    """Mean mel-cepstral distortion in dB, energy coefficient (dim 0) excluded."""
    ref, hyp = _paired(ref_mcep, hyp_mcep)
    if ref.shape[1] < 2:
        raise ShapeError(f"mcd needs at least 2 cepstral dims (dim 0 is excluded), "
                         f"got {ref.shape[1]}")
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


def uv_error(ref_uv, hyp_uv_prob) -> float:
    """Fraction of frames whose voicing decision disagrees."""
    n = np.size(hyp_uv_prob)
    return float(np.mean(_voiced_mask(hyp_uv_prob, n) != _voiced_mask(ref_uv, n)))


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
