"""Single-worker SGD training with multi-task frame-level MSE, plus the
verification and desk-scale experiment tooling around it: finite-difference
gradient checking, a lagged-copy ("echo") task that probes whether a given
receptive field can learn a dependency of known length, and a tiny four-stream
acoustic toy for overfit sanity runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import network as net
from .features import SequenceData
from .layers import dfsmn_layer_forward, layer_backward
from .network import DfsmnLayerSpec, NetworkConfig, NetworkParams, build_network
from .tensor import Counter64, ShapeError, derive_seed, seeded_normal

ECHO_STREAM = "echo"
TOY_STREAMS = ("mcep", "lf0", "bap", "uv")


@dataclass
class TrainConfig:
    """Knobs of the SGD loop. The defaults mirror a full-scale recipe
    (512-frame batches, 5e-7 initial rate, decay 0.1 on stalled validation);
    synthetic desk-scale tasks override lr upward, typically to ~1e-2."""

    batch_frames: int = 512
    lr: float = 5e-7
    decay_factor: float = 0.1
    patience: int = 1
    min_improvement: float = 0.005
    max_epochs: int = 10
    seed: int = 0
    stream_weights: Optional[dict] = None

    def __post_init__(self):
        # lr == 0 is tolerated: a no-op run is a useful determinism probe
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if not (0 < self.decay_factor < 1):
            raise ValueError(f"decay_factor must be in (0,1), got {self.decay_factor}")
        if self.batch_frames < 1:
            raise ValueError(f"batch_frames must be >= 1, got {self.batch_frames}")


def multitask_mse(pred_streams: dict, target_streams: dict, weights=None):
    """Weighted sum of per-stream MSEs and its exact gradient.

    loss = sum_s w_s * mean((pred_s - target_s)^2); grads have pred shapes.
    """
    if set(pred_streams) != set(target_streams):
        raise KeyError(f"stream names differ: {sorted(pred_streams)} vs "
                       f"{sorted(target_streams)}")
    weights = weights or {}
    loss = 0.0
    grads = {}
    for name in pred_streams:
        pred = pred_streams[name]
        target = target_streams[name]
        if pred.shape != target.shape:
            raise ShapeError(f"stream {name!r}: pred {pred.shape} vs target {target.shape}")
        w = weights.get(name, 1.0)
        diff = pred - target
        loss += w * float(np.mean(diff * diff))
        grads[name] = (2.0 * w / diff.size) * diff
    return loss, grads


def sgd_step(cfg: NetworkConfig, params: NetworkParams, grads: NetworkParams,
             lr: float) -> NetworkParams:
    """In-place theta <- theta - lr * grad over every tensor."""
    for (_, path, p), (_, _, g) in zip(net.iter_tensors(cfg, params),
                                       net.iter_tensors(cfg, grads), strict=True):
        if p.shape != g.shape:
            raise ShapeError(f"{path}: param shape {p.shape} != grad shape {g.shape}")
        p -= lr * g
    return params


@dataclass
class LrScheduler:
    """Decays lr by decay_factor after `patience` consecutive validation
    evaluations whose relative improvement over the best seen falls short of
    min_improvement. At most one decay per evaluation."""

    lr: float
    decay_factor: float = 0.1
    patience: int = 1
    min_improvement: float = 0.005
    best: Optional[float] = None
    streak: int = 0

    def step(self, validation_mse: float) -> float:
        if not math.isfinite(validation_mse):
            raise ValueError(f"validation MSE must be finite, got {validation_mse}")
        if self.best is None:
            self.best = validation_mse
            return self.lr
        if self.best > 0:
            improvement = (self.best - validation_mse) / self.best
        else:
            improvement = math.inf if validation_mse < self.best else 0.0
        if improvement >= self.min_improvement:
            self.streak = 0
        else:
            self.streak += 1
        if validation_mse < self.best:
            self.best = validation_mse
        if self.streak >= self.patience:
            self.lr *= self.decay_factor
            self.streak = 0
        return self.lr


# ---------------------------------------------------------------------------
# gradient verification

@dataclass
class GradCheckReport:
    tolerance: float
    step: float
    max_rel_err: dict = field(default_factory=dict)   # class -> worst error
    checked: dict = field(default_factory=dict)       # class -> scalars probed
    passed: bool = False
    worst_class: str = ""
    worst_err: float = 0.0

    def lines(self):
        out = []
        for name in sorted(self.max_rel_err):
            flag = "ok" if self.max_rel_err[name] < self.tolerance else "FAIL"
            out.append(f"{name:<12} max_rel_err {self.max_rel_err[name]:.3e} "
                       f"({self.checked[name]} scalars) {flag}")
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"{verdict}: worst {self.worst_class} {self.worst_err:.3e} "
                   f"(tolerance {self.tolerance:g})")
        return out


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-12)


def grad_check(cfg: NetworkConfig, frames: int, seed: int, step: float = 1e-5,
               tolerance: float = 1e-4, samples_per_class: int = 20) -> GradCheckReport:
    """Central finite differences against the analytic backward pass.

    Requires an fp64 config. Memory taps are re-drawn from a small normal
    before checking (fresh networks zero them, which would leave tap paths
    untested). Checks a random subsample per parameter class plus the network
    input, and the skip input of the first skip-connected layer in isolation.
    """
    if cfg.precision != "fp64":
        raise ValueError("gradient check needs an fp64 network config")
    params = build_network(cfg, seed)
    for li, (spec, p) in enumerate(zip(cfg.layers, params.layers)):
        if isinstance(spec, DfsmnLayerSpec):
            scale = 0.5 / math.sqrt(spec.n_back + 1 + spec.n_ahead)
            p.back_taps[...] = seeded_normal(
                derive_seed(seed, 7001, li), *p.back_taps.shape, stddev=scale)
            if spec.n_ahead:
                p.ahead_taps[...] = seeded_normal(
                    derive_seed(seed, 7002, li), *p.ahead_taps.shape, stddev=scale)

    x = seeded_normal(derive_seed(seed, 7100), frames, cfg.input_dim)
    targets = {s.name: seeded_normal(derive_seed(seed, 7200 + k), frames, s.dim)
               for k, s in enumerate(cfg.output_streams)}

    def loss_value() -> float:
        outs, _ = net.forward(params, cfg, x)
        loss, _ = multitask_mse(outs, targets)
        return loss

    outs, cache = net.forward(params, cfg, x)
    _, grad_streams = multitask_mse(outs, targets)
    grads, grad_in = net.backward(cache, grad_streams, want_input_grad=True)

    by_class: dict = {}
    for (_, _, p_arr), (cls, _, g_arr) in zip(net.iter_tensors(cfg, params),
                                              net.iter_tensors(cfg, grads)):
        by_class.setdefault(cls, []).append((p_arr, g_arr))

    report = GradCheckReport(tolerance=tolerance, step=step)
    rng = Counter64(derive_seed(seed, 7300))
    for cls, pairs in by_class.items():
        coords = [(arr, g, i) for arr, g in pairs for i in range(arr.size)]
        for ci in _sample(rng, len(coords), samples_per_class):
            arr, g, i = coords[ci]
            _probe(report, cls, loss_value, arr, g, i)
    for i in _sample(rng, x.size, samples_per_class):
        _probe(report, "input", loss_value, x, grad_in, i)
    _check_skip_gradient(cfg, cache, report, rng, samples_per_class)

    report.worst_class, report.worst_err = max(
        report.max_rel_err.items(), key=lambda kv: kv[1])
    report.passed = report.worst_err < tolerance
    return report


def _sample(rng: Counter64, n: int, k: int) -> list:
    """min(n, k) distinct indices below n, sorted."""
    chosen = set()
    while len(chosen) < min(n, k):
        chosen.add(rng.below(n))
    return sorted(chosen)


def _probe(report: GradCheckReport, cls: str, loss, arr, analytic, idx) -> None:
    """Central difference of loss() in arr.flat[idx] against analytic.flat[idx]."""
    old = arr.flat[idx]
    arr.flat[idx] = old + report.step
    lp = loss()
    arr.flat[idx] = old - report.step
    lm = loss()
    arr.flat[idx] = old
    err = _rel_err(analytic.flat[idx], (lp - lm) / (2 * report.step))
    report.max_rel_err[cls] = max(report.max_rel_err.get(cls, 0.0), err)
    report.checked[cls] = report.checked.get(cls, 0) + 1


def _check_skip_gradient(cfg, cache, report, rng, samples_per_class):
    """Isolated-layer check of d(output)/d(skip input) for the first layer
    with a skip connection; the skip input is free only at layer level."""
    skip_idx = next((li for li, s in enumerate(cfg.layers)
                     if isinstance(s, DfsmnLayerSpec) and s.skip), None)
    if skip_idx is None:
        return
    spec = cfg.layers[skip_idx]
    lcache = cache.layer_caches[skip_idx]
    h_in = lcache.h_seq
    skip = cache.layer_caches[skip_idx - 1].ptilde_seq.copy()
    p = lcache.params

    def local_loss() -> float:
        out, _, _ = dfsmn_layer_forward(h_in, p, spec, skip)
        return 0.5 * float(np.sum(out * out))

    out, c2, _ = dfsmn_layer_forward(h_in, p, spec, skip)
    _, g_skip, _ = layer_backward(c2, out)
    for i in _sample(rng, skip.size, samples_per_class):
        _probe(report, "skip", local_loss, skip, g_skip, i)


# ---------------------------------------------------------------------------
# synthetic desk-scale tasks

@dataclass
class SyntheticTaskSpec:
    """Parameters of the generated datasets. kind "echo": white-noise input,
    single regression stream y[t] = x[t - lag] (zeros before the lag) plus
    optional noise. kind "acoustic_toy": four reduced-size streams that are
    fixed deterministic maps of the input frame, so a matching network can
    drive the training loss to ~0."""

    kind: str = "echo"
    input_dim: int = 1
    lag: int = 0
    noise_std: float = 0.0
    num_sequences: int = 16
    seq_len: int = 64
    valid_sequences: int = 0   # 0 -> max(1, num_sequences // 4)
    mcep_dim: int = 6
    lf0_dim: int = 3
    bap_dim: int = 2

    def __post_init__(self):
        if self.kind not in ("echo", "acoustic_toy"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if not (0 <= self.lag < self.seq_len):
            raise ValueError(f"lag must satisfy 0 <= lag < seq_len, got {self.lag}")
        if self.num_sequences < 1 or self.seq_len < 1 or self.input_dim < 1:
            raise ValueError("sequence counts and dims must be >= 1")

    def n_valid(self) -> int:
        return self.valid_sequences or max(1, self.num_sequences // 4)


def _echo_sequence(spec: SyntheticTaskSpec, seq_seed: int, seq_id: str) -> SequenceData:
    rng = Counter64(seq_seed)
    T, D = spec.seq_len, spec.input_dim
    x = rng.normal(T * D).reshape(T, D)
    y = np.zeros_like(x)
    if spec.lag == 0:
        y[:] = x
    else:
        y[spec.lag:] = x[:-spec.lag]
    if spec.noise_std > 0:
        y = y + spec.noise_std * rng.normal(T * D).reshape(T, D)
    return SequenceData(seq_id, x.astype(np.float32),
                        {ECHO_STREAM: y.astype(np.float32)})


def gen_echo_task(spec: SyntheticTaskSpec, seed: int):
    """Deterministic (train, validation) sets for the lagged-copy task."""
    train = [_echo_sequence(spec, derive_seed(seed, 0, i), f"train{i:04d}")
             for i in range(spec.num_sequences)]
    valid = [_echo_sequence(spec, derive_seed(seed, 1, i), f"valid{i:04d}")
             for i in range(spec.n_valid())]
    return train, valid


def toy_stream_dims(spec: SyntheticTaskSpec) -> dict:
    return {"mcep": spec.mcep_dim, "lf0": spec.lf0_dim, "bap": spec.bap_dim, "uv": 1}


def _toy_maps(spec: SyntheticTaskSpec, seed: int) -> dict:
    scale = 1.0 / math.sqrt(spec.input_dim)
    return {name: seeded_normal(derive_seed(seed, 42, k), spec.input_dim, dim,
                                stddev=scale)
            for k, (name, dim) in enumerate(sorted(toy_stream_dims(spec).items()))}


def _toy_sequence(spec, maps, seq_seed, seq_id) -> SequenceData:
    rng = Counter64(seq_seed)
    x = rng.normal(spec.seq_len * spec.input_dim).reshape(spec.seq_len, spec.input_dim)
    targets = {}
    for name, w in maps.items():
        y = x @ w
        if name == "uv":
            y = 1.0 / (1.0 + np.exp(-2.0 * y))  # smooth voicing score in (0,1)
        targets[name] = y.astype(np.float32)
    return SequenceData(seq_id, x.astype(np.float32), targets)


def gen_acoustic_toy_task(spec: SyntheticTaskSpec, seed: int):
    """Four-stream toy regression data; targets are fixed random linear maps
    of the input frame (squashed through a sigmoid for the voicing stream)."""
    maps = _toy_maps(spec, seed)
    train = [_toy_sequence(spec, maps, derive_seed(seed, 2, i), f"train{i:04d}")
             for i in range(spec.num_sequences)]
    valid = [_toy_sequence(spec, maps, derive_seed(seed, 3, i), f"valid{i:04d}")
             for i in range(spec.n_valid())]
    return train, valid


def gen_task(spec: SyntheticTaskSpec, seed: int):
    if spec.kind == "echo":
        return gen_echo_task(spec, seed)
    return gen_acoustic_toy_task(spec, seed)


# ---------------------------------------------------------------------------
# training loop

@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_mse: float
    valid_mse: float


def check_dataset(cfg: NetworkConfig, dataset) -> None:
    if not dataset:
        raise ValueError("empty dataset")
    for seq in dataset:
        if seq.inputs.shape[1] != cfg.input_dim:
            raise ShapeError(f"sequence {seq.seq_id}: input dim {seq.inputs.shape[1]} "
                             f"!= configured {cfg.input_dim}")
        for s in cfg.output_streams:
            if s.name not in seq.targets:
                raise ShapeError(f"sequence {seq.seq_id}: missing stream {s.name!r}")
            got = seq.targets[s.name].shape
            want = (seq.frames, s.dim)
            if got != want:
                raise ShapeError(f"sequence {seq.seq_id}: stream {s.name!r} shape "
                                 f"{got} != {want}")


def evaluate_mse(params, cfg, dataset, weights=None) -> float:
    """Frame-weighted multi-task MSE over a dataset."""
    total = 0.0
    for seq in dataset:
        inputs, targets, _ = _pack([seq], cfg)
        outs, _ = net.forward(params, cfg, inputs)
        loss, _ = multitask_mse(outs, targets, weights)
        total += seq.frames * loss
    return total / sum(seq.frames for seq in dataset)


def _pack(batch, cfg: NetworkConfig):
    """Sequences stacked into one frame matrix: (inputs, {stream: targets in
    cfg precision}, the (start, end) rows of each sequence)."""
    ends = np.cumsum([seq.frames for seq in batch]).tolist()
    targets = {s.name: np.concatenate([seq.targets[s.name] for seq in batch])
               .astype(cfg.dtype(), copy=False) for s in cfg.output_streams}
    return (np.concatenate([seq.inputs for seq in batch]), targets,
            list(zip([0] + ends[:-1], ends)))


def _batches(order, dataset, batch_frames):
    batch, frames = [], 0
    for idx in order:
        batch.append(dataset[idx])
        frames += dataset[idx].frames
        if frames >= batch_frames:
            yield batch
            batch, frames = [], 0
    if batch:
        yield batch


def train(cfg: NetworkConfig, params: NetworkParams, dataset, train_cfg: TrainConfig,
          valid=None):
    """SGD over whole-sequence minibatches of >= batch_frames frames.

    Each minibatch is packed into one frame matrix for one forward, backward
    and SGD step, with memory-block taps kept inside each sequence; loss and
    gradient are frame-weighted sums over the sequences. Returns (params,
    [EpochStats per epoch]). Deterministic in (seed, cfg, dataset).
    """
    check_dataset(cfg, dataset)
    valid_set = valid if valid else dataset
    check_dataset(cfg, valid_set)
    sched = LrScheduler(lr=train_cfg.lr, decay_factor=train_cfg.decay_factor,
                        patience=train_cfg.patience,
                        min_improvement=train_cfg.min_improvement)
    weights = train_cfg.stream_weights
    history = []
    for epoch in range(train_cfg.max_epochs):
        order = list(range(len(dataset)))
        Counter64(derive_seed(train_cfg.seed, epoch)).shuffle(order)
        epoch_loss = 0.0
        for bi, batch in enumerate(_batches(order, dataset, train_cfg.batch_frames)):
            inputs, targets, bounds = _pack(batch, cfg)
            total_frames = len(inputs)
            outs, cache = net.forward(params, cfg, inputs, bounds=bounds)
            batch_loss = 0.0
            for seq, (a, b) in zip(batch, bounds):
                loss, _ = multitask_mse({n: o[a:b] for n, o in outs.items()},
                                        {n: t[a:b] for n, t in targets.items()}, weights)
                if not math.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch} batch {bi} "
                        f"(sequence {seq.seq_id})")
                batch_loss += (b - a) / total_frames * loss
            _, grad_streams = multitask_mse(outs, targets, weights)
            sgd_step(cfg, params, net.backward(cache, grad_streams), sched.lr)
            epoch_loss += total_frames * batch_loss
        train_mse = epoch_loss / sum(seq.frames for seq in dataset)
        valid_mse = evaluate_mse(params, cfg, valid_set, weights)
        history.append(EpochStats(epoch, sched.lr, train_mse, valid_mse))
        sched.step(valid_mse)
    return params, history
