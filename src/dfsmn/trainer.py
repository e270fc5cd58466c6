"""Single-worker SGD training with multi-task frame-level MSE, plus the
verification and desk-scale experiment tooling around it: finite-difference
gradient checking, and one generator of synthetic data for two tasks: a
lagged-copy ("echo") task that probes whether a given receptive field can
learn a dependency of known length, and a tiny four-stream acoustic toy,
lagged the same way, for overfit sanity runs and context sweeps.

Training steps run network.forward and the update mode of network.backward.
Everything that only needs outputs (predict, and with it validation and
evaluation, and grad_check's loss probes) runs network.infer, which keeps
no cache for backward. check_streams is the one stream rule that training
and `dfsmn eval` hold every dataset to.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from . import network as net
from .features import SequenceData
from .layers import dfsmn_layer_forward, layer_backward
from .network import (ConfigError, DfsmnLayerSpec, NetworkConfig, NetworkParams,
                      StreamSpec, _integer, _number, _one_of, build_network,
                      check_fields)
from .tensor import Counter64, ShapeError, derive_seed, seeded_normal

ECHO_STREAM = "echo"
TASK_KINDS = ("echo", "acoustic_toy")  # SyntheticTaskSpec.kind values
TOY_DIMS = {"mcep": 6, "lf0": 3, "bap": 2, "uv": 1}  # acoustic_toy stream widths
DECAY_FACTOR = 0.1  # lr multiplier on stalled validation
EVAL_FRAMES = 512   # frames per packed forward in predict, as batch_frames' default
GRADCHECK_SAMPLES = 20  # scalars probed per parameter class by grad_check
GRADCHECK_STEP = 1e-5   # grad_check's central-difference step
GRADCHECK_TOL = 1e-4    # grad_check's pass bound on the relative error


@dataclass
class TrainConfig:
    """Knobs of the SGD loop, and the defaults of `dfsmn train`: 512-frame
    batches and decay 0.1 on stalled validation, as in a full-scale recipe,
    with the 1e-2 initial rate that suits the synthetic desk-scale tasks (a
    full-scale recipe starts at 5e-7)."""

    batch_frames: int = _integer(512, minimum=1)
    lr: float = _number(1e-2, minimum=0)  # 0 is a no-op run, a determinism probe
    patience: int = _integer(1, minimum=1)
    min_improvement: float = _number(0.005)
    max_epochs: int = _integer(10, minimum=1)
    seed: int = _integer(0)

    def __post_init__(self):
        check_fields(self)


def multitask_mse(pred_streams: dict, target_streams: dict) -> float:
    """Sum of per-stream MSEs: sum_s mean((pred_s - target_s)^2)."""
    if set(pred_streams) != set(target_streams):
        raise KeyError(f"stream names differ: {sorted(pred_streams)} vs "
                       f"{sorted(target_streams)}")
    loss = 0.0
    for name in pred_streams:
        pred = pred_streams[name]
        target = target_streams[name]
        if pred.shape != target.shape:
            raise ShapeError(f"stream {name!r}: pred {pred.shape} vs target {target.shape}")
        diff = pred - target
        loss += float(np.mean(diff * diff))
    return loss


def _mse_grad(pred_streams: dict, target_streams: dict) -> dict:
    """multitask_mse's gradient in each prediction stream. Unchecked: its
    callers build both sides from the network config."""
    return {name: (2.0 / pred.size) * (pred - target_streams[name])
            for name, pred in pred_streams.items()}


@dataclass
class LrScheduler:
    """Starts at config.lr and decays it by DECAY_FACTOR after
    config.patience consecutive validation evaluations whose relative
    improvement over the best seen (none over a best of 0) falls short of
    config.min_improvement. At most one decay per evaluation."""

    config: TrainConfig
    lr: float = field(init=False)
    best: Optional[float] = field(init=False, default=None)
    streak: int = field(init=False, default=0)

    def __post_init__(self):
        self.lr = self.config.lr

    def step(self, validation_mse: float) -> float:
        if not (math.isfinite(validation_mse) and validation_mse >= 0):
            raise ValueError(f"validation MSE must be finite and >= 0, got {validation_mse}")
        if self.best is None:
            self.best = validation_mse
            return self.lr
        improvement = (self.best - validation_mse) / self.best if self.best > 0 else 0.0
        if improvement >= self.config.min_improvement:
            self.streak = 0
        else:
            self.streak += 1
        if validation_mse < self.best:
            self.best = validation_mse
        if self.streak >= self.config.patience:
            self.lr *= DECAY_FACTOR
            self.streak = 0
        return self.lr


# ---------------------------------------------------------------------------
# gradient verification

@dataclass
class GradCheckReport:
    tolerance: float
    step: float
    max_rel_err: dict = field(init=False, default_factory=dict)  # class -> worst error
    checked: dict = field(init=False, default_factory=dict)      # class -> scalars probed
    passed: bool = field(init=False, default=False)
    worst_class: str = field(init=False, default="")
    worst_err: float = field(init=False, default=0.0)

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


def grad_check(cfg: NetworkConfig, frames: int, seed: int) -> GradCheckReport:
    """Central finite differences against the analytic backward pass.

    Requires an fp64 config. Memory taps are re-drawn from a small normal
    before checking (fresh networks zero them, which would leave tap paths
    untested). Checks GRADCHECK_SAMPLES random scalars per parameter class, of
    the network input, and of the first skip-connected layer's skip input,
    each by a GRADCHECK_STEP central difference; it passes when every
    relative error is below GRADCHECK_TOL.
    """
    if cfg.precision != "fp64":
        raise ValueError("gradient check needs an fp64 network config")
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
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
        return multitask_mse(net.infer(params, cfg, x), targets)

    outs, cache = net.forward(params, cfg, x)
    grads, grad_in = net.backward(cache, _mse_grad(outs, targets))

    by_class: dict = {}
    for (_, _, p_arr), (cls, _, g_arr) in zip(net.iter_tensors(cfg, params),
                                              net.iter_tensors(cfg, grads)):
        by_class.setdefault(cls, []).append((p_arr, g_arr))

    report = GradCheckReport(tolerance=GRADCHECK_TOL, step=GRADCHECK_STEP)
    rng = Counter64(derive_seed(seed, 7300))
    for cls, pairs in by_class.items():
        starts = list(accumulate((arr.size for arr, _ in pairs), initial=0))
        for ci in _sample(rng, starts[-1], GRADCHECK_SAMPLES):
            k = bisect_right(starts, ci) - 1  # the last tensor starting at or before ci
            arr, g = pairs[k]
            _probe(report, cls, loss_value, arr, g, ci - starts[k])
    for i in _sample(rng, x.size, GRADCHECK_SAMPLES):
        _probe(report, "input", loss_value, x, grad_in, i)
    _check_skip_gradient(cfg, cache, report, rng)

    report.worst_class, report.worst_err = max(
        report.max_rel_err.items(), key=lambda kv: kv[1])
    report.passed = report.worst_err < report.tolerance
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


def _check_skip_gradient(cfg, cache, report, rng):
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

    _, g_skip, _ = layer_backward(lcache, lcache.out_seq)
    for i in _sample(rng, skip.size, GRADCHECK_SAMPLES):
        _probe(report, "skip", local_loss, skip, g_skip, i)


# ---------------------------------------------------------------------------
# synthetic desk-scale tasks

@dataclass
class SyntheticTaskSpec:
    """Parameters of the generated datasets. Each sequence has a white-noise
    input x, and each target stream is a fixed linear map of x[t - lag]
    (zeros before the lag) plus optional noise of std noise_std. kind "echo":
    one stream, ECHO_STREAM, whose map is the identity, so y[t] = x[t - lag].
    kind "acoustic_toy": four reduced-size streams of the widths in TOY_DIMS,
    whose maps are drawn from the seed, with the voicing stream squashed
    into (0, 1) after its noise; at lag 0 and no noise a matching network
    can drive the training loss to ~0. The validation set holds
    max(1, num_sequences // 4) sequences of the same kind."""

    kind: str = _one_of(TASK_KINDS, "echo")
    input_dim: int = _integer(1, minimum=1)
    lag: int = _integer(0, minimum=0)
    noise_std: float = _number(0.0, minimum=0)
    num_sequences: int = _integer(16, minimum=1)
    seq_len: int = _integer(64, minimum=1)

    def __post_init__(self):
        check_fields(self)
        if self.lag >= self.seq_len:
            raise ConfigError(f"lag: must be < seq_len {self.seq_len}, got {self.lag}")


def _sequence(spec: SyntheticTaskSpec, maps: dict, seq_seed: int,
              seq_id: str) -> SequenceData:
    """x drawn from seq_seed, then, in sorted name order, each stream
    x[t - lag] @ maps[name] plus noise_std times the next normal draws of
    the same generator."""
    rng = Counter64(seq_seed)
    T, D = spec.seq_len, spec.input_dim
    x = rng.normal(T * D).reshape(T, D)
    lagged = np.zeros_like(x)
    lagged[spec.lag:] = x[:T - spec.lag]
    targets = {}
    for name in sorted(maps):
        y = lagged @ maps[name]
        if spec.noise_std > 0:
            y += spec.noise_std * rng.normal(y.size).reshape(y.shape)
        if name == "uv":
            y = 1.0 / (1.0 + np.exp(-2.0 * y))  # smooth voicing score in (0,1)
        targets[name] = y.astype(np.float32)
    return SequenceData(seq_id, x.astype(np.float32), targets)


def _split(spec: SyntheticTaskSpec, seed: int, stream: int, maps: dict) -> tuple:
    """(train, valid) of spec.num_sequences and max(1, num_sequences // 4)
    sequences of maps; sequence i of train is drawn from
    derive_seed(seed, stream, i), of valid from derive_seed(seed, stream + 1, i)."""
    train = [_sequence(spec, maps, derive_seed(seed, stream, i), f"train{i:04d}")
             for i in range(spec.num_sequences)]
    valid = [_sequence(spec, maps, derive_seed(seed, stream + 1, i), f"valid{i:04d}")
             for i in range(max(1, spec.num_sequences // 4))]
    return train, valid


def gen_echo_task(spec: SyntheticTaskSpec, seed: int):
    """Deterministic (train, validation) sets for the lagged-copy task. The
    identity map copies exactly: each output is one product x * 1 plus zeros."""
    return _split(spec, seed, 0, {ECHO_STREAM: np.eye(spec.input_dim)})


def gen_acoustic_toy_task(spec: SyntheticTaskSpec, seed: int):
    """Four-stream toy regression data; targets are fixed random linear maps
    of the lagged input (squashed through a sigmoid for the voicing stream)."""
    scale = 1.0 / math.sqrt(spec.input_dim)
    maps = {name: seeded_normal(derive_seed(seed, 42, k), spec.input_dim, dim,
                                stddev=scale)
            for k, (name, dim) in enumerate(sorted(TOY_DIMS.items()))}
    return _split(spec, seed, 2, maps)


def gen_task(spec: SyntheticTaskSpec, seed: int):
    if spec.kind == "echo":
        return gen_echo_task(spec, seed)
    return gen_acoustic_toy_task(spec, seed)


def echo_net(order: int, stride: int = 1, depth: int = 1) -> NetworkConfig:
    """The echo task's net: depth memory-block layers (hidden 16, proj 8,
    relu) looking order taps back at stride, skip from the second layer on,
    and one linear ECHO_STREAM head. Its look-back receptive field is
    depth * order * stride frames."""
    layers = tuple(DfsmnLayerSpec(hidden=16, proj=8, n_back=order, stride_back=stride,
                                  skip=i > 0) for i in range(depth))
    return NetworkConfig(input_dim=1, layers=layers,
                         output_streams=(StreamSpec(ECHO_STREAM, 1),))


# ---------------------------------------------------------------------------
# training loop

@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_mse: float
    valid_mse: float


def check_streams(dataset, dims: dict, where: str = "") -> None:
    """The stream rule of every dataset: each sequence carries each stream of
    dims (name -> width) as a frames x width array at least 1 wide, or
    ShapeError names where (a prefix such as "reference DIR: "), the
    sequence and the stream."""
    for seq in dataset:
        at = f"{where}sequence {seq.seq_id}"
        for name, dim in dims.items():
            if name not in seq.targets:
                raise ShapeError(f"{at}: missing stream {name!r}")
            got, want = seq.targets[name].shape, (seq.frames, dim)
            if got[1:] == (0,):
                raise ShapeError(f"{at}: stream {name!r} is 0 wide")
            if got != want:
                raise ShapeError(f"{at}: stream {name!r} shape {got} != {want}")


def check_dataset(cfg: NetworkConfig, dataset) -> None:
    """Non-empty, and each sequence in turn has frames, cfg's input width and
    cfg's output streams."""
    if not dataset:
        raise ValueError("empty dataset")
    dims = {s.name: s.dim for s in cfg.output_streams}
    for seq in dataset:
        if seq.frames == 0:
            raise ShapeError(f"sequence {seq.seq_id}: no frames")
        if seq.inputs.shape[1] != cfg.input_dim:
            raise ShapeError(f"sequence {seq.seq_id}: input dim {seq.inputs.shape[1]} "
                             f"!= configured {cfg.input_dim}")
        check_streams([seq], dims)


def predict(params, cfg, dataset) -> dict:
    """Network outputs of every sequence, concatenated per stream in dataset
    order. Sequences are forwarded in packed chunks of >= EVAL_FRAMES frames
    with taps kept inside each sequence and no cache for backward (network.infer);
    only inputs are read."""
    chunks = [net.infer(params, cfg, np.concatenate([seq.inputs for seq in batch]),
                        bounds=_bounds(batch))
              for batch in _batches(range(len(dataset)), dataset, EVAL_FRAMES)]
    return {s.name: np.concatenate([outs[s.name] for outs in chunks])
            for s in cfg.output_streams}


def evaluate_mse(params, cfg, dataset) -> float:
    """Frame-weighted multi-task MSE over a dataset, which check_dataset
    checks first."""
    check_dataset(cfg, dataset)
    pred = predict(params, cfg, dataset)
    return multitask_mse(pred, stack_targets(dataset, pred, cfg.dtype()))


def _bounds(batch) -> list:
    """The (start, end) rows of each sequence once batch is stacked."""
    ends = np.cumsum([seq.frames for seq in batch]).tolist()
    return list(zip([0] + ends[:-1], ends))


def stack_targets(dataset, names, dtype=None) -> dict:
    """Each named target stream stacked over dataset in its order, cast to
    dtype if one is given; check_streams has held dataset to its rule."""
    return {name: np.concatenate([seq.targets[name] for seq in dataset], dtype=dtype)
            for name in names}


def _pack(batch, cfg: NetworkConfig):
    """Sequences stacked into one frame matrix: (inputs, {stream: targets in
    cfg precision}, the (start, end) rows of each sequence)."""
    return (np.concatenate([seq.inputs for seq in batch]),
            stack_targets(batch, [s.name for s in cfg.output_streams], cfg.dtype()),
            _bounds(batch))


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

    Each minibatch is packed into one frame matrix for one forward and one
    backward that applies the SGD step as it goes (network.backward's update
    mode), with memory-block taps kept inside each sequence; loss and
    gradient are frame-weighted sums over the sequences. valid None
    validates on the training set. Returns (params, [EpochStats per epoch]).
    Deterministic in (seed, cfg, dataset).
    """
    sched = LrScheduler(train_cfg)
    check_dataset(cfg, dataset)
    if valid is not None and not valid:
        raise ValueError("empty validation set (pass None to validate on the training set)")
    valid_set = dataset if valid is None else valid
    check_dataset(cfg, valid_set)
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
            # one loss per sequence: train_mse is the same however the shuffle batches
            for seq, (a, b) in zip(batch, bounds):
                loss = multitask_mse({n: o[a:b] for n, o in outs.items()},
                                     {n: t[a:b] for n, t in targets.items()})
                if not math.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch} batch {bi} "
                        f"(sequence {seq.seq_id})")
                batch_loss += (b - a) / total_frames * loss
            grad_streams = _mse_grad(outs, targets)
            # outs is cache.head_out, which the update releases with the
            # layer caches as backward walks down the stack
            del outs
            net.backward(cache, grad_streams, lr=sched.lr)
            epoch_loss += total_frames * batch_loss
        train_mse = epoch_loss / sum(seq.frames for seq in dataset)
        valid_mse = evaluate_mse(params, cfg, valid_set)
        if not math.isfinite(valid_mse):
            raise RuntimeError(f"non-finite validation MSE at epoch {epoch}")
        history.append(EpochStats(epoch, sched.lr, train_mse, valid_mse))
        sched.step(valid_mse)
    return params, history
