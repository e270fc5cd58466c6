import weakref
from dataclasses import fields

import numpy as np
import pytest

from dfsmn import layers as L
from dfsmn import network as net
from dfsmn import trainer
from dfsmn.features import SequenceData
from dfsmn.network import (DfsmnLayerSpec, FcLayerSpec, NetworkConfig, StreamSpec,
                           build_network, expand_shorthand, iter_tensors, PRESETS)
from dfsmn.tensor import Counter64, ShapeError, derive_seed
from dfsmn.trainer import (ECHO_STREAM, EpochStats, LrScheduler, SyntheticTaskSpec,
                           TrainConfig, evaluate_mse, gen_acoustic_toy_task,
                           gen_echo_task, grad_check, multitask_mse, train)


def tiny_cfg(**kw):
    args = dict(n_back=1, n_ahead=1, activation="tanh", precision="fp64")
    args.update(kw)
    layers = (DfsmnLayerSpec(hidden=4, proj=2, n_back=args["n_back"],
                             n_ahead=args["n_ahead"], activation=args["activation"]),
              FcLayerSpec(hidden=4, activation=args["activation"]))
    return NetworkConfig(input_dim=3, layers=layers,
                         output_streams=(StreamSpec("y", 2),),
                         precision=args["precision"])


class TestMultitaskMse:
    def test_perfect_prediction(self):
        pred, target = {"a": np.ones((2, 2))}, {"a": np.ones((2, 2))}
        loss, grads = multitask_mse(pred, target), trainer._mse_grad(pred, target)
        assert loss == 0.0
        assert not grads["a"].any()

    def test_hand_case(self):
        pred, target = {"a": np.array([[2.0]])}, {"a": np.array([[0.0]])}
        loss, grads = multitask_mse(pred, target), trainer._mse_grad(pred, target)
        assert loss == 4.0
        assert grads["a"][0, 0] == 4.0

    def test_gradient_matches_finite_differences(self):
        rng = Counter64(0)
        pred = {"a": rng.normal(12).reshape(3, 4), "b": rng.normal(6).reshape(3, 2)}
        target = {"a": rng.normal(12).reshape(3, 4), "b": rng.normal(6).reshape(3, 2)}
        grads = trainer._mse_grad(pred, target)
        step = 1e-6
        for name in pred:
            arr = pred[name]
            for i in range(arr.size):
                old = arr.flat[i]
                arr.flat[i] = old + step
                lp = multitask_mse(pred, target)
                arr.flat[i] = old - step
                lm = multitask_mse(pred, target)
                arr.flat[i] = old
                numeric = (lp - lm) / (2 * step)
                denom = max(abs(numeric), 1e-12)
                assert abs(grads[name].flat[i] - numeric) / denom < 1e-6

    def test_returns_a_float(self):
        loss = multitask_mse({"a": np.ones((2, 2), np.float32)},
                             {"a": np.zeros((2, 2), np.float32)})
        assert type(loss) is float and loss == 1.0

    def test_missing_stream(self):
        with pytest.raises(KeyError):
            multitask_mse({"a": np.zeros((1, 1))},
                          {"a": np.zeros((1, 1)), "b": np.zeros((1, 1))})

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="'a'"):
            multitask_mse({"a": np.zeros((2, 1))}, {"a": np.zeros((1, 1))})


def update_case(precision="fp64", n_back=3, n_ahead=2, seed=4):
    """Two skip-connected memory-block layers, an fc layer and two heads, every
    tensor drawn nonzero, and three sequences. The taps per memory block,
    n_back + 1 + n_ahead, pick the walk (below L.GEMM_MIN_TAPS) or the GEMM."""
    mb = dict(hidden=6, proj=4, n_back=n_back, n_ahead=n_ahead, stride_back=2,
              activation="tanh")
    layers = (DfsmnLayerSpec(**mb), DfsmnLayerSpec(**mb, skip=True),
              FcLayerSpec(hidden=5, activation="tanh"))
    cfg = NetworkConfig(input_dim=3, layers=layers,
                        output_streams=(StreamSpec("a", 2), StreamSpec("b", 1, "sigmoid")),
                        precision=precision)
    params = build_network(cfg, seed)
    rng = Counter64(derive_seed(seed, 1))
    for _, _, arr in iter_tensors(cfg, params):
        arr[...] = 0.3 * rng.normal(arr.size).reshape(arr.shape)
    seqs = [SequenceData(f"s{i}", rng.normal(T * 3).reshape(T, 3),
                         {"a": rng.normal(T * 2).reshape(T, 2),
                          "b": rng.uniform(T).reshape(T, 1)})
            for i, T in enumerate((13, 17, 9))]
    return cfg, params, seqs


def copy_params(cfg, params):
    out = net.zeros_network(cfg)
    for (_, _, o), (_, _, p) in zip(iter_tensors(cfg, out), iter_tensors(cfg, params)):
        o[...] = p
    return out


def backward_on(cfg, params, seqs, lr=None):
    """One packed forward over seqs and network.backward in the mode lr picks;
    returns (backward's result, the spent cache)."""
    inputs, targets, bounds = trainer._pack(seqs, cfg)
    outs, cache = net.forward(params, cfg, inputs, bounds=bounds)
    return net.backward(cache, trainer._mse_grad(outs, targets), lr=lr), cache


class TestSgdStep:
    """The SGD step that network.backward applies in update mode."""

    def test_zero_lr_is_identity(self):
        cfg, params, seqs = update_case()
        (grads, _), _ = backward_on(cfg, copy_params(cfg, params), seqs)
        assert all(g.any() for _, _, g in iter_tensors(cfg, grads))
        before = [arr.copy() for _, _, arr in iter_tensors(cfg, params)]
        (returned, _), _ = backward_on(cfg, params, seqs, lr=0.0)
        assert returned is params
        for b, (_, _, a) in zip(before, iter_tensors(cfg, params)):
            assert np.array_equal(a, b)

    def test_hand_case(self):
        # all-zero weights: the head outputs its bias, 1 against a target of
        # 0, so d loss / d bias = 2 / 2 * 1 per element and lr 1 zeroes it
        cfg = tiny_cfg()
        params = net.zeros_network(cfg)
        params.heads["y"].bias[...] = 1.0
        seq = SequenceData("s", np.ones((1, 3)), {"y": np.zeros((1, 2))})
        backward_on(cfg, params, [seq], lr=1.0)
        assert np.array_equal(params.heads["y"].bias, np.zeros(2))
        assert not params.heads["y"].weight.any()

    def test_step_is_linear_in_lr(self):
        cfg, params, seqs = update_case(seed=3)
        full, half = copy_params(cfg, params), copy_params(cfg, params)
        backward_on(cfg, full, seqs, lr=0.1)
        backward_on(cfg, half, seqs, lr=0.05)
        for (_, _, p), (_, _, f), (_, _, h) in zip(iter_tensors(cfg, params),
                                                   iter_tensors(cfg, full),
                                                   iter_tensors(cfg, half)):
            assert (p - f).any()
            assert np.max(np.abs((p - f) - 2 * (p - h))) < 1e-12

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    @pytest.mark.parametrize("orders", [(3, 2), (10, 8)], ids=["walk", "gemm"])
    def test_update_equals_collect_then_step(self, precision, orders):
        cfg, params, seqs = update_case(precision, *orders)
        gemm = len(L._tap_offsets(cfg.layers[0])) >= L.GEMM_MIN_TAPS
        assert gemm == (orders == (10, 8))
        lr = 0.05
        want = copy_params(cfg, params)
        (grads, want_in), _ = backward_on(cfg, want, seqs)
        for (_, _, w), (_, _, g) in zip(iter_tensors(cfg, want), iter_tensors(cfg, grads)):
            w -= lr * g
        (returned, got_in), cache = backward_on(cfg, params, seqs, lr=lr)
        assert returned is params
        assert cache.layer_caches == [None] * len(cfg.layers)
        assert cache.head_out is None
        for (_, path, got), (_, _, w) in zip(iter_tensors(cfg, params),
                                             iter_tensors(cfg, want)):
            assert got.dtype == cfg.dtype() and got.tobytes() == w.tobytes(), path
        assert got_in.tobytes() == want_in.tobytes()

    @pytest.mark.parametrize("orders", [(3, 2), (10, 8)], ids=["walk", "gemm"])
    def test_no_gradient_group_or_layer_cache_reaches_next_forward(self, orders,
                                                                   monkeypatch):
        cfg, params, seqs = update_case("fp32", *orders)
        real_forward, real_backward, real_sgd = net.forward, net.backward, net._sgd
        refs, groups = [], []

        def forward(*args, **kwargs):
            assert all(ref() is None for ref in refs)
            return real_forward(*args, **kwargs)

        def backward(cache, grad_streams, **kwargs):
            refs.extend(weakref.ref(c) for c in cache.layer_caches)
            refs.extend(weakref.ref(o) for o in cache.head_out.values())
            return real_backward(cache, grad_streams, **kwargs)

        def sgd(group, grads, lr):
            groups.append(type(grads))
            refs.append(weakref.ref(grads))
            refs.extend(weakref.ref(getattr(grads, f.name)) for f in fields(grads))
            real_sgd(group, grads, lr)
        monkeypatch.setattr(net, "forward", forward)
        monkeypatch.setattr(net, "backward", backward)
        monkeypatch.setattr(net, "_sgd", sgd)
        train(cfg, params, seqs, TrainConfig(batch_frames=20, lr=0.05, max_epochs=2, seed=3))
        # every batch updates the three layers and the two heads
        assert len(groups) > 5 and len(groups) % 5 == 0


class TestLrScheduler:
    def test_improving_keeps_lr(self):
        sched = LrScheduler(TrainConfig(lr=0.1, patience=1, min_improvement=0.005))
        mse = 1.0
        for _ in range(6):
            assert sched.step(mse) == 0.1
            mse *= 0.5
        assert sched.lr == 0.1

    def test_flat_twice_decays_once(self):
        sched = LrScheduler(TrainConfig(lr=0.1, patience=1))
        sched.step(1.0)
        new_lr = sched.step(1.0)
        assert new_lr == pytest.approx(0.01)

    def test_at_most_one_decay_per_evaluation(self):
        sched = LrScheduler(TrainConfig(lr=1.0, patience=1))
        sched.step(1.0)
        lrs = [sched.step(1.0) for _ in range(3)]
        assert lrs == pytest.approx([0.1, 0.01, 0.001])

    def test_patience_two_needs_two_bad_evals(self):
        sched = LrScheduler(TrainConfig(lr=1.0, patience=2))
        sched.step(1.0)
        assert sched.step(1.0) == 1.0      # first stall
        assert sched.step(1.0) == 0.1      # second stall decays
        assert sched.step(0.5) == 0.1      # big improvement resets

    def test_insufficient_improvement_counts_as_stall(self):
        sched = LrScheduler(TrainConfig(lr=1.0, patience=1, min_improvement=0.01))
        sched.step(1.0)
        assert sched.step(0.9999) == 0.1   # 0.01% is not enough

    @pytest.mark.parametrize("knobs,message", [({"patience": 0}, "patience must be >= 1"),
                                               ({"min_improvement": float("nan")},
                                                "min_improvement must be finite")])
    def test_rejects_bad_knobs_when_built(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            LrScheduler(TrainConfig(lr=1.0, **knobs))

    def test_rejects_non_finite(self):
        sched = LrScheduler(TrainConfig(lr=0.1))
        with pytest.raises(ValueError):
            sched.step(float("nan"))


class TestGradCheck:
    def test_linear_memoryless_net_is_exact(self):
        layers = (DfsmnLayerSpec(hidden=4, proj=2, activation="linear"),)
        cfg = NetworkConfig(input_dim=3, layers=layers,
                            output_streams=(StreamSpec("y", 2),), precision="fp64")
        report = grad_check(cfg, frames=6, seed=0)
        assert report.passed
        assert report.worst_err < 1e-8  # loss is quadratic, fd nearly exact

    def test_preset_e_shaped_analog_passes(self):
        layers = tuple(DfsmnLayerSpec(hidden=8, proj=4, n_back=3, n_ahead=3,
                                      stride_back=2, stride_ahead=2, skip=(i > 0),
                                      activation="tanh") for i in range(4))
        cfg = NetworkConfig(input_dim=8, layers=layers,
                            output_streams=(StreamSpec("y", 3),
                                            StreamSpec("v", 1, "sigmoid")),
                            precision="fp64")
        report = grad_check(cfg, frames=20, seed=1, tolerance=1e-4)
        assert report.passed
        assert {"proj_weight", "proj_bias", "back_taps", "ahead_taps",
                "out_weight", "out_bias", "head_weight", "head_bias",
                "input", "skip"} <= set(report.max_rel_err)

    def test_corrupted_memory_gradient_detected(self, monkeypatch):
        cfg = tiny_cfg()
        real_backward = net.backward

        def poisoned(cache, grad_streams):
            grads, grad_in = real_backward(cache, grad_streams)
            for spec, g in zip(cache.cfg.layers, grads.layers):
                if isinstance(spec, DfsmnLayerSpec):
                    g.back_taps *= 2.0
            return grads, grad_in

        monkeypatch.setattr(net, "backward", poisoned)
        report = grad_check(cfg, frames=8, seed=2)
        assert not report.passed
        assert report.max_rel_err["back_taps"] > 1e-4
        assert report.worst_class == "back_taps"

    def test_rejects_fp32(self):
        with pytest.raises(ValueError, match="fp64"):
            grad_check(tiny_cfg(precision="fp32"), frames=4, seed=0)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_scaled_down_preset_analogs_pass(self, name, monkeypatch):
        counts, orders = PRESETS[name]
        cfg = expand_shorthand(counts, orders, input_dim=8, hidden=8, proj=4,
                               activation="tanh",
                               output_streams=(StreamSpec("y", 2),
                                               StreamSpec("v", 1, "sigmoid")),
                               precision="fp64")
        monkeypatch.setattr(trainer, "GRADCHECK_SAMPLES", 8)
        report = grad_check(cfg, frames=12, seed=3)
        assert report.passed, report.lines()


class TestEchoTask:
    def test_lag_zero_target_equals_input(self):
        spec = SyntheticTaskSpec(kind="echo", input_dim=2, lag=0,
                                 num_sequences=3, seq_len=10)
        train_set, _ = gen_echo_task(spec, seed=0)
        for seq in train_set:
            assert np.array_equal(seq.targets[ECHO_STREAM], seq.inputs)

    def test_lag_shifts_with_zero_head(self):
        spec = SyntheticTaskSpec(kind="echo", input_dim=1, lag=3,
                                 num_sequences=1, seq_len=5)
        train_set, _ = gen_echo_task(spec, seed=1)
        x = train_set[0].inputs
        y = train_set[0].targets[ECHO_STREAM]
        assert not y[:3].any()
        assert np.array_equal(y[3:], x[:2])

    def test_deterministic_and_disjoint_from_validation(self):
        spec = SyntheticTaskSpec(kind="echo", input_dim=2, lag=1,
                                 num_sequences=4, seq_len=8)
        t1, v1 = gen_echo_task(spec, seed=5)
        t2, v2 = gen_echo_task(spec, seed=5)
        for a, b in zip(t1 + v1, t2 + v2):
            assert np.array_equal(a.inputs, b.inputs)
        assert not np.array_equal(t1[0].inputs, v1[0].inputs)

    def test_memoryless_oracle_variance(self):
        # best memoryless predictor is 0; its MSE is Var(x)=1 on frames >= lag
        spec = SyntheticTaskSpec(kind="echo", input_dim=1, lag=4,
                                 num_sequences=32, seq_len=64)
        train_set, _ = gen_echo_task(spec, seed=7)
        tail = np.concatenate([s.targets[ECHO_STREAM][4:] for s in train_set])
        assert abs(float(np.mean(tail ** 2)) - 1.0) < 0.1

    def test_lag_validation(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(kind="echo", lag=10, seq_len=10)

    def test_noise_is_added(self):
        spec = SyntheticTaskSpec(kind="echo", input_dim=1, lag=0,
                                 num_sequences=1, seq_len=50, noise_std=0.1)
        train_set, _ = gen_echo_task(spec, seed=2)
        seq = train_set[0]
        resid = seq.targets[ECHO_STREAM] - seq.inputs
        assert 0.0 < float(np.std(resid)) < 0.3


class TestAcousticToyTask:
    def test_stream_dims(self):
        spec = SyntheticTaskSpec(kind="acoustic_toy", input_dim=8,
                                 num_sequences=2, seq_len=6)
        train_set, valid_set = gen_acoustic_toy_task(spec, seed=0)
        seq = train_set[0]
        assert seq.targets["mcep"].shape == (6, 6)
        assert seq.targets["lf0"].shape == (6, 3)
        assert seq.targets["bap"].shape == (6, 2)
        assert seq.targets["uv"].shape == (6, 1)
        assert len(valid_set) == 1

    def test_uv_in_unit_interval(self):
        spec = SyntheticTaskSpec(kind="acoustic_toy", input_dim=4,
                                 num_sequences=3, seq_len=20)
        train_set, _ = gen_acoustic_toy_task(spec, seed=1)
        for seq in train_set:
            uv = seq.targets["uv"]
            assert np.all(uv > 0.0) and np.all(uv < 1.0)

    def test_targets_shared_across_sequences(self):
        # same deterministic map: equal inputs would give equal targets
        spec = SyntheticTaskSpec(kind="acoustic_toy", input_dim=4,
                                 num_sequences=2, seq_len=5)
        t1, _ = gen_acoustic_toy_task(spec, seed=3)
        t2, _ = gen_acoustic_toy_task(spec, seed=3)
        assert np.array_equal(t1[0].targets["mcep"], t2[0].targets["mcep"])


def echo_config(input_dim=1, n_back=8, stride=1, proj=8, hidden=16,
                activation="relu", precision="fp32"):
    layers = (DfsmnLayerSpec(hidden=hidden, proj=proj, n_back=n_back, n_ahead=0,
                             stride_back=stride, stride_ahead=1,
                             activation=activation),)
    return NetworkConfig(input_dim=input_dim, layers=layers,
                         output_streams=(StreamSpec(ECHO_STREAM, input_dim),),
                         precision=precision)


class TestTrainLoop:
    def _echo_data(self, lag=1, n=6, T=16):
        spec = SyntheticTaskSpec(kind="echo", input_dim=1, lag=lag,
                                 num_sequences=n, seq_len=T)
        return gen_echo_task(spec, seed=0)

    def test_zero_lr_keeps_params_and_flat_history(self):
        train_set, valid_set = self._echo_data()
        cfg = echo_config(n_back=2)
        params = build_network(cfg, 0)
        before = [arr.copy() for _, _, arr in iter_tensors(cfg, params)]
        tc = TrainConfig(batch_frames=32, lr=0.0, max_epochs=4, seed=0)
        params, history = train(cfg, params, train_set, tc, valid_set)
        for b, (_, _, a) in zip(before, iter_tensors(cfg, params)):
            assert np.array_equal(a, b)
        assert len(history) == 4
        assert len({h.train_mse for h in history}) == 1
        assert len({h.valid_mse for h in history}) == 1

    def test_linear_identifiable_task_reaches_1e6(self):
        # y = fixed linear map of x, no memory needed
        rng = Counter64(4)
        w_true = rng.normal(6).reshape(3, 2)
        seqs = []
        for i in range(8):
            x = rng.normal(30).reshape(10, 3)
            seqs.append(SequenceData(f"s{i}", x.astype(np.float32),
                                     {"y": (x @ w_true).astype(np.float32)}))
        layers = (FcLayerSpec(hidden=4, activation="linear"),)
        cfg = NetworkConfig(input_dim=3, layers=layers,
                            output_streams=(StreamSpec("y", 2),), precision="fp32")
        params = build_network(cfg, 1)
        tc = TrainConfig(batch_frames=20, lr=0.1, max_epochs=300, seed=1,
                         min_improvement=0.0, patience=50)
        params, history = train(cfg, params, seqs, tc)
        assert history[-1].train_mse < 1e-6

    def test_history_length_and_fields(self):
        train_set, valid_set = self._echo_data()
        cfg = echo_config(n_back=1)
        params = build_network(cfg, 0)
        tc = TrainConfig(batch_frames=16, lr=0.01, max_epochs=3, seed=0)
        _, history = train(cfg, params, train_set, tc, valid_set)
        assert [h.epoch for h in history] == [0, 1, 2]
        assert all(isinstance(h, EpochStats) and np.isfinite(h.valid_mse)
                   for h in history)

    def test_deterministic_final_params(self):
        train_set, valid_set = self._echo_data()
        cfg = echo_config(n_back=2)
        results = []
        for _ in range(2):
            params = build_network(cfg, 7)
            tc = TrainConfig(batch_frames=32, lr=0.05, max_epochs=5, seed=7)
            params, _ = train(cfg, params, train_set, tc, valid_set)
            results.append([arr.copy() for _, _, arr in iter_tensors(cfg, params)])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_minibatch_loss_is_frame_weighted(self):
        # loss over a batch equals the loss over the concatenated sequences
        # (memoryless layer so frames never mix across the seam; fp64)
        rng = Counter64(5)
        cfg = echo_config(n_back=0, input_dim=2, precision="fp64")
        params = build_network(cfg, 2)
        seqs = []
        for i, T in enumerate((4, 7, 5)):
            x = rng.normal(T * 2).reshape(T, 2)
            y = rng.normal(T * 2).reshape(T, 2)
            seqs.append(SequenceData(f"s{i}", x, {ECHO_STREAM: y}))
        weighted = evaluate_mse(params, cfg, seqs)
        big_in = np.concatenate([s.inputs for s in seqs])
        big_tgt = np.concatenate([s.targets[ECHO_STREAM] for s in seqs])
        outs, _ = net.forward(params, cfg, big_in)
        pooled = multitask_mse(outs, {ECHO_STREAM: big_tgt})
        assert abs(weighted - pooled) / pooled < 1e-10

    def test_empty_dataset_rejected(self):
        cfg = echo_config()
        with pytest.raises(ValueError, match="empty"):
            train(cfg, build_network(cfg, 0), [], TrainConfig(max_epochs=1))

    def test_empty_validation_set_rejected(self):
        # only None means "validate on the training set"
        train_set, _ = self._echo_data()
        cfg = echo_config()
        with pytest.raises(ValueError, match="empty validation set"):
            train(cfg, build_network(cfg, 0), train_set, TrainConfig(max_epochs=1), [])

    def test_stream_mismatch_names_stream_and_dims(self):
        train_set, _ = self._echo_data()
        layers = (FcLayerSpec(hidden=4),)
        cfg = NetworkConfig(input_dim=1, layers=layers,
                            output_streams=(StreamSpec("other", 2),))
        with pytest.raises(ShapeError, match="other"):
            train(cfg, build_network(cfg, 0), train_set, TrainConfig(max_epochs=1))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_diverging_run_aborts_with_location(self):
        train_set, valid_set = self._echo_data()
        cfg = echo_config(n_back=2)
        params = build_network(cfg, 0)
        tc = TrainConfig(batch_frames=16, lr=1e8, max_epochs=50, seed=0)
        with pytest.raises(RuntimeError, match=r"epoch \d+ batch \d+"):
            train(cfg, params, train_set, tc, valid_set)


def packing_case(seed=11):
    """An fp64 net with skip, strided and look-ahead taps, and sequences of
    6, 1, 4 and 11 frames: one is a single frame and one is shorter than the
    6-frame look-back of the first layer."""
    layers = (DfsmnLayerSpec(hidden=5, proj=4, n_back=3, n_ahead=2, stride_back=2,
                             stride_ahead=1, activation="tanh"),
              DfsmnLayerSpec(hidden=5, proj=4, n_back=2, n_ahead=1, stride_back=1,
                             stride_ahead=2, skip=True, activation="tanh"),
              FcLayerSpec(hidden=4, activation="tanh"))
    cfg = NetworkConfig(input_dim=3, layers=layers,
                        output_streams=(StreamSpec("a", 2), StreamSpec("b", 1, "sigmoid")),
                        precision="fp64")
    params = build_network(cfg, seed)
    for li, p in enumerate(params.layers[:2]):
        for k, taps in enumerate((p.back_taps, p.ahead_taps)):
            rng = Counter64(derive_seed(seed, li, k))
            taps[...] = 0.3 * rng.normal(taps.size).reshape(taps.shape)
    rng = Counter64(seed)
    seqs = [SequenceData(f"s{i}", rng.normal(T * 3).reshape(T, 3),
                         {"a": rng.normal(T * 2).reshape(T, 2),
                          "b": rng.uniform(T).reshape(T, 1)})
            for i, T in enumerate((6, 1, 4, 11))]
    return cfg, params, seqs


def rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


class TestPackedBatch:
    def test_loss_and_grads_equal_frame_weighted_per_sequence_sums(self):
        cfg, params, seqs = packing_case()
        inputs, targets, bounds = trainer._pack(seqs, cfg)
        assert bounds == [(0, 6), (6, 7), (7, 11), (11, 22)]
        outs, cache = net.forward(params, cfg, inputs, bounds=bounds)
        loss, grad_streams = multitask_mse(outs, targets), trainer._mse_grad(outs, targets)
        packed, _ = net.backward(cache, grad_streams)

        total = len(inputs)
        want_loss = 0.0
        want = net.zeros_network(cfg)
        for seq in seqs:
            s_outs, s_cache = net.forward(params, cfg, seq.inputs)
            s_loss = multitask_mse(s_outs, seq.targets)
            s_grads = trainer._mse_grad(s_outs, seq.targets)
            scale = seq.frames / total
            want_loss += scale * s_loss
            s_grads, _ = net.backward(s_cache, s_grads)
            for (_, _, w), (_, _, g) in zip(iter_tensors(cfg, want),
                                            iter_tensors(cfg, s_grads)):
                w += scale * g
        assert abs(loss - want_loss) <= 1e-10 * want_loss
        for (_, path, got), (_, _, w) in zip(iter_tensors(cfg, packed),
                                             iter_tensors(cfg, want)):
            assert w.any(), path
            assert rel_err(got, w) <= 1e-10, path

    def test_train_matches_per_sequence_sgd(self):
        # the loop train() replaced: forward, backward and gradient
        # accumulation once per sequence, one SGD step per batch
        cfg, params, seqs = packing_case()
        tc = TrainConfig(batch_frames=8, lr=0.05, max_epochs=2, seed=3)
        want = build_network(cfg, 0)
        for (_, _, w), (_, _, p) in zip(iter_tensors(cfg, want), iter_tensors(cfg, params)):
            w[...] = p
        for epoch in range(tc.max_epochs):
            order = list(range(len(seqs)))
            Counter64(derive_seed(tc.seed, epoch)).shuffle(order)
            for batch in trainer._batches(order, seqs, tc.batch_frames):
                total = sum(seq.frames for seq in batch)
                acc = net.zeros_network(cfg)
                for seq in batch:
                    outs, cache = net.forward(want, cfg, seq.inputs)
                    grads = trainer._mse_grad(outs, seq.targets)
                    grads, _ = net.backward(cache, grads)
                    for (_, _, a), (_, _, g) in zip(iter_tensors(cfg, acc),
                                                    iter_tensors(cfg, grads)):
                        a += seq.frames / total * g
                for (_, _, w), (_, _, a) in zip(iter_tensors(cfg, want),
                                                iter_tensors(cfg, acc)):
                    w -= tc.lr * a

        params, history = train(cfg, params, seqs, tc)
        assert [h.lr for h in history] == [tc.lr, tc.lr]
        for (_, path, got), (_, _, w) in zip(iter_tensors(cfg, params),
                                             iter_tensors(cfg, want)):
            assert rel_err(got, w) <= 1e-10, path

    def test_gradients_freed_before_next_forward(self, monkeypatch):
        # a second parameter-sized gradient set alive through the next
        # batch raised the peak memory of full-size training by ~25%
        cfg, params, seqs = packing_case()
        real_forward, real_sgd = net.forward, net._sgd
        returned = []

        def forward(*args, **kwargs):
            assert all(ref() is None for ref in returned)
            return real_forward(*args, **kwargs)

        def sgd(group, grads, lr):
            # the update hands each gradient group to net._sgd, never to the caller
            returned.append(weakref.ref(grads))
            if group is params.layers[0]:
                returned.append(weakref.ref(grads.proj_weight))
            real_sgd(group, grads, lr)
        monkeypatch.setattr(net, "forward", forward)
        monkeypatch.setattr(net, "_sgd", sgd)
        train(cfg, params, seqs, TrainConfig(batch_frames=8, lr=0.05, max_epochs=2, seed=3))
        assert len(returned) > 2

    def test_one_forward_and_backward_per_batch(self, monkeypatch):
        cfg, params, seqs = packing_case()
        calls = {"forward": 0, "backward": 0, "infer": 0}
        for name in calls:
            real = getattr(net, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(net, name, counted)
        tc = TrainConfig(batch_frames=8, lr=0.05, max_epochs=1, seed=3)
        order = list(range(len(seqs)))
        Counter64(derive_seed(tc.seed, 0)).shuffle(order)
        n_batches = len(list(trainer._batches(order, seqs, tc.batch_frames)))
        assert n_batches < len(seqs)
        n_chunks = len(list(trainer._batches(range(len(seqs)), seqs, trainer.EVAL_FRAMES)))
        train(cfg, params, seqs, tc)
        # the per-epoch validation runs the cache-free pass one packed chunk at a time
        assert calls == {"forward": n_batches, "backward": n_batches, "infer": n_chunks}

    def test_gradient_made_once_per_batch_and_grad_check(self, monkeypatch):
        # per-sequence losses, validation, predict and grad_check's probes
        # compute losses alone; only the two backward passes make a gradient
        cfg, params, seqs = packing_case()
        calls = []
        real = trainer._mse_grad

        def counted(*args):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(trainer, "_mse_grad", counted)
        tc = TrainConfig(batch_frames=8, lr=0.05, max_epochs=2, seed=3)
        n_batches = 0
        for epoch in range(tc.max_epochs):
            order = list(range(len(seqs)))
            Counter64(derive_seed(tc.seed, epoch)).shuffle(order)
            n_batches += len(list(trainer._batches(order, seqs, tc.batch_frames)))
        train(cfg, params, seqs, tc)
        assert len(calls) == n_batches
        calls.clear()
        evaluate_mse(params, cfg, seqs)
        trainer.predict(params, cfg, seqs)
        assert calls == []
        grad_check(tiny_cfg(), frames=5, seed=0)
        assert len(calls) == 1

    def test_predict_never_calls_forward(self, monkeypatch):
        # predict, and with it validation and dfsmn eval, builds no backward cache
        cfg, params, seqs = packing_case()
        self._small_eval_chunks(monkeypatch, seqs)
        want = [net.forward(params, cfg, seq.inputs)[0] for seq in seqs]

        def no_forward(*args, **kwargs):
            raise AssertionError("predict called network.forward")
        monkeypatch.setattr(net, "forward", no_forward)
        got = trainer.predict(params, cfg, seqs)
        for name, out in got.items():
            assert rel_err(out, np.concatenate([w[name] for w in want])) <= 1e-10, name
        evaluate_mse(params, cfg, seqs)

    def _small_eval_chunks(self, monkeypatch, seqs):
        monkeypatch.setattr(trainer, "EVAL_FRAMES", 5)
        assert len(list(trainer._batches(range(len(seqs)), seqs, trainer.EVAL_FRAMES))) >= 3

    def test_predict_equals_per_sequence_forward(self, monkeypatch):
        cfg, params, seqs = packing_case()
        self._small_eval_chunks(monkeypatch, seqs)
        want = [net.forward(params, cfg, seq.inputs)[0] for seq in seqs]
        # only inputs are read: reference streams may be absent
        got = trainer.predict(params, cfg, [SequenceData(seq.seq_id, seq.inputs)
                                            for seq in seqs])
        assert sorted(got) == ["a", "b"]
        for name, out in got.items():
            assert rel_err(out, np.concatenate([w[name] for w in want])) <= 1e-10, name

    def test_evaluate_mse_equals_frame_weighted_per_sequence_sum(self, monkeypatch):
        cfg, params, seqs = packing_case()
        self._small_eval_chunks(monkeypatch, seqs)
        want = sum(seq.frames * multitask_mse(net.forward(params, cfg, seq.inputs)[0],
                                              seq.targets)
                   for seq in seqs) / sum(seq.frames for seq in seqs)
        got = evaluate_mse(params, cfg, seqs)
        assert abs(got - want) <= 1e-10 * want
