"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line (run with -s to see them). Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from dfsmn import analysis, metrics
from dfsmn import network as net
from dfsmn.features import read_feature, write_feature
from dfsmn.model_io import load_model, save_model
from dfsmn.network import (DfsmnLayerSpec, FcLayerSpec, NetworkConfig, StreamSpec,
                           build_network, preset_config)
from dfsmn.tensor import Counter64, derive_seed
from dfsmn.trainer import (SyntheticTaskSpec, TrainConfig, echo_net,
                           gen_acoustic_toy_task, gen_echo_task, grad_check, train)

ALL_PRESETS = "ABCDEFGHI"
PUBLISHED_SIZE_MB = {"A": 62, "B": 62, "C": 62, "D": 62, "E": 87,
                     "F": 119, "G": 119, "H": 120, "I": 122}
PUBLISHED_GFLOPS = {"A": 4.08, "B": 4.08, "C": 4.08, "D": 4.09, "E": 5.35,
                    "F": 7.04, "G": 7.06, "H": 7.10, "I": 7.18}


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestCriterion1GradientCorrectness:
    def test_four_layer_bidirectional_skip_gradcheck(self):
        layers = tuple(DfsmnLayerSpec(hidden=8, proj=4, n_back=3, n_ahead=3,
                                      stride_back=2, stride_ahead=2, skip=(i > 0),
                                      activation="tanh") for i in range(4))
        cfg = NetworkConfig(input_dim=8, layers=layers,
                            output_streams=(StreamSpec("y", 3),
                                            StreamSpec("v", 1, "sigmoid")),
                            precision="fp64")
        start = time.monotonic()
        rep = grad_check(cfg, frames=20, seed=3)
        elapsed = time.monotonic() - start
        classes = {"proj_weight", "proj_bias", "back_taps", "ahead_taps",
                   "out_weight", "out_bias", "head_weight", "head_bias",
                   "input", "skip"}
        ok = (rep.passed and (rep.step, rep.tolerance) == (1e-5, 1e-4)
              and classes <= set(rep.max_rel_err) and elapsed < 60.0)
        report(1, ok, f"4-layer bidirectional skip gradcheck worst "
                      f"{rep.worst_class}={rep.worst_err:.2e} (<1e-4), "
                      f"{len(rep.max_rel_err)} classes, {elapsed:.1f}s (<60s)")


class TestCriterion2ReceptiveField:
    def test_preset_e_and_formula(self):
        back, ahead = analysis.receptive_field(preset_config("E"))
        ok = (back, ahead) == (120, 120)
        ok = ok and analysis.analyze(preset_config("E"), "E").look_back_ms == 600
        for name in ALL_PRESETS:
            cfg = preset_config(name)
            want = sum(s.n_back * s.stride_back for s in cfg.layers
                       if isinstance(s, DfsmnLayerSpec))
            got, _ = analysis.receptive_field(cfg)
            ok = ok and got == want
        report(2, ok, "preset E receptive field (120,120) frames = 600 ms/side; "
                      "order*stride sums exact on A..I")

    def test_empirical_horizon_matches_analytic(self):
        ok = True
        for seed in (11, 22, 33):
            rng = Counter64(derive_seed(seed, 0))
            depth = 1 + rng.below(3)
            layers = tuple(DfsmnLayerSpec(
                hidden=3, proj=2, n_back=1 + rng.below(3), n_ahead=rng.below(2),
                stride_back=1 + rng.below(2), stride_ahead=1 + rng.below(2),
                skip=(i > 0), activation="tanh") for i in range(depth))
            cfg = NetworkConfig(input_dim=2, layers=layers,
                                output_streams=(StreamSpec("y", 1),),
                                precision="fp64")
            params = build_network(cfg, seed)
            for p in params.layers:
                p.back_taps[...] = 0.5 + 0.1 * Counter64(seed).normal(
                    p.back_taps.size).reshape(p.back_taps.shape)
                if p.ahead_taps.size:
                    p.ahead_taps[...] = 0.5 + 0.1 * Counter64(seed + 1).normal(
                        p.ahead_taps.size).reshape(p.ahead_taps.shape)
            back, ahead = analysis.receptive_field(cfg)
            T = back + ahead + 4
            t = back + 1
            x = Counter64(derive_seed(seed, 1)).normal(T * 2).reshape(T, 2)
            base, _ = net.forward(params, cfg, x)
            beyond = x.copy()
            beyond[t - back - 1] += 1.0
            outs, _ = net.forward(params, cfg, beyond)
            ok = ok and np.array_equal(outs["y"][t], base["y"][t])
            edge = x.copy()
            edge[t - back] += 1.0
            outs, _ = net.forward(params, cfg, edge)
            ok = ok and not np.array_equal(outs["y"][t], base["y"][t])
        report(2, ok, "perturbation horizon equals analytic look-back on 3 "
                      "random small nets (bit-exact beyond, sensitive at edge)")


class TestCriterion3ModelSize:
    def test_sizes_against_published(self):
        sizes = {n: analysis.analyze(preset_config(n), n).size_mb
                 for n in ALL_PRESETS}
        within = all(abs(sizes[n] - PUBLISHED_SIZE_MB[n]) / PUBLISHED_SIZE_MB[n]
                     <= 0.20 for n in ALL_PRESETS)
        ordered = all(sizes[a] <= sizes[b]
                      for a, b in zip(ALL_PRESETS, ALL_PRESETS[1:]))
        abcd = [sizes[n] for n in "ABCD"]
        tight = max(abcd) - min(abcd) < 0.5
        report(3, within and ordered and tight,
               f"fp32 sizes within ±20% of published "
               f"(A {sizes['A']:.1f}/62, E {sizes['E']:.1f}/87, "
               f"I {sizes['I']:.1f}/122 MB); ordering A..I monotone; "
               f"A-D spread {max(abcd) - min(abcd):.2f} MB (<0.5)")


class TestCriterion4Flops:
    def test_flops_against_published(self):
        gflops = {n: analysis.analyze(preset_config(n), n).gflops_per_second
                  for n in ALL_PRESETS}
        factor2 = all(0.5 < gflops[n] / PUBLISHED_GFLOPS[n] < 2.0
                      for n in ALL_PRESETS)
        per_frame = [analysis.flops_per_frame(preset_config(n))
                     for n in ALL_PRESETS]
        strict = all(a < b for a, b in zip(per_frame, per_frame[1:]))
        ad_close = (per_frame[3] - per_frame[0]) / per_frame[0] < 0.01
        report(4, factor2 and strict and ad_close,
               f"GFLOPS within factor 2 of published (A {gflops['A']:.2f}/4.08, "
               f"E {gflops['E']:.2f}/5.35, I {gflops['I']:.2f}/7.18); "
               f"strict ordering A<..<I; A-D within "
               f"{100 * (per_frame[3] - per_frame[0]) / per_frame[0]:.2f}% (<1%)")


class TestCriterion5LongDependency:
    @pytest.mark.slow
    def test_echo_lag8_separation(self):
        spec = SyntheticTaskSpec(kind="echo", input_dim=1, lag=8,
                                 num_sequences=64, seq_len=64)
        train_set, valid_set = gen_echo_task(spec, seed=0)
        start = time.monotonic()

        cfg_wide = echo_net(8)   # look-back receptive field 8
        assert analysis.receptive_field(cfg_wide) == (8, 0)
        params = build_network(cfg_wide, seed=1)
        tc = TrainConfig(batch_frames=512, lr=0.05, max_epochs=200, seed=1,
                         min_improvement=0.001, patience=10)
        _, hist_wide = train(cfg_wide, params, train_set, tc, valid_set)
        wide_mse = hist_wide[-1].valid_mse

        cfg_narrow = echo_net(2)  # look-back receptive field 2
        assert analysis.receptive_field(cfg_narrow) == (2, 0)
        params = build_network(cfg_narrow, seed=1)
        tc = TrainConfig(batch_frames=512, lr=0.1, max_epochs=200, seed=1,
                         min_improvement=0.001, patience=10)
        _, hist_narrow = train(cfg_narrow, params, train_set, tc, valid_set)
        narrow_mse = hist_narrow[-1].valid_mse

        elapsed = time.monotonic() - start
        ok = wide_mse < 0.05 and narrow_mse > 0.5 and elapsed < 300
        report(5, ok, f"echo lag 8: receptive field 8 net reaches valid MSE "
                      f"{wide_mse:.4f} (<0.05), receptive field 2 net stuck at "
                      f"{narrow_mse:.3f} (>0.5, ~unit variance), {elapsed:.0f}s")


class TestCriterion6OverfitSanity:
    @pytest.mark.slow
    def test_toy_acoustic_overfit(self):
        spec = SyntheticTaskSpec(kind="acoustic_toy", input_dim=8,
                                 num_sequences=10, seq_len=20)
        train_set, _ = gen_acoustic_toy_task(spec, seed=0)
        streams = (StreamSpec("mcep", 6), StreamSpec("lf0", 3),
                   StreamSpec("bap", 2), StreamSpec("uv", 1, "sigmoid"))
        layers = (DfsmnLayerSpec(hidden=32, proj=8, n_back=1, n_ahead=1,
                                 activation="linear"),
                  FcLayerSpec(hidden=32, activation="linear"))
        cfg = NetworkConfig(input_dim=8, layers=layers, output_streams=streams,
                            precision="fp32")
        start = time.monotonic()
        params = build_network(cfg, seed=0)
        tc = TrainConfig(batch_frames=20, lr=0.1, max_epochs=500, seed=0,
                         min_improvement=0.0001, patience=200)
        _, history = train(cfg, params, train_set, tc)
        elapsed = time.monotonic() - start
        final = history[-1].train_mse
        ok = final < 1e-3 and elapsed < 300
        report(6, ok, f"4-stream toy (10 seqs, dims 6/3/2/1) overfit to "
                      f"multi-task MSE {final:.2e} (<1e-3) in "
                      f"{len(history)} epochs, {elapsed:.0f}s")


K_DB = 10.0 / math.log(10.0)


def oracle_mcd(ref, hyp):
    total = 0.0
    for t in range(ref.shape[0]):
        s = sum((ref[t, i] - hyp[t, i]) ** 2 for i in range(1, ref.shape[1]))
        total += K_DB * math.sqrt(2.0 * s)
    return total / ref.shape[0]


def oracle_f0_rmse(ref_hz, hyp_lf0, ref_uv, hyp_uv):
    acc, n = 0.0, 0
    for t in range(len(ref_hz)):
        if ref_uv[t] >= 0.5 and hyp_uv[t] >= 0.5:
            acc += (math.exp(hyp_lf0[t]) - ref_hz[t]) ** 2
            n += 1
    return math.sqrt(acc / n)


def oracle_bapd(ref, hyp):
    total = 0.0
    for t in range(ref.shape[0]):
        s = sum((ref[t, i] - hyp[t, i]) ** 2 for i in range(ref.shape[1]))
        total += math.sqrt(s / ref.shape[1])
    return total / ref.shape[0]


def oracle_uv_error(ref_uv, prob, thr=0.5):
    wrong = sum(1 for t in range(len(prob))
                if (prob[t] >= thr) != (ref_uv[t] >= 0.5))
    return wrong / len(prob)


def oracle_total_mse(ref_streams, hyp_streams):
    acc, n = 0.0, 0
    for name in ref_streams:
        r, h = ref_streams[name], hyp_streams[name]
        for t in range(r.shape[0]):
            for i in range(r.shape[1]):
                acc += (r[t, i] - h[t, i]) ** 2
                n += 1
    return acc / n


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestCriterion7MetricOracles:
    def test_hundred_random_cases_each(self):
        worst = 0.0
        for case in range(100):
            rng = Counter64(derive_seed(1234, case))
            T = 2 + rng.below(10)
            D = 2 + rng.below(10)
            ref = rng.normal(T * D).reshape(T, D)
            hyp = rng.normal(T * D).reshape(T, D)
            worst = max(worst, _rel(metrics.mcd(ref, hyp), oracle_mcd(ref, hyp)))
            worst = max(worst, _rel(metrics.bapd(ref, hyp), oracle_bapd(ref, hyp)))

            ref_hz = 100.0 + 10.0 * rng.normal(T)
            hyp_lf0 = np.log(100.0) + 0.1 * rng.normal(T)
            ref_uv = (rng.uniform(T) > 0.3).astype(float)
            hyp_uv = (rng.uniform(T) > 0.3).astype(float)
            ref_uv[rng.below(T)] = 1.0
            hyp_uv[np.argmax(ref_uv)] = 1.0  # guarantee a common voiced frame
            worst = max(worst, _rel(
                metrics.f0_rmse(ref_hz, hyp_lf0.reshape(-1, 1), ref_uv, hyp_uv),
                oracle_f0_rmse(ref_hz, hyp_lf0, ref_uv, hyp_uv)))

            prob = rng.uniform(T)
            got = metrics.uv_error(ref_uv, prob)
            want = oracle_uv_error(ref_uv, prob)
            assert got == want  # exact: a counted fraction

            streams_ref = {"a": ref, "b": ref_hz.reshape(-1, 1)}
            streams_hyp = {"a": hyp, "b": (ref_hz + rng.normal(T)).reshape(-1, 1)}
            worst = max(worst, _rel(metrics.total_mse(streams_ref, streams_hyp),
                                    oracle_total_mse(streams_ref, streams_hyp)))
        ok = worst < 1e-10
        report(7, ok, f"five measures vs brute-force loop oracles on 100 random "
                      f"cases: worst relative deviation {worst:.2e} (<1e-10)")

    def test_zero_on_identical_and_masking(self):
        rng = Counter64(99)
        x = rng.normal(60).reshape(5, 12)
        uv = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        hz = 100.0 + rng.normal(5)
        ok = metrics.mcd(x, x) == 0.0
        ok = ok and metrics.bapd(x, x) == 0.0
        ok = ok and metrics.uv_error(uv, uv) == 0.0
        ok = ok and metrics.total_mse({"s": x}, {"s": x}) == 0.0
        lf0 = np.log(hz).reshape(-1, 1)
        ok = ok and metrics.f0_rmse(hz, lf0, uv, uv) < 1e-10
        # values on unvoiced frames are invisible to the masked measure
        hz2 = hz.copy()
        hz2[1] = 9e9
        lf0_2 = lf0.copy()
        lf0_2[3] = 40.0
        ok = ok and (metrics.f0_rmse(hz2, lf0_2, uv, uv)
                     == metrics.f0_rmse(hz, lf0, uv, uv))
        report(7, ok, "zero-on-identical and unvoiced-masking invariants hold")


class TestCriterion8Determinism:
    def test_training_and_files_bit_exact(self, tmp_path):
        spec = SyntheticTaskSpec(kind="echo", input_dim=1, lag=2,
                                 num_sequences=6, seq_len=16)
        train_set, valid_set = gen_echo_task(spec, seed=3)
        cfg = echo_net(3)
        blobs = []
        for name in ("m1", "m2"):
            params = build_network(cfg, seed=5)
            tc = TrainConfig(batch_frames=32, lr=0.05, max_epochs=6, seed=5)
            params, _ = train(cfg, params, train_set, tc, valid_set)
            path = tmp_path / f"{name}.dfsmn"
            save_model(params, cfg, path)
            blobs.append(path.read_bytes())
        same_models = blobs[0] == blobs[1]

        loaded, cfg2 = load_model(tmp_path / "m1.dfsmn")
        save_model(loaded, cfg2, tmp_path / "m3.dfsmn")
        roundtrip = (tmp_path / "m3.dfsmn").read_bytes() == blobs[0]

        data = Counter64(1).normal(24).reshape(6, 4).astype(np.float32)
        write_feature(tmp_path / "x.feat", "input", data)
        name, back = read_feature(tmp_path / "x.feat")
        write_feature(tmp_path / "y.feat", name, back)
        feat_roundtrip = ((tmp_path / "x.feat").read_bytes()
                          == (tmp_path / "y.feat").read_bytes())
        ok = same_models and roundtrip and feat_roundtrip
        report(8, ok, f"identical seeds give byte-identical trained models "
                      f"({same_models}); model ({roundtrip}) and feature "
                      f"({feat_roundtrip}) files round-trip byte-exactly")


class TestCriterion9Causality:
    def test_fifty_random_unidirectional_configs(self):
        activations = ("relu", "tanh", "sigmoid", "linear")
        ok = True
        for case in range(50):
            rng = Counter64(derive_seed(777, case))
            input_dim = 1 + rng.below(3)
            depth = 1 + rng.below(3)
            proj = 1 + rng.below(3)
            layers = []
            for i in range(depth):
                layers.append(DfsmnLayerSpec(
                    hidden=1 + rng.below(4), proj=proj, n_back=rng.below(4),
                    n_ahead=0, stride_back=1 + rng.below(3), stride_ahead=1,
                    skip=(i > 0 and rng.below(2) == 1),
                    activation=activations[rng.below(4)]))
            if rng.below(2):
                layers.append(FcLayerSpec(hidden=1 + rng.below(4),
                                          activation=activations[rng.below(4)]))
            cfg = NetworkConfig(
                input_dim=input_dim, layers=tuple(layers),
                output_streams=(StreamSpec("y", 1 + rng.below(2)),
                                StreamSpec("v", 1, "sigmoid")),
                precision="fp64" if rng.below(2) else "fp32")
            params = build_network(cfg, derive_seed(777, case, 1))
            for spec, p in zip(cfg.layers, params.layers):
                if isinstance(spec, DfsmnLayerSpec):
                    p.back_taps[...] = 0.3
            T = 6 + rng.below(6)
            t = rng.below(T - 1)
            x = Counter64(derive_seed(777, case, 2)).normal(
                T * input_dim).reshape(T, input_dim)
            base, _ = net.forward(params, cfg, x)
            x2 = x.copy()
            x2[t + 1:] += 1.0 + Counter64(derive_seed(777, case, 3)).normal(
                (T - t - 1) * input_dim).reshape(-1, input_dim)
            outs, _ = net.forward(params, cfg, x2)
            for s in cfg.output_streams:
                ok = ok and np.array_equal(base[s.name][:t + 1],
                                           outs[s.name][:t + 1])
        report(9, ok, "50 random all-unidirectional configs: perturbing frames "
                      "after t leaves outputs at <= t bit-identical")
