import hashlib
import json
import os
import re
import struct
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_acceptance
from dfsmn import layers as L
from dfsmn import network as net
from dfsmn import features, model_io
from dfsmn.features import (SequenceData, load_dataset, read_feature, read_manifest,
                            write_dataset, write_feature)
from dfsmn.model_io import (MAGIC, VERSION, BadMagicError, ModelFileError,
                            TruncatedFileError, VersionMismatchError, load_model,
                            save_model)
from dfsmn.network import (ConfigError, DfsmnLayerSpec, FcLayerSpec, NetworkConfig,
                           StreamSpec, build_network, config_to_json, count_params,
                           expand_shorthand, iter_tensors, parse_config,
                           preset_config, zeros_network)
from dfsmn.tensor import NORMAL_CHUNK, Counter64, ShapeError, derive_seed


def tiny_cfg(n_dfsmn=2, n_fc=1, n_back=1, n_ahead=1, s1=1, s2=1, skip=True,
             activation="tanh", precision="fp64", input_dim=3,
             streams=(StreamSpec("y", 2, "linear"), StreamSpec("v", 1, "sigmoid"))):
    layers = tuple(DfsmnLayerSpec(hidden=4, proj=2, n_back=n_back, n_ahead=n_ahead,
                                  stride_back=s1, stride_ahead=s2,
                                  skip=(skip and i > 0), activation=activation)
                   for i in range(n_dfsmn))
    layers += tuple(FcLayerSpec(hidden=4, activation=activation)
                    for _ in range(n_fc))
    return NetworkConfig(input_dim=input_dim, layers=layers,
                         output_streams=streams, precision=precision)


class TestPresets:
    def test_preset_e_structure(self):
        cfg = preset_config("E")
        dfsmn = [s for s in cfg.layers if isinstance(s, DfsmnLayerSpec)]
        fc = [s for s in cfg.layers if isinstance(s, FcLayerSpec)]
        assert len(dfsmn) == 6 and len(fc) == 2
        for s in dfsmn:
            assert (s.hidden, s.proj) == (2048, 512)
            assert (s.n_back, s.n_ahead, s.stride_back, s.stride_ahead) == (10, 10, 2, 2)
        assert [s.skip for s in dfsmn] == [False] + [True] * 5
        assert cfg.input_dim == 754
        assert [s.name for s in cfg.output_streams] == ["mcep", "lf0", "bap", "uv"]
        assert [s.dim for s in cfg.output_streams] == [60, 3, 11, 1]

    def test_preset_a_orders(self):
        cfg = preset_config("A")
        dfsmn = [s for s in cfg.layers if isinstance(s, DfsmnLayerSpec)]
        assert len(dfsmn) == 3
        assert all((s.n_back, s.n_ahead, s.stride_back, s.stride_ahead) == (1, 1, 1, 1)
                   for s in dfsmn)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("Z")

    def test_all_presets_build_valid_configs(self):
        for name in net.PRESETS:
            cfg = preset_config(name)
            assert count_params(cfg) > 0


def two_block_doc(second=None, stream=None):
    """A valid two-memory-block config document, with overrides on the second
    layer or on the output stream."""
    return {"input_dim": 3,
            "layers": [{"type": "dfsmn", "hidden": 4, "proj": 2},
                       {"type": "dfsmn", "hidden": 4, "proj": 2, "skip": True,
                        **(second or {})}],
            "output_streams": [{"name": "y", "dim": 1, **(stream or {})}]}


BAD_DOCS = [
    (two_block_doc(second={"skip": "no"}), r"layers\[1\]\.skip"),
    (two_block_doc(second={"hidden": True}), r"layers\[1\]\.hidden"),
    (two_block_doc(second={"hidden": 2.5}), r"layers\[1\]\.hidden"),
    (two_block_doc(second={"n_ahead": None}), r"layers\[1\]\.n_ahead"),
    (two_block_doc(second={"n_back": -1}), r"layers\[1\]: orders"),
    (two_block_doc(second={"stride_ahead": 0}), r"layers\[1\]: strides"),
    (two_block_doc(stream={"name": 7}), r"output_streams\[0\]\.name"),
    (two_block_doc(stream={"dim": "2"}), r"output_streams\[0\]\.dim"),
    ({"layers": "2+1", "order": "1,1,1,1", "hidden": 2.5}, r"layers\[0\]\.hidden"),
    ({"layers": "2+1", "order": 5}, r"'order' string"),
    ({"layers": "2+1", "order": "1,1,1,1", "precision": []}, r"^precision: "),
    (dict(two_block_doc(), precision="fp16"), r"^precision: "),
    ({"preset": "A", "precision": {}}, r"^precision: "),
    ({"preset": []}, r"unknown preset"),
]


def config_documents():
    """JSON objects built over the config keys, in the three document forms:
    each value is mostly one a config might hold and sometimes arbitrary
    JSON; a fourth form mixes every key, unknown ones included."""
    anything = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 10**12) | st.floats()
        | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6)

    def maybe(plausible):
        return st.sampled_from(range(8)).flatmap(lambda i: plausible if i else anything)

    def fields(required=None, **optional):
        return st.fixed_dictionaries(
            {k: maybe(v) for k, v in (required or {}).items()},
            optional={k: maybe(v) for k, v in optional.items()})

    dim = st.integers(1, 4)
    order = st.integers(0, 3)
    stride = st.integers(1, 3)
    activation = st.sampled_from(L.ACTIVATIONS + ("gelu",))
    precision = st.sampled_from(["fp32", "fp64", "fp16"])
    layer = st.one_of(
        fields({"type": st.just("dfsmn")}, hidden=dim, proj=dim, n_back=order,
               n_ahead=order, stride_back=stride, stride_ahead=stride,
               skip=st.booleans(), activation=activation),
        fields({"type": st.sampled_from(["fc", "lstm"])}, hidden=dim,
               activation=activation))
    streams = st.lists(fields({"name": st.sampled_from(["y", "uv", ""]), "dim": dim},
                              activation=activation), min_size=1, max_size=2)
    return st.one_of(
        fields({"preset": st.sampled_from(["A", "E", "I", "Z"])}, precision=precision),
        fields({"layers": st.from_regex(r"\A-?[0-3]\+-?[0-2]\Z"),
                "order": st.from_regex(r"\A([0-3],){2,4}-?[0-3]\Z")},
               input_dim=dim, hidden=dim, proj=dim, activation=activation,
               output_streams=streams, precision=precision),
        fields({"layers": st.lists(layer, min_size=1, max_size=3)}, input_dim=dim,
               output_streams=streams, precision=precision),
        fields(preset=st.just("A"), layers=st.just("1+1"), order=st.just("1,1,1,1"),
               input_dim=dim, hidden=dim, proj=dim, activation=activation,
               output_streams=streams, precision=precision, bogus=dim))


# where a ConfigError message says the fault is
LOCATED = (r"(config|input_dim|layers|order|output_streams|precision|unknown preset"
           r"|skip connections)\b")


class TestParseConfig:
    @pytest.mark.parametrize("doc,where", BAD_DOCS)
    def test_mistyped_or_out_of_range_field(self, doc, where):
        with pytest.raises(ConfigError, match=where):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("precision", ["fp16", None, 32, ["fp32"]])
    def test_direct_config_with_bad_precision(self, precision):
        with pytest.raises(ConfigError, match=r"^precision: "):
            tiny_cfg(precision=precision)

    @settings(max_examples=300, deadline=None)
    @given(doc=config_documents())
    def test_fuzzed_document_parses_or_raises_config_error(self, doc):
        try:
            cfg = parse_config(json.dumps(doc))
        except ConfigError as e:
            # a location or a named field, not a bare Python type error
            assert re.match(LOCATED, str(e)), str(e)
        else:
            assert count_params(cfg) > 0

    def test_preset_document(self):
        cfg = parse_config('{"preset": "A"}')
        assert cfg == preset_config("A")

    def test_shorthand_document(self):
        cfg = parse_config(json.dumps(
            {"layers": "2+1", "order": "3,1,2,1", "input_dim": 10,
             "hidden": 8, "proj": 4}))
        dfsmn = [s for s in cfg.layers if isinstance(s, DfsmnLayerSpec)]
        assert len(dfsmn) == 2 and len(cfg.layers) == 3
        assert dfsmn[0].n_back == 3 and dfsmn[0].stride_back == 2
        assert dfsmn[1].skip

    def test_explicit_layer_list(self):
        cfg = parse_config(json.dumps({
            "input_dim": 4,
            "layers": [
                {"type": "dfsmn", "hidden": 8, "proj": 4, "n_back": 2,
                 "n_ahead": 0, "stride_back": 1, "stride_ahead": 1,
                 "skip": False, "activation": "tanh"},
                {"type": "fc", "hidden": 8, "activation": "relu"},
            ],
            "output_streams": [{"name": "y", "dim": 2}],
            "precision": "fp64"}))
        assert cfg.precision == "fp64"
        assert isinstance(cfg.layers[0], DfsmnLayerSpec)

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ConfigError, match="layers"):
            parse_config('{"layers": []}')

    def test_unknown_key_with_location(self):
        with pytest.raises(ConfigError, match=r"layers\[0\].*bogus"):
            parse_config(json.dumps(
                {"layers": [{"type": "fc", "hidden": 4, "bogus": 1}]}))

    @pytest.mark.parametrize("layers", [
        "100000000+0", "1+100000000", f"{net.MAX_SHORTHAND_LAYERS}+1"])
    def test_shorthand_layer_count_bounded(self, layers, monkeypatch):
        def no_spec(*args, **kwargs):
            raise AssertionError("built a layer spec")

        monkeypatch.setattr(net, "DfsmnLayerSpec", no_spec)
        monkeypatch.setattr(net, "FcLayerSpec", no_spec)
        with pytest.raises(ConfigError, match=r"^layers: "):
            parse_config(json.dumps({"layers": layers, "order": "1,1,1,1"}))

    def test_shorthand_layer_count_at_bound(self):
        cfg = expand_shorthand(f"{net.MAX_SHORTHAND_LAYERS - 1}+1", "1,1,1,1")
        assert len(cfg.layers) == net.MAX_SHORTHAND_LAYERS

    def test_malformed_order_tuple(self):
        with pytest.raises(ConfigError, match="order"):
            parse_config('{"layers": "2+1", "order": "1,2,3"}')

    def test_inconsistent_proj_with_skip(self):
        doc = {"input_dim": 4, "layers": [
            {"type": "dfsmn", "hidden": 4, "proj": 2},
            {"type": "dfsmn", "hidden": 4, "proj": 3, "skip": True}],
            "output_streams": [{"name": "y", "dim": 1}]}
        with pytest.raises(ConfigError, match="projection width"):
            parse_config(json.dumps(doc))

    def test_skip_needs_preceding_memory_layer(self):
        doc = {"input_dim": 4, "layers": [
            {"type": "fc", "hidden": 4},
            {"type": "dfsmn", "hidden": 4, "proj": 2, "skip": True}],
            "output_streams": [{"name": "y", "dim": 1}]}
        with pytest.raises(ConfigError, match="skip"):
            parse_config(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_config("not json at all")

    def test_roundtrip_through_canonical_json(self):
        cfg = tiny_cfg()
        assert parse_config(config_to_json(cfg)) == cfg


# pinned: count_params reads the same layout table that zeros_network allocates
PRESET_PARAM_COUNTS = {
    "A": 14_187_595, "B": 14_190_667, "C": 14_199_883, "D": 14_215_243,
    "E": 20_546_635, "F": 28_988_491, "G": 29_090_891, "H": 29_295_691,
    "I": 29_705_291,
}


class TestBuild:
    def test_same_seed_bit_identical(self):
        cfg = tiny_cfg()
        a = build_network(cfg, 5)
        b = build_network(cfg, 5)
        for (_, _, ta), (_, _, tb) in zip(iter_tensors(cfg, a), iter_tensors(cfg, b)):
            assert np.array_equal(ta, tb)

    def test_different_seed_differs(self):
        cfg = tiny_cfg()
        a = build_network(cfg, 5)
        b = build_network(cfg, 6)
        assert not np.array_equal(a.layers[0].proj_weight, b.layers[0].proj_weight)

    def test_memory_taps_zero_at_init(self):
        cfg = tiny_cfg()
        params = build_network(cfg, 1)
        for spec, p in zip(cfg.layers, params.layers):
            if isinstance(spec, DfsmnLayerSpec):
                assert not p.back_taps.any()
                assert not p.ahead_taps.any()

    @pytest.mark.parametrize("preset", sorted(PRESET_PARAM_COUNTS))
    def test_preset_parameter_count(self, preset):
        assert count_params(preset_config(preset)) == PRESET_PARAM_COUNTS[preset]

    def test_fc_layer_closed_form(self):
        # contribution of one 2-in 3-out affine layer is 2*3 + 3 = 9 scalars
        base = NetworkConfig(input_dim=2, layers=(FcLayerSpec(hidden=3),),
                             output_streams=(StreamSpec("y", 1),))
        head_part = 3 * 1 + 1
        assert count_params(base) - head_part == 9

    def test_count_matches_allocated_scalars(self):
        for cfg in (tiny_cfg(), tiny_cfg(n_dfsmn=1, n_fc=0, n_ahead=0),
                    expand_shorthand("2+2", "3,0,2,1", input_dim=5, hidden=6, proj=3)):
            params = zeros_network(cfg)
            allocated = sum(arr.size for _, _, arr in iter_tensors(cfg, params))
            assert allocated == count_params(cfg)

    @pytest.mark.parametrize("precision,digest", [
        ("fp32", "985ed3ef6a2a3305dd62955ec005fe0e311bfd6a852565c6d9c48532782a3b59"),
        ("fp64", "c50d65ebe24581d6caa8e665fe55a8292cfad35320cc6bb5a1c1aa8524e498b8"),
    ])
    def test_init_bytes_pinned(self, tmp_path, precision, digest):
        # Any change to the tensor order, the seed derivation or the generator
        # changes these bytes, and with them every trained model.
        cfg = tiny_cfg(precision=precision)
        path = tmp_path / "m.dfsmn"
        save_model(build_network(cfg, 7), cfg, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_weights_drawn_in_place(self):
        # the largest weight (1536 x 1536, 9.4 MB) spans 18 draw chunks; a
        # weight-sized temporary would pass the 6 MB slack
        cfg = expand_shorthand("1+1", "1,1,1,1", input_dim=16, hidden=1536, proj=16)
        assert 1536 * 1536 > 16 * NORMAL_CHUNK and 1536 * 1536 * 4 > 6 << 20
        tracemalloc.start()
        try:
            params = build_network(cfg, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= count_params(cfg) * 4 + (6 << 20)
        assert params.layers[1].weight.any()

    def test_precision_respected(self):
        p32 = build_network(tiny_cfg(precision="fp32"), 0)
        p64 = build_network(tiny_cfg(precision="fp64"), 0)
        assert p32.layers[0].proj_weight.dtype == np.float32
        assert p64.layers[0].proj_weight.dtype == np.float64


class TestForward:
    def test_zero_input_zero_heads_gives_head_biases(self):
        cfg = tiny_cfg(activation="relu")
        params = build_network(cfg, 3)
        for name, hp in params.heads.items():
            hp.weight[...] = 0.0
        params.heads["y"].bias[...] = [0.25, -1.5]
        params.heads["v"].bias[...] = [0.3]
        outs, _ = net.forward(params, cfg, np.zeros((1, 3)))
        assert np.allclose(outs["y"], [[0.25, -1.5]], atol=0)
        assert np.allclose(outs["v"], 1.0 / (1.0 + np.exp(-0.3)), atol=1e-12)

    def test_stream_shapes(self):
        cfg = tiny_cfg()
        params = build_network(cfg, 2)
        outs, _ = net.forward(params, cfg, Counter64(0).normal(15).reshape(5, 3))
        assert outs["y"].shape == (5, 2)
        assert outs["v"].shape == (5, 1)

    def test_input_dim_mismatch(self):
        cfg = tiny_cfg()
        params = build_network(cfg, 2)
        with pytest.raises(ShapeError):
            net.forward(params, cfg, np.zeros((4, 7)))

    def test_matches_layerwise_composition(self):
        # preset-A-shaped analog at small dims, evaluated two ways
        cfg = expand_shorthand("3+2", "1,1,1,1", input_dim=8, hidden=8, proj=4,
                               output_streams=(StreamSpec("y", 3),),
                               precision="fp64")
        params = build_network(cfg, 9)
        for spec, p in zip(cfg.layers, params.layers):
            if isinstance(spec, DfsmnLayerSpec):
                p.back_taps[...] = 0.1
                p.ahead_taps[...] = -0.2
        x = Counter64(1).normal(48).reshape(6, 8)
        outs, _ = net.forward(params, cfg, x)

        h = x
        prev = None
        for spec, p in zip(cfg.layers, params.layers):
            if isinstance(spec, DfsmnLayerSpec):
                skip = prev if spec.skip else None
                h, _, prev = L.dfsmn_layer_forward(h, p, spec, skip)
            else:
                h, _ = L.fc_layer_forward(h, p.weight, p.bias, spec.activation)
                prev = None
        want = h @ params.heads["y"].weight + params.heads["y"].bias
        assert np.max(np.abs(outs["y"] - want)) < 1e-12

    def test_concurrent_forward_over_shared_params(self):
        from concurrent.futures import ThreadPoolExecutor
        cfg = tiny_cfg(n_dfsmn=2, n_fc=1)
        params = build_network(cfg, 6)
        x = Counter64(3).normal(30).reshape(10, 3)
        want, _ = net.forward(params, cfg, x)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: net.forward(params, cfg, x)[0],
                                    range(16)))
        for outs in results:
            for name in want:
                assert np.array_equal(outs[name], want[name])

    def test_unidirectional_causality(self):
        cfg = tiny_cfg(n_ahead=0, activation="relu", precision="fp32")
        params = build_network(cfg, 4)
        for p in params.layers[:2]:
            p.back_taps[...] = 0.3
        x = Counter64(2).normal(24).reshape(8, 3).astype(np.float32)
        outs1, _ = net.forward(params, cfg, x)
        x2 = x.copy()
        x2[5:] += 10.0
        outs2, _ = net.forward(params, cfg, x2)
        for name in outs1:
            assert np.array_equal(outs1[name][:5], outs2[name][:5])


class TestBackward:
    def _setup(self, seed=0):
        cfg = tiny_cfg(n_dfsmn=3, n_fc=1, n_back=2, n_ahead=1, s1=2, s2=1)
        params = build_network(cfg, seed)
        rng = Counter64(derive_seed(seed, 77))
        for spec, p in zip(cfg.layers, params.layers):
            if isinstance(spec, DfsmnLayerSpec):
                p.back_taps[...] = 0.3 * rng.normal(p.back_taps.size).reshape(
                    p.back_taps.shape)
                p.ahead_taps[...] = 0.3 * rng.normal(p.ahead_taps.size).reshape(
                    p.ahead_taps.shape)
        x = rng.normal(18).reshape(6, 3)
        return cfg, params, x

    def test_zero_stream_grads_give_zero_param_grads(self):
        cfg, params, x = self._setup()
        _, cache = net.forward(params, cfg, x)
        grads, _ = net.backward(cache, {"y": np.zeros((6, 2)), "v": np.zeros((6, 1))})
        for _, _, arr in iter_tensors(cfg, grads):
            assert not arr.any()

    def test_missing_stream_grad_rejected(self):
        cfg, params, x = self._setup()
        _, cache = net.forward(params, cfg, x)
        with pytest.raises(KeyError, match="v"):
            net.backward(cache, {"y": np.zeros((6, 2))})

    def test_multistream_equals_sum_of_single_streams(self):
        cfg, params, x = self._setup(3)
        _, cache = net.forward(params, cfg, x)
        rng = Counter64(8)
        gy = rng.normal(12).reshape(6, 2)
        gv = rng.normal(6).reshape(6, 1)
        both, _ = net.backward(cache, {"y": gy, "v": gv})
        only_y, _ = net.backward(cache, {"y": gy, "v": np.zeros_like(gv)})
        only_v, _ = net.backward(cache, {"y": np.zeros_like(gy), "v": gv})
        for (_, _, b), (_, _, a1), (_, _, a2) in zip(
                iter_tensors(cfg, both), iter_tensors(cfg, only_y),
                iter_tensors(cfg, only_v)):
            denom = np.maximum(np.abs(b), 1e-12)
            assert np.max(np.abs(b - (a1 + a2)) / denom) < 1e-10

    def test_full_network_finite_difference(self):
        # three skip-connected bidirectional layers, every tensor probed
        cfg, params, x = self._setup(5)
        targets = {"y": Counter64(9).normal(12).reshape(6, 2),
                   "v": Counter64(10).normal(6).reshape(6, 1)}

        from dfsmn.trainer import _mse_grad, multitask_mse

        def loss():
            outs, _ = net.forward(params, cfg, x)
            return multitask_mse(outs, targets)

        outs, cache = net.forward(params, cfg, x)
        gstreams = _mse_grad(outs, targets)
        grads, _ = net.backward(cache, gstreams)
        step = 1e-5
        worst = 0.0
        for (_, _, p_arr), (_, _, g_arr) in zip(iter_tensors(cfg, params),
                                                iter_tensors(cfg, grads)):
            for i in range(p_arr.size):
                old = p_arr.flat[i]
                p_arr.flat[i] = old + step
                lp = loss()
                p_arr.flat[i] = old - step
                lm = loss()
                p_arr.flat[i] = old
                numeric = (lp - lm) / (2 * step)
                worst = max(worst, abs(g_arr.flat[i] - numeric)
                            / max(abs(g_arr.flat[i]), abs(numeric), 1e-12))
        assert worst < 1e-4

    @pytest.mark.parametrize("fc_first", [True, False])
    def test_returns_input_gradient(self, fc_first):
        from dfsmn.trainer import _mse_grad, multitask_mse

        fc = FcLayerSpec(hidden=4, activation="tanh")
        mb = DfsmnLayerSpec(hidden=4, proj=2, n_back=2, n_ahead=1, activation="tanh")
        cfg = NetworkConfig(input_dim=3, layers=(fc, mb) if fc_first else (mb, fc),
                            output_streams=(StreamSpec("y", 2),), precision="fp64")
        params = build_network(cfg, 6)
        rng = Counter64(7)
        for _, _, arr in iter_tensors(cfg, params):
            arr[...] = 0.5 * rng.normal(arr.size).reshape(arr.shape)
        x = rng.normal(18).reshape(6, 3)
        targets = {"y": rng.normal(12).reshape(6, 2)}
        outs, cache = net.forward(params, cfg, x)
        _, grad_x = net.backward(cache, _mse_grad(outs, targets))
        assert grad_x.shape == x.shape
        step = 1e-6
        for i in range(x.size):
            old = x.flat[i]
            x.flat[i] = old + step
            lp = multitask_mse(net.forward(params, cfg, x)[0], targets)
            x.flat[i] = old - step
            lm = multitask_mse(net.forward(params, cfg, x)[0], targets)
            x.flat[i] = old
            numeric = (lp - lm) / (2 * step)
            assert abs(grad_x.flat[i] - numeric) <= 1e-6 * max(abs(numeric), 1e-3)


ACTS = L.ACTIVATIONS


def epilogue_net(precision):
    """Every activation in a memory-block layer, an fc layer and a head, with
    memory blocks on both the walk (3 and 3 taps) and GEMM (21 and 17 taps)
    paths; every tensor, taps and biases included, drawn nonzero."""
    mb = dict(hidden=6, proj=4)
    layers = (
        DfsmnLayerSpec(**mb, n_back=1, n_ahead=1, activation="relu"),
        DfsmnLayerSpec(**mb, n_back=10, n_ahead=10, stride_back=2, stride_ahead=2,
                       skip=True, activation="tanh"),
        DfsmnLayerSpec(**mb, n_back=2, skip=True, activation="sigmoid"),
        DfsmnLayerSpec(**mb, n_back=8, n_ahead=8, skip=True, activation="linear"),
    ) + tuple(FcLayerSpec(5, a) for a in ACTS)
    cfg = NetworkConfig(input_dim=3, layers=layers,
                        output_streams=tuple(StreamSpec(a, 2, a) for a in ACTS),
                        precision=precision)
    params = build_network(cfg, 21)
    rng = Counter64(22)
    for _, _, arr in iter_tensors(cfg, params):
        arr[...] = 0.5 * rng.normal(arr.size).reshape(arr.shape)
    return cfg, params, rng


class TestEpilogue:
    """Affine epilogues add the bias and apply the activation in place, and
    backward reads each derivative from the cached output."""

    @pytest.mark.parametrize("precision,bounds,digest", [
        ("fp32", None, "2ff53938fc1dae0fb5f963926f48a95bae55f26735fdb764b45916863164261b"),
        ("fp32", [(0, 13), (13, 31), (31, 40)],
         "c71295e3df92528fa369d1a62d4088e8aae9f66a53134f7d15a61bfd0edf8f58"),
        ("fp64", None, "47ce5bf094397f82f479999030bfb5463862ede6f1b88baf1a7ab52281ee88a0"),
        ("fp64", [(0, 13), (13, 31), (31, 40)],
         "0b9371641d3c50c6d913ddddba15a3b83026cb0646cdc6c8132358c8464bc5a1"),
    ])
    def test_outputs_and_gradients_pinned(self, precision, bounds, digest):
        # recorded while every epilogue still allocated h @ W, + b and the
        # activation separately and backward read cached pre-activations;
        # a BLAS build that rounds its products differently changes them too
        cfg, params, rng = epilogue_net(precision)
        x = rng.normal(120).reshape(40, 3)
        outs, cache = net.forward(params, cfg, x, bounds=bounds)
        grads, grad_x = net.backward(
            cache, {a: rng.normal(80).reshape(40, 2).astype(cfg.dtype()) for a in ACTS})
        h = hashlib.sha256()
        for a in ACTS:
            h.update(outs[a].tobytes())
        for _, _, arr in iter_tensors(cfg, grads):
            h.update(arr.tobytes())
        h.update(grad_x.tobytes())
        assert h.hexdigest() == digest

    def test_caches_hold_no_preactivation(self):
        cfg, params, rng = epilogue_net("fp32")
        outs, cache = net.forward(params, cfg, rng.normal(30).reshape(10, 3))
        assert [f.name for f in fields(cache)] == [
            "cfg", "layer_caches", "head_out", "params"]
        assert all(cache.head_out[a] is outs[a] for a in ACTS)
        for spec, lc in zip(cfg.layers, cache.layer_caches):
            arrays = {f.name for f in fields(lc)
                      if isinstance(getattr(lc, f.name), np.ndarray)}
            assert arrays == ({"h_seq", "p_seq", "ptilde_seq", "out_seq"}
                              if isinstance(spec, DfsmnLayerSpec)
                              else {"h_seq", "out_seq", "weight"})


def infer_net(precision, orders):
    """Three memory-block layers with skip connections and two fc layers;
    every tensor drawn nonzero. orders (3, 2) walks the taps, (10, 8) runs
    them as GEMMs."""
    cfg = expand_shorthand("3+2", f"{orders[0]},{orders[1]},1,2", input_dim=5, hidden=6,
                           proj=4, activation="tanh", precision=precision,
                           output_streams=(StreamSpec("y", 2), StreamSpec("v", 1, "sigmoid")))
    params = build_network(cfg, 31)
    rng = Counter64(32)
    for _, _, arr in iter_tensors(cfg, params):
        arr[...] = 0.3 * rng.normal(arr.size).reshape(arr.shape)
    return cfg, params, rng


class TestInfer:
    """network.infer: forward's outputs without a backward cache."""

    @pytest.mark.parametrize("bounds", [None, [(0, 9), (9, 10), (10, 31), (31, 40)]],
                             ids=["whole", "packed"])
    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    @pytest.mark.parametrize("orders", [(3, 2), (10, 8), None], ids=["walk", "gemm", "mixed"])
    def test_equals_forward_bytes(self, orders, precision, bounds):
        if orders is None:
            cfg, params, rng = epilogue_net(precision)
        else:
            cfg, params, rng = infer_net(precision, orders)
            gemm = len(L._tap_offsets(cfg.layers[0])) >= L.GEMM_MIN_TAPS
            assert gemm == (orders == (10, 8))
        assert any(getattr(spec, "skip", False) for spec in cfg.layers)
        x = rng.normal(40 * cfg.input_dim).reshape(40, cfg.input_dim)
        want, _ = net.forward(params, cfg, x, bounds=bounds)
        got = net.infer(params, cfg, x, bounds=bounds)
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == cfg.dtype()
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("gemm", [False, True], ids=["walk", "gemm"])
    @pytest.mark.parametrize("check", [
        test_acceptance.TestCriterion2ReceptiveField().test_empirical_horizon_matches_analytic,
        test_acceptance.TestCriterion9Causality().test_fifty_random_unidirectional_configs,
    ], ids=["criterion2-horizon", "criterion9-causality"])
    def test_acceptance_checks(self, check, gemm, monkeypatch):
        # the checks call net.forward; run them on infer's outputs instead
        monkeypatch.setattr(net, "forward", lambda *args, **kwargs: (
            net.infer(*args, **kwargs), None))
        if gemm:
            monkeypatch.setattr(L, "GEMM_MIN_TAPS", 0)
        check()

    def test_peak_at_most_half_of_forward(self):
        cfg = expand_shorthand("8+2", "2,2,1,1", input_dim=32, hidden=256, proj=64)
        assert len(cfg.layers) == 10
        params = build_network(cfg, 5)
        x = Counter64(6).normal(400 * 32).reshape(400, 32).astype(np.float32)
        peaks = {}
        for name, run in (("forward", lambda: net.forward(params, cfg, x)[0]),
                          ("infer", lambda: net.infer(params, cfg, x))):
            tracemalloc.start()
            try:
                outs = run()
                _, peaks[name] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert outs["mcep"].shape == (400, 60)
        assert peaks["infer"] <= peaks["forward"] / 2, peaks


class TestDataset:
    def test_directory_listed_once(self, tmp_path, monkeypatch):
        rng = Counter64(4)
        data = [SequenceData(seq_id, rng.normal(3 * n).reshape(n, 3).astype(np.float32),
                             {"y": rng.normal(n).reshape(n, 1).astype(np.float32)})
                for seq_id, n in [("s0", 4), ("s1.x", 2), ("s2", 5), ("s3", 3)]]
        write_dataset(tmp_path, data)
        listed = []
        real = os.listdir
        monkeypatch.setattr(features.os, "listdir", lambda d: listed.append(d) or real(d))
        got = load_dataset(tmp_path)
        assert listed == [tmp_path]
        assert [s.seq_id for s in got] == [s.seq_id for s in data]
        for g, w in zip(got, data):
            assert np.array_equal(g.inputs, w.inputs)
            assert list(g.targets) == ["y"]
            assert np.array_equal(g.targets["y"], w.targets["y"])

    def test_ids_that_prefix_each_other_round_trip(self, tmp_path):
        rng = Counter64(5)
        data = [SequenceData(seq_id, rng.normal(2 * n).reshape(n, 2).astype(np.float32),
                             {"y": rng.normal(n).reshape(n, 1).astype(np.float32)})
                for seq_id, n in [("a", 3), ("a.b", 4)]]
        write_dataset(tmp_path, data)
        # a stray file whose stream part is empty is not read
        write_feature(tmp_path / "a.feat", "stray", np.zeros((1, 1), np.float32))
        got = load_dataset(tmp_path)
        assert [s.seq_id for s in got] == ["a", "a.b"]
        for g, w in zip(got, data):
            assert np.array_equal(g.inputs, w.inputs)
            assert list(g.targets) == ["y"]
            assert np.array_equal(g.targets["y"], w.targets["y"])

    def test_repeated_id_rejected(self, tmp_path):
        rng = Counter64(6)
        data = [SequenceData(seq_id, rng.normal(2 * n).reshape(n, 2).astype(np.float32))
                for seq_id, n in [("a", 3), ("b", 4)]]
        write_dataset(tmp_path, data)
        manifest = tmp_path / features.MANIFEST_NAME
        manifest.write_text(manifest.read_text() + "a\t3\n")
        with pytest.raises(ValueError, match=r"manifest.txt:3: id 'a' repeats line 1"):
            read_manifest(tmp_path)

    def test_empty_manifest_rejected(self, tmp_path):
        write_dataset(tmp_path, [])
        with pytest.raises(ValueError, match="manifest lists no sequences"):
            load_dataset(tmp_path)

    def _two_streams(self, tmp_path):
        """A one-sequence dataset "s0" of 4 frames with streams input and y."""
        rng = Counter64(7)
        write_dataset(tmp_path, [SequenceData("s0", rng.normal(8).reshape(4, 2)
                                              .astype(np.float32),
                                              {"y": np.zeros((4, 1), np.float32)})])

    @pytest.mark.parametrize("stream", ["input", "y"])
    def test_header_stream_mismatch_rejected(self, tmp_path, stream):
        self._two_streams(tmp_path)
        path = tmp_path / f"s0.{stream}.feat"
        write_feature(path, "other", read_feature(path)[1])
        with pytest.raises(ModelFileError, match=rf"s0\.{stream}\.feat: header stream "
                                                 rf"'other' != filename stream '{stream}'"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("stream", ["input", "y"])
    def test_frame_count_mismatch_rejected(self, tmp_path, stream):
        self._two_streams(tmp_path)
        path = tmp_path / f"s0.{stream}.feat"
        write_feature(path, stream, read_feature(path)[1][:3])
        with pytest.raises(ValueError, match=rf"s0\.{stream}: 3 frames, manifest says 4"):
            load_dataset(tmp_path)


def small_file(tmp_path, kind):
    """A small valid model or feature file, and the loader that reads it."""
    if kind == "model":
        cfg = tiny_cfg(precision="fp32")
        path = tmp_path / "m.dfsmn"
        save_model(build_network(cfg, 0), cfg, path)
        return path, load_model
    path = tmp_path / "f.feat"
    write_feature(path, "mcep", Counter64(1).normal(6).reshape(3, 2))
    return path, read_feature


class TestModelFile:
    def test_roundtrip_byte_identical(self, tmp_path):
        cfg = tiny_cfg(precision="fp32")
        params = build_network(cfg, 11)
        p1 = tmp_path / "m1.dfsmn"
        p2 = tmp_path / "m2.dfsmn"
        save_model(params, cfg, p1)
        loaded, cfg2 = load_model(p1)
        save_model(loaded, cfg2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for (_, _, a), (_, _, b) in zip(iter_tensors(cfg, params),
                                        iter_tensors(cfg2, loaded)):
            assert np.array_equal(a, b)

    def test_fp64_roundtrip(self, tmp_path):
        cfg = tiny_cfg(precision="fp64")
        params = build_network(cfg, 12)
        path = tmp_path / "m.dfsmn"
        save_model(params, cfg, path)
        loaded, _ = load_model(path)
        assert loaded.layers[0].proj_weight.dtype == np.float64
        assert np.array_equal(loaded.layers[0].proj_weight,
                              params.layers[0].proj_weight)

    @pytest.mark.parametrize("kind", ["model", "feature"])
    def test_bad_magic(self, tmp_path, kind):
        path, load = small_file(tmp_path, kind)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError, match="bad magic b'NOPE'"):
            load(path)

    @pytest.mark.parametrize("kind", ["model", "feature"])
    def test_version_mismatch(self, tmp_path, kind):
        path, load = small_file(tmp_path, kind)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError, match="file version 99"):
            load(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.dfsmn"
        cfg = tiny_cfg()
        save_model(build_network(cfg, 0), cfg, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 7])
        with pytest.raises(TruncatedFileError):
            load_model(path)

    @pytest.mark.parametrize("kind", ["model", "feature"])
    def test_trailing_garbage(self, tmp_path, kind):
        path, load = small_file(tmp_path, kind)
        raw = path.read_bytes()
        path.write_bytes(raw + b"xx")
        with pytest.raises(ModelFileError, match=f"2 trailing bytes at offset {len(raw)}"):
            load(path)

    def test_flipped_ndim_names_the_tensor(self, tmp_path):
        path = tmp_path / "m.dfsmn"
        cfg = tiny_cfg()
        save_model(build_network(cfg, 0), cfg, path)
        raw = bytearray(path.read_bytes())
        first_ndim = 12 + struct.unpack_from("<I", raw, 8)[0]
        raw[first_ndim + 3] ^= 0x80
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match=r"layer0\.proj_weight: stored ndim"):
            load_model(path)

    def test_huge_claimed_config_fails_before_allocating(self, tmp_path):
        cfg = expand_shorthand("1+0", "0,0,1,1", input_dim=100_000, hidden=100_000,
                               proj=10_000, output_streams=(StreamSpec("y", 1),))
        assert count_params(cfg) > 10**9
        cfg_bytes = config_to_json(cfg).encode("utf-8")
        path = tmp_path / "huge.dfsmn"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(cfg_bytes)) + cfg_bytes)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError, match="payload"):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_load_runs_no_seeded_init(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        params = build_network(cfg, 4)
        path = tmp_path / "m.dfsmn"
        save_model(params, cfg, path)

        def no_init(*args, **kwargs):
            raise AssertionError("load_model ran the seeded init")

        monkeypatch.setattr(net, "seeded_normal", no_init)
        loaded, _ = load_model(path)
        for (_, _, a), (_, _, b) in zip(iter_tensors(cfg, params),
                                        iter_tensors(cfg, loaded)):
            assert np.array_equal(a, b)

    def _traced_peak(self, fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak

    def test_save_and_load_hold_no_second_copy(self, tmp_path):
        cfg = expand_shorthand("2+1", "2,2,1,1", input_dim=64, hidden=1024, proj=128)
        params = build_network(cfg, 3)
        param_bytes = count_params(cfg) * 4
        assert param_bytes > 4 << 20
        path = tmp_path / "m.dfsmn"
        _, save_peak = self._traced_peak(save_model, params, cfg, path)
        assert save_peak < 1 << 20
        (loaded, _), load_peak = self._traced_peak(load_model, path)
        assert load_peak <= param_bytes + (1 << 20)
        for (_, _, a), (_, _, b) in zip(iter_tensors(cfg, params),
                                        iter_tensors(cfg, loaded)):
            assert np.array_equal(a, b)

    @pytest.mark.slow
    def test_preset_a_model_reports_full_count(self, tmp_path):
        cfg = preset_config("A")
        params = build_network(cfg, 0)
        path = tmp_path / "a.dfsmn"
        save_model(params, cfg, path)
        loaded, cfg2 = load_model(path)
        assert count_params(cfg2) == 14_187_595
        assert sum(arr.size for _, _, arr in iter_tensors(cfg2, loaded)) == 14_187_595


LOADER_ERRORS = (ModelFileError, ShapeError, ConfigError)


@st.composite
def mutated(draw, raw: bytes) -> bytes:
    """raw cut short, or with one to three bits flipped."""
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    for bit in draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3)):
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class TestMalformedFiles:
    """Damaged model and feature files load or raise one of LOADER_ERRORS."""

    @pytest.mark.parametrize("kind,offset,what", [("model", 12, "embedded config"),
                                                  ("feature", 20, "stream name")])
    def test_undecodable_text(self, tmp_path, kind, offset, what):
        path, load = small_file(tmp_path, kind)
        raw = bytearray(path.read_bytes())
        raw[offset] = 0xFF  # first byte of the length-prefixed text
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match=what):
            load(path)

    def _streamed_model(self, tmp_path):
        """A model file of about 0.55 MB: a loader that also held the file's
        bytes would pass 1 MB."""
        cfg = expand_shorthand("2+1", "2,2,1,1", input_dim=40, hidden=256, proj=64)
        assert 1 << 19 < count_params(cfg) * 4 < 5 << 17
        path = tmp_path / "m.dfsmn"
        save_model(build_network(cfg, 0), cfg, path)
        return path, path.read_bytes()

    @pytest.mark.parametrize("case,error,match", [
        ("config length", TruncatedFileError, "needed 4294967295 bytes at offset 12"),
        ("tensor dims", ModelFileError, r"layer0\.proj_weight: stored shape"),
        ("cut mid-tensor", TruncatedFileError, "needed 1024 bytes"),
        ("trailing bytes", ModelFileError, "3 trailing bytes"),
    ])
    def test_streamed_loader_rejects_within_1mb(self, tmp_path, case, error, match):
        path, raw = self._streamed_model(tmp_path)
        first_dims = 12 + struct.unpack_from("<I", raw, 8)[0] + 4
        forged = {"config length": lambda: raw[:8] + b"\xff" * 4 + raw[12:],
                  "tensor dims": lambda: (raw[:first_dims] + struct.pack("<I", 0xFFFFFFFF)
                                          + raw[first_dims + 4:]),
                  # inside the payload of head.uv.weight (256 x 1), the last
                  # tensor but one: past the up-front payload size check
                  "cut mid-tensor": lambda: raw[:-100],
                  "trailing bytes": lambda: raw + b"xyz"}[case]()
        path.write_bytes(forged)
        tracemalloc.start()
        try:
            with pytest.raises(error, match=match):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_forged_feature_frames_rejected_within_1mb(self, tmp_path):
        # a 2 MB payload whose header claims one frame more: a reader that
        # held the file's bytes would pass 1 MB
        path = tmp_path / "f.feat"
        write_feature(path, "mcep", np.zeros((1024, 512), np.float32))
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, 1025)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError,
                               match=f"needed {1025 * 512 * 4} bytes at offset 24"):
                read_feature(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_short_read_raises_truncated(self, tmp_path, monkeypatch):
        # a file that shrinks after its size was taken: readinto comes back short
        path, raw = self._streamed_model(tmp_path)
        path.write_bytes(raw[:-100])
        real_fstat = os.fstat
        monkeypatch.setattr(model_io.os, "fstat",
                            lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 100))
        with pytest.raises(TruncatedFileError, match="needed 1024 bytes at .*, read 936"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["model", "feature"])
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_file_loads_or_raises_typed_error(self, tmp_path, kind, data):
        path, load = small_file(tmp_path, kind)
        path.write_bytes(data.draw(mutated(path.read_bytes())))
        try:
            load(path)
        except LOADER_ERRORS:
            pass
