import json

import numpy as np
import pytest

from dfsmn import network as net
from dfsmn.analysis import (PUBLISHED_REFERENCE, analyze,
                            dfsmn_layer_flops, fc_layer_flops, flops_per_frame,
                            receptive_field, size_mb, table_report)
from dfsmn.network import (DfsmnLayerSpec, FcLayerSpec, NetworkConfig, StreamSpec,
                           build_network, count_params, expand_shorthand,
                           preset_config)
from dfsmn.tensor import Counter64, derive_seed

ALL_PRESETS = "ABCDEFGHI"


def small_net(seed, depth=2, n_back=2, n_ahead=1, s1=2, s2=1):
    layers = tuple(DfsmnLayerSpec(hidden=3, proj=2, n_back=n_back, n_ahead=n_ahead,
                                  stride_back=s1, stride_ahead=s2, skip=(i > 0),
                                  activation="tanh") for i in range(depth))
    cfg = NetworkConfig(input_dim=2, layers=layers,
                        output_streams=(StreamSpec("y", 1),), precision="fp64")
    params = build_network(cfg, seed)
    rng = Counter64(derive_seed(seed, 1))
    for p in params.layers:
        p.back_taps[...] = 0.4 + 0.2 * rng.normal(p.back_taps.size).reshape(
            p.back_taps.shape)
        if p.ahead_taps.size:
            p.ahead_taps[...] = 0.4 + 0.2 * rng.normal(p.ahead_taps.size).reshape(
                p.ahead_taps.shape)
    return cfg, params


class TestReceptiveField:
    def test_preset_e_is_120_each_side(self):
        cfg = preset_config("E")
        assert receptive_field(cfg) == (120, 120)
        rep = analyze(cfg)
        assert rep.look_back_ms == 600
        assert rep.look_ahead_ms == 600

    def test_zero_orders(self):
        cfg = expand_shorthand("2+1", "0,0,1,1", input_dim=4, hidden=4, proj=2)
        assert receptive_field(cfg) == (0, 0)

    def test_three_layers_order2_stride2(self):
        cfg = expand_shorthand("3+0", "2,0,2,1", input_dim=4, hidden=4, proj=2)
        assert receptive_field(cfg) == (12, 0)

    def test_formula_on_all_presets(self):
        for name in ALL_PRESETS:
            cfg = preset_config(name)
            want_back = sum(s.n_back * s.stride_back for s in cfg.layers
                            if isinstance(s, DfsmnLayerSpec))
            want_ahead = sum(s.n_ahead * s.stride_ahead for s in cfg.layers
                             if isinstance(s, DfsmnLayerSpec))
            assert receptive_field(cfg) == (want_back, want_ahead)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_empirical_perturbation_horizon(self, seed):
        cfg, params = small_net(seed)
        back, ahead = receptive_field(cfg)
        T = back + ahead + 4
        t = back + 1
        rng = Counter64(derive_seed(seed, 2))
        x = rng.normal(T * 2).reshape(T, 2)
        base, _ = net.forward(params, cfg, x)

        # one frame past the horizon: provably no compute path, bit-identical
        x_far = x.copy()
        x_far[t - back - 1] += 1.0
        outs, _ = net.forward(params, cfg, x_far)
        assert np.array_equal(outs["y"][t], base["y"][t])

        # exactly at the horizon: generic taps make the output move
        x_edge = x.copy()
        x_edge[t - back] += 1.0
        outs, _ = net.forward(params, cfg, x_edge)
        assert not np.array_equal(outs["y"][t], base["y"][t])


class TestFlops:
    def test_single_fc_hand_count(self):
        # 2 -> 3 affine with linear activation under the MAC=2 convention:
        # 2*2*3 matmul + 3 bias + 3 activation = 18
        assert fc_layer_flops(2, 3) == 2 * 2 * 3 + 3 + 3

    def test_network_total_includes_heads(self):
        cfg = NetworkConfig(input_dim=2, layers=(FcLayerSpec(hidden=3),),
                            output_streams=(StreamSpec("y", 1),))
        assert flops_per_frame(cfg) == fc_layer_flops(2, 3) + fc_layer_flops(3, 1)

    def test_memory_block_term(self):
        spec = DfsmnLayerSpec(hidden=4, proj=2, n_back=3, n_ahead=2)
        base = DfsmnLayerSpec(hidden=4, proj=2, n_back=0, n_ahead=0)
        assert (dfsmn_layer_flops(5, spec) - dfsmn_layer_flops(5, base)
                == 2 * 5 * 2)  # five extra taps, 2 flops per proj scalar

    def test_preset_a_magnitude(self):
        rep = analyze(preset_config("A"))
        assert 5.5 < rep.gflops_per_second < 5.9  # ~5.7 under the MAC=2 convention

    def test_within_factor_two_of_published(self):
        for name in ALL_PRESETS:
            rep = analyze(preset_config(name))
            ratio = rep.gflops_per_second / rep.ref_gflops
            assert 0.5 < ratio < 2.0

    def test_strict_ordering_and_a_to_d_within_1pct(self):
        values = [flops_per_frame(preset_config(n)) for n in ALL_PRESETS]
        assert values == sorted(values)
        assert all(a < b for a, b in zip(values, values[1:]))
        a, d = values[0], values[3]
        assert (d - a) / a < 0.01

    def test_monotone_in_every_knob(self):
        base = dict(hidden=8, proj=4, n_back=2, n_ahead=2, stride_back=1,
                    stride_ahead=1)

        def cfg_of(n_layers=2, **kw):
            merged = {**base, **kw}
            layers = tuple(DfsmnLayerSpec(skip=(i > 0), **merged)
                           for i in range(n_layers))
            return NetworkConfig(input_dim=4, layers=layers,
                                 output_streams=(StreamSpec("y", 1),))

        ref = flops_per_frame(cfg_of())
        assert flops_per_frame(cfg_of(n_back=3)) > ref
        assert flops_per_frame(cfg_of(n_ahead=3)) > ref
        assert flops_per_frame(cfg_of(hidden=9)) > ref
        assert flops_per_frame(cfg_of(n_layers=3)) > ref


class TestSizes:
    def test_size_formula_exact(self):
        for name in ALL_PRESETS:
            cfg = preset_config(name)
            rep = analyze(cfg)
            assert rep.size_mb == count_params(cfg) * 4 / 2**20

    def test_preset_a_in_published_band(self):
        rep = analyze(preset_config("A"))
        assert 62.0 * 0.8 <= rep.size_mb <= 62.0 * 1.2

    def test_all_presets_within_20pct(self):
        for name in ALL_PRESETS:
            rep = analyze(preset_config(name))
            assert abs(rep.size_mb - rep.ref_size_mb) / rep.ref_size_mb <= 0.20

    def test_monotone_ordering(self):
        sizes = [analyze(preset_config(n)).size_mb for n in ALL_PRESETS]
        for a, b in zip(sizes, sizes[1:]):
            assert a <= b

    def test_a_to_d_within_half_mb(self):
        sizes = [analyze(preset_config(n)).size_mb for n in "ABCD"]
        assert max(sizes) - min(sizes) < 0.5


class TestTableReport:
    def test_preset_e_fields(self):
        text, records = table_report(["E"])
        rec = records[0]
        assert rec["look_back_ms"] == 600
        assert rec["ref_size_mb"] == 87.0
        assert "published reference" in text

    def test_full_table_lists_blstm_reference(self):
        text, records = table_report(list(ALL_PRESETS))
        assert len(records) == 9
        assert "BLSTM" in text
        assert "295" in text

    def test_records_are_json_serializable(self):
        _, records = table_report(["A", "E"])
        parsed = json.loads(json.dumps(records))
        assert parsed[0]["param_count"] == 14_187_595

    def test_unknown_preset_rejected(self):
        with pytest.raises(Exception):
            table_report(["Q"])

    def test_published_reference_table_pinned(self):
        assert PUBLISHED_REFERENCE["A"] == (62.0, 4.08)
        assert PUBLISHED_REFERENCE["E"] == (87.0, 5.35)
        assert PUBLISHED_REFERENCE["I"] == (122.0, 7.18)

    @pytest.mark.parametrize("a,b", [("D", "E"), ("E", "F"), ("F", "I")])
    def test_published_steps_count_one_op_per_multiply_add(self, a, b):
        # each published value is rounded to 0.01, so a step is within 0.01
        counted = {n: analyze(preset_config(n)).gflops_per_second for n in (a, b)}
        published = PUBLISHED_REFERENCE[b][1] - PUBLISHED_REFERENCE[a][1]
        assert abs(published - (counted[b] - counted[a]) / 2) <= 0.01

    def test_size_helper(self):
        assert size_mb(2**20) == 4.0
