import hashlib
import json
import os
import re
import struct
import sys
import threading
import tracemalloc
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_acceptance
from dfsmn import layers as L
from dfsmn import network as net
from dfsmn import features, model_io, tensor
from dfsmn.features import (SequenceData, load_dataset, read_feature, read_manifest,
                            write_dataset, write_feature)
from dfsmn.model_io import (MAGIC, VERSION, BadMagicError, ModelFileError,
                            TruncatedFileError, VersionMismatchError, load_model,
                            save_model)
from dfsmn.network import (ConfigError, DfsmnLayerSpec, FcLayerSpec, NetworkConfig,
                           StreamSpec, build_network, check_fields, config_to_json,
                           count_params, expand_shorthand, iter_tensors, parse_config,
                           preset_config, zeros_network)
from dfsmn.tensor import NORMAL_CHUNK, Counter64, ShapeError, derive_seed
from dfsmn.trainer import SyntheticTaskSpec, TrainConfig


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


# memory blocks of projection width 2, 3, and 3 with a skip from the second
MIXED_WIDTH_DOC = {"input_dim": 4,
                   "layers": [{"type": "dfsmn", "hidden": 6, "proj": 2, "n_back": 2,
                               "n_ahead": 1},
                              {"type": "dfsmn", "hidden": 6, "proj": 3, "n_back": 2,
                               "n_ahead": 1},
                              {"type": "dfsmn", "hidden": 6, "proj": 3, "n_back": 2,
                               "n_ahead": 1, "skip": True},
                              {"type": "fc", "hidden": 5}],
                   "output_streams": [{"name": "y", "dim": 2}],
                   "precision": "fp64"}

BAD_DOCS = [
    (two_block_doc(second={"skip": "no"}), r"layers\[1\]\.skip"),
    (two_block_doc(second={"hidden": True}), r"layers\[1\]\.hidden"),
    (two_block_doc(second={"hidden": 2.5}), r"layers\[1\]\.hidden"),
    (two_block_doc(second={"n_ahead": None}), r"layers\[1\]\.n_ahead"),
    (two_block_doc(second={"n_back": -1}), r"layers\[1\]\.n_back: must be an integer >= 0"),
    (two_block_doc(second={"stride_ahead": 0}),
     r"layers\[1\]\.stride_ahead: must be an integer >= 1"),
    (two_block_doc(stream={"name": 7}), r"output_streams\[0\]\.name"),
    (two_block_doc(stream={"dim": "2"}), r"output_streams\[0\]\.dim"),
    ({"layers": "2+1", "order": "1,1,1,1", "hidden": 2.5}, r"layers\[0\]\.hidden"),
    ({"layers": "2+1", "order": 5}, r"'order' string"),
    ({"layers": "2+1", "order": "1,1,1,1", "precision": []}, r"^precision: "),
    (dict(two_block_doc(), precision="fp16"), r"^precision: "),
    ({"preset": "A", "precision": {}}, r"^precision: "),
    ({"preset": []}, r"unknown preset"),
    (two_block_doc(second={"activation": "gelu"}),
     r"layers\[1\]\.activation: must be one of"),
    (dict(two_block_doc(), input_dim=3.0),
     r"^input_dim: must be an integer >= 1, got 3\.0$"),
    (dict(two_block_doc(), output_streams=[{"name": "y", "dim": 1}] * 2),
     r"^output_streams: duplicate names in \['y', 'y'\]$"),
    ({"layers": "2-1", "order": "1,1,1,1"}, r"^layers: expected 'Nc\+Nd', got '2-1'$"),
    ({"layers": "2+1", "order": "1,x,1,1"},
     r"^order: expected 'N1,N2,s1,s2', got '1,x,1,1'$"),
    ({"layers": "3+-1", "order": "1,1,1,1"},
     r"^layers: fc layer count must be >= 0, got -1$"),
    ([], r"^config: top level must be an object$"),
    (dict(two_block_doc(), output_streams=["y"]),
     r"^output_streams\[0\]: expected an object$"),
    (dict(two_block_doc(), output_streams=[{"name": "y"}]),
     r"^output_streams\[0\]: needs 'dim'$"),
    (dict(two_block_doc(), output_streams=[{}]),
     r"^output_streams\[0\]: needs 'name' and 'dim'$"),
    # a str is the document's text: json.dumps cannot write one this deep
    pytest.param("[" * 100000, r"^config is nested too deeply to parse$", id="deep"),
    (dict(two_block_doc(), order="1,1,1,1"),
     r"^config: 'order' only applies to shorthand 'layers'$"),
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
        with pytest.raises(ConfigError, match=where) as e:
            parse_config(doc if isinstance(doc, str) else json.dumps(doc))
        assert re.match(LOCATED, str(e.value)), str(e.value)

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

    def test_shorthand_numbers_may_carry_spaces(self):
        spaced = parse_config('{"layers": " 6 + 2", "order": "10, 10, 2, 2"}')
        assert spaced == preset_config("E")

    def test_spec_built_from_its_dataclass_fields(self):
        # a spec's document keys and required keys come from its fields alone
        @dataclass(frozen=True)
        class Spec:
            width: int
            name: str = "x"

        got = net._spec_from(Spec, {"width": 3, "kind": 1}, "s", extras=("kind",))
        assert got == Spec(3)
        with pytest.raises(ConfigError, match=r"^s: needs 'width'$"):
            net._spec_from(Spec, {"name": "y"}, "s")
        with pytest.raises(ConfigError, match=r"^s: unknown key\(s\) \['kind'\]$"):
            net._spec_from(Spec, {"width": 3, "kind": 1}, "s")

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

    def test_skip_needs_only_its_predecessors_width(self):
        # blocks of width 2, 3 and 3 with skip: only the skip pair must agree
        cfg = parse_config(json.dumps(MIXED_WIDTH_DOC))
        assert [(s.proj, s.skip) for s in cfg.layers[:3]] == [(2, False), (3, False),
                                                               (3, True)]
        assert parse_config(config_to_json(cfg)) == cfg

    @pytest.mark.parametrize("projs,want,got", [((2, 3), 2, 3), ((3, 3, 2), 3, 2),
                                                ((2, 4, 2), 4, 2)],
                             ids=["2-3", "3-3-2", "2-4-2"])
    def test_skip_width_fault_names_the_skip_layer(self, projs, want, got):
        li = len(projs) - 1
        layers = tuple(DfsmnLayerSpec(hidden=4, proj=p, skip=(i == li))
                       for i, p in enumerate(projs))
        with pytest.raises(ConfigError) as caught:
            NetworkConfig(input_dim=3, layers=layers)
        assert str(caught.value) == (f"layers[{li}].proj: skip needs the preceding "
                                     f"layer's projection width {want}, got {got}")

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_config("not json at all")

    def test_roundtrip_through_canonical_json(self):
        cfg = tiny_cfg()
        assert parse_config(config_to_json(cfg)) == cfg


SETTINGS = (DfsmnLayerSpec, FcLayerSpec, StreamSpec, NetworkConfig, TrainConfig,
            SyntheticTaskSpec)

# per settings field: (a value of the wrong type, a value of the right type
# out of range, or None where every value of the type is in range)
FIELD_CASES = {
    "DfsmnLayerSpec.hidden": (2.5, 0), "DfsmnLayerSpec.proj": ("2", 0),
    "DfsmnLayerSpec.n_back": (None, -1), "DfsmnLayerSpec.n_ahead": (1.0, -1),
    "DfsmnLayerSpec.stride_back": (True, 0), "DfsmnLayerSpec.stride_ahead": ([], 0),
    "DfsmnLayerSpec.skip": ("no", None), "DfsmnLayerSpec.activation": (7, "gelu"),
    "FcLayerSpec.hidden": (False, -3), "FcLayerSpec.activation": (None, "Relu"),
    "StreamSpec.name": (7, None), "StreamSpec.dim": ("2", 0),
    "StreamSpec.activation": (["linear"], "softmax"),
    "NetworkConfig.input_dim": (3.0, 0),
    "NetworkConfig.layers": ([DfsmnLayerSpec(4, 2)], ()),
    "NetworkConfig.output_streams": ((("y", 1),), ()),
    "NetworkConfig.precision": (32, "fp16"),
    "TrainConfig.batch_frames": (512.0, 0), "TrainConfig.lr": ("0.01", float("nan")),
    "TrainConfig.patience": (None, 0), "TrainConfig.min_improvement": ("0", float("inf")),
    "TrainConfig.max_epochs": (2.5, 0), "TrainConfig.seed": (1.5, None),
    "SyntheticTaskSpec.kind": (0, "speech"), "SyntheticTaskSpec.input_dim": (1.0, 0),
    "SyntheticTaskSpec.lag": (0.5, -1), "SyntheticTaskSpec.noise_std": (True, -0.1),
    "SyntheticTaskSpec.num_sequences": (True, 0), "SyntheticTaskSpec.seq_len": (64.5, 0),
}


def field_loc(cls, name):
    """Where a ConfigError names field name of cls; build_with puts a layer
    or stream spec into tiny_cfg (blocks 0 and 1, the second with skip, fc 2)."""
    return {DfsmnLayerSpec: "layers[1].", FcLayerSpec: "layers[2].",
            StreamSpec: "output_streams[0]."}.get(cls, "") + name


def build_with(cls, name, value):
    """Build cls with field name set to value; a layer or stream spec is
    built into tiny_cfg's network config at field_loc's place."""
    cfg = tiny_cfg()
    if cls in (TrainConfig, SyntheticTaskSpec):
        cls(**{name: value})
    elif cls is NetworkConfig:
        replace(cfg, **{name: value})
    elif cls is StreamSpec:
        replace(cfg, output_streams=(replace(cfg.output_streams[0], **{name: value}),))
    else:
        li = 1 if cls is DfsmnLayerSpec else 2
        layers = list(cfg.layers)
        layers[li] = replace(layers[li], **{name: value})
        replace(cfg, layers=tuple(layers))


def nested_list(depth):
    """A list nested depth levels deep, built without recursion."""
    v = []
    for _ in range(depth):
        v = [v]
    return v


# documents whose bad value has a whole repr of thousands of characters
LONG_VALUE_DOCS = {
    "deep-list": '{"layers": [{"type": "dfsmn", "hidden": ' + "[" * 900 + "]" * 900 + "}]}",
    "long-string": json.dumps({"layers": [{"type": "fc", "activation": "x" * 1_000_000}]}),
}
# the field a LONG_VALUE_DOCS case, or the deep-object case, names
LONG_VALUE_FIELDS = {"deep-list": "layers[0].hidden", "long-string": "layers[0].activation",
                     "deep-object": "layers[0].hidden"}


class TestFieldRules:
    @pytest.mark.parametrize("cls,name", [(cls, f.name) for cls in SETTINGS
                                          for f in fields(cls)],
                             ids=lambda x: getattr(x, "__name__", x))
    def test_bad_value_names_field(self, cls, name):
        wrong_type, out_of_range = FIELD_CASES[f"{cls.__name__}.{name}"]
        cases = [wrong_type] if out_of_range is None else [wrong_type, out_of_range]
        for value in cases:
            with pytest.raises(ConfigError) as caught:
                build_with(cls, name, value)
            message = str(caught.value)
            assert message.startswith(f"{field_loc(cls, name)}: must be "), message
            assert message.endswith(f", got {value!r}"), message

    @pytest.mark.parametrize("case", [*LONG_VALUE_DOCS, "deep-object"])
    def test_long_bad_value_printed_short(self, case):
        # with values printed whole, the messages run to 1,847 and 1,000,080
        # characters, and the 100,000-deep list's repr raises RecursionError
        with pytest.raises(ConfigError) as caught:
            if case == "deep-object":
                NetworkConfig(layers=(DfsmnLayerSpec(hidden=nested_list(100_000)),))
            else:
                parse_config(LONG_VALUE_DOCS[case])
        message = str(caught.value)
        assert message.startswith(f"{LONG_VALUE_FIELDS[case]}: must be "), message[:300]
        assert len(message) < 200, message[:300]

    def test_every_case_is_a_field(self):
        assert set(FIELD_CASES) == {f"{cls.__name__}.{f.name}" for cls in SETTINGS
                                    for f in fields(cls)}

    def test_a_field_without_a_rule_fails_its_first_check(self):
        @dataclass
        class Unruled:
            width: int = 1

        with pytest.raises(TypeError, match=r"Unruled\.width declares no rule"):
            check_fields(Unruled())


LONG = "x" * 100_000
# a config document fault that echoes the 100,000-character value LONG, and
# where its message starts
LONG_ECHO_DOCS = {
    "shorthand-layers": ({"layers": LONG, "order": "1,1,1,1"},
                         "layers: expected 'Nc+Nd', got "),
    "shorthand-order": ({"layers": "2+1", "order": LONG},
                        "order: expected 'N1,N2,s1,s2', got "),
    "preset": ({"preset": LONG}, "unknown preset "),
    "layer-type": ({"layers": [{"type": LONG}]}, "layers[0].type: unknown "),
    "top-key": (dict(two_block_doc(), **{LONG: 1}), "config: unknown key(s) "),
    "layer-key": (two_block_doc(second={LONG: 1}), "layers[1]: unknown key(s) "),
    "stream-key": (two_block_doc(stream={LONG: 1}), "output_streams[0]: unknown key(s) "),
    "stream-names": (dict(two_block_doc(), output_streams=[{"name": LONG, "dim": 1}] * 2),
                     "output_streams: duplicate names in "),
}


def long_echo_file(tmp_path, case):
    """A one-sequence dataset whose manifest or feature header holds a long
    value, the loader that echoes it, and the faulty file's path."""
    write_dataset(tmp_path, [SequenceData("a", np.zeros((3, 2), np.float32))])
    manifest = tmp_path / features.MANIFEST_NAME
    if case == "manifest-id":
        manifest.write_text(f"{LONG}\t3\n{LONG}\t3\n")
        return read_manifest, f"{manifest}:2: id "
    if case == "manifest-frames":
        manifest.write_text(f"a\t{LONG}\n")
        return read_manifest, f"{manifest}:1: frame count "
    if case == "manifest-no-input":
        manifest.write_text(f"{LONG}\t3\n")
        return load_dataset, f"{tmp_path}: sequence "
    path = tmp_path / "a.input.feat"
    write_feature(path, "n" * 1_000_000, np.zeros((3, 2), np.float32))
    return load_dataset, f"{path}: header stream "


class TestEchoedValue:
    @pytest.mark.parametrize("case", [*LONG_ECHO_DOCS, "manifest-id", "manifest-frames",
                                      "manifest-no-input", "header-stream"])
    def test_long_value_printed_short(self, tmp_path, case):
        # printed whole, each message runs to 100,026-1,000,068 characters
        if case in LONG_ECHO_DOCS:
            doc, where = LONG_ECHO_DOCS[case]
            error, load, source = ConfigError, parse_config, json.dumps(doc)
        else:
            load, where = long_echo_file(tmp_path, case)
            error = {"header-stream": ModelFileError,
                     "manifest-no-input": FileNotFoundError}.get(case, ValueError)
            source = tmp_path
        with pytest.raises(error) as caught:
            load(source)
        message = str(caught.value)
        assert type(caught.value) is error
        assert message.startswith(where), message[:300]
        assert len(message) < 300, message[:300]


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

    # sha256 of the saved model; any change to the tensor order, the seed
    # derivation or the generator changes these bytes, and with them every
    # trained model
    INIT_DIGESTS = {
        "fp32": "985ed3ef6a2a3305dd62955ec005fe0e311bfd6a852565c6d9c48532782a3b59",
        "fp64": "8c9bd3a6b067e673372e5eeb203c1698eaa29cd73a134985264346e56fea0e7f",
    }

    @pytest.mark.parametrize("precision", list(INIT_DIGESTS))
    def test_init_bytes_pinned(self, tmp_path, precision):
        cfg = tiny_cfg(precision=precision)
        path = tmp_path / "m.dfsmn"
        save_model(build_network(cfg, 7), cfg, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.INIT_DIGESTS[precision]

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
                cache = L.dfsmn_layer_forward(h, p, spec, skip)
                h, prev = cache.out_seq, cache.ptilde_seq
            else:
                h = L.fc_layer_forward(h, p.weight, p.bias, spec.activation).out_seq
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

    def test_wrong_shape_stream_grad_rejected(self):
        cfg, params, x = self._setup()
        _, cache = net.forward(params, cfg, x)
        with pytest.raises(ShapeError, match=r"^stream 'y': grad shape \(6, 1\) != "
                                             r"\(6, 2\)$"):
            net.backward(cache, {"y": np.zeros((6, 1)), "v": np.zeros((6, 1))})

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

    BOUNDS = {"whole": None, "packed": [(0, 13), (13, 31), (31, 40)]}
    # recorded while every epilogue still allocated h @ W, + b and the
    # activation separately and backward read cached pre-activations; a BLAS
    # build that rounds its products differently changes them too
    DIGESTS = {
        ("fp32", "whole"): "2ff53938fc1dae0fb5f963926f48a95bae55f26735fdb764b45916863164261b",
        ("fp32", "packed"): "c71295e3df92528fa369d1a62d4088e8aae9f66a53134f7d15a61bfd0edf8f58",
        ("fp64", "whole"): "2eaffc1101a235b23ef76acc542ae9a1ea338518e4eea1cc83a6c9ba57c0b1cf",
        ("fp64", "packed"): "46f4a390e35a2119d6b69561e19ced78163605290369bafb0b35721d90e923a7",
    }

    @pytest.mark.parametrize("precision,bounds", list(DIGESTS))
    def test_outputs_and_gradients_pinned(self, precision, bounds):
        cfg, params, rng = epilogue_net(precision)
        x = rng.normal(120).reshape(40, 3)
        outs, cache = net.forward(params, cfg, x, bounds=self.BOUNDS[bounds])
        grads, grad_x = net.backward(
            cache, {a: rng.normal(80).reshape(40, 2).astype(cfg.dtype()) for a in ACTS})
        h = hashlib.sha256()
        for a in ACTS:
            h.update(outs[a].tobytes())
        for _, _, arr in iter_tensors(cfg, grads):
            h.update(arr.tobytes())
        h.update(grad_x.tobytes())
        assert h.hexdigest() == self.DIGESTS[precision, bounds]

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

    @pytest.mark.parametrize("frames", ["16x", "-3", "", " 3", "+3", "1_0", "٣"])
    def test_frame_count_not_a_count_rejected(self, tmp_path, frames):
        write_dataset(tmp_path, [SequenceData("a", np.zeros((3, 2), np.float32))])
        (tmp_path / features.MANIFEST_NAME).write_text(f"a\t{frames}\n")
        with pytest.raises(ValueError, match=rf"manifest.txt:1: frame count "
                                             rf"{re.escape(repr(frames))} is not a "
                                             rf"non-negative integer"):
            read_manifest(tmp_path)

    def test_payload_not_2d_rejected(self, tmp_path):
        path = tmp_path / "f.feat"
        with pytest.raises(ValueError, match=r"^feature payload must be T x D, "
                                             r"got shape \(3,\)$"):
            write_feature(path, "y", np.zeros(3))
        assert not path.exists()

    def test_empty_manifest_rejected(self, tmp_path):
        write_dataset(tmp_path, [])
        with pytest.raises(ValueError, match="manifest lists no sequences"):
            load_dataset(tmp_path)

    def test_rewrite_of_the_same_files_passes_and_a_stray_stream_raises(self, tmp_path):
        data = [SequenceData("s0", Counter64(8).normal(8).reshape(4, 2).astype(np.float32),
                             {"y": np.zeros((4, 1), np.float32)})]
        write_dataset(tmp_path, data)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        write_dataset(tmp_path, data)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        write_feature(tmp_path / "s0.z.feat", "z", np.zeros((4, 1), np.float32))
        with pytest.raises(FileExistsError, match=rf"^{re.escape(str(tmp_path))} holds "
                                                  rf"'s0.z.feat', which this dataset does "
                                                  rf"not write$"):
            write_dataset(tmp_path, data)

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
        with pytest.raises(ModelFileError, match=rf"^{re.escape(str(path))}: header stream "
                                                 rf"'other' != filename stream '{stream}'$"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("stream", ["input", "y"])
    def test_frame_count_mismatch_rejected(self, tmp_path, stream):
        self._two_streams(tmp_path)
        path = tmp_path / f"s0.{stream}.feat"
        write_feature(path, stream, read_feature(path)[1][:3])
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}: 3 frames, manifest says 4$"):
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

    def test_load_zero_fills_no_tensor(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        params = build_network(cfg, 4)
        path = tmp_path / "m.dfsmn"
        save_model(params, cfg, path)

        def no_zeros(*args, **kwargs):
            raise AssertionError("load_model zero-filled a tensor")

        monkeypatch.setattr(np, "zeros", no_zeros)
        loaded, _ = load_model(path)
        monkeypatch.undo()
        for (_, _, a), (_, _, b) in zip(iter_tensors(cfg, params),
                                        iter_tensors(cfg, loaded)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("precision", ["fp32", "fp64"])
    def test_load_into_dirty_memory_is_bit_exact(self, tmp_path, precision):
        cfg = tiny_cfg(precision=precision)
        params = build_network(cfg, 5)
        path = tmp_path / "m.dfsmn"
        save_model(params, cfg, path)
        # freed NaN-filled blocks of each tensor's size, for the loader's
        # uninitialised tensors to be handed back
        dirty = [np.full(arr.shape, np.nan, arr.dtype)
                 for _, _, arr in iter_tensors(cfg, params)]
        del dirty
        loaded, _ = load_model(path)
        for (_, _, a), (_, _, b) in zip(iter_tensors(cfg, params),
                                        iter_tensors(cfg, loaded), strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()

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

    def test_feature_write_and_read_hold_no_second_copy(self, tmp_path):
        data = np.arange(1100 * 1024, dtype=np.float32).reshape(1100, 1024)
        assert data.nbytes > 4 << 20
        path = tmp_path / "f.feat"
        _, write_peak = self._traced_peak(write_feature, path, "y", data)
        assert write_peak < 1 << 20
        (name, got), read_peak = self._traced_peak(read_feature, path)
        assert read_peak <= data.nbytes + (1 << 20)
        assert name == "y" and np.array_equal(got, data)

    @pytest.mark.slow
    def test_preset_a_model_reports_full_count(self, tmp_path):
        cfg = preset_config("A")
        params = build_network(cfg, 0)
        path = tmp_path / "a.dfsmn"
        save_model(params, cfg, path)
        loaded, cfg2 = load_model(path)
        assert count_params(cfg2) == 14_187_595
        assert sum(arr.size for _, _, arr in iter_tensors(cfg2, loaded)) == 14_187_595



def shrink_at_first_read(monkeypatch, path, size):
    """Cut path to size just before the loader's first payload read, after
    its header pass: every payload past size then comes back short."""
    real_preadv, lock, cut = os.preadv, threading.Lock(), []

    def preadv(*args):
        with lock:
            if not cut:
                os.truncate(path, size)
                cut.append(size)
        return real_preadv(*args)

    monkeypatch.setattr(model_io.os, "preadv", preadv)


class TestConcurrentLoad:
    """load_model reads its payloads on tensor._draw_workers() threads."""

    def _saved(self, tmp_path):
        """A model whose tensors each hold their own values, saved; and the
        file offset of each tensor's payload, in file order."""
        cfg = expand_shorthand("2+1", "2,2,1,1", input_dim=40, hidden=256, proj=64)
        params = zeros_network(cfg)
        for i, (_, _, arr) in enumerate(iter_tensors(cfg, params)):
            arr[...] = Counter64(i).normal(arr.size).reshape(arr.shape)
        path = tmp_path / "m.dfsmn"
        save_model(params, cfg, path)
        offset = 12 + len(config_to_json(cfg).encode("utf-8"))
        offsets = []
        for _, _, arr in iter_tensors(cfg, params):
            offset += 4 * (1 + arr.ndim)
            offsets.append(offset)
            offset += arr.nbytes
        assert offset == path.stat().st_size
        return cfg, params, path, offsets

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_equal_for_any_worker_count(self, tmp_path, monkeypatch, workers):
        cfg, params, path, offsets = self._saved(tmp_path)
        assert len(offsets) > workers
        monkeypatch.setattr(tensor, "_draw_workers", lambda: workers)
        real_preadv, readers = os.preadv, set()

        def preadv(*args):
            readers.add(threading.get_ident())
            return real_preadv(*args)

        monkeypatch.setattr(model_io.os, "preadv", preadv)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            loaded, _ = load_model(path)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        # one worker reads on the calling thread, more read on their own
        assert (threading.get_ident() in readers) == (workers == 1)
        for (_, _, a), (_, _, b) in zip(iter_tensors(cfg, params),
                                        iter_tensors(cfg, loaded), strict=True):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()

    def test_reads_returning_less_than_asked_are_continued(self, tmp_path, monkeypatch):
        # as Linux does past 0x7ffff000 bytes per call
        cfg, params, path, _ = self._saved(tmp_path)
        real_preadv = os.preadv
        monkeypatch.setattr(model_io.os, "preadv",
                            lambda fd, bufs, offset: real_preadv(fd, [bufs[0][:1000]], offset))
        loaded, _ = load_model(path)
        monkeypatch.undo()
        for (_, _, a), (_, _, b) in zip(iter_tensors(cfg, params),
                                        iter_tensors(cfg, loaded), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_no_thread_outlives_the_load(self, tmp_path, monkeypatch):
        _, _, path, offsets = self._saved(tmp_path)
        monkeypatch.setattr(tensor, "_draw_workers", lambda: 3)
        before = threading.enumerate()
        load_model(path)
        assert threading.enumerate() == before
        shrink_at_first_read(monkeypatch, path, offsets[-1])
        with pytest.raises(TruncatedFileError):
            load_model(path)
        assert threading.enumerate() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_shrinking_file_reports_its_first_short_payload(self, tmp_path, monkeypatch,
                                                            workers):
        cfg, params, path, offsets = self._saved(tmp_path)
        sizes = [arr.nbytes for _, _, arr in iter_tensors(cfg, params)]
        largest = sizes.index(max(sizes))
        # cut inside the payload before the largest: both come back short,
        # and the largest is read first
        k = largest - 1
        assert sizes[k] >= 8
        cut = offsets[k] + sizes[k] // 2
        monkeypatch.setattr(tensor, "_draw_workers", lambda: workers)
        shrink_at_first_read(monkeypatch, path, cut)
        with pytest.raises(TruncatedFileError, match=f"needed {sizes[k]} bytes at offset "
                                                     f"{offsets[k]}, read {sizes[k] // 2}$"):
            load_model(path)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_value_names_the_file(self, tmp_path, value):
        path, _ = small_file(tmp_path, "feature")
        _, data = read_feature(path)
        data[2, 1] = data[1, 0] = value  # the first in row-major order is named
        write_feature(path, "mcep", data)
        with pytest.raises(ModelFileError,
                           match=rf"^{re.escape(str(path))}: non-finite value at "
                                 rf"frame 1, dim 0$"):
            read_feature(path)

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
        # a feature file fails only with ModelFileError, so its every message
        # names the file; a model file's embedded config faults name it too
        path, load = small_file(tmp_path, kind)
        path.write_bytes(data.draw(mutated(path.read_bytes())))
        try:
            load(path)
        except LOADER_ERRORS as e:
            assert kind == "model" or isinstance(e, ModelFileError)
            if isinstance(e, (ModelFileError, ConfigError)):
                assert str(e).startswith(f"{path}: ") and str(e).count(str(path)) == 1

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_model_on_two_workers_loads_or_raises_typed_error(self, tmp_path,
                                                                      monkeypatch, data):
        # the concurrent payload pass, also on a one-CPU runner
        monkeypatch.setattr(tensor, "_draw_workers", lambda: 2)
        path, load = small_file(tmp_path, "model")
        path.write_bytes(data.draw(mutated(path.read_bytes())))
        try:
            load(path)
        except LOADER_ERRORS:
            pass
