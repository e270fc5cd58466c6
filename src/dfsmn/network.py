"""Whole-network assembly: configuration schema, the nine built-in presets,
parameter initialization, multi-stream forward, and backward.

A network is a stack of memory-block layers at the bottom (consuming the
linguistic input), plain fully-connected layers on top, and one affine head
per output stream reading the shared top hidden sequence. Exported memory-
block sums (ptilde) chain into the next layer's skip input when that layer
has its skip flag set.

One layer loop serves two entry points: `forward` keeps every layer's cache
for `backward`, and `infer` returns the same output bytes while holding at
most two layer caches at a time (inference, validation and evaluation).

Config documents are JSON. Either spell every layer out, or use the compact
notation: "layers" as a string "Nc+Nd" (memory-block layer count + fc layer
count) together with "order" as "N1,N2,s1,s2".
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Iterator, Optional, Union

import numpy as np

from . import layers as L
from .tensor import ShapeError, as_sequence, derive_seed, seeded_normal

DEFAULT_HIDDEN = 2048
DEFAULT_PROJ = 512
DEFAULT_ACTIVATION = "relu"  # of memory-block and fc layers
DEFAULT_PRECISION = "fp32"
# far above the deepest preset (12 layers); bounds the work a short shorthand
# string, say one embedded in a model file, can ask for
MAX_SHORTHAND_LAYERS = 1024
PRECISIONS = {"fp32": np.dtype(np.float32), "fp64": np.dtype(np.float64)}
# prints every document value a fault echoes, cut short however deep or long
_VALUE_REPR = reprlib.Repr()
_VALUE_REPR.maxlevel, _VALUE_REPR.maxstring, _VALUE_REPR.maxother = 6, 80, 200


class ConfigError(ValueError):
    """A setting that breaks its rule: a network config, layer or stream spec,
    TrainConfig or SyntheticTaskSpec field, or a config document. The
    message starts with where the fault is, such as "layers[1].n_back: "."""


def _setting(test, description: str, default=MISSING):
    """A settings dataclass field declaring its one rule, (test, description),
    which check_fields applies; the constructors below make every rule."""
    return field(default=default, metadata={"rule": (test, description)})


def _integer(default=MISSING, minimum=None):
    return _setting(lambda v: isinstance(v, int) and not isinstance(v, bool)
                    and (minimum is None or v >= minimum),
                    "an integer" + ("" if minimum is None else f" >= {minimum}"), default)


def _number(default, minimum=None):
    return _setting(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                    and (isinstance(v, int) or math.isfinite(v))
                    and (minimum is None or v >= minimum),
                    "a finite number" + ("" if minimum is None else f" >= {minimum}"),
                    default)


def _string(default=MISSING):
    return _setting(lambda v: isinstance(v, str), "a string", default)


def _boolean(default):
    return _setting(lambda v: isinstance(v, bool), "true or false", default)


def _one_of(choices: tuple, default):
    return _setting(lambda v: isinstance(v, str) and v in choices,
                    "one of " + ", ".join(map(repr, choices)), default)


def _tuple_of(*types, default):
    return _setting(lambda v: isinstance(v, tuple) and len(v) > 0
                    and all(isinstance(x, types) for x in v),
                    "a non-empty tuple of " + " or ".join(t.__name__ for t in types),
                    default)


def check_fields(obj, where: str = "") -> None:
    """Apply the rule each field of the dataclass obj declares, in field
    order: the first value that breaks its rule raises ConfigError
    "<where><field>: must be <description>, got <_VALUE_REPR of the value>".
    A field that declares no rule is a TypeError on the first object checked."""
    for f in fields(obj):
        if "rule" not in f.metadata:
            raise TypeError(f"{type(obj).__name__}.{f.name} declares no rule")
        test, description = f.metadata["rule"]
        value = getattr(obj, f.name)
        if not test(value):
            raise ConfigError(f"{where}{f.name}: must be {description}, "
                              f"got {_VALUE_REPR.repr(value)}")


@dataclass(frozen=True)
class DfsmnLayerSpec:
    hidden: int = _integer(DEFAULT_HIDDEN, minimum=1)
    proj: int = _integer(DEFAULT_PROJ, minimum=1)
    n_back: int = _integer(0, minimum=0)
    n_ahead: int = _integer(0, minimum=0)
    stride_back: int = _integer(1, minimum=1)
    stride_ahead: int = _integer(1, minimum=1)
    skip: bool = _boolean(False)
    activation: str = _one_of(L.ACTIVATIONS, DEFAULT_ACTIVATION)


@dataclass(frozen=True)
class FcLayerSpec:
    hidden: int = _integer(DEFAULT_HIDDEN, minimum=1)
    activation: str = _one_of(L.ACTIVATIONS, DEFAULT_ACTIVATION)


@dataclass(frozen=True)
class StreamSpec:
    name: str = _string()
    dim: int = _integer(minimum=1)
    activation: str = _one_of(L.ACTIVATIONS, "linear")


LayerSpec = Union[DfsmnLayerSpec, FcLayerSpec]

DEFAULT_STREAMS = (
    StreamSpec("mcep", 60, "linear"),
    StreamSpec("lf0", 3, "linear"),
    StreamSpec("bap", 11, "linear"),
    StreamSpec("uv", 1, "sigmoid"),
)


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int = _integer(754, minimum=1)
    layers: tuple = _tuple_of(DfsmnLayerSpec, FcLayerSpec, default=())
    output_streams: tuple = _tuple_of(StreamSpec, default=DEFAULT_STREAMS)
    precision: str = _one_of(tuple(PRECISIONS), DEFAULT_PRECISION)

    def __post_init__(self):
        """check_fields on self, then on each layer and stream spec, named by
        its place, in one walk; the skip rule follows a skip layer's fields,
        the unique-name rule the last stream's."""
        check_fields(self)
        for li, spec in enumerate(self.layers):
            check_fields(spec, f"layers[{li}].")
            if isinstance(spec, DfsmnLayerSpec) and spec.skip:
                prev = self.layers[li - 1] if li else None
                if not isinstance(prev, DfsmnLayerSpec):
                    raise ConfigError(f"layers[{li}]: skip needs an immediately preceding "
                                      f"memory-block layer")
                if prev.proj != spec.proj:
                    raise ConfigError(f"layers[{li}].proj: skip needs the preceding layer's "
                                      f"projection width {prev.proj}, got {spec.proj}")
        for si, s in enumerate(self.output_streams):
            check_fields(s, f"output_streams[{si}].")
        names = [s.name for s in self.output_streams]
        if len(set(names)) != len(names):
            raise ConfigError(f"output_streams: duplicate names in {_VALUE_REPR.repr(names)}")

    def dtype(self) -> np.dtype:
        return PRECISIONS[self.precision]


# ---------------------------------------------------------------------------
# shorthand + JSON parsing

def expand_shorthand(layer_counts: str, order: str, hidden: int = DEFAULT_HIDDEN,
                     proj: int = DEFAULT_PROJ, activation: str = DEFAULT_ACTIVATION,
                     **settings) -> NetworkConfig:
    """Build a config from the compact "Nc+Nd" / "N1,N2,s1,s2" notation;
    settings are the other NetworkConfig fields, by name.

    Nc memory-block layers come first (skip connections between consecutive
    blocks, so every block after the first has skip on), then Nd plain layers.
    """
    try:
        nc, nd = map(int, layer_counts.split("+"))
    except ValueError:
        raise ConfigError(f"layers: expected 'Nc+Nd', got {_VALUE_REPR.repr(layer_counts)}")
    try:
        n1, n2, s1, s2 = map(int, order.split(","))
    except ValueError:
        raise ConfigError(f"order: expected 'N1,N2,s1,s2', got {_VALUE_REPR.repr(order)}")
    if nc < 1:
        raise ConfigError(f"layers: need at least one memory-block layer, got {nc}")
    if nd < 0:
        raise ConfigError(f"layers: fc layer count must be >= 0, got {nd}")
    if nc + nd > MAX_SHORTHAND_LAYERS:
        raise ConfigError(
            f"layers: {nc}+{nd} is more than {MAX_SHORTHAND_LAYERS} layers")
    specs = [DfsmnLayerSpec(hidden, proj, n1, n2, s1, s2, skip=(i > 0),
                            activation=activation) for i in range(nc)]
    specs += [FcLayerSpec(hidden, activation) for _ in range(nd)]
    return NetworkConfig(layers=tuple(specs), **settings)


PRESETS = {
    "A": ("3+2", "1,1,1,1"),
    "B": ("3+2", "2,2,2,2"),
    "C": ("3+2", "5,5,2,2"),
    "D": ("3+2", "10,10,2,2"),
    "E": ("6+2", "10,10,2,2"),
    "F": ("10+2", "10,10,2,2"),
    "G": ("10+2", "20,20,2,2"),
    "H": ("10+2", "40,40,2,2"),
    "I": ("10+2", "80,80,2,2"),
}


def preset_config(name: str, precision: str = DEFAULT_PRECISION) -> NetworkConfig:
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset {_VALUE_REPR.repr(name)}; "
                          f"have {' '.join(sorted(PRESETS))}")
    return expand_shorthand(*PRESETS[name], precision=precision)


# keys only a shorthand document may set: expand_shorthand's parameters
_SHORTHAND_KEYS = ("order", "hidden", "proj", "activation")
_PLAIN_FIELDS = tuple(f.name for f in fields(NetworkConfig)
                      if f.name not in ("layers", "output_streams"))
_TOP_KEYS = {"preset", *_SHORTHAND_KEYS, *(f.name for f in fields(NetworkConfig))}
_LAYER_TYPES = {"dfsmn": DfsmnLayerSpec, "fc": FcLayerSpec}


def _reject_unknown(d: dict, allowed: set, loc: str) -> None:
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"{loc}: unknown key(s) {_VALUE_REPR.repr(sorted(extra))}")


def _given(doc: dict, *keys) -> dict:
    """The entries of doc under keys that doc sets; the function or class
    they are passed to holds the default of every other."""
    return {k: doc[k] for k in keys if k in doc}


def _spec_from(cls, entry, loc: str, extras=()):
    """cls built from the document object entry at loc, whose keys are cls's
    fields and extras (dropped); a field without a default must be given."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{loc}: expected an object")
    _reject_unknown(entry, {f.name for f in fields(cls)} | set(extras), loc)
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in entry]
    if missing:
        raise ConfigError(f"{loc}: needs " + " and ".join(map(repr, missing)))
    return cls(**{k: v for k, v in entry.items() if k not in extras})


def parse_config(text: str) -> NetworkConfig:
    """Parse a JSON config document (full layer list, shorthand, or preset).
    A key the document leaves out takes the default of the NetworkConfig or
    spec field, or expand_shorthand parameter, it sets."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    except RecursionError:
        raise ConfigError("config is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    _reject_unknown(doc, _TOP_KEYS, "config")

    if "preset" in doc:
        extra = set(doc) - {"preset", "precision"}
        if extra:
            raise ConfigError(f"config: preset cannot be combined with {sorted(extra)}")
        return preset_config(doc["preset"], **_given(doc, "precision"))

    if "layers" not in doc:
        raise ConfigError("config: missing 'layers'")
    common = _given(doc, *_PLAIN_FIELDS)
    streams = doc.get("output_streams")
    if streams is not None:
        if not isinstance(streams, list) or not streams:
            raise ConfigError("output_streams: must be a non-empty list")
        common["output_streams"] = tuple(_spec_from(StreamSpec, s, f"output_streams[{si}]")
                                         for si, s in enumerate(streams))

    if isinstance(doc["layers"], str):
        if not isinstance(doc.get("order"), str):
            raise ConfigError("config: shorthand 'layers' needs an 'order' string")
        return expand_shorthand(doc["layers"], **_given(doc, *_SHORTHAND_KEYS), **common)

    if not isinstance(doc["layers"], list):
        raise ConfigError("layers: must be a list or 'Nc+Nd' string")
    for key in _SHORTHAND_KEYS:
        if key in doc:
            raise ConfigError(f"config: {key!r} only applies to shorthand 'layers'")
    specs = []
    for li, entry in enumerate(doc["layers"]):
        loc = f"layers[{li}]"
        if not isinstance(entry, dict) or "type" not in entry:
            raise ConfigError(f"{loc}: expected an object with a 'type' key")
        kind = entry["type"]
        if not isinstance(kind, str) or kind not in _LAYER_TYPES:
            raise ConfigError(f"{loc}.type: unknown {_VALUE_REPR.repr(kind)}")
        specs.append(_spec_from(_LAYER_TYPES[kind], entry, loc, extras=("type",)))
    return NetworkConfig(layers=tuple(specs), **common)


def config_to_json(cfg: NetworkConfig) -> str:
    """Canonical (byte-stable) JSON form used for embedding in model files."""
    kinds = {cls: kind for kind, cls in _LAYER_TYPES.items()}
    layers = [{"type": kinds[type(s)], **asdict(s)} for s in cfg.layers]
    return json.dumps({**asdict(cfg), "layers": layers}, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# parameters

@dataclass
class Affine:
    """Weight and bias of a plain affine layer or an output head."""

    weight: np.ndarray  # d_in x d_out
    bias: np.ndarray    # d_out


@dataclass
class NetworkParams:
    layers: list                                # DfsmnLayerParams or Affine
    heads: dict = field(default_factory=dict)   # stream name -> Affine


def layer_dims(cfg: NetworkConfig) -> list:
    """Input width of every layer plus the final hidden width."""
    return [cfg.input_dim] + [spec.hidden for spec in cfg.layers]


def _tensor_groups(cfg: NetworkConfig) -> Iterator[tuple]:
    """Yield (class-tag prefix, path, container class, {field: shape}) for
    every parameter group in file order: each layer, then each output head.
    The one place the tensor layout is written down."""
    dims = layer_dims(cfg)
    for li, (spec, d_in) in enumerate(zip(cfg.layers, dims)):
        if isinstance(spec, DfsmnLayerSpec):
            yield "", f"layer{li}", L.DfsmnLayerParams, {
                "proj_weight": (d_in, spec.proj),
                "proj_bias": (spec.proj,),
                "back_taps": (spec.n_back + 1, spec.proj),
                "ahead_taps": (spec.n_ahead, spec.proj),
                "out_weight": (spec.proj, spec.hidden),
                "out_bias": (spec.hidden,),
            }
        else:
            yield "fc_", f"layer{li}", Affine, {"weight": (d_in, spec.hidden),
                                               "bias": (spec.hidden,)}
    for s in cfg.output_streams:
        yield "head_", f"head.{s.name}", Affine, {"weight": (dims[-1], s.dim),
                                                  "bias": (s.dim,)}


def iter_tensors(cfg: NetworkConfig, params: NetworkParams) -> Iterator[tuple]:
    """Yield ("class", "path", array) for every tensor, in declaration order.

    The class tag groups tensors for gradient-check reporting and the order
    defines the model-file layout, so it must stay stable.
    """
    groups = params.layers + [params.heads[s.name] for s in cfg.output_streams]
    for (prefix, path, _, shapes), p in zip(_tensor_groups(cfg), groups, strict=True):
        for name in shapes:
            yield prefix + name, f"{path}.{name}", getattr(p, name)


def zeros_network(cfg: NetworkConfig) -> NetworkParams:
    """Zero-filled parameters, allocated from the group table of
    _tensor_groups, which fixes every shape and the order iter_tensors walks."""
    return _alloc_network(cfg, np.zeros)


def _alloc_network(cfg: NetworkConfig, alloc) -> NetworkParams:
    """Parameters whose every tensor is alloc(shape, dtype=...), taken from the
    group table: np.zeros for zeros_network, np.empty for a loader that
    overwrites every byte."""
    dt = cfg.dtype()
    groups = [cls(**{name: alloc(shape, dtype=dt) for name, shape in shapes.items()})
              for _, _, cls, shapes in _tensor_groups(cfg)]
    n = len(cfg.layers)
    return NetworkParams(groups[:n], {s.name: g for s, g in
                                      zip(cfg.output_streams, groups[n:], strict=True)})


def build_network(cfg: NetworkConfig, seed: int) -> NetworkParams:
    """Initialize parameters: weights ~ N(0, 1/fan_in), biases and taps zero.

    Zero taps make every fresh network memoryless, so depth/order sweeps start
    from the same function class. Deterministic in (cfg, seed): tensor k in
    declaration order draws from the substream derive_seed(seed, k).
    """
    params = zeros_network(cfg)
    for k, (cls, _, arr) in enumerate(iter_tensors(cfg, params)):
        if cls.endswith("weight"):
            rows, cols = arr.shape
            seeded_normal(derive_seed(seed, k), rows, cols, stddev=1.0 / np.sqrt(rows),
                          out=arr)
    return params


def count_params(cfg: NetworkConfig) -> int:
    """Exact scalar count, summed over the group table without allocating."""
    return sum(math.prod(shape) for *_, shapes in _tensor_groups(cfg)
               for shape in shapes.values())


# ---------------------------------------------------------------------------
# forward / backward

@dataclass
class NetworkCache:
    cfg: NetworkConfig
    layer_caches: list
    head_out: dict
    params: NetworkParams


def forward(params: NetworkParams, cfg: NetworkConfig, input_seq, bounds=None) -> tuple:
    """Run the stack; returns ({stream: T x dim}, cache for backward). bounds
    lists the (start, end) rows of the sequences packed into input_seq."""
    caches = list(_layer_caches(params, cfg, input_seq, bounds))
    head_out = _heads(params, cfg, caches[-1].out_seq)
    return head_out, NetworkCache(cfg, caches, head_out, params)


def infer(params: NetworkParams, cfg: NetworkConfig, input_seq, bounds=None) -> dict:
    """forward's outputs, byte for byte, without a cache for backward: each
    layer's cache is dropped once the next layer has read it."""
    for top in _layer_caches(params, cfg, input_seq, bounds):
        pass
    return _heads(params, cfg, top.out_seq)


def _layer_caches(params: NetworkParams, cfg: NetworkConfig, input_seq, bounds):
    """Run the layers bottom to top, yielding each one's cache. A layer reads
    its input, and a skip layer its skip sequence (ptilde), from the previous
    layer's cache; NetworkConfig makes that layer a memory-block layer."""
    h = as_sequence(input_seq, dtype=cfg.dtype())
    if h.shape[1] != cfg.input_dim:
        raise ShapeError(f"input dim {h.shape[1]} != configured {cfg.input_dim}")
    cache = None
    for spec, p in zip(cfg.layers, params.layers):
        if isinstance(spec, DfsmnLayerSpec):
            cache = L.dfsmn_layer_forward(h, p, spec, cache.ptilde_seq if spec.skip else None,
                                          bounds=bounds)
        else:
            cache = L.fc_layer_forward(h, p.weight, p.bias, spec.activation)
        h = cache.out_seq
        yield cache


def _heads(params: NetworkParams, cfg: NetworkConfig, top: np.ndarray) -> dict:
    """{stream: act(top @ W + b)} over the top hidden sequence."""
    out = {}
    for s in cfg.output_streams:
        hp = params.heads[s.name]
        out[s.name] = L.activate(s.activation, L.affine(top, hp.weight, hp.bias))
    return out


def backward(cache: NetworkCache, grad_streams: dict, lr: Optional[float] = None) -> tuple:
    """Back-propagate per-stream output gradients to every parameter.

    Stream gradients join at the shared trunk; skip-path gradients are routed
    back to the producing layer's memory-block sum. One loop, two modes:

    - collect (lr None): returns (parameter grads shaped like NetworkParams,
      gradient of the network input);
    - update: applies p -= lr * g to each parameter group as soon as backward
      is done reading it (a head once its share of the trunk gradient is
      formed, a layer once its input gradient is), drops that gradient group
      and each layer cache as it goes, and returns (cache.params, gradient of
      the network input). The cache is spent; at most one layer's gradients
      are alive at a time.

    Both modes compute the same gradient bytes, so an update equals collect
    followed by p -= lr * g per tensor.
    """
    cfg = cache.cfg
    names = {s.name for s in cfg.output_streams}
    if set(grad_streams) != names:
        raise KeyError(f"stream gradients {sorted(grad_streams)}, want {sorted(names)}")

    params = cache.params
    grads = NetworkParams(layers=[None] * len(cfg.layers))
    top = cache.layer_caches[-1].out_seq
    grad_top = np.zeros_like(top)
    for s in cfg.output_streams:
        g = grad_streams[s.name]
        out = cache.head_out[s.name]
        if g.shape != out.shape:
            raise ShapeError(f"stream {s.name!r}: grad shape {g.shape} != {out.shape}")
        hp = params.heads[s.name]
        g_top, *hg = L._affine_backward(g, top, hp.weight, s.activation, out)
        grad_top += g_top
        if lr is None:
            grads.heads[s.name] = Affine(*hg)
        else:
            _sgd(hp, Affine(*hg), lr)
    del top, out, g_top, hg  # the top layer's backward frees its cache in update mode
    if lr is not None:
        cache.head_out = None

    grad_h = grad_top
    pending_skip = None  # gradient owed to the previous layer's ptilde
    for li in range(len(cfg.layers) - 1, -1, -1):
        grad_h, pending_skip, lg = _layer_backward(
            cfg.layers[li], cache.layer_caches[li], grad_h, pending_skip)
        if lr is None:
            grads.layers[li] = lg
        else:
            cache.layer_caches[li] = None
            _sgd(params.layers[li], lg, lr)
        del lg  # the next layer's backward runs without this group's gradients
    return (grads if lr is None else params), grad_h


def _layer_backward(spec: LayerSpec, lcache, grad_h: np.ndarray, pending_skip):
    """One layer's (input gradient, gradient owed to the previous layer's
    ptilde or None, parameter gradients shaped like the layer's params)."""
    if isinstance(spec, DfsmnLayerSpec):
        return L.layer_backward(lcache, grad_h, pending_skip)
    assert pending_skip is None
    grad_in, d_weight, d_bias = L.fc_layer_backward(lcache, grad_h)
    return grad_in, None, Affine(d_weight, d_bias)


def _sgd(group, grads, lr: float) -> None:
    """p -= lr * g in place over the tensors of one parameter group. Each g is
    scaled in place, which the caller allows by dropping the group after."""
    for f in fields(group):
        p, g = getattr(group, f.name), getattr(grads, f.name)
        np.multiply(g, lr, out=g)
        p -= g
