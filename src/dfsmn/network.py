"""Whole-network assembly: configuration schema, the nine built-in presets,
parameter initialization, multi-stream forward, and backward.

A network is a stack of memory-block layers at the bottom (consuming the
linguistic input), plain fully-connected layers on top, and one affine head
per output stream reading the shared top hidden sequence. Exported memory-
block sums (ptilde) chain into the next layer's skip input when that layer
has its skip flag set.

Config documents are JSON. Either spell every layer out, or use the compact
notation: "layers" as a string "Nc+Nd" (memory-block layer count + fc layer
count) together with "order" as "N1,N2,s1,s2".
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, Union

import numpy as np

from . import layers as L
from .tensor import ShapeError, as_sequence, derive_seed, resolve_dtype, seeded_normal

DEFAULT_INPUT_DIM = 754
DEFAULT_HIDDEN = 2048
DEFAULT_PROJ = 512
# far above the deepest preset (12 layers); bounds the work a short shorthand
# string, say one embedded in a model file, can ask for
MAX_SHORTHAND_LAYERS = 1024


class ConfigError(ValueError):
    """Malformed network configuration; message carries the offending location."""


@dataclass(frozen=True)
class DfsmnLayerSpec:
    hidden: int = DEFAULT_HIDDEN
    proj: int = DEFAULT_PROJ
    n_back: int = 0
    n_ahead: int = 0
    stride_back: int = 1
    stride_ahead: int = 1
    skip: bool = False
    activation: str = "relu"


@dataclass(frozen=True)
class FcLayerSpec:
    hidden: int = DEFAULT_HIDDEN
    activation: str = "relu"


@dataclass(frozen=True)
class StreamSpec:
    name: str
    dim: int
    activation: str = "linear"


LayerSpec = Union[DfsmnLayerSpec, FcLayerSpec]

DEFAULT_STREAMS = (
    StreamSpec("mcep", 60, "linear"),
    StreamSpec("lf0", 3, "linear"),
    StreamSpec("bap", 11, "linear"),
    StreamSpec("uv", 1, "sigmoid"),
)


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int = DEFAULT_INPUT_DIM
    layers: tuple = ()
    output_streams: tuple = DEFAULT_STREAMS
    precision: str = "fp32"

    def __post_init__(self):
        validate_config(self)

    def dtype(self):
        return resolve_dtype(self.precision)


def _check_int(value, loc: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{loc}: must be an integer, got {value!r}")
    return value


def _check_dim(value, loc: str) -> None:
    if _check_int(value, loc) < 1:
        raise ConfigError(f"{loc}: must be >= 1, got {value}")


def validate_config(cfg: NetworkConfig) -> None:
    if not cfg.layers:
        raise ConfigError("layers: need at least one layer")
    _check_dim(cfg.input_dim, "input_dim")
    if not cfg.output_streams:
        raise ConfigError("output_streams: need at least one stream")
    if cfg.precision not in ("fp32", "fp64"):
        raise ConfigError(f"precision: expected 'fp32' or 'fp64', got {cfg.precision!r}")
    for si, s in enumerate(cfg.output_streams):
        loc = f"output_streams[{si}]"
        if not isinstance(s.name, str):
            raise ConfigError(f"{loc}.name: must be a string, got {s.name!r}")
        _check_dim(s.dim, f"{loc}.dim")
        if s.activation not in L.ACTIVATIONS:
            raise ConfigError(f"{loc}.activation: unknown {s.activation!r}")
    names = [s.name for s in cfg.output_streams]
    if len(set(names)) != len(names):
        raise ConfigError(f"output_streams: duplicate names in {names}")
    proj_dims = set()
    any_skip = False
    for li, spec in enumerate(cfg.layers):
        loc = f"layers[{li}]"
        if isinstance(spec, DfsmnLayerSpec):
            _check_dim(spec.hidden, f"{loc}.hidden")
            _check_dim(spec.proj, f"{loc}.proj")
            for name in ("n_back", "n_ahead", "stride_back", "stride_ahead"):
                _check_int(getattr(spec, name), f"{loc}.{name}")
            if not isinstance(spec.skip, bool):
                raise ConfigError(f"{loc}.skip: must be true or false, got {spec.skip!r}")
            if spec.n_back < 0 or spec.n_ahead < 0:
                raise ConfigError(
                    f"{loc}: orders must be >= 0, got {spec.n_back},{spec.n_ahead}")
            if spec.stride_back < 1 or spec.stride_ahead < 1:
                raise ConfigError(f"{loc}: strides must be >= 1, "
                                  f"got {spec.stride_back},{spec.stride_ahead}")
            if spec.activation not in L.ACTIVATIONS:
                raise ConfigError(f"{loc}.activation: unknown {spec.activation!r}")
            if spec.skip:
                any_skip = True
                if li == 0 or not isinstance(cfg.layers[li - 1], DfsmnLayerSpec):
                    raise ConfigError(
                        f"{loc}: skip needs an immediately preceding memory-block layer")
            proj_dims.add(spec.proj)
        elif isinstance(spec, FcLayerSpec):
            _check_dim(spec.hidden, f"{loc}.hidden")
            if spec.activation not in L.ACTIVATIONS:
                raise ConfigError(f"{loc}.activation: unknown {spec.activation!r}")
        else:
            raise ConfigError(f"{loc}: unknown layer spec type {type(spec).__name__}")
    if any_skip and len(proj_dims) > 1:
        raise ConfigError(
            f"skip connections need one shared projection width, got {sorted(proj_dims)}")


# ---------------------------------------------------------------------------
# shorthand + JSON parsing

def expand_shorthand(layer_counts: str, orders: str, input_dim: int = DEFAULT_INPUT_DIM,
                     hidden: int = DEFAULT_HIDDEN, proj: int = DEFAULT_PROJ,
                     activation: str = "relu",
                     output_streams=DEFAULT_STREAMS,
                     precision: str = "fp32") -> NetworkConfig:
    """Build a config from the compact "Nc+Nd" / "N1,N2,s1,s2" notation.

    Nc memory-block layers come first (skip connections between consecutive
    blocks, so every block after the first has skip on), then Nd plain layers.
    """
    try:
        nc_s, nd_s = layer_counts.split("+")
        nc, nd = int(nc_s), int(nd_s)
    except ValueError:
        raise ConfigError(f"layers: expected 'Nc+Nd', got {layer_counts!r}")
    parts = orders.split(",")
    if len(parts) != 4:
        raise ConfigError(f"order: expected 'N1,N2,s1,s2', got {orders!r}")
    try:
        n1, n2, s1, s2 = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"order: non-integer entry in {orders!r}")
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
    return NetworkConfig(input_dim, tuple(specs), tuple(output_streams), precision)


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


def preset_config(name: str, precision: str = "fp32") -> NetworkConfig:
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {' '.join(sorted(PRESETS))}")
    counts, orders = PRESETS[name]
    return expand_shorthand(counts, orders, precision=precision)


_TOP_KEYS = {"preset", "input_dim", "layers", "order", "hidden", "proj",
             "activation", "output_streams", "precision"}
_LAYER_TYPES = {"dfsmn": DfsmnLayerSpec, "fc": FcLayerSpec}


def _reject_unknown(d: dict, allowed: set, loc: str) -> None:
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"{loc}: unknown key(s) {sorted(extra)}")


def parse_config(text: str) -> NetworkConfig:
    """Parse a JSON config document (full layer list, shorthand, or preset)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    _reject_unknown(doc, _TOP_KEYS, "config")

    if "preset" in doc:
        extra = set(doc) - {"preset", "precision"}
        if extra:
            raise ConfigError(f"config: preset cannot be combined with {sorted(extra)}")
        return preset_config(doc["preset"], doc.get("precision", "fp32"))

    if "layers" not in doc:
        raise ConfigError("config: missing 'layers'")
    streams = _parse_streams(doc.get("output_streams"))
    common = dict(
        input_dim=doc.get("input_dim", DEFAULT_INPUT_DIM),
        output_streams=streams,
        precision=doc.get("precision", "fp32"),
    )

    if isinstance(doc["layers"], str):
        if not isinstance(doc.get("order"), str):
            raise ConfigError("config: shorthand 'layers' needs an 'order' string")
        try:
            return expand_shorthand(
                doc["layers"], doc["order"],
                hidden=doc.get("hidden", DEFAULT_HIDDEN),
                proj=doc.get("proj", DEFAULT_PROJ),
                activation=doc.get("activation", "relu"), **common)
        except ConfigError:
            raise
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e))

    if not isinstance(doc["layers"], list):
        raise ConfigError("layers: must be a list or 'Nc+Nd' string")
    for key in ("order", "hidden", "proj", "activation"):
        if key in doc:
            raise ConfigError(f"config: {key!r} only applies to shorthand 'layers'")
    specs = []
    for li, entry in enumerate(doc["layers"]):
        loc = f"layers[{li}]"
        if not isinstance(entry, dict) or "type" not in entry:
            raise ConfigError(f"{loc}: expected an object with a 'type' key")
        kind = entry["type"]
        if not isinstance(kind, str) or kind not in _LAYER_TYPES:
            raise ConfigError(f"{loc}.type: unknown {kind!r}")
        cls = _LAYER_TYPES[kind]
        _reject_unknown(entry, {"type"} | _field_names(cls), loc)
        specs.append(cls(**{k: v for k, v in entry.items() if k != "type"}))
    try:
        return NetworkConfig(layers=tuple(specs), **common)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e))


def _parse_streams(entries) -> tuple:
    if entries is None:
        return DEFAULT_STREAMS
    if not isinstance(entries, list) or not entries:
        raise ConfigError("output_streams: must be a non-empty list")
    out = []
    for si, entry in enumerate(entries):
        loc = f"output_streams[{si}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{loc}: expected an object")
        _reject_unknown(entry, _field_names(StreamSpec), loc)
        if "name" not in entry or "dim" not in entry:
            raise ConfigError(f"{loc}: needs 'name' and 'dim'")
        out.append(StreamSpec(**entry))
    return tuple(out)


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def config_to_dict(cfg: NetworkConfig) -> dict:
    kinds = {cls: kind for kind, cls in _LAYER_TYPES.items()}
    return {
        "input_dim": cfg.input_dim,
        "layers": [{"type": kinds[type(s)], **asdict(s)} for s in cfg.layers],
        "output_streams": [asdict(s) for s in cfg.output_streams],
        "precision": cfg.precision,
    }


def config_to_json(cfg: NetworkConfig) -> str:
    """Canonical (byte-stable) JSON form used for embedding in model files."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# parameters

@dataclass
class Affine:
    """Weight and bias of a plain affine layer or an output head."""

    weight: np.ndarray  # d_in x d_out
    bias: np.ndarray    # d_out


@dataclass
class NetworkParams:
    layers: list = field(default_factory=list)  # DfsmnLayerParams or Affine
    heads: dict = field(default_factory=dict)   # stream name -> Affine


def iter_tensors(cfg: NetworkConfig, params: NetworkParams) -> Iterator[tuple]:
    """Yield ("class", "path", array) for every tensor, in declaration order.

    The class tag groups tensors for gradient-check reporting and the order
    defines the model-file layout, so it must stay stable.
    """
    for li, (spec, p) in enumerate(zip(cfg.layers, params.layers)):
        if isinstance(spec, DfsmnLayerSpec):
            yield "proj_weight", f"layer{li}.proj_weight", p.proj_weight
            yield "proj_bias", f"layer{li}.proj_bias", p.proj_bias
            yield "back_taps", f"layer{li}.back_taps", p.back_taps
            yield "ahead_taps", f"layer{li}.ahead_taps", p.ahead_taps
            yield "out_weight", f"layer{li}.out_weight", p.out_weight
            yield "out_bias", f"layer{li}.out_bias", p.out_bias
        else:
            yield "fc_weight", f"layer{li}.weight", p.weight
            yield "fc_bias", f"layer{li}.bias", p.bias
    for s in cfg.output_streams:
        hp = params.heads[s.name]
        yield "head_weight", f"head.{s.name}.weight", hp.weight
        yield "head_bias", f"head.{s.name}.bias", hp.bias


def layer_dims(cfg: NetworkConfig) -> list:
    """Input width of every layer plus the final hidden width."""
    return [cfg.input_dim] + [spec.hidden for spec in cfg.layers]


def zeros_network(cfg: NetworkConfig) -> NetworkParams:
    """Zero-filled parameters of the configured shapes; the one place that
    writes the tensor layout down (iter_tensors fixes the order)."""
    dt = cfg.dtype()
    dims = layer_dims(cfg)

    def zeros(*shape):
        return np.zeros(shape, dtype=dt)

    params = NetworkParams()
    for spec, d_in in zip(cfg.layers, dims):
        if isinstance(spec, DfsmnLayerSpec):
            params.layers.append(L.DfsmnLayerParams(
                proj_weight=zeros(d_in, spec.proj),
                proj_bias=zeros(spec.proj),
                back_taps=zeros(spec.n_back + 1, spec.proj),
                ahead_taps=zeros(spec.n_ahead, spec.proj),
                out_weight=zeros(spec.proj, spec.hidden),
                out_bias=zeros(spec.hidden),
            ))
        else:
            params.layers.append(Affine(zeros(d_in, spec.hidden), zeros(spec.hidden)))
    for s in cfg.output_streams:
        params.heads[s.name] = Affine(zeros(dims[-1], s.dim), zeros(s.dim))
    return params


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
            arr[...] = seeded_normal(derive_seed(seed, k), rows, cols,
                                     stddev=1.0 / np.sqrt(rows), dtype=arr.dtype)
    return params


def count_params(cfg: NetworkConfig) -> int:
    """Exact scalar count from the closed-form per-layer sums."""
    dims = layer_dims(cfg)
    total = 0
    for li, spec in enumerate(cfg.layers):
        d_in = dims[li]
        if isinstance(spec, DfsmnLayerSpec):
            total += d_in * spec.proj + spec.proj
            total += (spec.n_back + 1 + spec.n_ahead) * spec.proj
            total += spec.proj * spec.hidden + spec.hidden
        else:
            total += d_in * spec.hidden + spec.hidden
    for s in cfg.output_streams:
        total += dims[-1] * s.dim + s.dim
    return total


# ---------------------------------------------------------------------------
# forward / backward

@dataclass
class NetworkCache:
    cfg: NetworkConfig
    layer_caches: list
    top_hidden: np.ndarray
    head_pre: dict
    head_out: dict
    params: NetworkParams


def forward(params: NetworkParams, cfg: NetworkConfig, input_seq, bounds=None) -> tuple:
    """Run the stack; returns ({stream: T x dim}, cache for backward). bounds
    lists the (start, end) rows of the sequences packed into input_seq."""
    x = as_sequence(input_seq, dtype=cfg.dtype())
    if x.shape[1] != cfg.input_dim:
        raise ShapeError(f"input dim {x.shape[1]} != configured {cfg.input_dim}")
    caches = []
    prev_ptilde = None
    h = x
    for spec, p in zip(cfg.layers, params.layers):
        if isinstance(spec, DfsmnLayerSpec):
            skip_seq = prev_ptilde if spec.skip else None
            h, cache, ptilde = L.dfsmn_layer_forward(h, p, spec, skip_seq, bounds=bounds)
            prev_ptilde = ptilde
        else:
            h, cache = L.fc_layer_forward(h, p.weight, p.bias, spec.activation)
            prev_ptilde = None
        caches.append(cache)
    head_pre = {}
    head_out = {}
    for s in cfg.output_streams:
        hp = params.heads[s.name]
        pre = h @ hp.weight + hp.bias
        head_pre[s.name] = pre
        head_out[s.name] = L.activate(s.activation, pre)
    return head_out, NetworkCache(cfg, caches, h, head_pre, head_out, params)


def backward(cache: NetworkCache, grad_streams: dict,
             want_input_grad: bool = False):
    """Back-propagate per-stream output gradients to every parameter.

    Stream gradients join at the shared trunk; skip-path gradients are routed
    back to the producing layer's memory-block sum. Returns parameter grads
    shaped like NetworkParams, plus the input gradient when requested.
    """
    cfg = cache.cfg
    names = {s.name for s in cfg.output_streams}
    if set(grad_streams) != names:
        raise KeyError(f"stream gradients {sorted(grad_streams)}, want {sorted(names)}")

    grads = NetworkParams()
    grad_top = np.zeros_like(cache.top_hidden)
    for s in cfg.output_streams:
        g = grad_streams[s.name]
        pre = cache.head_pre[s.name]
        out = cache.head_out[s.name]
        if g.shape != out.shape:
            raise ShapeError(f"stream {s.name!r}: grad shape {g.shape} != {out.shape}")
        dpre = g * L.activate_grad(s.activation, pre, out)
        hp = cache.params.heads[s.name]
        grads.heads[s.name] = Affine(cache.top_hidden.T @ dpre, dpre.sum(axis=0))
        grad_top += dpre @ hp.weight.T

    layer_grads = [None] * len(cfg.layers)
    grad_h = grad_top
    pending_skip = None  # gradient owed to the previous layer's ptilde
    for li in range(len(cfg.layers) - 1, -1, -1):
        spec = cfg.layers[li]
        lcache = cache.layer_caches[li]
        if isinstance(spec, DfsmnLayerSpec):
            grad_h, g_skip, lg = L.layer_backward(lcache, grad_h, pending_skip)
            layer_grads[li] = lg
            pending_skip = g_skip
        else:
            assert pending_skip is None
            grad_h, dw, db = L.fc_layer_backward(lcache, grad_h)
            layer_grads[li] = Affine(dw, db)
            pending_skip = None
    grads.layers = layer_grads
    if want_input_grad:
        return grads, grad_h
    return grads
