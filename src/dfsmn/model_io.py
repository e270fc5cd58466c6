"""Self-describing binary model files.

Layout (all integers little-endian uint32 unless noted):

    magic   b"DFSM"
    version 1
    config  length-prefixed canonical JSON (utf-8)
    tensors in declaration order, each as: ndim, dims..., raw payload

Payload dtype follows the embedded config's precision flag ("<f4" or "<f8").
Loading allocates the tensors the embedded config describes, zero-filled and
with no seeded init, after checking that the bytes left after the config can
hold that many parameters. Round-trips are byte-exact: save(load(f))
reproduces f bit for bit.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .network import (NetworkConfig, NetworkParams, config_to_json, count_params,
                      iter_tensors, parse_config, zeros_network)

MAGIC = b"DFSM"
VERSION = 1


class ModelFileError(Exception):
    """Base for malformed model files."""


class BadMagicError(ModelFileError):
    pass


class VersionMismatchError(ModelFileError):
    pass


class TruncatedFileError(ModelFileError):
    pass


def _wire_dtype(cfg: NetworkConfig) -> np.dtype:
    return np.dtype("<f4" if cfg.precision == "fp32" else "<f8")


def save_model(params: NetworkParams, cfg: NetworkConfig, path) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    cfg_bytes = config_to_json(cfg).encode("utf-8")
    buf.write(struct.pack("<I", len(cfg_bytes)))
    buf.write(cfg_bytes)
    wire = _wire_dtype(cfg)
    for _, _, arr in iter_tensors(cfg, params):
        buf.write(struct.pack("<I", arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<I", d))
        buf.write(np.ascontiguousarray(arr, dtype=wire).tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFileError(
                f"needed {n} bytes at offset {self.pos}, file has {len(self.data)}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, what: str) -> str:
        """A u32-length-prefixed utf-8 string."""
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ModelFileError(f"{what} is not valid utf-8: {e}")


def load_model(path):
    """Read a model file back; returns (params, cfg)."""
    with open(path, "rb") as f:
        r = _Reader(f.read())
    magic = r.take(4)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = r.u32()
    if version != VERSION:
        raise VersionMismatchError(f"file version {version}, reader supports {VERSION}")
    cfg = parse_config(r.text("embedded config"))
    wire = _wire_dtype(cfg)
    payload = count_params(cfg) * wire.itemsize
    left = len(r.data) - r.pos
    if left < payload:
        raise TruncatedFileError(
            f"config needs {payload} payload bytes, file has {left} after it")
    params = zeros_network(cfg)
    for _, path_name, arr in iter_tensors(cfg, params):
        ndim = r.u32()
        if ndim != arr.ndim:
            raise ModelFileError(
                f"tensor {path_name}: stored ndim {ndim} != expected {arr.ndim}")
        shape = tuple(r.u32() for _ in range(ndim))
        if shape != arr.shape:
            raise ModelFileError(
                f"tensor {path_name}: stored shape {shape} != expected {arr.shape}")
        payload = r.take(arr.size * wire.itemsize)
        arr[...] = np.frombuffer(payload, dtype=wire).reshape(shape)
    if r.pos != len(r.data):
        raise ModelFileError(f"{len(r.data) - r.pos} trailing bytes after last tensor")
    return params, cfg
