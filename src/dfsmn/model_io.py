"""Self-describing binary model files.

Layout (all integers little-endian uint32 unless noted):

    magic   b"DFSM"
    version 1
    config  length-prefixed canonical JSON (utf-8)
    tensors in declaration order, each as: ndim, dims..., raw payload

Payload dtype follows the embedded config's precision flag ("<f4" or "<f8").
Files stream tensor by tensor: saving writes each tensor's buffer straight
to the file, and loading reads each payload straight into its zero-filled
tensor (no seeded init), so neither holds a second copy of the parameters.
Every size a header claims is checked against the file's length before the
read or allocation it would size. Round-trips are byte-exact: save(load(f))
reproduces f bit for bit. Feature files share the framing: `_header` writes
the magic and version, `_FileReader.framed` checks them and that no byte is
left over.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from contextlib import contextmanager

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


def save_model(params: NetworkParams, cfg: NetworkConfig, path) -> None:
    cfg_bytes = config_to_json(cfg).encode("utf-8")
    wire = cfg.dtype().newbyteorder("<")
    with open(path, "wb") as f:
        f.write(_header(MAGIC, VERSION, len(cfg_bytes)) + cfg_bytes)
        for _, _, arr in iter_tensors(cfg, params):
            f.write(struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype=wire).data)


def _header(magic: bytes, version: int, *fields: int) -> bytes:
    """A file's opening bytes: magic, then version and fields as u32s."""
    return magic + struct.pack(f"<{1 + len(fields)}I", version, *fields)


class _FileReader:
    """Bounds-checked reads straight from an open file, each checked against
    the file's size (os.fstat) before it is made."""

    def __init__(self, f):
        self.f = f
        self.pos = 0
        self.size = os.fstat(f.fileno()).st_size

    @classmethod
    @contextmanager
    def framed(cls, path, magic: bytes, version: int):
        """A reader of path, which must open with magic and version; a block
        that ends without error must have read the whole file."""
        with open(path, "rb") as f:
            r = cls(f)
            got = r.take(len(magic))
            if got != magic:
                raise BadMagicError(f"bad magic {got!r}, expected {magic!r}")
            got = r.u32()
            if got != version:
                raise VersionMismatchError(f"file version {got}, reader supports {version}")
            yield r
            if r.pos != r.size:
                raise ModelFileError(f"{r.size - r.pos} trailing bytes at offset {r.pos}")

    def _check_left(self, n: int) -> None:
        """The next n bytes must lie inside the file."""
        if self.pos + n > self.size:
            raise TruncatedFileError(
                f"needed {n} bytes at offset {self.pos}, file has {self.size}")

    def _claim(self, n: int) -> None:
        """Advance past the next n bytes."""
        self._check_left(n)
        self.pos += n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.f.read(n)
        self._check_read(len(out), n)
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, what: str) -> str:
        """A u32-length-prefixed utf-8 string."""
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ModelFileError(f"{what} is not valid utf-8: {e}")

    def read_into(self, arr: np.ndarray) -> None:
        """Fill the C-contiguous, native-order arr with its values stored
        little-endian in the next arr.nbytes bytes of the file."""
        self._claim(arr.nbytes)
        self._check_read(self.f.readinto(arr), arr.nbytes)
        if sys.byteorder == "big":
            arr.byteswap(inplace=True)

    def read_array(self, shape: tuple, dtype) -> np.ndarray:
        """A new array of shape and native dtype, filled by read_into; the
        file must hold its bytes before it is allocated."""
        self._check_left(math.prod(shape) * np.dtype(dtype).itemsize)
        arr = np.empty(shape, dtype)
        self.read_into(arr)
        return arr

    def _check_read(self, got: int, n: int) -> None:
        """The file held fewer bytes than its size promised (it shrank)."""
        if got != n:
            raise TruncatedFileError(
                f"needed {n} bytes at offset {self.pos - n}, read {got}")


def load_model(path):
    """Read a model file back; returns (params, cfg)."""
    with _FileReader.framed(path, MAGIC, VERSION) as r:
        cfg = parse_config(r.text("embedded config"))
        payload = count_params(cfg) * cfg.dtype().itemsize
        left = r.size - r.pos
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
            r.read_into(arr)
    return params, cfg
