"""Self-describing binary model files.

Layout (all integers little-endian uint32 unless noted):

    magic   b"DFSM"
    version 1
    config  length-prefixed canonical JSON (utf-8)
    tensors in declaration order, each as: ndim, dims..., raw payload

Payload dtype follows the embedded config's precision flag ("<f4" or "<f8").
Saving writes each tensor's buffer straight to the file. A _FileReader has
two moves, each checked against the file's length first, so no size a
header claims sizes a read or an allocation unchecked: take(n) reads the
next n bytes, skip(n) moves past them and returns their offset. Loading
makes two passes over the one open file. The header pass checks every
tensor header in file order and skips its payload; the payload pass, fill,
then reads every payload straight into its uninitialised tensor with
positioned reads (os.preadv, which the loader needs), on one thread per
CPU, largest first. fill runs once, in a finally, so a failed load returns
nothing and raises what a serial reader would: the first header or payload,
in file order, that is malformed or comes back short. Neither direction
holds a second copy of the parameters; save(load(f)) reproduces f bit for
bit. Feature files share the framing and the payload reads: `_header`
writes the magic and version, `_FileReader.framed` checks them and that no
byte is left over, and `_FileReader.fill` reads payloads.
"""

from __future__ import annotations

import os
import struct
import sys
from contextlib import contextmanager

import numpy as np

from . import tensor
from .network import (ConfigError, NetworkConfig, NetworkParams, _alloc_network,
                      config_to_json, count_params, iter_tensors, parse_config)

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
        that ends without error must have read the whole file. Every
        ModelFileError or ConfigError raised in the block, or by these
        checks, keeps its type and gains the prefix "path: "."""
        try:
            with open(path, "rb") as f:
                r = cls(f)
                got = r.take(len(magic))
                if got != magic:
                    raise BadMagicError(f"bad magic {got!r}, expected {magic!r}")
                got = r.u32()
                if got != version:
                    raise VersionMismatchError(
                        f"file version {got}, reader supports {version}")
                yield r
                if r.pos != r.size:
                    raise ModelFileError(f"{r.size - r.pos} trailing bytes at offset {r.pos}")
        except (ModelFileError, ConfigError) as e:
            e.args = (f"{path}: {e}",)
            raise

    def skip(self, n: int) -> int:
        """Move past the next n bytes, which must be in the file; returns their offset."""
        if self.pos + n > self.size:
            raise TruncatedFileError(
                f"needed {n} bytes at offset {self.pos}, file has {self.size}")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        """The next n bytes: skip(n), then a read there."""
        offset = self.skip(n)
        self.f.seek(offset)
        out = self.f.read(n)
        _check_read(len(out), n, offset)
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, what: str) -> str:
        """A u32-length-prefixed utf-8 string."""
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ModelFileError(f"{what} is not valid utf-8: {e}")

    def fill(self, payloads) -> None:
        """Read each (offset, arr) of payloads into its C-contiguous,
        native-order arr, from values stored little-endian. The reads run
        largest first on one thread per CPU, all joined before this returns;
        a short one is raised in file order, as a serial reader would."""
        fd = self.f.fileno()
        got = [0] * len(payloads)

        def read(i):
            offset, arr = payloads[i]
            got[i] = _read_at(fd, arr.reshape(-1).view(np.uint8), offset)

        order = sorted(range(len(payloads)), key=lambda i: -payloads[i][1].nbytes)
        tensor._run_threads(read, order, min(tensor._draw_workers(), len(order)))
        for (offset, arr), n in zip(payloads, got):
            _check_read(n, arr.nbytes, offset)
            if sys.byteorder == "big":
                arr.byteswap(inplace=True)


def _check_read(got: int, n: int, offset: int) -> None:
    """A read of n bytes at offset got fewer: the file shrank after its size
    was taken."""
    if got != n:
        raise TruncatedFileError(f"needed {n} bytes at offset {offset}, read {got}")


def _read_at(fd: int, buf: np.ndarray, offset: int) -> int:
    """Read into buf from offset until it is full or the file ends; returns
    the bytes read. One preadv may return less than asked: Linux moves at
    most 0x7ffff000 bytes per call."""
    got = 0
    while got < len(buf):
        n = os.preadv(fd, [buf[got:]], offset + got)
        if n == 0:
            break
        got += n
    return got


def load_model(path):
    """Read a model file back; returns (params, cfg)."""
    with _FileReader.framed(path, MAGIC, VERSION) as r:
        cfg = parse_config(r.text("embedded config"))
        payload = count_params(cfg) * cfg.dtype().itemsize
        left = r.size - r.pos
        if left < payload:
            raise TruncatedFileError(
                f"config needs {payload} payload bytes, file has {left} after it")
        params = _alloc_network(cfg, np.empty)
        payloads = []
        try:
            for _, path_name, arr in iter_tensors(cfg, params):
                ndim = r.u32()
                if ndim != arr.ndim:
                    raise ModelFileError(
                        f"tensor {path_name}: stored ndim {ndim} != expected {arr.ndim}")
                shape = tuple(r.u32() for _ in range(ndim))
                if shape != arr.shape:
                    raise ModelFileError(
                        f"tensor {path_name}: stored shape {shape} != expected {arr.shape}")
                payloads.append((r.skip(arr.nbytes), arr))
        finally:
            # on a header fault too: a serial reader would have met a short
            # payload before it
            r.fill(payloads)
    return params, cfg
