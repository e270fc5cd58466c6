"""Per-sequence binary feature files and the dataset directory layout.

Feature file layout (little-endian uint32 fields):

    magic   b"FEAT"
    version 1
    frames  T
    dim     D
    name    length-prefixed stream name (utf-8)
    payload T*D float32 values, row-major

A dataset directory holds one file per sequence per stream, named
"<id>.<stream>.feat", plus "manifest.txt" with one "<id><TAB><frames>" line
per sequence. The network input stream is always called "input".
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .model_io import BadMagicError, ModelFileError, VersionMismatchError, _FileReader

FEATURE_MAGIC = b"FEAT"
FEATURE_VERSION = 1
INPUT_STREAM = "input"
MANIFEST_NAME = "manifest.txt"


def write_feature(path, stream_name: str, data: np.ndarray) -> None:
    arr = np.ascontiguousarray(data, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"feature payload must be T x D, got shape {arr.shape}")
    name_bytes = stream_name.encode("utf-8")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<IIII", FEATURE_VERSION, arr.shape[0], arr.shape[1],
                            len(name_bytes)))
        f.write(name_bytes)
        f.write(arr.tobytes())


def read_feature(path):
    """Returns (stream_name, T x D float32 array). The file is read as a
    stream, and the payload size its header claims is checked against the
    file's length before the array is allocated."""
    with open(path, "rb") as f:
        r = _FileReader(f)
        magic = r.take(4)
        if magic != FEATURE_MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
        version = r.u32()
        if version != FEATURE_VERSION:
            raise VersionMismatchError(
                f"feature version {version}, reader supports {FEATURE_VERSION}")
        frames, dim = r.u32(), r.u32()
        name = r.text("stream name")
        data = r.read_array((frames, dim), np.float32)
        if r.pos != r.size:
            raise ModelFileError(f"{r.size - r.pos} trailing bytes in feature file")
    return name, data


@dataclass
class SequenceData:
    seq_id: str
    inputs: np.ndarray                     # T x input_dim
    targets: dict = field(default_factory=dict)  # stream name -> T x dim

    @property
    def frames(self) -> int:
        return self.inputs.shape[0]


def write_dataset(dirpath, dataset) -> None:
    os.makedirs(dirpath, exist_ok=True)
    lines = []
    for seq in dataset:
        write_feature(os.path.join(dirpath, f"{seq.seq_id}.{INPUT_STREAM}.feat"),
                      INPUT_STREAM, seq.inputs)
        for stream in sorted(seq.targets):
            write_feature(os.path.join(dirpath, f"{seq.seq_id}.{stream}.feat"),
                          stream, seq.targets[stream])
        lines.append(f"{seq.seq_id}\t{seq.frames}\n")
    with open(os.path.join(dirpath, MANIFEST_NAME), "w") as f:
        f.writelines(lines)


def read_manifest(dirpath):
    """Returns [(seq_id, frames), ...] in manifest order; an id may appear once."""
    path = os.path.join(dirpath, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {dirpath}")
    entries = []
    first_line = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected 'id<TAB>frames'")
            if parts[0] in first_line:
                raise ValueError(f"{path}:{ln}: id {parts[0]!r} repeats line "
                                 f"{first_line[parts[0]]}")
            first_line[parts[0]] = ln
            entries.append((parts[0], int(parts[1])))
    return entries


def load_dataset(dirpath):
    """Load every sequence named by the manifest; target streams are inferred
    from the files present for each id."""
    manifest = read_manifest(dirpath)
    if not manifest:
        raise ValueError(f"{dirpath}: manifest lists no sequences")
    # "<id>.<stream>.feat" files, each filed under the longest manifest id
    # that is a prefix of it ending at one of its dots; names with an empty
    # stream part are skipped. The directory is listed once.
    streams_of = {seq_id: [] for seq_id, _ in manifest}
    for fn in os.listdir(dirpath):
        if not fn.endswith(".feat"):
            continue
        stem = fn[:-len(".feat")]
        for i in range(len(stem) - 1, -1, -1):
            if stem[i] == "." and stem[:i] in streams_of:
                if stem[i + 1:]:
                    streams_of[stem[:i]].append(stem[i + 1:])
                break
    dataset = []
    for seq_id, frames in manifest:
        prefix = f"{seq_id}."
        streams = sorted(streams_of[seq_id])
        if INPUT_STREAM not in streams:
            raise FileNotFoundError(f"{dirpath}: sequence {seq_id} has no input file")
        in_name, inputs = read_feature(
            os.path.join(dirpath, f"{prefix}{INPUT_STREAM}.feat"))
        if in_name != INPUT_STREAM:
            raise ModelFileError(
                f"{prefix}{INPUT_STREAM}.feat: header stream {in_name!r} != 'input'")
        targets = {}
        for stream in streams:
            if stream == INPUT_STREAM:
                continue
            name, data = read_feature(os.path.join(dirpath, f"{prefix}{stream}.feat"))
            if name != stream:
                raise ModelFileError(
                    f"{prefix}{stream}.feat: header stream {name!r} != filename stream")
            targets[stream] = data
        for stream, data in [(INPUT_STREAM, inputs), *targets.items()]:
            if data.shape[0] != frames:
                raise ValueError(
                    f"{seq_id}.{stream}: {data.shape[0]} frames, manifest says {frames}")
        dataset.append(SequenceData(seq_id, inputs, targets))
    return dataset
