"""Per-sequence binary feature files and the dataset directory layout.

Feature file layout (little-endian uint32 fields):

    magic   b"FEAT"
    version 1
    frames  T
    dim     D
    name    length-prefixed stream name (utf-8)
    payload T*D float32 values, row-major

Magic and version are written and checked by model_io, as for model files.

A dataset directory holds one file per sequence per stream, named
"<id>.<stream>.feat", plus "manifest.txt" with one "<id><TAB><frames>" line
per sequence. The network input stream is always called "input".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .model_io import ModelFileError, _FileReader, _header

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
        f.write(_header(FEATURE_MAGIC, FEATURE_VERSION, *arr.shape, len(name_bytes)))
        f.write(name_bytes)
        f.write(arr.tobytes())


def read_feature(path):
    """Returns (stream_name, T x D float32 array). The file is read as a
    stream, and the payload size its header claims is checked against the
    file's length before the array is allocated."""
    with _FileReader.framed(path, FEATURE_MAGIC, FEATURE_VERSION) as r:
        frames, dim = r.u32(), r.u32()
        name = r.text("stream name")
        data = r.read_array((frames, dim), np.float32)
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
        if INPUT_STREAM not in streams_of[seq_id]:
            raise FileNotFoundError(f"{dirpath}: sequence {seq_id} has no input file")
        data = {}
        for stream in sorted(streams_of[seq_id]):
            fn = f"{seq_id}.{stream}.feat"
            name, data[stream] = read_feature(os.path.join(dirpath, fn))
            if name != stream:
                raise ModelFileError(
                    f"{fn}: header stream {name!r} != filename stream {stream!r}")
            got = len(data[stream])
            if got != frames:
                raise ValueError(f"{seq_id}.{stream}: {got} frames, manifest says {frames}")
        dataset.append(SequenceData(seq_id, data.pop(INPUT_STREAM), data))
    return dataset
