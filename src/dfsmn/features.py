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
from .network import _VALUE_REPR

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
        f.write(arr.data)


def read_feature(path):
    """Returns (stream_name, T x D float32 array). The payload is skipped,
    which checks the size the header claims against the file's length,
    before the array is allocated and filled. A NaN or Inf value raises
    ModelFileError naming the file and its first place."""
    with _FileReader.framed(path, FEATURE_MAGIC, FEATURE_VERSION) as r:
        frames, dim = r.u32(), r.u32()
        name = r.text("stream name")
        offset = r.skip(frames * dim * 4)
        data = np.empty((frames, dim), np.float32)
        r.fill([(offset, data)])
    # min or max is NaN or infinite if any value is, so no payload-sized mask is made
    if not np.isfinite([data.min(initial=0), data.max(initial=0)]).all():
        t, d = np.argwhere(~np.isfinite(data))[0]
        raise ModelFileError(f"{path}: non-finite value at frame {t}, dim {d}")
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
    """Write dataset into dirpath. A .feat file there that this call does not
    write, which load_dataset would read as a stream, raises FileExistsError
    before any file is written."""
    names = {f"{seq.seq_id}.{s}.feat" for seq in dataset for s in (INPUT_STREAM, *seq.targets)}
    os.makedirs(dirpath, exist_ok=True)
    stale = sorted(fn for fn in os.listdir(dirpath)
                   if fn.endswith(".feat") and fn not in names)
    if stale:
        raise FileExistsError(f"{dirpath} holds {_VALUE_REPR.repr(stale[0])}, "
                              f"which this dataset does not write")
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
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except FileNotFoundError:
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {dirpath}") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    entries, first_line = [], {}
    for ln, line in enumerate(lines, 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected 'id<TAB>frames'")
        if parts[0] in first_line:
            raise ValueError(f"{path}:{ln}: id {_VALUE_REPR.repr(parts[0])} repeats line "
                             f"{first_line[parts[0]]}")
        first_line[parts[0]] = ln
        if not (parts[1].isascii() and parts[1].isdigit()):
            raise ValueError(f"{path}:{ln}: frame count {_VALUE_REPR.repr(parts[1])} "
                             f"is not a non-negative integer")
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
            raise FileNotFoundError(f"{dirpath}: sequence {_VALUE_REPR.repr(seq_id)} "
                                    f"has no input file")
        data = {}
        for stream in sorted(streams_of[seq_id]):
            path = os.path.join(dirpath, f"{seq_id}.{stream}.feat")
            name, data[stream] = read_feature(path)
            if name != stream:
                raise ModelFileError(
                    f"{path}: header stream {_VALUE_REPR.repr(name)} != filename stream "
                    f"{_VALUE_REPR.repr(stream)}")
            got = len(data[stream])
            if got != frames:
                raise ValueError(f"{path}: {got} frames, manifest says {frames}")
        dataset.append(SequenceData(seq_id, data.pop(INPUT_STREAM), data))
    return dataset
