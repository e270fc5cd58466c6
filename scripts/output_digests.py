#!/usr/bin/env python3
"""Seeded end-to-end outputs of the dfsmn CLI and one sha256 per artifact.

Runs, in process and in a few seconds: echo and acoustic_toy `synthdata`;
`train` of a per-tap-walk net (orders 3,2) and a GEMM-path net (orders
10,8) on the toy set, each with its history; `gradcheck` of an fp64 config;
`eval --model` (both nets); `eval --hyp` of two toy sets drawn from
different seeds, and of the echo set against itself, which skips all four
acoustic measures and so pins their skip lines; and one full-width
artifact, a preset-E packed forward and backward, run on the net after a
save and load, whose per-tensor digests show GEMM, blocking and loader
effects that the toy nets are too small to reach. Every artifact is
written under --out and its digest is printed as "<sha256>  <artifact>".

The digests depend on the BLAS build, its version and thread count, numpy
and the CPU; a "# <field> <value>" header line names each, so a `diff` of
two runs also shows why two machines' digests differ. Compare runs made on
one machine at one thread count, for example a checkout against a copy of
its parent commit:

    export OPENBLAS_NUM_THREADS=1
    PYTHONPATH=src python scripts/output_digests.py --out /tmp/new > new.txt
    PYTHONPATH=/path/to/parent/src python scripts/output_digests.py \\
        --out /tmp/old > old.txt
    diff old.txt new.txt
"""

import argparse
import contextlib
import hashlib
import os
import sys

import numpy as np

from dfsmn import model_io, network, trainer
from dfsmn.cli import main as dfsmn
from dfsmn.network import DfsmnLayerSpec, FcLayerSpec, NetworkConfig, StreamSpec
from dfsmn.tensor import derive_seed, seeded_normal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import stamp  # noqa: E402  (perfbench's environment stamp)

SEED = 0  # toy_other, the --hyp side of eval --hyp, is drawn from SEED + 1
FULL_WIDTH_LENGTHS = (400, 300)  # frames of the two packed preset-E sequences

TOY_STREAMS = tuple(StreamSpec(n, d, "sigmoid" if n == "uv" else "linear")
                    for n, d in sorted(trainer.TOY_DIMS.items()))
TOY_DIM = 5


def toy_net(n_back, n_ahead):
    """Two memory blocks, hidden 16 and proj 8, the second with skip."""
    return NetworkConfig(TOY_DIM, (DfsmnLayerSpec(16, 8, n_back, n_ahead),
                                   DfsmnLayerSpec(16, 8, n_back, n_ahead, skip=True)),
                         TOY_STREAMS)


# 6 taps run the per-tap walk, 19 the Toeplitz-block GEMM
NETS = {"walk": toy_net(3, 2), "gemm": toy_net(10, 8)}

GRADCHECK_CONFIG = NetworkConfig(
    4, (DfsmnLayerSpec(6, 3, 2, 1), DfsmnLayerSpec(6, 3, 2, 1, skip=True),
        FcLayerSpec(5, "tanh")),
    (StreamSpec("y", 2), StreamSpec("v", 1, "sigmoid")), "fp64")


def run(argv, stdout_path=os.devnull) -> None:
    """dfsmn argv with its stdout written to stdout_path; any nonzero exit
    ends the script."""
    with open(stdout_path, "w") as f, contextlib.redirect_stdout(f):
        code = dfsmn(argv)
    if code != 0:
        sys.exit(f"dfsmn {' '.join(argv)} exited {code}")


def full_width(path) -> None:
    """Preset E at full width, taps drawn nonzero, saved to a model file and
    loaded back: one forward of two packed sequences and the backward of
    seeded output gradients, run on the loaded net. Writes one line
    "<sha256>  <tensor> <shape>" per head output, parameter gradient and the
    input gradient."""
    cfg = network.preset_config("E")
    params = network.build_network(cfg, SEED)
    for k, (cls, _, arr) in enumerate(network.iter_tensors(cfg, params)):
        if cls.endswith("taps") and arr.size:
            seeded_normal(derive_seed(SEED, 1, k), *arr.shape, stddev=0.1, out=arr)
    model = path + ".dfsmn"
    model_io.save_model(params, cfg, model)
    del params  # the loader may get this memory back, not fresh pages
    params, cfg = model_io.load_model(model)
    os.remove(model)
    frames = sum(FULL_WIDTH_LENGTHS)
    bounds = [(0, FULL_WIDTH_LENGTHS[0]), (FULL_WIDTH_LENGTHS[0], frames)]

    def draw(stream, cols):
        return seeded_normal(derive_seed(SEED, 2, stream), frames, cols,
                             out=np.empty((frames, cols), cfg.dtype()))
    outs, cache = network.forward(params, cfg, draw(0, cfg.input_dim), bounds=bounds)
    tensors = [(f"out.{name}", arr) for name, arr in sorted(outs.items())]
    grads, grad_in = network.backward(cache, {s.name: draw(k + 1, s.dim) for k, s
                                              in enumerate(cfg.output_streams)})
    tensors += [(f"grad.{p}", arr) for _, p, arr in network.iter_tensors(cfg, grads)]
    tensors.append(("grad.input", grad_in))
    with open(path, "w") as f:
        for name, arr in tensors:
            f.write(f"{hashlib.sha256(arr.tobytes()).hexdigest()}  {name} "
                    f"{'x'.join(map(str, arr.shape))}\n")


def digest(path) -> str:
    """sha256 of a file, or of a directory's relative file names and bytes."""
    h = hashlib.sha256()
    if os.path.isfile(path):
        with open(path, "rb") as f:
            h.update(f.read())
        return h.hexdigest()
    for dirpath, _, files in sorted(os.walk(path)):
        for fn in sorted(files):
            full = os.path.join(dirpath, fn)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="directory for the artifacts")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    def out(name):
        return os.path.join(args.out, name)

    seed = str(SEED)
    artifacts = []

    run(["synthdata", "--task", "echo", "--lag", "3", "--dim", "2", "--noise-std", "0.1",
         "--sequences", "6", "--len", "24", "--seed", seed, "--out", out("echo")])
    toy = ["synthdata", "--task", "acoustic_toy", "--dim", str(TOY_DIM),
           "--sequences", "8", "--len", "40"]
    run(toy + ["--seed", seed, "--out", out("toy")])
    run(toy + ["--seed", str(SEED + 1), "--out", out("toy_other")])
    artifacts += ["echo", "toy", "toy_other"]

    for name, cfg in [*NETS.items(), ("gradcheck", GRADCHECK_CONFIG)]:
        with open(out(f"{name}.json"), "w") as f:
            f.write(network.config_to_json(cfg))
    for name in NETS:
        run(["train", "--config", out(f"{name}.json"), "--data", out("toy"), "--out",
             out(f"{name}.dfsmn"), "--epochs", "4", "--lr", "0.05",
             "--batch-frames", "64", "--seed", seed])
        run(["eval", "--model", out(f"{name}.dfsmn"), "--data", out("toy/valid")],
            out(f"{name}.eval.txt"))
        artifacts += [f"{name}.dfsmn", f"{name}.dfsmn.history", f"{name}.eval.txt"]

    run(["gradcheck", "--config", out("gradcheck.json"), "--frames", "12",
         "--seed", seed], out("gradcheck.txt"))
    run(["eval", "--data", out("toy/train"), "--hyp", out("toy_other/train")],
        out("eval_hyp.txt"))
    run(["eval", "--data", out("echo/train"), "--hyp", out("echo/train")],
        out("eval_hyp_echo.txt"))
    full_width(out("full_width_e.txt"))
    artifacts += ["gradcheck.txt", "eval_hyp.txt", "eval_hyp_echo.txt", "full_width_e.txt"]

    env = stamp.environment(ROOT, SEED)
    for field in ("blas", "blas_version", "blas_threads", "numpy", "cpu"):
        print(f"# {field} {env[field]}")
    for name in artifacts:
        print(f"{digest(out(name))}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
