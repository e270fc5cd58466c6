#!/usr/bin/env python3
"""Seeded end-to-end outputs of the dfsmn CLI and one sha256 per artifact.

Runs, in process and in a few seconds: echo and acoustic_toy `synthdata`;
`train` of a per-tap-walk net (orders 3,2) and a GEMM-path net (orders
10,8) on the toy set, each with its history; `gradcheck` of an fp64 config;
and `eval --model` (both nets) and `eval --hyp` (two toy sets drawn from
different seeds). Every artifact is written under --out and its digest is
printed as "<sha256>  <artifact>", so two runs compare with `diff`.

The digests depend on the BLAS build and CPU, so compare runs made on one
machine, for example a checkout against a copy of its parent commit:

    PYTHONPATH=src python scripts/output_digests.py --out /tmp/new > new.txt
    PYTHONPATH=/path/to/parent/src python scripts/output_digests.py \\
        --out /tmp/old > old.txt
    diff old.txt new.txt
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys

from dfsmn import trainer
from dfsmn.cli import main as dfsmn

SEED = 0  # toy_other, the --hyp side of eval --hyp, is drawn from SEED + 1


def mb_layer(n_back, n_ahead, skip, hidden=16, proj=8):
    return {"type": "dfsmn", "hidden": hidden, "proj": proj, "n_back": n_back,
            "n_ahead": n_ahead, "stride_back": 1, "stride_ahead": 1, "skip": skip,
            "activation": "relu"}


TOY_STREAMS = [dict(name=n, dim=d, **({"activation": "sigmoid"} if n == "uv" else {}))
               for n, d in sorted(trainer.TOY_DIMS.items())]
TOY_DIM = 5

NETS = {  # name -> (n_back, n_ahead) of both memory-block layers
    "walk": (3, 2),    # 6 taps: per-tap walk
    "gemm": (10, 8),   # 19 taps: Toeplitz-block GEMM
}

GRADCHECK_CONFIG = {
    "input_dim": 4,
    "layers": [mb_layer(2, 1, False, 6, 3), mb_layer(2, 1, True, 6, 3),
               {"type": "fc", "hidden": 5, "activation": "tanh"}],
    "output_streams": [{"name": "y", "dim": 2}, {"name": "v", "dim": 1,
                                                  "activation": "sigmoid"}],
    "precision": "fp64",
}


def run(argv, stdout_path=os.devnull) -> None:
    """dfsmn argv with its stdout written to stdout_path; any nonzero exit
    ends the script."""
    with open(stdout_path, "w") as f, contextlib.redirect_stdout(f):
        code = dfsmn(argv)
    if code != 0:
        sys.exit(f"dfsmn {' '.join(argv)} exited {code}")


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

    for name, (n_back, n_ahead) in NETS.items():
        cfg_path = out(f"{name}.json")
        with open(cfg_path, "w") as f:
            json.dump({"input_dim": TOY_DIM,
                       "layers": [mb_layer(n_back, n_ahead, False),
                                  mb_layer(n_back, n_ahead, True)],
                       "output_streams": TOY_STREAMS, "precision": "fp32"}, f)
        run(["train", "--config", cfg_path, "--data", out("toy"), "--out",
             out(f"{name}.dfsmn"), "--epochs", "4", "--lr", "0.05",
             "--batch-frames", "64", "--seed", seed])
        run(["eval", "--model", out(f"{name}.dfsmn"), "--data", out("toy/valid")],
            out(f"{name}.eval.txt"))
        artifacts += [f"{name}.dfsmn", f"{name}.dfsmn.history", f"{name}.eval.txt"]

    with open(out("gradcheck.json"), "w") as f:
        json.dump(GRADCHECK_CONFIG, f)
    run(["gradcheck", "--config", out("gradcheck.json"), "--frames", "12",
         "--seed", seed], out("gradcheck.txt"))
    run(["eval", "--data", out("toy/train"), "--hyp", out("toy_other/train")],
        out("eval_hyp.txt"))
    artifacts += ["gradcheck.txt", "eval_hyp.txt"]

    for name in artifacts:
        print(f"{digest(out(name))}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
