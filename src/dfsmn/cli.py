"""Command-line entry point.

Subcommands: analyze (cost/context report), gradcheck (finite-difference
verification), synthdata (deterministic synthetic datasets), train, eval.
Exit codes: 0 success, 1 check or experiment failure, 2 usage/validation
error. All randomness flows from --seed (default 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, metrics, trainer
from . import network as net
from .features import load_dataset, write_dataset
from .model_io import ModelFileError, load_model, save_model
from .network import ConfigError, parse_config, preset_config
from .tensor import ShapeError


def _load_config_arg(args) -> net.NetworkConfig:
    if getattr(args, "preset", None):
        return preset_config(args.preset)
    with open(args.config) as f:
        return parse_config(f.read())


def cmd_analyze(args) -> int:
    if args.table:
        text, records = analysis.table_report(sorted(net.PRESETS))
        print(text)
        if args.out:
            _write_records(args.out, records)
        return 0
    cfg = _load_config_arg(args)
    report = analysis.analyze(cfg, args.preset or "custom")
    for key, value in report.to_dict().items():
        if key == "param_count":
            print(f"{key:<18} {value:,}")
        elif isinstance(value, float):
            print(f"{key:<18} {value:.4f}")
        elif value is None:
            print(f"{key:<18} -")
        else:
            print(f"{key:<18} {value}")
    if args.out:
        _write_records(args.out, [report.to_dict()])
    return 0


def _write_records(path, records) -> None:
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_gradcheck(args) -> int:
    cfg = _load_config_arg(args)
    report = trainer.grad_check(cfg, frames=args.frames, seed=args.seed,
                                step=args.step, tolerance=args.tol)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_synthdata(args) -> int:
    spec = trainer.SyntheticTaskSpec(
        kind=args.task, input_dim=args.dim, lag=args.lag,
        noise_std=args.noise_std, num_sequences=args.sequences,
        seq_len=args.len, valid_sequences=args.valid_sequences)
    train_set, valid_set = trainer.gen_task(spec, args.seed)
    write_dataset(os.path.join(args.out, "train"), train_set)
    write_dataset(os.path.join(args.out, "valid"), valid_set)
    print(f"wrote {len(train_set)} train / {len(valid_set)} valid sequences "
          f"to {args.out}")
    return 0


def cmd_train(args) -> int:
    tc = trainer.TrainConfig(batch_frames=args.batch_frames, lr=args.lr,
                             max_epochs=args.epochs, seed=args.seed,
                             min_improvement=args.min_improvement,
                             patience=args.patience)
    cfg = _load_config_arg(args)
    train_set = load_dataset(os.path.join(args.data, "train"))
    valid_dir = os.path.join(args.data, "valid")
    valid_set = load_dataset(valid_dir) if os.path.isdir(valid_dir) else None
    params = net.build_network(cfg, args.seed)
    params, history = trainer.train(cfg, params, train_set, tc, valid_set)
    save_model(params, cfg, args.out)
    history_path = args.history or args.out + ".history"
    with open(history_path, "w") as f:
        for row in history:
            f.write(f"{row.epoch}\t{row.lr:.10g}\t{row.train_mse:.10g}"
                    f"\t{row.valid_mse:.10g}\n")
    final = history[-1]
    print(f"trained {len(history)} epochs; final train_mse {final.train_mse:.6g} "
          f"valid_mse {final.valid_mse:.6g}; model written to {args.out}")
    return 0


def _paired(ref_set, hyp_set) -> list:
    """hyp_set's sequences in ref_set's order, matched by seq_id; the id sets
    and each id's frame count must agree."""
    by_id = {seq.seq_id: seq for seq in hyp_set}
    ref_ids = {seq.seq_id for seq in ref_set}
    if by_id.keys() != ref_ids:
        raise ValueError(f"hypothesis ids differ from reference: only in reference "
                         f"{sorted(ref_ids - by_id.keys())}, only in hypothesis "
                         f"{sorted(by_id.keys() - ref_ids)}")
    unequal = [seq.seq_id for seq in ref_set if by_id[seq.seq_id].frames != seq.frames]
    if unequal:
        raise ValueError(f"hypothesis frame counts differ from reference for {unequal}")
    return [by_id[seq.seq_id] for seq in ref_set]


def _all_streams(dataset) -> dict:
    """Every target stream that any sequence carries, stacked in dataset order."""
    names = set().union(*(seq.targets for seq in dataset))
    return trainer.stack_targets(dataset, sorted(names))


def cmd_eval(args) -> int:
    if args.hyp:
        ref_set = load_dataset(args.data)
        ref = _all_streams(ref_set)
        hyp = _all_streams(_paired(ref_set, load_dataset(args.hyp)))
    else:
        params, cfg = load_model(args.model)
        dataset = load_dataset(args.data)
        trainer.check_dataset(cfg, dataset)
        hyp = trainer.predict(params, cfg, dataset)
        ref = trainer.stack_targets(dataset, hyp, cfg.dtype())

    common = sorted(set(ref) & set(hyp))
    print(f"streams: {' '.join(common)}")
    print(f"total_mse {metrics.total_mse({k: ref[k] for k in common}, {k: hyp[k] for k in common}):.6g}")

    if "mcep" in common and ref["mcep"].shape[1] >= 2:
        print(f"mcd_db {metrics.mcd(ref['mcep'], hyp['mcep']):.6g}")
    else:
        print("mcd_db skipped (no mcep stream)")
    if "lf0" in common and "uv" in common:
        ref_hz = np.exp(ref["lf0"][:, 0].astype(np.float64))
        try:
            value = metrics.f0_rmse(ref_hz, hyp["lf0"].astype(np.float64),
                                    ref["uv"], hyp["uv"])
            print(f"f0_rmse_hz {value:.6g}")
        except ValueError as e:
            print(f"f0_rmse_hz skipped ({e})")
    else:
        print("f0_rmse_hz skipped (needs lf0 and uv streams)")
    if "bap" in common:
        print(f"bapd {metrics.bapd(ref['bap'], hyp['bap']):.6g}")
    else:
        print("bapd skipped (no bap stream)")
    if "uv" in common:
        print(f"uv_error {metrics.uv_error(ref['uv'], hyp['uv']):.6g}")
    else:
        print("uv_error skipped (no uv stream)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsmn",
        description="memory-network acoustic models: analysis, training, metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="cost/context report for a config or preset")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", help="built-in preset name (A..I)")
    g.add_argument("--config", help="JSON config file")
    g.add_argument("--table", action="store_true",
                   help="report every built-in preset as a table")
    p.add_argument("--out", help="also write machine-readable records (JSONL)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--config", required=True, help="fp64 JSON config file")
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synthdata", help="generate a deterministic synthetic dataset")
    p.add_argument("--task", choices=["echo", "acoustic_toy"], default="echo")
    p.add_argument("--lag", type=int, default=0)
    p.add_argument("--dim", type=int, default=1, help="input feature dim")
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--sequences", type=int, default=16)
    p.add_argument("--valid-sequences", type=int, default=0,
                   help="0 means num_sequences // 4")
    p.add_argument("--len", type=int, default=64)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synthdata)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset")
    g.add_argument("--config")
    p.add_argument("--data", required=True, help="directory with train/ and valid/")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-frames", type=int, default=512)
    p.add_argument("--min-improvement", type=float, default=0.005)
    p.add_argument("--patience", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", help="history file (default MODEL.history)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="objective measures of a model on a dataset")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--model", help="model file")
    g.add_argument("--hyp", help="hypothesis dataset (direct comparison mode)")
    p.add_argument("--data", required=True, help="reference dataset directory")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ShapeError, ModelFileError, OSError, KeyError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
