"""Command-line entry point.

Subcommands: analyze (cost/context report), gradcheck (finite-difference
verification), synthdata (deterministic synthetic datasets), train, eval.
Exit codes: 0 success, 1 check or experiment failure, 2 usage/validation
error. All randomness flows from --seed (default 0).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, metrics, trainer
from . import network as net
from .features import load_dataset, write_dataset
from .model_io import ModelFileError, load_model, save_model
from .network import ConfigError, parse_config, preset_config


def _load_config_arg(args) -> net.NetworkConfig:
    if getattr(args, "preset", None):
        return preset_config(args.preset)
    try:
        with open(args.config, encoding="utf-8") as f:
            return parse_config(f.read())
    except (ConfigError, UnicodeDecodeError) as e:
        raise ConfigError(f"{args.config}: {e}") from None


def cmd_analyze(args) -> int:
    if args.table:
        text, records = analysis.table_report(sorted(net.PRESETS))
        print(text)
        if args.out:
            _write_records(args.out, records)
        return 0
    cfg = _load_config_arg(args)
    report = analysis.analyze(cfg)
    for key, value in asdict(report).items():
        if key == "param_count":
            print(f"{key:<18} {value:,}")
        elif isinstance(value, float):
            print(f"{key:<18} {value:.4f}")
        elif value is None:
            print(f"{key:<18} -")
        else:
            print(f"{key:<18} {value}")
    if args.out:
        _write_records(args.out, [asdict(report)])
    return 0


def _write_records(path, records) -> None:
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_gradcheck(args) -> int:
    cfg = _load_config_arg(args)
    report = trainer.grad_check(cfg, frames=args.frames, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_synthdata(args) -> int:
    spec = trainer.SyntheticTaskSpec(
        kind=args.task, input_dim=args.dim, lag=args.lag,
        noise_std=args.noise_std, num_sequences=args.sequences, seq_len=args.len)
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
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):  # fail before reading data, not after training
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_dir)
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    train_set = load_dataset(os.path.join(args.data, "train"))
    valid_dir = os.path.join(args.data, "valid")
    valid_set = load_dataset(valid_dir) if os.path.isdir(valid_dir) else None
    params = net.build_network(cfg, args.seed)
    params, history = trainer.train(cfg, params, train_set, tc, valid_set)
    save_model(params, cfg, args.out)
    with open(args.out + ".history", "w") as f:
        for row in history:
            f.write(f"{row.epoch}\t{row.lr:.10g}\t{row.train_mse:.10g}"
                    f"\t{row.valid_mse:.10g}\n")
    final = history[-1]
    print(f"trained {len(history)} epochs; final train_mse {final.train_mse:.6g} "
          f"valid_mse {final.valid_mse:.6g}; model written to {args.out}")
    return 0


def _paired_streams(ref_dir, hyp_dir) -> tuple:
    """(ref, hyp) for eval --hyp: the streams both datasets carry, stacked in
    ref_dir's order with hyp_dir's sequences paired by seq_id. Ids and frame
    counts must agree and some stream must be common; each stream's width is
    that of the first reference sequence carrying it, and check_streams holds
    the reference, then the hypothesis, to it, naming the directory."""
    ref_set, hyp_set = load_dataset(ref_dir), load_dataset(hyp_dir)
    by_id = {seq.seq_id: seq for seq in hyp_set}
    ref_ids = {seq.seq_id for seq in ref_set}
    show = net._VALUE_REPR.repr
    if by_id.keys() != ref_ids:
        raise ValueError(f"hypothesis {hyp_dir}: ids differ from reference: only in "
                         f"reference {show(sorted(ref_ids - by_id.keys()))}, only in "
                         f"hypothesis {show(sorted(by_id.keys() - ref_ids))}")
    unequal = [seq.seq_id for seq in ref_set if by_id[seq.seq_id].frames != seq.frames]
    if unequal:
        raise ValueError(f"hypothesis {hyp_dir}: frame counts differ from reference "
                         f"for {show(unequal)}")
    ref_names, hyp_names = (set().union(*(seq.targets for seq in dataset))
                            for dataset in (ref_set, hyp_set))
    names = sorted(ref_names & hyp_names)
    if not names:
        raise ValueError(f"no stream in common: reference {ref_dir} carries "
                         f"{sorted(ref_names)}, hypothesis {hyp_dir} carries "
                         f"{sorted(hyp_names)}")
    dims = {name: next(seq.targets[name].shape[1] for seq in ref_set
                       if name in seq.targets) for name in names}
    hyp_seqs = [by_id[seq.seq_id] for seq in ref_set]
    trainer.check_streams(ref_set, dims, f"reference {ref_dir}: ")
    trainer.check_streams(hyp_seqs, dims, f"hypothesis {hyp_dir}: ")
    return trainer.stack_targets(ref_set, names), trainer.stack_targets(hyp_seqs, names)


# eval's measures: (label, streams it needs, skip reason without them, score
# of the stacked (ref, hyp)); a ValueError from the score skips it too
MEASURES = (
    ("mcd_db", {"mcep"}, "no mcep stream", lambda r, h: metrics.mcd(r["mcep"], h["mcep"])),
    ("f0_rmse_hz", {"lf0", "uv"}, "needs lf0 and uv streams",
     lambda r, h: metrics.f0_rmse(np.exp(r["lf0"][:, 0].astype(np.float64)),
                                  h["lf0"].astype(np.float64), r["uv"], h["uv"])),
    ("bapd", {"bap"}, "no bap stream", lambda r, h: metrics.bapd(r["bap"], h["bap"])),
    ("uv_error", {"uv"}, "no uv stream", lambda r, h: metrics.uv_error(r["uv"], h["uv"])),
)


def cmd_eval(args) -> int:
    if args.hyp:
        ref, hyp = _paired_streams(args.data, args.hyp)
    else:
        params, cfg = load_model(args.model)
        dataset = load_dataset(args.data)
        trainer.check_dataset(cfg, dataset)
        hyp = trainer.predict(params, cfg, dataset)
        ref = trainer.stack_targets(dataset, hyp, cfg.dtype())

    print(f"streams: {' '.join(sorted(hyp))}")
    print(f"total_mse {metrics.total_mse(ref, hyp):.6g}")
    for label, needs, reason, score in MEASURES:
        if needs <= hyp.keys():
            try:
                print(f"{label} {score(ref, hyp):.6g}")
                continue
            except ValueError as e:
                reason = e
        print(f"{label} skipped ({reason})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The dfsmn command line; a flag for a TrainConfig or SyntheticTaskSpec
    field takes its default from there."""
    train_cfg, task = trainer.TrainConfig, trainer.SyntheticTaskSpec
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
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synthdata", help="generate a deterministic synthetic dataset")
    p.add_argument("--task", choices=trainer.TASK_KINDS, default=task.kind)
    p.add_argument("--lag", type=int, default=task.lag)
    p.add_argument("--dim", type=int, default=task.input_dim, help="input feature dim")
    p.add_argument("--noise-std", type=float, default=task.noise_std)
    p.add_argument("--sequences", type=int, default=task.num_sequences)
    p.add_argument("--len", type=int, default=task.seq_len)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synthdata)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset")
    g.add_argument("--config")
    p.add_argument("--data", required=True, help="directory with train/ and valid/")
    p.add_argument("--out", required=True,
                   help="model file to write; its epoch history goes to OUT.history")
    p.add_argument("--lr", type=float, default=train_cfg.lr)
    p.add_argument("--epochs", type=int, default=train_cfg.max_epochs)
    p.add_argument("--batch-frames", type=int, default=train_cfg.batch_frames)
    p.add_argument("--min-improvement", type=float, default=train_cfg.min_improvement)
    p.add_argument("--patience", type=int, default=train_cfg.patience)
    p.add_argument("--seed", type=int, default=train_cfg.seed)
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
    except (ModelFileError, OSError, KeyError, ValueError, MemoryError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
