#!/usr/bin/env python3
"""Desk-scale long-dependency experiment: can a network learn y[t] = x[t-L]?

Sweeps memory-block configurations whose look-back receptive fields straddle
the lag and reports the final validation MSE of each. Nets whose receptive
field covers the lag should approach 0; the rest cannot beat predicting the
mean (MSE ~= input variance, 1.0).
"""

import argparse
import sys

from dfsmn.analysis import receptive_field
from dfsmn.network import build_network
from dfsmn.trainer import SyntheticTaskSpec, TrainConfig, echo_net, gen_echo_task, train


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lag", type=int, default=8)
    ap.add_argument("--sequences", type=int, default=64)
    ap.add_argument("--len", type=int, default=64)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--lr", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    spec = SyntheticTaskSpec(kind="echo", input_dim=1, lag=args.lag,
                             num_sequences=args.sequences, seq_len=args.len)
    train_set, valid_set = gen_echo_task(spec, args.seed)

    # (order, stride, depth) combos; receptive field = depth * order * stride
    grid = [(1, 1, 1), (2, 1, 1), (args.lag // 2, 2, 1), (args.lag, 1, 1),
            (args.lag, 2, 1), (2, 2, 2)]
    print(f"echo task: lag {args.lag}, {args.sequences} x {args.len} frames, "
          f"{args.epochs} epochs, lr {args.lr}")
    print(f"{'order':>6}{'stride':>7}{'depth':>6}{'rf':>5}{'covers_lag':>11}"
          f"{'valid_mse':>11}")
    for order, stride, depth in grid:
        cfg = echo_net(order, stride, depth)
        rf, _ = receptive_field(cfg)
        params = build_network(cfg, args.seed)
        tc = TrainConfig(batch_frames=512, lr=args.lr, max_epochs=args.epochs,
                         seed=args.seed, min_improvement=0.001, patience=10)
        _, history = train(cfg, params, train_set, tc, valid_set)
        covers = "yes" if rf >= args.lag else "no"
        print(f"{order:>6}{stride:>7}{depth:>6}{rf:>5}{covers:>11}"
              f"{history[-1].valid_mse:>11.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
