#!/usr/bin/env python3
"""Dynamic-vs-fixed ordering experiment on synthetic corpora.

Trains the windowed dynamic policy and an identically configured
document-order control (window 1) on paired seeds, then reports test
micro-F1 for both arms.  Run on an anchored corpus to see the ordering
effect, and with --anchor-fraction 0 for the null control.
"""

import argparse
import csv
import json
import sys

from dynel.harness import ordering_experiment
from dynel.rewards import REWARD_KINDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--anchor-fraction", type=float, default=0.5)
    parser.add_argument("--docs", type=int, default=260)
    parser.add_argument("--mentions", type=int, default=8)
    parser.add_argument("--candidates", type=int, default=4)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--corpus-seed", type=int, default=20240808)
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--window", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--lr", type=float, default=0.01)
    parser.add_argument("--rl-weight", type=float, default=1e-4)
    parser.add_argument("--gamma", type=float, default=0.9)
    parser.add_argument("--reward", default="r1", choices=REWARD_KINDS)
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args(argv)

    result = ordering_experiment(
        anchor_fraction=args.anchor_fraction,
        num_docs=args.docs,
        mentions_per_doc=args.mentions,
        candidates_per_mention=args.candidates,
        embedding_dim=args.dim,
        corpus_seed=args.corpus_seed,
        seeds=[int(s) for s in args.seeds.split(",")],
        window=args.window,
        epochs=args.epochs,
        lr=args.lr,
        rl_weight=args.rl_weight,
        gamma=args.gamma,
        reward=args.reward,
    )
    print("# config=" + json.dumps(result["config"], sort_keys=True))
    for row in result["rows"]:
        print(f"seed={row['seed']} dynamic={row['dynamic']:.4f} "
              f"offset={row['offset']:.4f} gap={row['gap']:+.4f}")
    print(f"wins={result['wins']}/{len(result['rows'])} "
          f"mean_gap={result['mean_gap']:+.4f}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=("seed", "dynamic", "offset", "gap"))
            writer.writeheader()
            writer.writerows(result["rows"])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
