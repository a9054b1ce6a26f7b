"""Command line interface.

Subcommands: gen-corpus, train, link, eval, sweep, ordering-experiment,
grad-check, reward-table.
Every run echoes its full config, seed and config hash so results can be
reproduced bit-exactly; outputs carry no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .corpus import CorpusError, gold_recall, load_corpus, save_corpus
from .harness import (
    STRATEGIES,
    SWEEP_AXES,
    grad_check,
    ordering_experiment,
    parse_window,
    run_baseline,
    sweep,
    write_csv,
)
from .local_transformer import check_input_caps
from .model import load_checkpoint, read_header, save_checkpoint
from .rewards import (
    REWARD_KINDS,
    EpisodeOutcome,
    error_indices,
    first_error_index,
    reward_r1,
    reward_r2,
    reward_r2_prob,
    reward_r3,
    transition_counts,
    TransitionRewards,
)
from .synthetic import SyntheticSpec, generate_synthetic
from .trainer import TrainConfig, evaluate, train


def _echo_config(config: TrainConfig) -> None:
    print(f"# config_hash={config.config_hash()} seed={config.seed}")
    print("# config=" + json.dumps(config.to_dict(), sort_keys=True))


def _load_config(path: str) -> TrainConfig:
    with open(path) as fh:
        return TrainConfig.from_dict(json.load(fh))


def _stored_config(checkpoint: str) -> TrainConfig:
    """The config ``train`` stored with ``checkpoint``: the one description
    of the model it holds."""
    meta = read_header(checkpoint)["meta"]
    if not isinstance(meta, dict) or "config" not in meta:
        raise ValueError(f"checkpoint {checkpoint} stores no config; save it with "
                         f"meta={{\"config\": config.to_dict()}}")
    return TrainConfig.from_dict(meta["config"])


def _parse_seeds(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def _load_model(docs, store, config: TrainConfig, checkpoint: str):
    """Build the model ``config`` describes and restore ``checkpoint`` into it,
    after checking that the transformer scorer, if any, can encode ``docs``."""
    transformer = config.transformer_config()
    if transformer is not None:
        check_input_caps(docs, transformer)
    params = config.build_model(store, np.random.default_rng(config.seed))
    load_checkpoint(params, checkpoint)
    return params


def _cmd_gen_corpus(args) -> int:
    spec = SyntheticSpec(
        num_docs=args.docs,
        mentions_per_doc=args.mentions,
        candidates_per_mention=args.candidates,
        embedding_dim=args.dim,
        anchor_fraction=args.anchor_fraction,
        noise_scale=args.noise,
        seed=args.seed,
    )
    docs, store = generate_synthetic(spec)
    save_corpus(docs, store, args.out)
    print(f"# spec={json.dumps(spec.__dict__, sort_keys=True)}")
    print(f"wrote {len(docs)} documents to {args.out} "
          f"(gold recall {gold_recall(docs):.3f})")
    return 0


def _cmd_train(args) -> int:
    if not 0 <= args.val_fraction < 1:
        raise ValueError(f"--val-fraction must lie in [0, 1), got {args.val_fraction}")
    config = _load_config(args.config)
    _echo_config(config)
    docs, store = load_corpus(args.corpus)
    n_val = (max(1, int(len(docs) * args.val_fraction))
             if len(docs) > 1 and args.val_fraction > 0 else 0)
    val_docs, train_docs = docs[:n_val], docs[n_val:]
    result = train(train_docs, val_docs, store, config)
    save_checkpoint(result.params, args.out, meta={"config": config.to_dict()})
    if args.metrics:
        with open(args.metrics, "w") as fh:
            for row in result.metrics:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    final = result.metrics[-1] if result.metrics else {}
    best = result.best_val_accuracy
    print(f"best_val_accuracy={'none' if best is None else f'{best:.6f}'}")
    print(f"final_epoch={json.dumps(final, sort_keys=True)}")
    return 0


def _cmd_link(args) -> int:
    config = _stored_config(args.checkpoint)
    _echo_config(config)
    docs, store = load_corpus(args.corpus)
    params = _load_model(docs, store, config, args.checkpoint)
    episodes = evaluate(docs, store, params, config)
    with open(args.out, "w") as fh:
        for doc, ep in zip(docs, episodes):
            by_step = dict(zip(ep.order, range(len(ep.order))))
            rec = {
                "id": doc.id,
                "links": [
                    {
                        "mention": m.id,
                        "predicted": ep.predicted[by_step[m.position]],
                        "probability": ep.predicted_prob[by_step[m.position]],
                        "step": by_step[m.position],
                    }
                    for m in doc.mentions
                ],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"annotated {len(docs)} documents -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = _stored_config(args.checkpoint)
    if args.window is not None:
        config = replace(config, window=parse_window(args.window))
    _echo_config(config)
    docs, store = load_corpus(args.corpus)
    params = _load_model(docs, store, config, args.checkpoint)
    report = run_baseline(docs, store, params, config, args.order, seed=config.seed)
    payload = report.to_json()
    if args.out:
        Path(args.out).write_text(payload + "\n")
    print(payload)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    _echo_config(config)
    docs, store = load_corpus(args.corpus)
    n = len(docs)
    n_val = max(1, n // 10)
    n_test = max(1, n // 5)
    val_docs = docs[:n_val]
    test_docs = docs[n_val:n_val + n_test]
    train_docs = docs[n_val + n_test:]
    rows = sweep(train_docs, val_docs, test_docs, store, config, args.axis,
                 grid=None if args.grid is None else args.grid.split(","),
                 seeds=_parse_seeds(args.seeds))
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows -> {args.out}")
    return 0


def _cmd_ordering_experiment(args) -> int:
    result = ordering_experiment(
        anchor_fraction=args.anchor_fraction, num_docs=args.docs,
        mentions_per_doc=args.mentions, candidates_per_mention=args.candidates,
        embedding_dim=args.dim, corpus_seed=args.corpus_seed,
        seeds=_parse_seeds(args.seeds), window=args.window, epochs=args.epochs,
        lr=args.lr, rl_weight=args.rl_weight, gamma=args.gamma, reward=args.reward,
    )
    print("# config=" + json.dumps(result["config"], sort_keys=True))
    for row in result["rows"]:
        print(f"seed={row['seed']} dynamic={row['dynamic']:.4f} "
              f"offset={row['offset']:.4f} gap={row['gap']:+.4f}")
    print(f"wins={result['wins']}/{len(result['rows'])} "
          f"mean_gap={result['mean_gap']:+.4f}")
    if args.out:
        write_csv(result["rows"], args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_grad_check(args) -> int:
    report = grad_check(tolerance=args.tolerance, seed=args.seed,
                        samples_per_tensor=args.samples)
    for name in sorted(report["per_tensor"]):
        print(f"{name}: {report['per_tensor'][name]:.3e}")
    status = "PASS" if report["passed"] else "FAIL"
    print(f"max_relative_error={report['max_relative_error']:.3e} "
          f"tolerance={report['tolerance']:.1e} {status}")
    return 0 if report["passed"] else 1


def _parse_flags(text: str) -> tuple[bool, ...]:
    if not text or any(c not in "01" for c in text):
        raise ValueError("flags must be a non-empty string of 0s and 1s")
    return tuple(c == "1" for c in text)


def _cmd_reward_table(args) -> int:
    flags = _parse_flags(args.flags)
    n = args.L if args.L is not None else len(flags)
    if n != len(flags):
        raise ValueError(f"--L {n} does not match {len(flags)} flags")
    t = args.t if args.t is not None else n
    outcome = EpisodeOutcome(flags, gamma=args.gamma)
    lam = TransitionRewards.from_values([float(x) for x in args.transition.split(",")])
    probs = [float(x) for x in args.probs.split(",")] if args.probs else None

    # exact base values via integer/rational arithmetic
    base_r1 = Fraction(-n + first_error_index(flags))
    base_r3 = sum((Fraction(-1) + Fraction(idx - n, n) for idx in error_indices(flags)),
                  Fraction(0))
    counts = transition_counts(flags)
    base_r2 = (Fraction(counts["tt"]) * Fraction(lam.tt).limit_denominator()
               + Fraction(counts["tf"]) * Fraction(lam.tf).limit_denominator()
               + Fraction(counts["ff"]) * Fraction(lam.ff).limit_denominator()
               + Fraction(counts["ft"]) * Fraction(lam.ft).limit_denominator())

    prefactor = args.gamma ** (n - t) / n
    print(f"flags={args.flags} L={n} t={t} gamma={args.gamma}")
    print(f"transitions: {counts['tt']}xTT {counts['tf']}xTF "
          f"{counts['ff']}xFF {counts['ft']}xFT")
    print(f"R1: base={base_r1} ({float(base_r1):.6f})  "
          f"discounted={reward_r1(outcome, t):.6f}")
    print(f"R2[{args.transition}]: base={base_r2} ({float(base_r2):.6f})  "
          f"discounted={reward_r2(outcome, t, lam):.6f}")
    if probs is not None:
        r22 = reward_r2_prob(outcome, t, probs)
        print(f"R2-prob-scaled: discounted={r22:.6f}")
    print(f"R3: base={base_r3} ({float(base_r3):.6f})  "
          f"discounted={reward_r3(outcome, t):.6f}")
    print(f"# prefactor gamma^(L-t)/L = {prefactor:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynel",
        description="Sequential entity linking with a learned mention ordering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus directory")
    p.add_argument("--out", required=True)
    p.add_argument("--docs", type=int, default=100)
    p.add_argument("--mentions", type=int, default=8)
    p.add_argument("--candidates", type=int, default=8)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--anchor-fraction", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("train", help="train on a corpus directory")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--metrics", default=None, help="optional metrics JSONL path")
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("link", help="annotate a corpus with predictions")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True, help="its stored config builds the model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("eval", help="evaluate under an ordering strategy")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True, help="its stored config builds the model")
    p.add_argument("--order", choices=STRATEGIES, default="dynamic")
    p.add_argument("--window", default=None, help="override window (int or L)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="train/evaluate over a hyper-parameter grid")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--axis", choices=tuple(SWEEP_AXES), required=True)
    p.add_argument("--grid", default=None, help="comma-separated grid override")
    p.add_argument("--seeds", default="0")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ordering-experiment",
                       help="dynamic policy vs a window-1 control on paired seeds")
    p.add_argument("--anchor-fraction", type=float, default=0.5)
    p.add_argument("--docs", type=int, default=260)
    p.add_argument("--mentions", type=int, default=8)
    p.add_argument("--candidates", type=int, default=4)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--corpus-seed", type=int, default=20240808)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--rl-weight", type=float, default=1e-4)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--reward", default="r1", choices=REWARD_KINDS)
    p.add_argument("--out", default=None, help="optional CSV path")
    p.set_defaults(func=_cmd_ordering_experiment)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=4)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("reward-table", help="print all rewards for a flag string")
    p.add_argument("--flags", required=True, help="e.g. 1110001")
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--transition", default="0,-2,-1,0")
    p.add_argument("--probs", default=None,
                   help="comma-separated per-step probabilities for prob-scaled R2")
    p.set_defaults(func=_cmd_reward_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
