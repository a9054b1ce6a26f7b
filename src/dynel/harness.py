"""Evaluation, ordering baselines, hyper-parameter sweeps and grad checks.

Reports carry the config hash and seed so any metric can be reproduced
bit-exactly by rerunning with the same inputs.  Micro-F1 is
``trainer.micro_f1``.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EmbeddingStore
from .local_transformer import TransformerConfig, local_scores_transformer
from .model import EncodedMention, ModelParams, build_model, encode_document
from .rewards import REWARD_KINDS
from .trainer import Episode, TrainConfig, micro_f1, rollout, train

__all__ = [
    "STRATEGIES",
    "EvalReport",
    "ordering_for",
    "run_baseline",
    "sweep",
    "SWEEP_AXES",
    "WINDOW_GRID",
    "GAMMA1_GRID",
    "parse_window",
    "write_csv",
    "ordering_experiment",
    "grad_check",
    "random_check_world",
    "finite_difference",
    "relative_error",
]

STRATEGIES = ("offset", "size", "random", "similarity", "dynamic", "exhaustive-best")
EXHAUSTIVE_MAX_MENTIONS = 9

WINDOW_GRID: tuple[int | None, ...] = (2, 3, 4, 5, 6, 7, None)   # None = whole document
GAMMA1_GRID = (1e-3, 7.5e-4, 5e-4, 2.5e-4, 1e-4)


def parse_window(value) -> int | None:
    """A window size, or ``None`` (the whole document) for ``"L"``."""
    return None if value in (None, "L", "l") else int(value)


class SweepAxis(NamedTuple):
    """The ``TrainConfig`` field an axis sets, its default grid and the
    parser of one grid value, given as text or as the value itself."""

    field: str
    grid: tuple
    parse: Callable


MEAN_ROW = "mean±std"   # the seed column of a grid value's summary row

SWEEP_AXES = {
    "window": SweepAxis("window", WINDOW_GRID, parse_window),
    "gamma1": SweepAxis("rl_weight", GAMMA1_GRID, float),
    "reward": SweepAxis("reward", REWARD_KINDS, str),
}


@dataclass(frozen=True)
class EvalReport:
    strategy: str
    window: int | None
    seed: int
    config_hash: str
    micro_f1: float
    per_doc_accuracy: tuple[float, ...]
    flags: tuple[tuple[bool, ...], ...]
    orders: tuple[tuple[int, ...], ...]
    mean_displacement: float
    config_echo: dict | None = None

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "window": "L" if self.window is None else self.window,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "micro_f1": self.micro_f1,
            "per_doc_accuracy": list(self.per_doc_accuracy),
            "flags": [[int(f) for f in row] for row in self.flags],
            "orders": [list(o) for o in self.orders],
            "mean_displacement": self.mean_displacement,
            "config_echo": self.config_echo,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _report_from_episodes(
    episodes: Sequence[Episode], strategy: str, config: TrainConfig, seed: int
) -> EvalReport:
    total = sum(len(ep.flags) for ep in episodes)
    displacement = (
        sum(abs(i - pos) for ep in episodes for i, pos in enumerate(ep.order)) / total
    )
    return EvalReport(
        strategy=strategy,
        window=config.window,
        seed=seed,
        config_hash=config.config_hash(),
        micro_f1=micro_f1(episodes),
        per_doc_accuracy=tuple(sum(ep.flags) / len(ep.flags) for ep in episodes),
        flags=tuple(ep.flags for ep in episodes),
        orders=tuple(ep.order for ep in episodes),
        mean_displacement=displacement,
        config_echo=config.to_dict(),
    )


def _similarity_order(encoded: Sequence[EncodedMention]) -> list[int]:
    def unit(v):
        n = np.linalg.norm(v)
        return v / n if n > 0 else v
    units = [unit(r.context.data) for r in encoded]
    first, *remaining = range(len(units))
    order = [first]
    while remaining:
        prev = units[order[-1]]
        sims = [float(prev @ units[p]) for p in remaining]
        best = int(np.argmax(sims))
        order.append(remaining.pop(best))
    return order


def _exhaustive_best_order(
    doc: Document,
    store: EmbeddingStore,
    params: ModelParams,
    config: TrainConfig,
    encoded: Sequence[EncodedMention] | None,
) -> list[int]:
    n = len(doc.mentions)
    if n > EXHAUSTIVE_MAX_MENTIONS:
        raise ValueError(
            f"exhaustive-best supports at most {EXHAUSTIVE_MAX_MENTIONS} mentions, got {n}"
        )
    if encoded is None:
        encoded = encode_document(doc, store, params)
    best_order, best_acc = None, -1.0
    for perm in itertools.permutations(range(n)):
        ep = rollout(doc, store, params, config, mode="eval", order=perm, encoded=encoded)
        acc = sum(ep.flags) / len(ep.flags)
        if acc > best_acc:
            best_order, best_acc = list(perm), acc
    return best_order


def ordering_for(
    doc: Document,
    strategy: str,
    store: EmbeddingStore,
    params: ModelParams,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    encoded: Sequence[EncodedMention] | None = None,
) -> list[int] | None:
    """Mention order for a fixed strategy; None means "use the policy".

    ``encoded`` reuses an eval-mode ``encode_document`` pass of ``doc``.
    """
    positions = range(len(doc.mentions))
    if strategy == "dynamic":
        return None
    if strategy == "offset":
        return list(positions)
    if strategy == "size":
        return sorted(positions, key=lambda p: (len(doc.mentions[p].candidates), p))
    if strategy == "random":
        if rng is None:
            raise ValueError("random strategy needs an rng")
        return [int(i) for i in rng.permutation(len(positions))]
    if strategy == "similarity":
        if encoded is None:
            encoded = encode_document(doc, store, params)
        return _similarity_order(encoded)
    if strategy == "exhaustive-best":
        return _exhaustive_best_order(doc, store, params, config, encoded)
    raise ValueError(f"unknown ordering strategy {strategy!r}")


def run_baseline(
    docs: Sequence[Document],
    store: EmbeddingStore,
    params: ModelParams,
    config: TrainConfig,
    strategy: str,
    seed: int = 0,
) -> EvalReport:
    """Greedy evaluation with the policy replaced by a fixed strategy."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown ordering strategy {strategy!r}")
    rng = np.random.default_rng(seed)
    episodes = []
    with ad.no_grad():
        for doc in docs:
            encoded = encode_document(doc, store, params)
            order = ordering_for(doc, strategy, store, params, config, rng, encoded)
            episodes.append(rollout(doc, store, params, config, mode="eval", order=order,
                                    encoded=encoded))
    return _report_from_episodes(episodes, strategy, config, seed)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep(
    train_docs: Sequence[Document],
    val_docs: Sequence[Document],
    test_docs: Sequence[Document],
    store: EmbeddingStore,
    base_config: TrainConfig,
    axis: str,
    grid: Sequence | None = None,
    seeds: Sequence[int] = (0,),
) -> list[dict]:
    """Train one run per (grid value, seed); returns plot-ready rows.

    Every grid value's config is built, and so checked, before the first
    run trains.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    field, default_grid, parse = SWEEP_AXES[axis]
    values = [parse(v) for v in (default_grid if grid is None else grid)]
    if not values:
        raise ValueError(f"the {axis} grid is empty")
    if not seeds:
        raise ValueError("a sweep needs at least one seed")
    configs = [replace(base_config, **{field: v}) for v in values]

    rows: list[dict] = []
    for value, config in zip(values, configs):
        label = "L" if value is None else value
        scores = []
        for seed in seeds:
            cfg = replace(config, seed=int(seed))
            result = train(train_docs, val_docs, store, cfg)
            report = run_baseline(test_docs, store, result.params, cfg, "dynamic", seed=seed)
            scores.append(report.micro_f1)
            rows.append({"axis": axis, "value": label, "seed": int(seed),
                         "micro_f1": report.micro_f1, "config_hash": cfg.config_hash()})
        rows.append({"axis": axis, "value": label, "seed": MEAN_ROW,
                     "micro_f1": float(np.mean(scores)),
                     "config_hash": f"std={float(np.std(scores)):.6f}"})
    return rows


def write_csv(rows: Sequence[dict], path: str) -> None:
    """Write ``rows`` as CSV, with the first row's keys as the columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# the ordering experiment (dynamic policy vs document-order control)
# ---------------------------------------------------------------------------

def ordering_experiment(
    anchor_fraction: float = 0.5,
    num_docs: int = 260,
    mentions_per_doc: int = 8,
    candidates_per_mention: int = 4,
    embedding_dim: int = 32,
    corpus_seed: int = 20240808,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    window: int = 4,
    epochs: int = 8,
    lr: float = 0.01,
    rl_weight: float = 1e-4,
    gamma: float = 0.9,
    reward: str = "r1",
    policy_top_k: int = 7,
    episodes_per_doc: int = 2,
) -> dict:
    """Train the windowed dynamic policy against an identically trained
    document-order control (window 1) on paired seeds; returns per-seed
    test micro-F1 for both arms plus the paired summary.  The two arms are
    a window sweep over ``(window, 1)``."""
    from .synthetic import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(
        num_docs=num_docs,
        mentions_per_doc=mentions_per_doc,
        candidates_per_mention=candidates_per_mention,
        embedding_dim=embedding_dim,
        anchor_fraction=anchor_fraction,
        noise_scale=0.05,
        seed=corpus_seed,
    )
    docs, store = generate_synthetic(spec)
    n_val = max(1, num_docs // 10)
    n_test = max(1, num_docs // 10)
    train_docs = docs[: num_docs - n_val - n_test]
    val_docs = docs[num_docs - n_val - n_test : num_docs - n_test]
    test_docs = docs[num_docs - n_test :]

    base = TrainConfig(
        window=window, epochs=epochs, lr=lr, rl_weight=rl_weight, gamma=gamma,
        reward=reward, policy_top_k=policy_top_k, episodes_per_doc=episodes_per_doc,
        fusion_hidden=16,
    )
    cells = sweep(train_docs, val_docs, test_docs, store, base, "window",
                  grid=(window, 1), seeds=seeds)
    per_seed = [r["micro_f1"] for r in cells if r["seed"] != MEAN_ROW]
    dynamic, offset = per_seed[:len(seeds)], per_seed[len(seeds):]
    rows = [{"seed": int(seed), "dynamic": d, "offset": o, "gap": d - o}
            for seed, d, o in zip(seeds, dynamic, offset)]

    gaps = [r["gap"] for r in rows]
    return {
        "rows": rows,
        "wins": sum(g > 0 for g in gaps),
        "mean_gap": float(np.mean(gaps)),
        "mean_abs_gap": float(np.mean(np.abs(gaps))),
        "anchor_fraction": anchor_fraction,
        "config": {
            "num_docs": num_docs, "mentions_per_doc": mentions_per_doc,
            "window": window, "epochs": epochs, "lr": lr,
            "rl_weight": rl_weight, "gamma": gamma, "reward": reward,
            "corpus_seed": corpus_seed, "seeds": list(seeds),
        },
    }


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def finite_difference(
    loss_fn: Callable[[], float], tensor: Tensor, entries: Sequence[int], h: float = 1e-5
) -> dict[int, float]:
    """Central finite differences of ``loss_fn`` over flat entries of a tensor."""
    flat = tensor.data.ravel()
    out = {}
    with ad.no_grad():
        for i in entries:
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn()
            flat[i] = orig - h
            fm = loss_fn()
            flat[i] = orig
            out[i] = (fp - fm) / (2 * h)
    return out


def _check_params(
    loss_builder: Callable[[], Tensor],
    named: dict[str, Tensor],
    rng: np.random.Generator,
    samples_per_tensor: int,
    h: float,
) -> dict[str, float]:
    loss = loss_builder()
    grads = ad.backward(loss)
    worst: dict[str, float] = {}
    for name, p in named.items():
        size = p.data.size
        k = min(samples_per_tensor, size)
        entries = sorted(rng.choice(size, size=k, replace=False).tolist())
        analytic = grads[p].ravel() if p in grads else np.zeros(size)
        fd = finite_difference(lambda: float(loss_builder().data), p, entries, h)
        worst[name] = max(relative_error(analytic[i], fd[i]) for i in entries)
    return worst


def random_check_world(
    rng: np.random.Generator, dim: int = 8, n_mentions: int = 4, n_cands: int = 3
):
    """A tie-free random document + store for finite-difference checking.

    The synthetic training corpora engineer exact score ties, which sit on
    the non-differentiable ridges of the hard-max operations; generic random
    vectors keep every selection branch locally stable.
    """
    from .corpus import CandidateEntity, Document, EmbeddingStore, Mention

    n_words = 3 * n_mentions + 2
    n_ents = 2 * n_mentions * n_cands
    words = {f"w{i}": rng.normal(size=dim) for i in range(n_words)}
    ents = {f"e{i}": rng.normal(size=dim) for i in range(n_ents)}
    surfaces = {e: (f"w{rng.integers(n_words)}",) for e in ents}
    adjacency = {
        f"e{i}": frozenset({f"e{int(rng.integers(n_ents))}"}) for i in range(0, n_ents, 2)
    }
    mentions = []
    cand_pool = list(ents)
    for i in range(n_mentions):
        cands = [cand_pool[(i * n_cands + j) % n_ents] for j in range(n_cands)]
        priors = rng.random(n_cands).tolist()
        mentions.append(
            Mention(
                id=f"m{i}",
                surface=(f"w{3 * i}",),
                position=i,
                context_before=(f"w{3 * i + 1}",),
                context_after=(f"w{3 * i + 2}",),
                candidates=tuple(CandidateEntity(c, p) for c, p in zip(cands, priors)),
                gold=cands[int(rng.integers(n_cands))],
            )
        )
    doc = Document("check", tuple(words), tuple(mentions))
    store = EmbeddingStore(word_vecs=words, entity_vecs=ents,
                           entity_surface=surfaces, kg_adjacency=adjacency)
    return doc, store


def grad_check(
    tolerance: float = 1e-4,
    seed: int = 0,
    samples_per_tensor: int = 4,
    h: float = 1e-5,
    include_transformer: bool = True,
) -> dict:
    """Finite-difference check of every trainable tensor on tiny instances.

    Runs one sampled teacher-forced episode on a random document and
    differentiates margin + reward-weighted log-probabilities (rewards are
    estimator constants, so they are frozen from the probe episode); the
    transformer scorer gets its own deterministic eval-mode loss.  Returns
    per-tensor worst relative errors plus a pass flag.
    """
    rng = np.random.default_rng(seed)
    doc, store = random_check_world(rng)
    config = TrainConfig(
        window=2, epochs=1, seed=seed, episodes_per_doc=1,
        fusion_hidden=6, policy_top_k=3, selector_top_k=3,
    )
    params = config.build_model(store, rng)
    # move off the symmetric init (zeros/ones sit on hard-max tie ridges)
    for t in params.named_parameters().values():
        t.data += 0.1 * rng.normal(size=t.data.shape)
    # fix one sampled trajectory; its rewards become constants of the loss
    probe = rollout(doc, store, params, config, mode="train",
                    rng=np.random.default_rng(seed + 1))
    fixed_order, fixed_rewards = probe.order, probe.rewards

    def combined_loss() -> Tensor:
        ep = rollout(doc, store, params, config, mode="train",
                     rng=np.random.default_rng(seed + 2),
                     order=fixed_order, score_order=True)
        loss = ep.margin if ep.margin is not None else Tensor(0.0)
        for r, logp in zip(fixed_rewards, ep.log_probs):
            loss = ad.add(loss, logp * (-r))
        return loss

    results = _check_params(
        combined_loss, params.named_parameters(), rng, samples_per_tensor, h
    )

    if include_transformer:
        tcfg = TransformerConfig(
            layers=1, heads=2, head_dim=4, model_dim=store.dim, ff_dim=12,
            hidden=6, max_seq_len=32, max_candidates=4, drop_rate=0.1,
        )
        tparams = build_model(store, rng, local_model="transformer",
                              transformer_config=tcfg, fusion_hidden=6)
        mention = doc.mentions[0]
        mix = rng.normal(size=len(mention.candidates))

        def transformer_loss() -> Tensor:
            n3 = local_scores_transformer(mention, store, tparams.transformer, mode="eval")
            return ad.add(ad.tsum(n3 * Tensor(mix)), -ad.log(ad.item(n3, 0)))

        results.update(
            _check_params(
                transformer_loss,
                tparams.transformer.parameters(),
                rng,
                samples_per_tensor,
                h,
            )
        )

    max_err = max(results.values())
    return {
        "per_tensor": results,
        "max_relative_error": max_err,
        "tolerance": tolerance,
        "passed": max_err <= tolerance,
        "seed": seed,
    }
