"""The benchmark's workloads and the corpora they run on.

Every input is made from the workload's definition and the run's seed:
the same seed gives the same corpus, the same training and the same links.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dynel import corpus, model
from dynel.corpus import Document
from dynel.local_transformer import TransformerConfig
from dynel.synthetic import SyntheticSpec, generate_synthetic
from dynel.trainer import TrainConfig


@dataclass(frozen=True)
class Workload:
    name: str
    train_docs: int              # documents in one training round
    link_docs: int               # held-out documents linked in one linking round
    mentions: int                # mentions per generated document
    candidates: int
    dim: int
    anchor_fraction: float
    window: int | None           # None = whole document ("L")
    min_mentions: int | None = None   # cut each document to a seeded length in [min, mentions]
    vocab_size: int | None = None     # pad the word table with unused words to this size
    transformer: TransformerConfig | None = None   # None = the attn scorer
    ordering_checks: bool = True      # the trained policy must show the anchor-first order
    setup_repeats: int = 11

    def config(self, seed: int) -> TrainConfig:
        """The ordering experiment's training settings for one epoch, with this
        workload's sizes."""
        kwargs = {}
        if self.transformer is not None:
            t = self.transformer
            kwargs = dict(
                local_model="transformer", encoder_layers=t.layers, attention_heads=t.heads,
                head_dim=t.head_dim, model_dim=t.model_dim, encoder_ff_dim=t.ff_dim,
                head_hidden=t.hidden, max_seq_len=t.max_seq_len,
                max_candidates=t.max_candidates, drop_rate=t.drop_rate,
            )
        return TrainConfig(
            window=self.window, epochs=1, seed=seed, lr=0.01, rl_weight=1e-4, gamma=0.9,
            reward="r1", episodes_per_doc=2, fusion_hidden=16, **kwargs,
        )

    @property
    def anchor_pairs(self) -> int:
        """Anchored/anchor pairs per document: mentions 2p and 2p+1."""
        return round(self.anchor_fraction * self.mentions)


WORKLOADS = {
    w.name: w
    for w in (
        # The ROADMAP baseline: short documents keep per-step costs (the
        # autodiff graph, selector, policy) dominant.
        Workload(
            name="anchored-attn",
            train_docs=52, link_docs=256, mentions=8, candidates=4, dim=32,
            anchor_fraction=0.5, window=4,
        ),
        # Near news-article length with window L: the policy's history stacking
        # and the selector's top-k pooling grow with the document.
        Workload(
            name="long-docs-wholewin",
            train_docs=22, link_docs=88, mentions=30, min_mentions=20, candidates=4,
            dim=64, anchor_fraction=1 / 3, window=None,
        ),
        # The transformer scorer at the paper profile with a realistic word
        # table: embedding gradients, Adam and corpus loading dominate.
        Workload(
            name="transformer-bigvocab",
            train_docs=1, link_docs=16, mentions=8, candidates=4, dim=300,
            anchor_fraction=0.5, window=4, vocab_size=10_000,
            transformer=TransformerConfig(model_dim=300),
            ordering_checks=False, setup_repeats=5,
        ),
    )
}


def write_corpus(w: Workload, seed: int, path: Path) -> None:
    """Generate the workload's corpus from ``seed`` and save it to ``path``."""
    spec = SyntheticSpec(
        num_docs=w.train_docs + w.link_docs, mentions_per_doc=w.mentions,
        candidates_per_mention=w.candidates, embedding_dim=w.dim,
        anchor_fraction=w.anchor_fraction, noise_scale=0.05, seed=seed,
    )
    docs, store = generate_synthetic(spec)
    rng = np.random.default_rng([seed, 1])
    if w.min_mentions is not None:
        # Each split holds every length equally often, in a seeded order, so
        # the work per round does not depend on the seed.
        lengths = []
        for n in (w.train_docs, w.link_docs):
            span = range(w.min_mentions, w.mentions + 1)
            lengths += rng.permutation([span[i % len(span)] for i in range(n)]).tolist()
        docs = [_truncate(d, n) for d, n in zip(docs, lengths)]
    if w.vocab_size is not None:
        for i in range(w.vocab_size - len(store.word_vecs)):
            v = rng.normal(size=w.dim)
            store.word_vecs[f"w_pad{i:05d}"] = v / np.linalg.norm(v)
    corpus.save_corpus(docs, store, path)


def _truncate(doc: Document, n: int) -> Document:
    """Keep the first ``n`` mentions; anchored pairs come first, so whole pairs stay."""
    mentions = doc.mentions[:n]
    words: list[str] = []
    for m in mentions:
        for word in m.surface + m.context_window:
            if word not in words:
                words.append(word)
    return Document(doc.id, tuple(words), mentions)


def build(w: Workload, store, config: TrainConfig) -> model.ModelParams:
    """The model ``trainer.train`` would build for ``config``."""
    init_rng = np.random.default_rng(config.seed).spawn(2)[0]
    return model.build_model(
        store, init_rng, local_model=config.local_model, top_words=config.top_words,
        policy_top_k=config.policy_top_k, selector_top_k=config.selector_top_k,
        fusion_hidden=config.fusion_hidden, features=config.features,
        feature_norm=config.feature_norm, fusion=config.fusion,
        transformer_config=w.transformer,
    )
