"""Transformer local scorer: joint encoding of context and all candidates.

Input rows sum four parts (token, type, segment, learned position); the
sequence is ``[CLS] ctx... [SEP] e_1 [SEP] ... e_n [SEP]`` with the
mention's surface tokens embedded inside the context block.  Candidate
rows all reuse the mention head's position embedding, so position carries
no candidate-order information.  Scoring heads:

* a context head matches every candidate's encoder output against a
  transformed ``[CLS]`` summary (softmax-normalised),
* a similarity head dots each raw entity vector with the mention token's
  encoder output,
* a shared per-candidate two-layer net fuses both into the final
  distribution.

Per-candidate weight sharing keeps the heads well-defined for any
candidate count and exactly permutation-equivariant.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EmbeddingStore, Mention
from .nn import EncoderLayer, FeedForward, dropout, glorot, linear

__all__ = [
    "TransformerConfig",
    "TransformerLocalParams",
    "InputLayout",
    "ABLATION_FLAGS",
    "build_input",
    "check_input_caps",
    "local_scores_transformer",
    "transformer_ablation",
]

log = logging.getLogger(__name__)

ABLATION_FLAGS = frozenset(
    {"drop_position", "drop_type", "drop_segment", "drop_n1", "drop_n2"}
)


@dataclass(frozen=True)
class TransformerConfig:
    layers: int = 4
    heads: int = 6
    head_dim: int = 50
    model_dim: int = 300
    ff_dim: int = 600
    hidden: int = 100
    max_seq_len: int = 512
    max_candidates: int = 8
    drop_rate: float = 0.1


@dataclass
class TransformerLocalParams:
    config: TransformerConfig
    vocab: dict[str, int]
    word_embed: Tensor              # |vocab| x model_dim, seeded from the store
    cls_tok: Tensor
    sep_tok: Tensor
    entity_proj: Tensor             # entity space -> model space (full matrix)
    type_embed: Tensor              # 2 x model_dim (word / entity)
    segment_embed: Tensor           # (max_candidates + 1) x model_dim
    position_embed: Tensor          # max_seq_len x model_dim
    encoder: list[EncoderLayer]
    summary_w: Tensor               # [CLS] summary layer
    summary_b: Tensor
    match: Tensor                   # model_dim x hidden candidate-match map
    pair_head: FeedForward          # fuses (context, similarity) per candidate
    ablations: frozenset[str] = frozenset()

    @classmethod
    def build(
        cls,
        store: EmbeddingStore,
        config: TransformerConfig,
        rng: np.random.Generator,
    ) -> "TransformerLocalParams":
        if store.dim != config.model_dim:
            raise ValueError(
                f"transformer scorer needs embedding dim == model_dim "
                f"({store.dim} != {config.model_dim})"
            )
        vocab = {w: i for i, w in enumerate(sorted(store.word_vecs))}
        table = np.stack([store.word_vecs[w] for w in sorted(store.word_vecs)])
        d = config.model_dim
        return cls(
            config=config,
            vocab=vocab,
            word_embed=ad.parameter(table.copy()),
            cls_tok=ad.parameter(glorot(rng, d, d, shape=(d,))),
            sep_tok=ad.parameter(glorot(rng, d, d, shape=(d,))),
            entity_proj=ad.parameter(glorot(rng, d, d)),
            type_embed=ad.parameter(glorot(rng, d, d, shape=(2, d))),
            segment_embed=ad.parameter(
                glorot(rng, d, d, shape=(config.max_candidates + 1, d))
            ),
            position_embed=ad.parameter(
                glorot(rng, d, d, shape=(config.max_seq_len, d))
            ),
            encoder=[
                EncoderLayer.build(d, config.heads, config.head_dim, config.ff_dim, rng,
                                   config.drop_rate)
                for _ in range(config.layers)
            ],
            summary_w=ad.parameter(glorot(rng, d, config.hidden)),
            summary_b=ad.parameter(np.zeros(config.hidden)),
            match=ad.parameter(glorot(rng, d, config.hidden)),
            pair_head=FeedForward.build([2, config.hidden, 1], rng,
                                        drop_rate=config.drop_rate),
        )

    def parameters(self) -> dict[str, Tensor]:
        out = {
            "transformer.word_embed": self.word_embed,
            "transformer.cls_tok": self.cls_tok,
            "transformer.sep_tok": self.sep_tok,
            "transformer.entity_proj": self.entity_proj,
            "transformer.type_embed": self.type_embed,
            "transformer.segment_embed": self.segment_embed,
            "transformer.position_embed": self.position_embed,
            "transformer.summary_w": self.summary_w,
            "transformer.summary_b": self.summary_b,
            "transformer.match": self.match,
        }
        for li, layer in enumerate(self.encoder):
            for pi, p in enumerate(layer.parameters()):
                out[f"transformer.encoder.{li}.{pi}"] = p
        for pi, p in enumerate(self.pair_head.parameters()):
            out[f"transformer.pair_head.{pi}"] = p
        return out


@dataclass(frozen=True)
class InputLayout:
    """Row bookkeeping for one built input sequence."""

    seq_len: int
    cls_index: int
    sep_indices: tuple[int, ...]
    mention_index: int
    candidate_indices: tuple[int, ...]


def _context_tokens(mention: Mention) -> tuple[str, ...]:
    return mention.context_before + mention.surface + mention.context_after


def _seq_len(mention: Mention) -> int:
    """``[CLS] ctx... [SEP]`` plus one candidate row and one ``[SEP]`` per candidate."""
    return 1 + len(_context_tokens(mention)) + 1 + 2 * len(mention.candidates)


def _cap_error(mention: Mention, cfg: TransformerConfig) -> str | None:
    """Why ``mention`` does not fit the scorer's input caps, or ``None``."""
    n = len(mention.candidates)
    if n > cfg.max_candidates:
        return f"mention {mention.id!r} has {n} candidates; max is {cfg.max_candidates}"
    seq_len = _seq_len(mention)
    if seq_len > cfg.max_seq_len:
        return (f"mention {mention.id!r} has sequence length {seq_len}; "
                f"max is {cfg.max_seq_len}")
    return None


def check_input_caps(docs: Sequence[Document], cfg: TransformerConfig) -> None:
    """Raise ``ValueError`` naming the first document and mention that exceeds
    ``max_candidates`` or ``max_seq_len``; run it before any update."""
    for doc in docs:
        for mention in doc.mentions:
            error = _cap_error(mention, cfg)
            if error:
                raise ValueError(f"document {doc.id!r}: {error}")


def build_input(
    mention: Mention, cand: Tensor, store: EmbeddingStore, params: TransformerLocalParams
) -> tuple[Tensor, InputLayout]:
    """Sum token/type/segment/position embeddings into the input matrix.

    ``cand`` holds the candidate vectors, one row per candidate.  The
    distinct rows (``[CLS]``, ``[SEP]``, the context block, the candidate
    block) are built once each, then gathered into layout order.
    """
    error = _cap_error(mention, params.config)
    if error:
        raise ValueError(error)
    ctx = _context_tokens(mention)
    c, n = len(ctx), len(mention.candidates)
    seq_len = _seq_len(mention)
    mention_index = 1 + len(mention.context_before)

    # candidate tokens: (mean surface word + projection) * 0.5, or the
    # projection alone for an entity without a surface form
    surfaces = [store.entity_surface.get(e, ()) for e in mention.candidate_ids]
    sizes = [len(surface) for surface in surfaces]
    owner = np.repeat(np.arange(n), sizes)  # the candidate of each surface word
    tokens = ad.matmul(cand, params.entity_proj)
    if owner.size:
        mean = (owner == np.arange(n)[:, None]) / np.maximum(sizes, 1)[:, None]
        words = ad.gather_rows(params.word_embed, [params.vocab[w] for s in surfaces for w in s])
        half = np.where(sizes, 0.5, 1.0)[:, None]
        tokens = ad.add(ad.matmul(Tensor(mean), words), tokens) * Tensor(half)
    for entity_id, size in zip(mention.candidate_ids, sizes):
        if not size:
            log.warning("entity %s has no surface form; using projection only", entity_id)

    # distinct rows: 0 [CLS], 1 [SEP], 2.. context, 2+c.. candidates
    context = ad.gather_rows(params.word_embed, [params.vocab[w] for w in ctx])
    distinct = ad.reshape(
        ad.concat([params.cls_tok, params.sep_tok, ad.reshape(context, (-1,)),
                   ad.reshape(tokens, (-1,))]),
        (2 + c + n, params.config.model_dim),
    )
    # layout: [CLS] ctx... [SEP] (cand [SEP])*
    seps, cands = slice(1 + c, seq_len, 2), slice(2 + c, seq_len, 2)
    order = np.zeros(seq_len, dtype=np.intp)
    order[1:1 + c] = 2 + np.arange(c)
    order[seps] = 1
    order[cands] = 2 + c + np.arange(n)
    x = ad.gather_rows(distinct, order)

    positions = np.arange(seq_len)
    type_ids = (positions > c).astype(np.intp)
    seg_ids = np.zeros(seq_len, dtype=np.intp)
    seg_ids[cands] = 1 + np.arange(n)
    # a separator takes the next candidate's segment; the last keeps n
    seg_ids[seps] = np.minimum(1 + np.arange(n + 1), n)
    pos_ids = positions.copy()
    pos_ids[cands] = mention_index  # candidates share the mention head's slot
    if "drop_type" not in params.ablations:
        x = ad.add(x, ad.gather_rows(params.type_embed, type_ids))
    if "drop_segment" not in params.ablations:
        x = ad.add(x, ad.gather_rows(params.segment_embed, seg_ids))
    if "drop_position" not in params.ablations:
        x = ad.add(x, ad.gather_rows(params.position_embed, pos_ids))

    rows = range(seq_len)
    return x, InputLayout(seq_len, 0, tuple(rows[seps]), mention_index, tuple(rows[cands]))


def _row(mat: Tensor, idx: int) -> Tensor:
    return ad.reshape(ad.gather_rows(mat, [idx]), (-1,))


def local_scores_transformer(
    mention: Mention,
    store: EmbeddingStore,
    params: TransformerLocalParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Final candidate distribution (sums to one), in candidate order."""
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    training = mode == "train"
    n = len(mention.candidates)
    cfg = params.config

    cand = Tensor(store.entities(mention.candidate_ids))
    x, layout = build_input(mention, cand, store, params)
    for layer in params.encoder:
        x = layer.apply(x, training=training, rng=rng)

    o_cls = _row(x, layout.cls_index)
    o_mention = _row(x, layout.mention_index)
    o_cands = ad.gather_rows(x, list(layout.candidate_indices))

    if "drop_n1" in params.ablations:
        context_head = Tensor(np.zeros(n))
    else:
        summary = dropout(
            ad.relu(linear(o_cls, params.summary_w, params.summary_b)),
            cfg.drop_rate, rng, training,
        )
        context_head = ad.softmax(ad.matmul(o_cands, ad.matmul(params.match, summary)))

    if "drop_n2" in params.ablations:
        similarity = Tensor(np.zeros(n))
    else:
        similarity = ad.matmul(cand, o_mention)

    pair = ad.transpose(ad.stack([context_head, similarity]))
    logits = ad.reshape(params.pair_head.apply(pair, training=training, rng=rng), (n,))
    return ad.softmax(logits)


def transformer_ablation(
    params: TransformerLocalParams, flags: set[str] | frozenset[str]
) -> TransformerLocalParams:
    """A parameter-sharing variant with the given components disabled."""
    flags = frozenset(flags)
    unknown = flags - ABLATION_FLAGS
    if unknown:
        raise ValueError(f"unknown ablation flags: {sorted(unknown)}")
    return replace(params, ablations=params.ablations | flags)
