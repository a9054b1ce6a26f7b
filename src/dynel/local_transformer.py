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

``document_scores`` scores a whole document in one pass: ``document_input``
builds every mention's sequence at once, padded to the longest, the
padded keys are masked in attention, and the heads run once over every
mention's padded candidate slots (the padded, key-masked batches of
Vaswani et al. 2017 and Devlin et al. 2019).  ``local_scores_transformer``
is that pass over one mention.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EmbeddingStore, Mention
from .nn import EncoderLayer, FeedForward, dropout, glorot, linear

__all__ = [
    "TransformerConfig",
    "TransformerLocalParams",
    "check_input_caps",
    "document_input",
    "document_scores",
    "local_scores_transformer",
]

log = logging.getLogger(__name__)

# the sizes of a TransformerConfig; each is at least 1
_SIZES = ("layers", "heads", "head_dim", "model_dim", "ff_dim", "hidden", "max_seq_len",
          "max_candidates")


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

    def __post_init__(self):
        for size in _SIZES:
            value = getattr(self, size)
            if value < 1:
                raise ValueError(f"transformer {size} must be >= 1, got {value}")


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


def document_input(
    mentions: Sequence[Mention],
    candidates: np.ndarray,
    slots: np.ndarray,
    valid: np.ndarray,
    store: EmbeddingStore,
    params: TransformerLocalParams,
) -> tuple[Tensor, np.ndarray, np.ndarray, np.ndarray]:
    """Every mention's input rows, padded to the longest sequence.

    Mention i's sequence ``[CLS] ctx... [SEP] (cand [SEP])*`` fills rows
    ``i * length`` on; each row sums its token, type, segment and position
    rows, and a padded row is its mention's ``[CLS]`` row.  The distinct
    token rows (``[CLS]``, ``[SEP]``, every distinct word of the contexts
    and the candidates' surface forms, every candidate token) are built
    once each and gathered into place, as are the rows of the three
    tables.  Returns the ``(mentions * length, d)`` rows, the ``(mentions,
    length)`` mask of real rows, each mention head's row and, in the shape
    of ``slots``, each slot's candidate row (a padded slot reads its
    mention's first).
    """
    for mention in mentions:
        error = _cap_error(mention, params.config)
        if error:
            raise ValueError(error)
    contexts = [_context_tokens(m) for m in mentions]
    ctx = np.array([len(c) for c in contexts])
    widths = valid.sum(axis=1)
    lengths = 2 + ctx + 2 * widths
    keys = np.arange(lengths.max()) < lengths[:, None]

    # every distinct word of the document, context and surface, gathered
    # once; context positions and surface words index into these rows
    ids = [e for m in mentions for e in m.candidate_ids]
    surfaces = [store.entity_surface.get(e, ()) for e in ids]
    sizes = np.array([len(surface) for surface in surfaces])
    vocab_ids, word_row = np.unique([params.vocab[w] for c in contexts for w in c]
                                    + [params.vocab[w] for s in surfaces for w in s],
                                    return_inverse=True)
    words = ad.gather(params.word_embed, vocab_ids)

    # candidate tokens: (mean surface word + projection) * 0.5, or the
    # projection alone for an entity without a surface form
    tokens = ad.matmul(Tensor(candidates[slots[valid]]), params.entity_proj)
    if sizes.any():
        owner = np.repeat(np.arange(len(ids)), sizes)  # the candidate of each surface word
        mean = (owner == np.arange(len(ids))[:, None]) / np.maximum(sizes, 1)[:, None]
        surface_words = ad.gather(words, word_row[ctx.sum():])
        half = np.where(sizes, 0.5, 1.0)[:, None]
        tokens = ad.add(ad.matmul(Tensor(mean), surface_words), tokens) * Tensor(half)
    for entity_id in (e for e, size in zip(ids, sizes) if not size):
        log.warning("entity %s has no surface form; using projection only", entity_id)

    # distinct rows: 0 [CLS], 1 [SEP], then every distinct word, then every candidate token
    distinct = ad.concat([ad.stack([params.cls_tok, params.sep_tok]), words, tokens])
    first_word = np.cumsum(ctx) - ctx
    first_token = 2 + len(vocab_ids) + np.cumsum(widths) - widths

    # each row's distinct row, type, segment and position; a padded row
    # keeps the zeros of its mention's [CLS]
    token, kind, segment, position = (np.zeros(keys.shape, dtype=np.intp) for _ in range(4))
    heads = np.array([1 + len(m.context_before) for m in mentions])
    for i, (c, n, seq) in enumerate(zip(ctx, widths, lengths)):
        seps, cands = slice(1 + c, seq, 2), slice(2 + c, seq, 2)
        token[i, 1:1 + c] = 2 + word_row[first_word[i]:first_word[i] + c]
        token[i, seps] = 1
        token[i, cands] = first_token[i] + np.arange(n)
        kind[i, 1 + c:seq] = 1
        segment[i, cands] = 1 + np.arange(n)
        # a separator takes the next candidate's segment; the last keeps n
        segment[i, seps] = np.minimum(1 + np.arange(n + 1), n)
        position[i, :seq] = np.arange(seq)
        position[i, cands] = heads[i]  # candidates share the mention head's slot
    x = ad.gather(distinct, token.ravel())
    for table, index in ((params.type_embed, kind), (params.segment_embed, segment),
                         (params.position_embed, position)):
        x = ad.add(x, ad.gather(table, index.ravel()))

    base = np.arange(len(mentions)) * keys.shape[1]
    columns = np.where(valid, np.arange(valid.shape[1]), 0)
    return x, keys, base + heads, (base + 2 + ctx)[:, None] + 2 * columns


def document_scores(
    mentions: Sequence[Mention],
    candidates: np.ndarray,
    slots: np.ndarray,
    valid: np.ndarray,
    store: EmbeddingStore,
    params: TransformerLocalParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Every mention's final candidate distribution from one encoder pass.

    ``candidates`` holds the candidate vectors of all ``mentions``, one row
    each; line i of ``slots`` holds mention i's rows in it, padded to the
    widest, and ``valid`` marks the real slots.  The encoder runs once over
    ``document_input``'s rows with the padded keys masked.  Returns the
    ``(mentions, widest)`` distributions: each line sums to one over its
    real slots, in candidate order, and is exactly 0 on its padding.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    training = mode == "train"
    cfg = params.config
    x, keys, heads, cand_rows = document_input(mentions, candidates, slots, valid, store,
                                               params)
    for layer in params.encoder:
        x = layer.apply(x, training=training, rng=rng, keys=keys)

    o_cls = ad.gather(x, np.arange(len(mentions)) * keys.shape[1])
    o_mention = ad.gather(x, heads)
    o_cands = ad.reshape(ad.gather(x, cand_rows.ravel()), valid.shape + (cfg.model_dim,))

    summary = dropout(
        ad.relu(linear(o_cls, params.summary_w, params.summary_b)),
        cfg.drop_rate, rng, training,
    )
    query = ad.matmul(summary, ad.transpose(params.match))
    context_head = ad.row_softmax(_per_line(o_cands, query), valid)
    similarity = _per_line(Tensor(candidates[slots]), o_mention)

    pair = ad.reshape(ad.stack([context_head, similarity], axis=-1), (-1, 2))
    logits = ad.reshape(params.pair_head.apply(pair, training=training, rng=rng), valid.shape)
    return ad.row_softmax(logits, valid)


def _per_line(stack: Tensor, vectors: Tensor) -> Tensor:
    """Line i of ``stack @ vectors[i]``: each matrix of a stack against its own vector."""
    columns = ad.matmul(stack, ad.reshape(vectors, vectors.shape + (1,)))
    return ad.reshape(columns, stack.shape[:-1])


def local_scores_transformer(
    mention: Mention,
    store: EmbeddingStore,
    params: TransformerLocalParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Final candidate distribution (sums to one), in candidate order: the
    document pass over ``mention`` alone."""
    n = len(mention.candidates)
    probs = document_scores((mention,), store.entities(mention.candidate_ids),
                            np.arange(n)[None], np.ones((1, n), dtype=bool), store, params,
                            mode, rng)
    return ad.reshape(probs, (n,))

