"""Hard-attention local scorer: candidate relevance to a context feature.

The context feature pools the mention's surrounding words: every word is
scored by the best diagonal-bilinear match against any candidate entity,
only the top ``top_words`` survive, and the kept words are combined with
softmax weights.  Each candidate is then scored against that pooled
vector through a second diagonal form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import DiagonalBilinear, Tensor
from .corpus import EmbeddingStore, Mention

__all__ = ["LocalAttnParams", "context_feature", "local_scores_attn"]


@dataclass
class LocalAttnParams:
    entity_context: DiagonalBilinear   # pairs candidates with the pooled context
    word_scorer: DiagonalBilinear      # scores words against candidates inside the pool
    top_words: int = 25

    @classmethod
    def build(cls, dim: int, top_words: int = 25) -> "LocalAttnParams":
        return cls(DiagonalBilinear.ones(dim), DiagonalBilinear.ones(dim), top_words)

    def parameters(self) -> dict[str, Tensor]:
        return {
            "local_attn.entity_context": self.entity_context.diag,
            "local_attn.word_scorer": self.word_scorer.diag,
        }


def context_feature(mention: Mention, store: EmbeddingStore, params: LocalAttnParams) -> Tensor:
    """Softmax-weighted sum of the top-scoring context word vectors."""
    window = mention.context_window
    if not window:
        raise ValueError(f"mention {mention.id!r} has an empty context window")
    words = Tensor(np.stack([store.word(w) for w in window]))
    cand = Tensor(store.entities(mention.candidate_ids))
    return params.word_scorer.pool(cand, words, params.top_words)


def local_scores_attn(
    mention: Mention,
    store: EmbeddingStore,
    params: LocalAttnParams,
    feat: Tensor | None = None,
) -> Tensor:
    """One bilinear relevance score per candidate, in candidate order.

    ``feat`` lets callers reuse an already-computed context feature.
    """
    if feat is None:
        feat = context_feature(mention, store, params)
    cand = Tensor(store.entities(mention.candidate_ids))
    return params.entity_context.scores(cand, feat)
