"""Hard-attention local scorer: candidate relevance to a context feature.

The context feature pools the mention's surrounding words: every word is
scored by the best diagonal-bilinear match against any candidate entity,
only the top ``top_words`` survive, and the kept words are combined with
softmax weights.  Each candidate is then scored against that pooled
vector through a second diagonal form.

Both run once per document: the candidates come as the padded
``(mentions, widest, d)`` stack of ``encode_document`` (a padded slot
repeats its mention's first candidate, so it never changes a best match),
and every mention's words are pooled in one masked call.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def context_feature(
    mentions: Sequence[Mention], cand: Tensor, store: EmbeddingStore, params: LocalAttnParams
) -> Tensor:
    """Each mention's softmax-weighted sum of its top-scoring context word
    vectors, pooled against its line of the candidate stack ``cand``.

    The windows are laid end to end in mention order and pooled in one
    call; line i sees only mention i's block of them.
    """
    windows = [m.context_window for m in mentions]
    for mention, window in zip(mentions, windows):
        if not window:
            raise ValueError(f"mention {mention.id!r} has an empty context window")
    words = Tensor(store.words([w for window in windows for w in window]))
    sizes = np.array([len(window) for window in windows])[:, None]
    ends = np.cumsum(sizes)[:, None]
    column = np.arange(ends[-1, 0])
    visible = (ends - sizes <= column) & (column < ends)
    return params.word_scorer.pool(cand, words, params.top_words, visible)


def local_scores_attn(cand: Tensor, contexts: Tensor, params: LocalAttnParams) -> Tensor:
    """One bilinear relevance score per slot of the candidate stack ``cand``:
    line i against mention i's context feature, line i of ``contexts``."""
    return params.entity_context.scores(cand, contexts)
