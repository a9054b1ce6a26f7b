"""Candidate entity selection from fused per-candidate features.

Five scalar features per candidate: coherence with previously linked
entities, the mention-entity prior, a pluggable type score, coherence
with the KG neighborhood of the linked entities, and the local score.
Features can be individually disabled, optionally z-normalised across the
candidate set, and are fused either by a small feed-forward network or by
a plain sum (handy for analytic oracles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import DiagonalBilinear, Tensor
from .corpus import EmbeddingStore
from .nn import FeedForward

if TYPE_CHECKING:
    from .model import EncodedMention

__all__ = [
    "SelectorParams",
    "FEATURE_NAMES",
    "linked_context_feature",
    "neighborhood_scores",
    "candidate_distribution",
]

FEATURE_NAMES = ("coherence", "prior", "type", "neighborhood", "local")


@dataclass
class SelectorParams:
    linked_coherence: DiagonalBilinear      # candidate vs pooled linked entities
    neighborhood_coherence: DiagonalBilinear  # candidate vs pooled KG neighborhood
    fusion: FeedForward | None              # None -> plain sum of features
    top_entities: int = 7
    features: tuple[str, ...] = FEATURE_NAMES
    feature_norm: bool = True

    @classmethod
    def build(
        cls,
        dim: int,
        rng: np.random.Generator,
        hidden: int = 32,
        top_entities: int = 7,
        features: tuple[str, ...] = FEATURE_NAMES,
        feature_norm: bool = True,
        fusion: str = "ffn",
    ) -> "SelectorParams":
        unknown = set(features) - set(FEATURE_NAMES)
        if unknown:
            raise ValueError(f"unknown selector features: {sorted(unknown)}")
        if not features:
            raise ValueError("at least one selector feature is required")
        if fusion == "ffn":
            net = FeedForward.build([len(features), hidden, 1], rng)
        elif fusion == "sum":
            net = None
        else:
            raise ValueError(f"unknown fusion mode {fusion!r}")
        return cls(
            DiagonalBilinear.ones(dim),
            DiagonalBilinear.ones(dim),
            net,
            top_entities,
            tuple(features),
            feature_norm,
        )

    def parameters(self) -> dict[str, Tensor]:
        out = {
            "selector.linked_coherence": self.linked_coherence.diag,
            "selector.neighborhood_coherence": self.neighborhood_coherence.diag,
        }
        if self.fusion is not None:
            for i, p in enumerate(self.fusion.parameters()):
                out[f"selector.fusion.{i}"] = p
        return out


def linked_context_feature(
    cand_mat: Tensor,
    linked_ids: tuple[str, ...],
    store: EmbeddingStore,
    params: SelectorParams,
) -> Tensor:
    """Pooled vector of previously linked entities; zeros when none exist."""
    if not linked_ids:
        return Tensor(np.zeros(store.dim))
    linked = Tensor(store.entities(linked_ids))
    return params.linked_coherence.pool(cand_mat, linked, params.top_entities)


def neighborhood_scores(
    cand_mat: Tensor,
    linked_ids: tuple[str, ...],
    store: EmbeddingStore,
    params: SelectorParams,
) -> Tensor:
    """Coherence with the union of KG neighbors of the linked entities."""
    n = cand_mat.data.shape[0]
    neighbor_ids = sorted(set().union(*[store.neighbors(e) for e in linked_ids], set()))
    if not neighbor_ids:
        return Tensor(np.zeros(n))
    bilinear = params.neighborhood_coherence
    pooled = bilinear.pool(cand_mat, Tensor(store.entities(neighbor_ids)), params.top_entities)
    return bilinear.scores(cand_mat, pooled)


def _znorm_columns(mat: Tensor) -> Tensor:
    n = mat.data.shape[0]
    mean = ad.tsum(mat, axis=0) * (1.0 / n)
    centered = ad.sub(mat, mean)
    var = ad.tsum(ad.mul(centered, centered), axis=0) * (1.0 / n)
    return ad.div(centered, ad.sqrt(var + 1e-12))


def candidate_distribution(
    record: EncodedMention,
    linked_ids: tuple[str, ...],
    store: EmbeddingStore,
    params: SelectorParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Probability over the record's candidates, in candidate order."""
    cand_mat = record.candidates
    n = cand_mat.data.shape[0]
    columns: list[Tensor] = []
    for name in params.features:
        if name == "coherence":
            pooled = linked_context_feature(cand_mat, linked_ids, store, params)
            columns.append(params.linked_coherence.scores(cand_mat, pooled))
        elif name == "prior":
            columns.append(record.priors)
        elif name == "type":
            columns.append(record.types)
        elif name == "neighborhood":
            columns.append(neighborhood_scores(cand_mat, linked_ids, store, params))
        elif name == "local":
            columns.append(record.local)

    feats = ad.transpose(ad.stack(columns))
    if params.feature_norm:
        feats = _znorm_columns(feats)
    if params.fusion is None:
        logits = ad.tsum(feats, axis=1)
    else:
        logits = ad.reshape(params.fusion.apply(feats, training=training, rng=rng), (n,))
    return ad.softmax(logits)
