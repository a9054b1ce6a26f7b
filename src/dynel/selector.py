"""Candidate entity selection from fused per-candidate features.

Five scalar features per candidate: coherence with previously linked
entities, the mention-entity prior, a pluggable type score, coherence
with the KG neighborhood of the linked entities, and the local score.
Features can be individually disabled, optionally z-normalised across the
candidate set, and are fused either by a small feed-forward network or by
a plain sum (handy for analytic oracles).

Greedy linking scores step t of every document it links in lockstep in one
call, each document against its own predicted history.  A training
episode's history is teacher-forced to gold, so once the policy has chosen
the order every step's distribution is fixed: the episode is scored in one
call, each step masked to the golds linked before it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import DiagonalBilinear, Tensor
from .corpus import EmbeddingStore
from .nn import FeedForward

if TYPE_CHECKING:
    from .model import EncodedDocument

__all__ = [
    "SelectorParams",
    "Linked",
    "FEATURE_NAMES",
    "FUSION_MODES",
    "linked_context_feature",
    "neighborhood_scores",
    "candidate_distribution",
]

FEATURE_NAMES = ("coherence", "prior", "type", "neighborhood", "local")
FUSION_MODES = ("ffn", "sum")


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
        if fusion not in FUSION_MODES:
            raise ValueError(f"unknown fusion mode {fusion!r}")
        net = FeedForward.build([len(features), hidden, 1], rng) if fusion == "ffn" else None
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


@dataclass(frozen=True)
class Linked:
    """What each line of a lockstep step has linked before it.

    Line i has linked the entities ``entities[i]``, in link order; every
    line has linked as many.  ``neighbors[i]`` holds the KG neighbours they
    bring in, sorted by id as ``neighborhood_scores`` pools them, padded at
    the tail: its first ``neighbor_counts[i]`` rows are real.
    """

    entities: np.ndarray          # (lines, linked, d)
    neighbors: np.ndarray         # (lines, widest, d)
    neighbor_counts: np.ndarray   # (lines,)


def linked_context_feature(
    cand_mat: Tensor,
    linked_ids: tuple[str, ...],
    store: EmbeddingStore,
    params: SelectorParams,
    seen: np.ndarray,
) -> Tensor:
    """Pooled vector of previously linked entities, one line per matrix of
    the candidate stack ``cand_mat``: matrix i pools only the first
    ``seen[i]`` linked entities.  Zeros where it sees none."""
    if not linked_ids:
        return Tensor(np.zeros(cand_mat.shape[:-2] + (store.dim,)))
    linked = Tensor(store.entities(linked_ids))
    visible = np.arange(len(linked_ids)) < seen[:, None]
    return params.linked_coherence.pool(cand_mat, linked, params.top_entities, visible)


def neighborhood_scores(
    cand_mat: Tensor,
    linked_ids: tuple[str, ...],
    store: EmbeddingStore,
    params: SelectorParams,
    seen: np.ndarray,
) -> Tensor:
    """Coherence with the union of KG neighbors of the linked entities, one
    line per matrix of the candidate stack ``cand_mat``: matrix i pools
    only the neighbours that the first ``seen[i]`` linked entities bring in.
    """
    first: dict[str, int] = {}   # each neighbour's first linked entity
    for i, entity in enumerate(linked_ids):
        for neighbor in store.neighbors(entity):
            first.setdefault(neighbor, i)
    if not first:
        return Tensor(np.zeros(cand_mat.shape[:-1]))
    neighbor_ids = sorted(first)
    visible = np.array([first[e] for e in neighbor_ids]) < seen[:, None]
    bilinear = params.neighborhood_coherence
    pooled = bilinear.pool(cand_mat, Tensor(store.entities(neighbor_ids)),
                           params.top_entities, visible)
    return bilinear.scores(cand_mat, pooled)


def _znorm_columns(mat: Tensor, valid: np.ndarray | None) -> Tensor:
    """Each feature standardised over the candidates (axis -2); padded
    candidates (``valid`` False) take no part and come out 0."""
    if valid is None:
        inv = 1.0 / mat.shape[-2]
    else:
        mask = Tensor(valid[..., None])
        mat = ad.mul(mat, mask)
        inv = Tensor(1.0 / valid.sum(axis=-1)[:, None, None])
    mean = ad.tsum(mat, axis=-2, keepdims=True) * inv
    centered = ad.sub(mat, mean)
    if valid is not None:
        centered = ad.mul(centered, mask)
    var = ad.tsum(ad.mul(centered, centered), axis=-2, keepdims=True) * inv
    return ad.div(centered, ad.sqrt(var + 1e-12))


_COLUMNS = {"prior": "priors", "type": "types", "local": "local"}


def candidate_distribution(
    encoded: EncodedDocument,
    steps: Sequence[int],
    linked: tuple[str, ...] | Linked,
    store: EmbeddingStore,
    params: SelectorParams,
) -> Tensor:
    """Probability over each line's candidates, in candidate order.

    Line i is the mention at position ``steps[i]`` of ``encoded``.  Lines
    are the padded ``encoded.slots``, and a padded candidate gets
    probability exactly 0.

    ``linked`` given as entity ids makes the lines the steps of one training
    episode, in the order the policy chose, with the gold entities of every
    step but the last: line i sees the first i of them and more if given,
    so the last line sees every entity.  It is one graph, the prefixes
    masked.

    ``linked`` given as a ``Linked`` makes the lines step t of documents
    linked in lockstep (``encoded`` holds them all), each with its own
    history; no graph is recorded.  Lines with as many candidates are scored
    as one stack, so each line gets exactly the numbers it gets alone.
    """
    if isinstance(linked, Linked):
        return _lockstep_distribution(encoded, np.asarray(steps), linked, params)
    if not steps or len(linked) < len(steps) - 1:
        raise ValueError(f"{len(steps)} positions need at least {len(steps) - 1} linked "
                         f"entities, got {len(linked)}")
    at, valid = encoded.slots[list(steps)], encoded.valid[list(steps)]
    seen = np.arange(len(steps)) + (len(linked) - len(steps) + 1)
    cand = Tensor(encoded.candidates.data[at])

    columns: list[Tensor] = []
    for name in params.features:
        if name == "coherence":
            pooled = linked_context_feature(cand, linked, store, params, seen)
            columns.append(params.linked_coherence.scores(cand, pooled))
        elif name == "neighborhood":
            columns.append(neighborhood_scores(cand, linked, store, params, seen))
        else:
            columns.append(ad.gather(getattr(encoded, _COLUMNS[name]), at))
    return _fuse(columns, valid, params)


def _lockstep_distribution(encoded: EncodedDocument, steps: np.ndarray, linked: Linked,
                           params: SelectorParams) -> Tensor:
    widths = encoded.valid[steps].sum(axis=1)
    hidden = np.arange(linked.neighbors.shape[1])
    out = np.zeros((steps.size, encoded.slots.shape[1]))
    for width in sorted(set(widths.tolist())):
        lines = np.flatnonzero(widths == width)
        at = encoded.slots[steps[lines], :width]
        cand = Tensor(encoded.candidates.data[at])
        columns: list[Tensor] = []
        for name in params.features:
            if name == "coherence":
                bilinear, rows, visible = params.linked_coherence, linked.entities, None
            elif name == "neighborhood":
                bilinear, rows = params.neighborhood_coherence, linked.neighbors
                visible = hidden < linked.neighbor_counts[lines, None]
            else:
                columns.append(ad.gather(getattr(encoded, _COLUMNS[name]), at))
                continue
            pooled = bilinear.pool(cand, Tensor(rows[lines]), params.top_entities, visible)
            columns.append(bilinear.scores(cand, pooled))
        out[lines, :width] = _fuse(columns, None, params).data
    return Tensor(out)


def _fuse(columns: list[Tensor], valid: np.ndarray | None, params: SelectorParams) -> Tensor:
    """Each line's candidate distribution from its feature columns, each
    ``(lines, candidates)``; ``valid`` marks the real candidates, or is
    ``None`` when every candidate is real."""
    feats = ad.stack(columns, axis=-1)
    if params.feature_norm:
        feats = _znorm_columns(feats, valid)
    if params.fusion is None:
        logits = ad.tsum(feats, axis=-1)
    else:
        rows = feats if valid is None else ad.reshape(feats, (-1, feats.shape[-1]))
        logits = ad.reshape(params.fusion.apply(rows), feats.shape[:-1])
    return ad.row_softmax(logits, valid)
