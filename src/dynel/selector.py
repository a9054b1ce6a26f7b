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
call, each step masked to the golds linked before it.  Both hand their
history in as one ``Linked``, and one body computes the features of both.
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
    """What each line has linked before it: the rows of both pooled
    features, and which of them each line sees.

    ``entities`` holds the linked entities' rows, ``neighbors`` the KG
    neighbours they bring in, sorted by id.  Each is one ``(rows, d)``
    matrix that every line shares (a training episode's steps), with
    ``entities_visible`` or ``neighbors_visible`` holding one boolean line
    per line, one entry per row; or a sequence of one matrix per line, each
    line seeing all of its own (documents linked in lockstep), with ``None``
    for both masks.
    """

    entities: np.ndarray | Sequence[np.ndarray]
    entities_visible: np.ndarray | None
    neighbors: np.ndarray | Sequence[np.ndarray]
    neighbors_visible: np.ndarray | None

    @classmethod
    def prefixes(cls, entity_ids: Sequence[str], store: EmbeddingStore, lines: int) -> "Linked":
        """Shared rows for the ``lines`` steps of a training episode that
        linked ``entity_ids`` in order: line t sees the first
        ``t + len(entity_ids) - lines + 1`` of them, so the last line sees
        them all, and the neighbours those bring in."""
        if lines < 1 or len(entity_ids) < lines - 1:
            raise ValueError(f"{lines} lines need at least {lines - 1} linked entities, "
                             f"got {len(entity_ids)}")
        first: dict[str, int] = {}   # each neighbour's first linked entity
        for i, entity in enumerate(entity_ids):
            for neighbor in store.neighbors(entity):
                first.setdefault(neighbor, i)
        neighbor_ids = sorted(first)
        seen = np.arange(lines)[:, None] + (len(entity_ids) - lines + 1)
        return cls(_rows(store, entity_ids), np.arange(len(entity_ids)) < seen,
                   _rows(store, neighbor_ids), np.array([first[e] for e in neighbor_ids]) < seen)


def _rows(store: EmbeddingStore, entity_ids: Sequence[str]) -> np.ndarray:
    return store.entities(entity_ids) if entity_ids else np.zeros((0, store.dim))


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
    linked: Linked,
    params: SelectorParams,
) -> Tensor:
    """Probability over each line's candidates, in candidate order.

    Line i is the mention at position ``steps[i]`` of ``encoded``, scored
    against what ``linked`` says it has linked.  Lines are the padded
    ``encoded.slots``, and a padded candidate gets probability exactly 0.

    Shared rows (a training episode's steps) are one graph over the padded
    lines.  Per-line rows (step t of documents linked in lockstep, which
    ``encoded`` holds together) record no graph: lines with as many
    candidates are scored as one stack, so each line gets exactly the
    numbers it gets alone.
    """
    steps = np.asarray(steps)
    if linked.entities_visible is not None:
        return _distribution(encoded, encoded.slots[steps], encoded.valid[steps], linked,
                             slice(None), params)
    widths = encoded.valid[steps].sum(axis=1)
    out = np.zeros((steps.size, encoded.slots.shape[1]))
    for width in sorted(set(widths.tolist())):
        lines = np.flatnonzero(widths == width)
        at = encoded.slots[steps[lines], :width]
        out[lines, :width] = _distribution(encoded, at, None, linked, lines, params).data
    return Tensor(out)


def _distribution(encoded: EncodedDocument, at: np.ndarray, valid: np.ndarray | None,
                  linked: Linked, lines: np.ndarray | slice, params: SelectorParams) -> Tensor:
    """The distribution of the lines ``lines`` of ``linked``, whose
    candidates are the rows ``at`` of ``encoded``'s candidate arrays."""
    cand = Tensor(encoded.candidates.data[at])
    columns: list[Tensor] = []
    for name in params.features:
        if name in _COLUMNS:
            columns.append(ad.gather(getattr(encoded, _COLUMNS[name]), at))
            continue
        if name == "coherence":
            bilinear, rows, visible = (params.linked_coherence, linked.entities,
                                       linked.entities_visible)
        else:
            bilinear, rows, visible = (params.neighborhood_coherence, linked.neighbors,
                                       linked.neighbors_visible)
        if visible is None:   # one matrix per line, seen whole
            pooled = bilinear.pool(cand, [rows[i] for i in lines], params.top_entities)
        elif len(rows):
            pooled = bilinear.pool(cand, Tensor(rows), params.top_entities, visible)
        else:   # nothing linked to pool: a zero column, no graph edge
            columns.append(Tensor(np.zeros(at.shape)))
            continue
        columns.append(bilinear.scores(cand, pooled))
    return _fuse(columns, valid, params)


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
