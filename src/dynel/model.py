"""Bundle of all trainable parameters and the per-document encoding.

``encode_document`` is the one forward pass over a document's mentions
that every episode over the document shares: one record per document.  It
runs once per document on both local scorers, each stage over the padded
``(mentions, widest, d)`` candidate stack at once: the context features,
the local scores and the action summaries.  The policy's mention half is
always the hard-attention context feature (dimension d), whichever local
scorer weights the candidates.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EmbeddingStore, Mention
from .local_attn import LocalAttnParams, context_feature, local_scores_attn
from .local_transformer import (
    TransformerConfig,
    TransformerLocalParams,
    document_scores,
)
from .policy import PolicyParams, action_representation
from .selector import SelectorParams

__all__ = [
    "LOCAL_MODELS",
    "ModelParams",
    "EncodedDocument",
    "build_model",
    "encode_document",
    "concat_records",
    "save_checkpoint",
    "read_header",
    "load_checkpoint",
]

LOCAL_MODELS = ("attn", "transformer")
CHECKPOINT_VERSION = 1
# header fields a checkpoint must share with the model it is loaded into
_MODEL_KEYS = ("local_model", "dim", "vocab_sha256")


@dataclass
class ModelParams:
    dim: int
    local_attn: LocalAttnParams
    policy: PolicyParams
    selector: SelectorParams
    transformer: TransformerLocalParams | None = None

    @property
    def local_model(self) -> str:
        return "attn" if self.transformer is None else "transformer"

    @property
    def vocab_sha256(self) -> str | None:
        """Digest of the transformer's word table keys in row order; ``None``
        for the attn scorer, which has no word table."""
        if self.transformer is None:
            return None
        vocab = self.transformer.vocab
        return hashlib.sha256(json.dumps(sorted(vocab, key=vocab.get)).encode()).hexdigest()

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.local_attn.parameters())
        out.update(self.policy.parameters())
        out.update(self.selector.parameters())
        if self.transformer is not None:
            out.update(self.transformer.parameters())
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.named_parameters().items()}

    def restore(self, arrays: dict[str, np.ndarray]) -> None:
        named = self.named_parameters()
        missing = set(named) - set(arrays)
        if missing:
            raise ValueError(f"snapshot is missing parameters: {sorted(missing)}")
        unexpected = set(arrays) - set(named)
        if unexpected:
            raise ValueError(f"snapshot has parameters the model lacks: {sorted(unexpected)}")
        for k, t in named.items():
            if arrays[k].shape != t.data.shape:
                raise ValueError(f"shape mismatch restoring {k!r}")
            t.data[...] = arrays[k]


def build_model(
    store: EmbeddingStore,
    rng: np.random.Generator,
    local_model: str = "attn",
    top_words: int = 25,
    policy_top_k: int = 7,
    selector_top_k: int = 7,
    fusion_hidden: int = 32,
    features: tuple[str, ...] = ("coherence", "prior", "type", "neighborhood", "local"),
    feature_norm: bool = True,
    fusion: str = "ffn",
    transformer_config: TransformerConfig | None = None,
) -> ModelParams:
    if local_model not in LOCAL_MODELS:
        raise ValueError(f"unknown local model {local_model!r}")
    dim = store.dim
    transformer = None
    if local_model == "transformer":
        transformer = TransformerLocalParams.build(
            store, transformer_config or TransformerConfig(model_dim=dim), rng
        )
    return ModelParams(
        dim=dim,
        local_attn=LocalAttnParams.build(dim, top_words=top_words),
        policy=PolicyParams.build(dim, top_k=policy_top_k),
        selector=SelectorParams.build(
            dim,
            rng,
            hidden=fusion_hidden,
            top_entities=selector_top_k,
            features=features,
            feature_norm=feature_norm,
            fusion=fusion,
        ),
        transformer=transformer,
    )


@dataclass(frozen=True)
class EncodedDocument:
    """Everything a rollout reads about a document, looked up once.

    The candidate arrays hold every mention's candidates in position order,
    one entry or row each.  Line i of ``slots`` holds mention i's rows in
    them, padded to the widest set: a padded slot repeats the mention's
    first row, so a padded line's best match against any pooled row is
    still one of its own candidates, and ``valid`` marks the real slots.
    The stacks below them hold one row per mention, in position order.
    """

    mentions: tuple[Mention, ...]
    candidates: Tensor         # (N, d) candidate vectors
    priors: Tensor             # (N,) prior column the selector fuses
    types: Tensor              # (N,) type-score column the selector fuses
    local: Tensor              # (N,) local score column the selector fuses
    slots: np.ndarray          # (mentions, widest) each mention's rows above
    valid: np.ndarray          # (mentions, widest) which slots are real candidates
    gold: np.ndarray           # (mentions,) gold's column; -1 when missing
    contexts: Tensor           # (mentions, d) context features; the policy's mention half
    actions: Tensor            # (mentions, 2d) action summaries the policy scores
    pairs: Tensor | None       # (mentions, 2d) teacher-forced history pairs (context; gold);
                               # train mode only


def _slots(widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``slots`` and ``valid`` of mentions with ``widths`` candidates each,
    laid end to end in the flat candidate arrays."""
    columns = np.arange(widths.max())
    valid = columns < widths[:, None]
    return (np.cumsum(widths) - widths)[:, None] + np.where(valid, columns, 0), valid


def encode_document(
    doc: Document,
    store: EmbeddingStore,
    params: ModelParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> EncodedDocument:
    """Encode every mention of ``doc`` in one pass, in position order.

    The one place that reads a mention's candidate vectors, priors, type
    scores and gold; the candidates are looked up in one call.  Both local
    scorers score the padded candidate stack at once, and the fork between
    them is where the ``(mentions, widest)`` scores come from: attention
    scores are softmax-normalised over the real slots into action weights,
    while the transformer's document pass returns distributions that are
    both (``mode`` and ``rng`` drive its dropout).  Train mode also builds
    the teacher-forced pairs: they do not depend on an order, so every
    training episode over the document shares them.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    mentions = doc.mentions
    ids = [m.candidate_ids for m in mentions]
    slots, valid = _slots(np.array([len(c) for c in ids]))
    candidates = store.entities([e for c in ids for e in c])
    cand = Tensor(candidates[slots])
    contexts = context_feature(mentions, cand, store, params.local_attn)
    if params.transformer is None:
        scores = local_scores_attn(cand, contexts, params.local_attn)
        weights = ad.row_softmax(scores, valid)
    else:
        scores = weights = document_scores(mentions, candidates, slots, valid, store,
                                           params.transformer, mode, rng)
    local = ad.gather(ad.reshape(scores, (-1,)), np.flatnonzero(valid))

    gold = np.array([c.index(m.gold) if m.gold in c else -1 for m, c in zip(mentions, ids)])
    pairs = None
    if mode == "train":
        golds = store.entities([m.gold for m in mentions])
        pairs = ad.concat([contexts, Tensor(golds)], axis=-1)
    return EncodedDocument(
        mentions=mentions,
        candidates=Tensor(candidates),
        priors=Tensor([c.prior for m in mentions for c in m.candidates]),
        types=Tensor([store.type_score(m.id, e) for m, c in zip(mentions, ids) for e in c]),
        local=local,
        slots=slots,
        valid=valid,
        gold=gold,
        contexts=contexts,
        actions=action_representation(contexts, cand, weights),
        pairs=pairs,
    )


def concat_records(records: Sequence[EncodedDocument]) -> tuple[EncodedDocument, list[int]]:
    """One eval-mode record of the mentions of every record, in order, and
    the position in it of each record's first mention.

    Its slots point into the joined candidate arrays, laid out as
    ``encode_document`` lays out its own, padded to the widest set of all.
    The joined arrays carry no graph.
    """
    starts = np.cumsum([0] + [len(r.mentions) for r in records])
    if len(records) == 1:
        return records[0], [0]
    slots, valid = _slots(np.concatenate([r.valid.sum(axis=1) for r in records]))

    def joined(field: str) -> Tensor:
        return Tensor(np.concatenate([getattr(r, field).data for r in records]))

    return EncodedDocument(
        mentions=tuple(m for r in records for m in r.mentions),
        candidates=joined("candidates"),
        priors=joined("priors"),
        types=joined("types"),
        local=joined("local"),
        slots=slots,
        valid=valid,
        gold=np.concatenate([r.gold for r in records]),
        contexts=joined("contexts"),
        actions=joined("actions"),
        pairs=None,
    ), starts[:-1].tolist()


def save_checkpoint(params: ModelParams, path: str, meta: dict | None = None) -> None:
    arrays = params.snapshot()
    header = {"version": CHECKPOINT_VERSION, "meta": meta or {},
              **{key: getattr(params, key) for key in _MODEL_KEYS}}
    np.savez(path, __header__=np.bytes_(json.dumps(header, sort_keys=True)), **arrays)


def read_header(path: str) -> dict:
    """A checkpoint's header, refused unless dynel wrote it in this version."""
    with np.load(path, allow_pickle=False) as data:
        try:
            header = json.loads(bytes(data["__header__"]).decode())
            version, _ = header["version"], header["meta"]
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"checkpoint {path} has no dynel header: it is missing, "
                             f"not JSON or without a version or meta") from err
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    return header


def load_checkpoint(params: ModelParams, path: str) -> dict:
    """Restore arrays into an already-built model of the same ``local_model``,
    ``dim`` and, for the transformer, vocabulary; returns meta.  An array
    holding a NaN or an infinity is refused, and the model left as it was."""
    header = read_header(path)
    for key in _MODEL_KEYS:
        if header.get(key) != getattr(params, key):
            raise ValueError(f"checkpoint {path} has {key} {header.get(key)!r}; "
                             f"the model has {getattr(params, key)!r}")
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files if k != "__header__"}
    for key, array in arrays.items():   # a non-numeric array is refused as restore refuses it
        if not np.isfinite(np.asarray(array, dtype=float)).all():
            raise ValueError(f"checkpoint {path} has a non-finite value in {key}")
    params.restore(arrays)
    return header["meta"]
