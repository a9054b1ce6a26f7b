"""Bundle of all trainable parameters and the per-document encoding.

``encode_document`` is the one forward pass over a document's mentions
that every episode over the document shares: one record per mention.  The
policy's mention half is always the hard-attention context feature (dimension
d), whichever local scorer weights the candidates.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EmbeddingStore, Mention
from .local_attn import LocalAttnParams, context_feature, local_scores_attn
from .local_transformer import (
    TransformerConfig,
    TransformerLocalParams,
    local_scores_transformer,
)
from .policy import PolicyParams, action_representation
from .selector import SelectorParams

__all__ = [
    "ModelParams",
    "EncodedMention",
    "build_model",
    "encode_document",
    "save_checkpoint",
    "load_checkpoint",
]

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
    if local_model not in ("attn", "transformer"):
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
class EncodedMention:
    """Everything a rollout reads about one mention, looked up once."""

    mention: Mention
    candidates: Tensor         # candidate vectors, one row per candidate
    priors: Tensor             # prior column the selector fuses
    types: Tensor              # type-score column the selector fuses
    gold_index: int | None     # gold's row in ``candidates``; None when missing
    context: Tensor            # context feature; the policy's mention half
    local: Tensor              # local score column the selector fuses
    action: Tensor             # action summary the policy scores


def encode_document(
    doc: Document,
    store: EmbeddingStore,
    params: ModelParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[EncodedMention, ...]:
    """Encode every mention once, in position order.

    The one place that reads a mention's candidate vectors, priors, type
    scores and gold index.  Attention scores are softmax-normalised into
    action weights; the transformer head is already a distribution
    (``mode`` and ``rng`` drive its dropout).
    """
    records = []
    for m in doc.mentions:
        cand = Tensor(store.entities(m.candidate_ids))
        feat = context_feature(m, cand, store, params.local_attn)
        if params.transformer is None:
            local = local_scores_attn(cand, feat, params.local_attn)
            weights = ad.softmax(local)
        else:
            local = local_scores_transformer(m, store, params.transformer, mode=mode, rng=rng)
            weights = local
        types = Tensor([store.type_score(m.id, e) for e in m.candidate_ids])
        gold = m.candidate_ids.index(m.gold) if m.gold in m.candidate_ids else None
        records.append(EncodedMention(m, cand, Tensor(m.priors), types, gold, feat, local,
                                      action_representation(feat, cand, weights)))
    return tuple(records)


def save_checkpoint(params: ModelParams, path: str, meta: dict | None = None) -> None:
    arrays = params.snapshot()
    header = {"version": CHECKPOINT_VERSION, "meta": meta or {},
              **{key: getattr(params, key) for key in _MODEL_KEYS}}
    np.savez(path, __header__=np.bytes_(json.dumps(header, sort_keys=True)), **arrays)


def load_checkpoint(params: ModelParams, path: str) -> dict:
    """Restore arrays into an already-built model of the same ``local_model``,
    ``dim`` and, for the transformer, vocabulary; returns meta."""
    with np.load(path, allow_pickle=False) as data:
        try:
            header = json.loads(bytes(data["__header__"]).decode())
            version = header["version"]
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"checkpoint {path} has no dynel header: it is missing, "
                             f"not JSON or without a version") from err
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        for key in _MODEL_KEYS:
            if header.get(key) != getattr(params, key):
                raise ValueError(f"checkpoint {path} has {key} {header.get(key)!r}; "
                                 f"the model has {getattr(params, key)!r}")
        arrays = {k: data[k] for k in data.files if k != "__header__"}
    params.restore(arrays)
    return header["meta"]
