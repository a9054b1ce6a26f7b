"""Bundle of all trainable parameters and the per-document encoding.

``encode_document`` is the one forward pass over a document's mentions
that every episode over the document shares.  The policy's mention
representation is always the hard-attention context feature (dimension
d), regardless of which local scorer produces the candidate weights; it
is the one mention-level vector both scorers share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EmbeddingStore
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
    "EncodedDocument",
    "build_model",
    "encode_document",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    dim: int
    local_model: str                 # "attn" | "transformer"
    local_attn: LocalAttnParams
    policy: PolicyParams
    selector: SelectorParams
    transformer: TransformerLocalParams | None = None

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
        local_model=local_model,
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
    """Forward tensors of one document, keyed by mention position in document order."""

    mention_repr: dict[int, Tensor]    # context feature; the policy's mention half
    local_feature: dict[int, Tensor]   # local score column the selector fuses
    action_rep: dict[int, Tensor]      # action summary the policy scores


def encode_document(
    doc: Document,
    store: EmbeddingStore,
    params: ModelParams,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> EncodedDocument:
    """Encode every mention once: context feature, local scores, action summary.

    The attention scorer emits unbounded bilinear scores over the context
    feature, so its action weights are softmax-normalised; the transformer
    head is already a distribution and is used as-is for both roles
    (``mode`` and ``rng`` drive its dropout).
    """
    if params.local_model == "transformer" and params.transformer is None:
        raise ValueError("model was built without the transformer scorer")
    mention_repr: dict[int, Tensor] = {}
    local_feature: dict[int, Tensor] = {}
    action_rep: dict[int, Tensor] = {}
    for m in doc.mentions:
        feat = context_feature(m, store, params.local_attn)
        if params.local_model == "attn":
            local = local_scores_attn(m, store, params.local_attn, feat=feat)
            weights = ad.softmax(local)
        else:
            local = local_scores_transformer(m, store, params.transformer, mode=mode, rng=rng)
            weights = local
        mention_repr[m.position] = feat
        local_feature[m.position] = local
        action_rep[m.position] = action_representation(
            feat, Tensor(store.entities(m.candidate_ids)), weights
        )
    return EncodedDocument(mention_repr, local_feature, action_rep)


def save_checkpoint(params: ModelParams, path: str, meta: dict | None = None) -> None:
    arrays = params.snapshot()
    header = {
        "version": CHECKPOINT_VERSION,
        "dim": params.dim,
        "local_model": params.local_model,
        "meta": meta or {},
    }
    np.savez(path, __header__=np.bytes_(json.dumps(header, sort_keys=True)), **arrays)


def load_checkpoint(params: ModelParams, path: str) -> dict:
    """Restore arrays into an already-built compatible model; returns meta."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(bytes(data["__header__"]).decode())
        if header["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        arrays = {k: data[k] for k in data.files if k != "__header__"}
    params.restore(arrays)
    return header["meta"]
