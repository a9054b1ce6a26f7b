"""Feed-forward layers, layer norm, dropout and multi-head self-attention.

All blocks are parameter containers over :mod:`dynel.autodiff` tensors.
Initialisation follows the house rules: diagonal forms start at ones,
dense weights are Glorot-uniform, biases and embedding-like vectors are
configured where they are built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape if shape is not None else (fan_in, fan_out))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout; identity in eval mode or at rate 0."""
    if not training or rate <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return ad.mul(x, Tensor(mask))


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ W (+ b). Works for a single vector or a batch of row vectors."""
    out = ad.matmul(x, weight)
    if bias is not None:
        out = ad.add(out, bias)
    return out


@dataclass
class FeedForward:
    """Chain of linear layers with relu and dropout after every layer but
    the last."""

    weights: list[Tensor]
    biases: list[Tensor]
    drop_rate: float = 0.0

    @classmethod
    def build(
        cls,
        dims: list[int],
        rng: np.random.Generator,
        drop_rate: float = 0.0,
    ) -> "FeedForward":
        if len(dims) < 2:
            raise ValueError("FeedForward needs at least one layer")
        weights, biases = [], []
        for i in range(len(dims) - 1):
            weights.append(ad.parameter(glorot(rng, dims[i], dims[i + 1])))
            biases.append(ad.parameter(np.zeros(dims[i + 1])))
        return cls(weights, biases, drop_rate)

    def apply(
        self,
        x: Tensor,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if x.data.shape[-1] != w.data.shape[0]:
                raise ad.ShapeError(
                    f"feed-forward layer {i}: input width {x.data.shape[-1]} "
                    f"!= weight rows {w.data.shape[0]}"
                )
            x = linear(x, w, b)
            if i < last:
                x = dropout(ad.relu(x), self.drop_rate, rng, training)
        return x

    def parameters(self) -> list[Tensor]:
        return list(self.weights) + list(self.biases)


@dataclass
class LayerNorm:
    gain: Tensor
    bias: Tensor
    eps: float = 1e-6

    @classmethod
    def build(cls, dim: int) -> "LayerNorm":
        return cls(ad.parameter(np.ones(dim)), ad.parameter(np.zeros(dim)))

    def apply(self, x: Tensor) -> Tensor:
        # row-wise normalisation for matrices, whole-vector for vectors
        axis = x.data.ndim - 1
        n = x.data.shape[axis]
        mean = ad.tsum(x, axis=axis) * (1.0 / n)
        if x.data.ndim == 2:
            mean = ad.reshape(mean, (-1, 1))
        centered = ad.sub(x, mean)
        var = ad.tsum(ad.mul(centered, centered), axis=axis) * (1.0 / n)
        if x.data.ndim == 2:
            var = ad.reshape(var, (-1, 1))
        std = ad.sqrt(var + self.eps)
        normed = ad.div(centered, std)
        return ad.add(ad.mul(normed, self.gain), self.bias)

    def parameters(self) -> list[Tensor]:
        return [self.gain, self.bias]


@dataclass
class MultiHeadSelfAttention:
    heads: int
    head_dim: int
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor

    @classmethod
    def build(cls, model_dim: int, heads: int, head_dim: int, rng: np.random.Generator):
        inner = heads * head_dim
        return cls(
            heads,
            head_dim,
            ad.parameter(glorot(rng, model_dim, inner)),
            ad.parameter(np.zeros(inner)),
            ad.parameter(glorot(rng, model_dim, inner)),
            ad.parameter(np.zeros(inner)),
            ad.parameter(glorot(rng, model_dim, inner)),
            ad.parameter(np.zeros(inner)),
            ad.parameter(glorot(rng, inner, model_dim)),
            ad.parameter(np.zeros(model_dim)),
        )

    def apply(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[0] == 0:
            raise ad.ShapeError("attention expects a non-empty sequence matrix")
        q = linear(x, self.wq, self.bq)
        k = linear(x, self.wk, self.bk)
        v = linear(x, self.wv, self.bv)
        scale = 1.0 / np.sqrt(self.head_dim)
        outs = []
        for h in range(self.heads):
            lo, hi = h * self.head_dim, (h + 1) * self.head_dim
            qh, kh, vh = ad.cols(q, lo, hi), ad.cols(k, lo, hi), ad.cols(v, lo, hi)
            scores = ad.matmul(qh, ad.transpose(kh)) * scale
            attn = ad.row_softmax(scores)
            outs.append(ad.matmul(attn, vh))
        merged = outs[0] if len(outs) == 1 else ad.hstack(outs)
        return linear(merged, self.wo, self.bo)

    def parameters(self) -> list[Tensor]:
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo]


@dataclass
class EncoderLayer:
    """Post-norm transformer encoder block: MHA + FFN with residuals."""

    attn: MultiHeadSelfAttention
    norm1: LayerNorm
    norm2: LayerNorm
    ffn: FeedForward
    drop_rate: float = 0.1

    @classmethod
    def build(
        cls,
        model_dim: int,
        heads: int,
        head_dim: int,
        ff_dim: int,
        rng: np.random.Generator,
        drop_rate: float = 0.1,
    ) -> "EncoderLayer":
        return cls(
            MultiHeadSelfAttention.build(model_dim, heads, head_dim, rng),
            LayerNorm.build(model_dim),
            LayerNorm.build(model_dim),
            FeedForward.build([model_dim, ff_dim, model_dim], rng),
            drop_rate,
        )

    def apply(
        self,
        x: Tensor,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        a = self.attn.apply(x)
        x = self.norm1.apply(ad.add(x, dropout(a, self.drop_rate, rng, training)))
        f = self.ffn.apply(x, training=training, rng=rng)
        x = self.norm2.apply(ad.add(x, dropout(f, self.drop_rate, rng, training)))
        return x

    def parameters(self) -> list[Tensor]:
        return (
            self.attn.parameters()
            + self.norm1.parameters()
            + self.norm2.parameters()
            + self.ffn.parameters()
        )
