import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynel import autodiff as ad
from dynel.autodiff import ShapeError, Tensor
from dynel.nn import (
    EncoderLayer,
    FeedForward,
    LayerNorm,
    MultiHeadSelfAttention,
    dropout,
)

import oracles


def test_feed_forward_identity_passthrough():
    ff = FeedForward(
        weights=[ad.parameter(np.eye(2))],
        biases=[ad.parameter(np.zeros(2))],
    )
    x = Tensor([[3.0, -1.5]])
    assert np.allclose(ff.apply(x).data, x.data)


def test_feed_forward_hand_relu():
    # relu follows the hidden layer; the output layer here is the identity
    w = ad.parameter(np.array([[1.0, 1.0], [1.0, -1.0]]))
    identity = ad.parameter(np.eye(2))
    zeros = [ad.parameter(np.zeros(2)) for _ in range(2)]
    out = FeedForward([w, identity], zeros).apply(Tensor([[1.0, 2.0]]))
    assert np.allclose(out.data, [[3.0, 0.0]])


def test_feed_forward_shape_mismatch():
    w = ad.parameter(np.zeros((3, 2)))
    b = ad.parameter(np.zeros(2))
    with pytest.raises(ShapeError):
        FeedForward([w], [b]).apply(Tensor([[1.0, 2.0]]))


def test_dropout_eval_mode_is_identity(rng):
    ff = FeedForward.build([3, 4, 2], rng, drop_rate=0.5)
    x = Tensor([[0.3, -0.2, 1.0]])
    a = ff.apply(x, training=False, rng=np.random.default_rng(1))
    b = ff.apply(x, training=False, rng=np.random.default_rng(999))
    assert np.array_equal(a.data, b.data)


def test_dropout_train_mode_scales_and_masks(rng):
    x = Tensor(np.ones(1000))
    out = dropout(x, 0.5, np.random.default_rng(7), training=True)
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 2.0)
    assert 350 < kept.size < 650


def test_attention_single_token_weight_is_one(rng):
    layer = EncoderLayer.build(6, heads=2, head_dim=3, ff_dim=8, rng=rng)
    x = Tensor(rng.normal(size=(1, 6)))
    out = layer.apply(x)
    assert out.data.shape == (1, 6)
    # softmax over a single key is exactly 1, so attention passes v through
    q = ad.matmul(x, layer.attn.wq)
    scores = Tensor(np.zeros((1, 1)))
    assert np.allclose(ad.row_softmax(scores).data, [[1.0]])


def test_attention_identical_rows_identical_outputs(rng):
    layer = EncoderLayer.build(4, heads=2, head_dim=2, ff_dim=6, rng=rng)
    row = rng.normal(size=4)
    x = Tensor(np.stack([row, row, rng.normal(size=4)]))
    out = layer.apply(x).data
    assert np.allclose(out[0], out[1], atol=1e-12)


def test_attention_empty_sequence_rejected(rng):
    layer = EncoderLayer.build(4, heads=1, head_dim=4, ff_dim=4, rng=rng)
    with pytest.raises(ShapeError):
        layer.apply(Tensor(np.zeros((0, 4))))


def test_attention_permutation_equivariance(rng):
    # with no position-dependent additives, permuting rows permutes outputs
    layer = EncoderLayer.build(4, heads=2, head_dim=3, ff_dim=5, rng=rng)
    x = rng.normal(size=(4, 4))
    perm = [2, 0, 3, 1]
    out = layer.apply(Tensor(x)).data
    out_p = layer.apply(Tensor(x[perm])).data
    assert np.allclose(out[perm], out_p, atol=1e-12)


def test_encoder_gradients_match_finite_differences(rng):
    layer = EncoderLayer.build(4, heads=2, head_dim=2, ff_dim=6, rng=rng)
    x = ad.parameter(rng.normal(size=(3, 4)))
    mix = rng.normal(size=(3, 4))

    def forward():
        return float(ad.tsum(layer.apply(x) * Tensor(mix)).data)

    out = ad.tsum(layer.apply(x) * Tensor(mix))
    params = layer.parameters() + [x]
    grads = ad.backward(out)
    for t in params:
        fd = oracles.fd_gradient(forward, t.data)
        for i, g in fd.items():
            assert oracles.rel_err(grads[t].ravel()[i], g) <= 1e-4


def test_layer_norm_normalises_rows(rng):
    ln = LayerNorm.build(5)
    x = Tensor(rng.normal(size=(3, 5)) * 4 + 2)
    out = ln.apply(x).data
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(out.std(axis=1), 1.0, atol=1e-3)


@pytest.mark.parametrize("shape", [(5,), (2, 3, 5)])
def test_layer_norm_refuses_anything_but_a_matrix(shape):
    with pytest.raises(ShapeError, match="layer norm expects a matrix"):
        LayerNorm.build(5).apply(Tensor(np.ones(shape)))


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 6), heads=st.integers(1, 4), head_dim=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
@example(rows=3, heads=1, head_dim=4, seed=0)
def test_attention_matches_the_per_head_oracle(rows, heads, head_dim, seed):
    rng = np.random.default_rng(seed)
    attn = MultiHeadSelfAttention.build(5, heads, head_dim, rng)
    for bias in (attn.bq, attn.bk, attn.bv, attn.bo):  # built as zeros
        bias.data[...] = rng.normal(size=bias.data.shape)
    x = rng.normal(size=(rows, 5))
    out = attn.apply(Tensor(x)).data
    expected = oracles.multi_head_attention(x, [p.data for p in attn.parameters()],
                                            heads, head_dim)
    assert out.shape == expected.shape
    assert np.abs(out - expected).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       heads=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(lengths=[3, 1, 5], heads=2, seed=0)
def test_masked_attention_equals_each_sequence_alone(lengths, heads, seed):
    rng = np.random.default_rng(seed)
    attn = MultiHeadSelfAttention.build(5, heads, 2, rng)
    for bias in (attn.bq, attn.bk, attn.bv, attn.bo):  # built as zeros
        bias.data[...] = rng.normal(size=bias.data.shape)
    longest = max(lengths)
    keys = np.arange(longest) < np.array(lengths)[:, None]
    # padded rows hold values of their own, which no real row may see
    x = rng.normal(size=(len(lengths) * longest, 5))
    out = attn.apply(Tensor(x), keys).data
    weights = [p.data for p in attn.parameters()]
    for i, length in enumerate(lengths):
        rows = slice(i * longest, i * longest + length)
        expected = oracles.multi_head_attention(x[rows], weights, heads, 2)
        assert np.abs(out[rows] - expected).max() <= 1e-12


def test_attention_refuses_a_key_mask_of_another_row_count(rng):
    attn = MultiHeadSelfAttention.build(4, 1, 4, rng)
    with pytest.raises(ShapeError, match="key mask"):
        attn.apply(Tensor(np.ones((5, 4))), np.ones((2, 3), dtype=bool))
