import numpy as np
import pytest

from dynel import autodiff as ad
from dynel.autodiff import Tensor
from dynel.corpus import Document, EmbeddingStore
from dynel.local_attn import LocalAttnParams, context_feature, local_scores_attn
from dynel.model import build_model, encode_document

import oracles
from conftest import candidate_stack, make_mention


def feature(m, store, params):
    """The mention's context feature: the document pass over ``m`` alone."""
    cand, _ = candidate_stack([m], store)
    return ad.reshape(context_feature([m], cand, store, params), (store.dim,))


def attn_scores(m, store, params):
    """Local scores against the mention's own context feature, as
    ``encode_document`` computes them for a document of ``m`` alone."""
    cand, _ = candidate_stack([m], store)
    scores = local_scores_attn(cand, context_feature([m], cand, store, params), params)
    return ad.reshape(scores, (len(m.candidates),))


def store_with(words: dict, entities: dict) -> EmbeddingStore:
    return EmbeddingStore(
        word_vecs={k: np.asarray(v, dtype=float) for k, v in words.items()},
        entity_vecs={k: np.asarray(v, dtype=float) for k, v in entities.items()},
    )


def test_single_context_word_is_its_vector():
    store = store_with({"w0": [0.2, 0.8]}, {"e0": [1.0, 0.0], "e1": [0.0, 1.0]})
    m = make_mention(context=("w0",))
    f = feature(m, store, LocalAttnParams.build(2))
    assert np.allclose(f.data, [0.2, 0.8])


def test_two_equal_scoring_words_average():
    # both words score identically against the candidate set
    store = store_with(
        {"wa": [1.0, 0.0, 0.0], "wb": [0.0, 1.0, 0.0]},
        {"e0": [1.0, 1.0, 0.0], "e1": [0.3, 0.3, 0.5]},
    )
    m = make_mention(context=("wa", "wb"))
    f = feature(m, store, LocalAttnParams.build(3, top_words=2))
    assert np.allclose(f.data, [0.5, 0.5, 0.0])


def test_top1_keeps_argmax_word_and_matches_bruteforce(rng):
    dim = 5
    words = {f"w{i}": rng.normal(size=dim) for i in range(6)}
    ents = {f"e{i}": rng.normal(size=dim) for i in range(3)}
    store = store_with(words, ents)
    m = make_mention(candidates=tuple(ents), priors=[0.3] * 3, context=tuple(words))
    params = LocalAttnParams.build(dim, top_words=1)
    diag = rng.normal(size=dim)
    params.word_scorer.diag.data[...] = diag

    f = feature(m, store, params).data
    expected = oracles.hard_attention_context(
        np.stack([words[w] for w in m.context_window]),
        np.stack([ents[e] for e in ents]),
        diag,
        top_r=1,
    )
    assert np.allclose(f, expected, atol=1e-12)
    # top-1 is exactly one word's vector
    assert any(np.allclose(f, words[w]) for w in words)


def test_empty_context_rejected():
    store = store_with({"w0": [1.0]}, {"e0": [1.0], "e1": [1.0]})
    m = make_mention(context=())
    with pytest.raises(ValueError, match="empty context"):
        feature(m, store, LocalAttnParams.build(1))


def test_missing_candidate_embedding_is_an_error():
    store = store_with({"w0": [1.0, 0.0]}, {"e0": [1.0, 0.0]})
    m = make_mention(candidates=("e0", "e_unknown"))
    with pytest.raises(Exception, match="e_unknown"):
        encode_document(Document("d", ("w0",), (m,)), store,
                        build_model(store, np.random.default_rng(0)))


def test_identity_matrix_dot_product_geometry():
    # f equals the gold vector; distinct unit candidates -> gold strictly wins
    store = store_with(
        {"w0": [1.0, 0.0, 0.0]},
        {"e0": [1.0, 0.0, 0.0], "e1": [0.0, 1.0, 0.0], "e2": [0.6, 0.0, 0.8]},
    )
    m = make_mention(candidates=("e0", "e1", "e2"), priors=[0.3] * 3)
    scores = attn_scores(m, store, LocalAttnParams.build(3)).data
    assert np.argmax(scores) == 0
    assert scores[0] > max(scores[1], scores[2])


def test_zero_matrix_zeroes_scores():
    store = store_with({"w0": [0.4, 0.6]}, {"e0": [1.0, 2.0], "e1": [3.0, 4.0]})
    m = make_mention()
    params = LocalAttnParams.build(2)
    params.entity_context.diag.data[...] = 0.0
    assert np.allclose(attn_scores(m, store, params).data, 0.0)


def test_hand_computed_three_candidate_scores(rng):
    dim = 4
    words = {f"w{i}": rng.normal(size=dim) for i in range(2)}
    ents = {f"e{i}": rng.normal(size=dim) for i in range(3)}
    store = store_with(words, ents)
    m = make_mention(candidates=("e0", "e1", "e2"), priors=[0.2] * 3,
                     context=("w0", "w1"))
    params = LocalAttnParams.build(dim)
    b1 = rng.normal(size=dim)
    params.entity_context.diag.data[...] = b1

    f = feature(m, store, params).data
    got = attn_scores(m, store, params).data
    expected = [float(np.sum(ents[f"e{i}"] * b1 * f)) for i in range(3)]
    assert np.allclose(got, expected, atol=1e-12)


def test_candidate_permutation_permutes_scores(rng):
    dim = 4
    words = {"w0": rng.normal(size=dim), "w1": rng.normal(size=dim)}
    ents = {f"e{i}": rng.normal(size=dim) for i in range(4)}
    store = store_with(words, ents)
    params = LocalAttnParams.build(dim)
    params.word_scorer.diag.data[...] = rng.normal(size=dim)

    base = make_mention(candidates=("e0", "e1", "e2", "e3"), priors=[0.2] * 4,
                        context=("w0", "w1"))
    perm = make_mention(candidates=("e2", "e0", "e3", "e1"), priors=[0.2] * 4,
                        context=("w0", "w1"))
    s_base = attn_scores(base, store, params).data
    s_perm = attn_scores(perm, store, params).data
    assert np.allclose(s_perm, s_base[[2, 0, 3, 1]], atol=1e-12)


def test_sub_threshold_words_do_not_affect_scores(rng):
    # hard attention: perturbing words kept out of the top R changes nothing
    dim = 3
    store = store_with(
        {"strong": [2.0, 0.0, 0.0], "weak": [0.0, 0.0, 0.1]},
        {"e0": [1.0, 0.0, 0.0], "e1": [0.5, 0.5, 0.0]},
    )
    m = make_mention(context=("strong", "weak"))
    params = LocalAttnParams.build(dim, top_words=1)
    before = attn_scores(m, store, params).data.copy()
    store.word_vecs["weak"] = np.array([0.0, 0.0, 0.25])  # still below selection
    after = attn_scores(m, store, params).data
    assert np.array_equal(before, after)


def test_gradients_flow_through_both_diagonals(rng):
    dim = 3
    words = {f"w{i}": rng.normal(size=dim) for i in range(4)}
    ents = {f"e{i}": rng.normal(size=dim) for i in range(2)}
    store = store_with(words, ents)
    m = make_mention(candidates=("e0", "e1"), context=tuple(words))
    params = LocalAttnParams.build(dim, top_words=3)
    mix = rng.normal(size=2)

    def loss():
        return float(ad.tsum(attn_scores(m, store, params) * Tensor(mix)).data)

    out = ad.tsum(attn_scores(m, store, params) * Tensor(mix))
    named = params.parameters()
    grads = ad.backward(out)
    for name, t in named.items():
        fd = oracles.fd_gradient(loss, t.data)
        for i, g in fd.items():
            assert oracles.rel_err(grads[t].ravel()[i], g) <= 1e-4, name
