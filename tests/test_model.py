"""The document pass of ``encode_document`` on both local scorers: one
masked pool, one stacked score and one batched summary per document, equal
to the per-mention oracles on a ragged document."""

import numpy as np
import pytest

from dynel import autodiff as ad
from dynel.autodiff import Tensor
from dynel.corpus import CandidateEntity, Document, EmbeddingStore, Mention
from dynel.local_transformer import TransformerConfig
from dynel.model import build_model, encode_document

import oracles
from conftest import transformer_oracle

DIM = 8
CFG = TransformerConfig(layers=1, heads=2, head_dim=3, model_dim=DIM, ff_dim=10, hidden=6,
                        max_seq_len=32, max_candidates=4, drop_rate=0.1)
TOP_WORDS = 3


def ragged_document(local_model):
    """A store, a model and a document whose mentions differ in context
    window (1 to 5 words, below and above ``TOP_WORDS``) and in candidate
    count (1 to 4); one gold is missing from its candidates."""
    rng = np.random.default_rng(21)
    store = EmbeddingStore(
        word_vecs={f"w{i}": rng.normal(size=DIM) for i in range(7)},
        entity_vecs={f"e{i}": rng.normal(size=DIM) for i in range(5)},
        entity_surface={"e0": ("w5",), "e1": ("w6",), "e2": ("w5", "w6")},
    )
    model = build_model(store, rng, local_model=local_model, top_words=TOP_WORDS,
                        transformer_config=CFG)
    for t in model.parameters():   # off the symmetric init
        t.data += 0.1 * rng.normal(size=t.data.shape)
    shapes = [(("e2", "e0"), ("w0",), (), "e0"),
              (("e1", "e3", "e0", "e2"), ("w1", "w2", "w3"), ("w4", "w0"), "e3"),
              (("e3",), ("w4",), ("w2", "w1"), "e3"),
              (("e0", "e1", "e4"), (), ("w3", "w0", "w1", "w2"), "e2"),   # gold missing
              (("e4", "e2"), ("w2",), ("w3",), "e4")]
    mentions = tuple(
        Mention(f"m{i}", ("w5",), i, before, after,
                tuple(CandidateEntity(e, 1 / len(cands)) for e in cands), gold)
        for i, (cands, before, after, gold) in enumerate(shapes))
    return store, model, Document("d", ("w0",), mentions)


def oracle_record(doc, store, model):
    """Each mention's context feature, local scores and action summary,
    computed for the mention alone by the straight-line oracles."""
    attn = model.local_attn
    contexts, local, actions = [], [], []
    for m in doc.mentions:
        cand = store.entities(m.candidate_ids)
        words = np.stack([store.word(w) for w in m.context_window])
        context = oracles.hard_attention_context(words, cand, attn.word_scorer.diag.data,
                                                 TOP_WORDS)
        if model.transformer is None:
            scores = cand @ (attn.entity_context.diag.data * context)
            weights = oracles._softmax(scores)
        else:
            scores = weights = transformer_oracle(m, store, model.transformer)
        contexts.append(context)
        local.append(scores)
        actions.append(oracles.action_summary(context, cand, weights))
    return np.stack(contexts), np.concatenate(local), np.stack(actions)


@pytest.mark.parametrize("local_model", ["attn", "transformer"])
def test_the_record_equals_the_per_mention_oracle(local_model):
    store, model, doc = ragged_document(local_model)
    assert sorted(len(m.candidates) for m in doc.mentions) == [1, 2, 2, 3, 4]
    assert sorted(len(m.context_window) for m in doc.mentions) == [1, 2, 3, 4, 5]
    enc = encode_document(doc, store, model)
    assert enc.gold.tolist().count(-1) == 1
    contexts, local, actions = oracle_record(doc, store, model)
    for got, want in ((enc.contexts, contexts), (enc.local, local), (enc.actions, actions)):
        assert got.shape == want.shape
        assert np.abs(got.data - want).max() <= 1e-12


@pytest.mark.parametrize("local_model", ["attn", "transformer"])
def test_gradients_reach_both_diagonals_through_the_document_pass(local_model):
    store, model, doc = ragged_document(local_model)
    attn = model.local_attn
    enc = encode_document(doc, store, model)
    rng = np.random.default_rng(22)
    mixes = [rng.normal(size=field.shape) for field in (enc.contexts, enc.local, enc.actions)]

    def loss():
        enc = encode_document(doc, store, model)
        terms = [ad.tsum(field * Tensor(mix))
                 for field, mix in zip((enc.contexts, enc.local, enc.actions), mixes)]
        return terms[0] + terms[1] + terms[2]

    grads = ad.backward(loss())
    # the transformer's local scores do not read the entity-context form
    reached = [attn.word_scorer.diag]
    if local_model == "attn":
        reached.append(attn.entity_context.diag)
    else:
        assert attn.entity_context.diag not in grads
    for diag in reached:
        assert np.abs(grads[diag]).max() > 0
        fd = oracles.fd_gradient(lambda: float(loss().data), diag.data)
        for i, g in fd.items():
            assert oracles.rel_err(grads[diag].ravel()[i], g) <= 1e-4
