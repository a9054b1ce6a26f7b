import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynel import autodiff as ad
from dynel.autodiff import Tensor
from dynel.corpus import CandidateEntity, Document, EmbeddingStore, Mention
from dynel.local_transformer import (
    TransformerConfig,
    TransformerLocalParams,
    document_input,
    document_scores,
    local_scores_transformer,
)
from dynel.model import build_model, encode_document

import oracles
from conftest import built_input, transformer_oracle

DIM = 8
CFG = TransformerConfig(layers=2, heads=2, head_dim=3, model_dim=DIM, ff_dim=10,
                        hidden=6, max_seq_len=32, max_candidates=4, drop_rate=0.1)


@pytest.fixture
def world(rng):
    words = {f"w{i}": rng.normal(size=DIM) for i in range(6)}
    ents = {f"e{i}": rng.normal(size=DIM) for i in range(3)}
    store = EmbeddingStore(
        word_vecs=words,
        entity_vecs=ents,
        entity_surface={"e0": ("w4",), "e1": ("w5",), "e2": ("w4", "w5")},
    )
    params = TransformerLocalParams.build(store, CFG, rng)
    return store, params


@pytest.mark.parametrize("size", ["layers", "heads", "head_dim", "model_dim", "ff_dim",
                                  "hidden", "max_seq_len", "max_candidates"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_refuses_a_size_below_one(size, value):
    with pytest.raises(ValueError, match=f"^transformer {size} must be >= 1, got {value}$"):
        TransformerConfig(**{size: value})


def mention(cands=("e0", "e1"), priors=None, before=("w0",), surface=("w1",),
            after=("w2",)):
    priors = priors or [1 / len(cands)] * len(cands)
    return Mention("m0", tuple(surface), 0, tuple(before), tuple(after),
                   tuple(CandidateEntity(e, p) for e, p in zip(cands, priors)),
                   cands[0])


def inputs(m, store, params):
    """``m``'s input rows from the document builder over ``m`` alone, and their layout."""
    x, (layout,) = built_input((m,), store, params)
    return x, layout


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_build_input_matches_the_row_by_row_oracle(data):
    """The document builder gives each mention of a ragged document the rows
    the row-by-row oracle builds for it alone, and each padded row is a copy
    of its mention's [CLS] row."""
    words = [f"w{i}" for i in range(5)]
    draw_words = lambda lo, hi: tuple(data.draw(st.lists(st.sampled_from(words),
                                                         min_size=lo, max_size=hi)))
    entities = ["e0", "e1", "e2", "e3", "e4"]
    surfaces = {e: draw_words(0, 3) for e in entities}
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    store = EmbeddingStore(word_vecs={w: rng.normal(size=DIM) for w in words},
                           entity_vecs={e: rng.normal(size=DIM) for e in entities},
                           entity_surface={e: s for e, s in surfaces.items() if s})
    params = TransformerLocalParams.build(store, CFG, rng)
    mentions = []
    for i in range(data.draw(st.integers(1, 3))):
        cands = tuple(data.draw(st.lists(st.sampled_from(entities), min_size=1, max_size=4,
                                         unique=True)))
        before, surface, after = draw_words(0, 3), draw_words(1, 2), draw_words(0, 3)
        mentions.append(dataclasses.replace(
            mention(cands, before=before, surface=surface, after=after), id=f"m{i}",
            position=i))

    x, layouts = built_input(mentions, store, params)
    lines = x.data.reshape(len(mentions), -1, DIM)

    tables = {name.split(".", 1)[1]: t.data for name, t in params.parameters().items()}
    word = lambda w: tables["word_embed"][params.vocab[w]]
    for m, layout, line in zip(mentions, layouts, lines):
        expected, expected_layout = oracles.transformer_input(
            [word(w) for w in m.context_before + m.surface + m.context_after],
            1 + len(m.context_before), store.entities(m.candidate_ids),
            [[word(w) for w in surfaces[e]] for e in m.candidate_ids], tables,
        )
        assert vars(layout) == expected_layout
        assert np.abs(line[:layout.seq_len] - expected).max() <= 1e-12
        assert np.abs(line[layout.seq_len:] - expected[0]).max(initial=0.0) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_word_gradient_equals_two_dense_gathers_bit_for_bit(data):
    """The document's words, gathered once, take the gradient that one
    gather of the context words and one of the surface words, each a dense
    table, would give; words repeat within contexts, within surfaces and
    across both, and the last two words are never used."""
    words = [f"w{i}" for i in range(5)]
    used = st.sampled_from(words[:3])
    draw_words = lambda lo, hi: tuple(data.draw(st.lists(used, min_size=lo, max_size=hi)))
    entities = ["e0", "e1", "e2", "e3"]
    surfaces = {e: draw_words(0, 3) for e in entities}
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    store = EmbeddingStore(word_vecs={w: rng.normal(size=DIM) for w in words},
                           entity_vecs={e: rng.normal(size=DIM) for e in entities},
                           entity_surface={e: s for e, s in surfaces.items() if s})
    params = TransformerLocalParams.build(store, CFG, rng)
    mentions = tuple(
        dataclasses.replace(mention(tuple(data.draw(st.lists(st.sampled_from(entities),
                                                             min_size=1, max_size=4,
                                                             unique=True))),
                                    before=draw_words(0, 3), surface=draw_words(1, 2),
                                    after=draw_words(0, 3)), id=f"m{i}", position=i)
        for i in range(data.draw(st.integers(1, 3))))
    contexts = [m.context_before + m.surface + m.context_after for m in mentions]
    context_words = [params.vocab[w] for c in contexts for w in c]
    cand_surfaces = [[params.vocab[w] for w in surfaces[e]] for m in mentions
                     for e in m.candidate_ids]
    surface_words = [w for s in cand_surfaces for w in s]
    assume(len(set(context_words)) < len(context_words))
    assume(len(set(surface_words)) < len(surface_words))
    assume(set(context_words) & set(surface_words))

    widths = np.array([len(m.candidates) for m in mentions])
    valid = np.arange(widths.max()) < widths[:, None]
    slots = (np.cumsum(widths) - widths)[:, None] + np.where(valid, np.arange(widths.max()), 0)
    x, keys, _, cand_rows = document_input(
        mentions, store.entities([e for m in mentions for e in m.candidate_ids]), slots,
        valid, store, params)
    mix = rng.normal(size=x.shape)
    got = ad.backward(ad.tsum(x * Tensor(mix)))[params.word_embed]

    starts = np.arange(len(mentions)) * keys.shape[1]
    context_rows = [start + 1 + j for start, c in zip(starts, contexts) for j in range(len(c))]
    want = oracles.two_gather_word_gradient(len(words), context_words, mix[context_rows],
                                            cand_surfaces, mix[cand_rows[valid]])
    assert got.tobytes() == want.tobytes()


def test_scorer_reads_the_candidate_matrix_once(world, monkeypatch):
    store, params = world
    m = mention(("e0", "e1", "e2"))
    stacked, single = [], []

    def entities(self, ids):
        stacked.append(tuple(ids))
        return np.stack([self.entity_vecs[e] for e in ids])

    def entity(self, entity_id):
        single.append(entity_id)
        return self.entity_vecs[entity_id]

    monkeypatch.setattr(EmbeddingStore, "entities", entities)
    monkeypatch.setattr(EmbeddingStore, "entity", entity)
    local_scores_transformer(m, store, params)
    assert stacked == [m.candidate_ids]
    assert single == []


def test_layout_three_words_two_candidates(world):
    store, params = world
    x, layout = inputs(mention(), store, params)
    assert layout.seq_len == 9
    assert layout.sep_indices == (4, 6, 8)
    assert layout.cls_index == 0
    assert layout.candidate_indices == (5, 7)
    assert layout.mention_index == 2
    assert x.data.shape == (9, DIM)


def test_candidate_rows_share_position_component(world):
    store, params = world
    m = mention()
    base, _ = inputs(m, store, params)
    # shift the mention-head position row; both candidate rows must move by it
    delta = np.full(DIM, 0.25)
    params.position_embed.data[2] += delta
    shifted, layout = inputs(m, store, params)
    diff = shifted.data - base.data
    for idx in layout.candidate_indices:
        assert np.allclose(diff[idx], delta)
    assert np.allclose(diff[layout.mention_index], delta)
    others = set(range(layout.seq_len)) - set(layout.candidate_indices) - {2}
    for idx in others:
        assert np.allclose(diff[idx], 0.0)


def test_all_embedding_tables_zero_gives_zero_input(world):
    store, params = world
    for t in (params.word_embed, params.cls_tok, params.sep_tok, params.entity_proj,
              params.type_embed, params.segment_embed, params.position_embed):
        t.data[...] = 0.0
    x, _ = inputs(mention(), store, params)
    assert np.allclose(x.data, 0.0)


def test_too_many_candidates_rejected(world):
    store, params = world
    m = mention(cands=("e0", "e1", "e2", "e0", "e1"))
    with pytest.raises(ValueError, match="max is 4"):
        inputs(m, store, params)


def test_scores_sum_to_one(world, rng):
    store, params = world
    n3 = local_scores_transformer(mention(("e0", "e1", "e2")), store, params).data
    assert n3.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(n3 > 0)


def test_single_candidate_certainty(world):
    store, params = world
    n3 = local_scores_transformer(mention(("e2",)), store, params).data
    assert n3.tolist() == [1.0]


def test_swapping_candidates_swaps_scores_with_tied_segments(world):
    store, params = world
    params.segment_embed.data[...] = params.segment_embed.data[0]
    p1 = local_scores_transformer(mention(("e0", "e1", "e2")), store, params).data
    p2 = local_scores_transformer(mention(("e1", "e0", "e2")), store, params).data
    # equivariant to machine precision (float reductions walk the sequence
    # in storage order, so the last ulp can differ) and bit-stable on rerun
    assert np.abs(p1[[1, 0, 2]] - p2).max() <= 1e-14
    rerun = local_scores_transformer(mention(("e0", "e1", "e2")), store, params).data
    assert np.array_equal(p1, rerun)


def test_train_mode_dropout_changes_output_eval_does_not(world):
    store, params = world
    m = mention()
    e1 = local_scores_transformer(m, store, params, mode="eval",
                                  rng=np.random.default_rng(1)).data
    e2 = local_scores_transformer(m, store, params, mode="eval",
                                  rng=np.random.default_rng(2)).data
    assert np.array_equal(e1, e2)
    t1 = local_scores_transformer(m, store, params, mode="train",
                                  rng=np.random.default_rng(1)).data
    t2 = local_scores_transformer(m, store, params, mode="train",
                                  rng=np.random.default_rng(2)).data
    assert not np.array_equal(t1, t2)


def test_position_gradient_flows_through_shared_slot(world):
    store, params = world
    m = mention(("e0", "e1", "e2"))
    n3 = local_scores_transformer(m, store, params)
    grads = ad.backward(-ad.log(ad.gather(n3, 0)))
    grad = grads[params.position_embed]
    _, layout = inputs(m, store, params)
    used = {0, layout.mention_index, *layout.sep_indices,
            *range(1, 1 + 3)}  # cls, ctx, seps, mention slot
    for row in range(CFG.max_seq_len):
        if row not in used:
            assert np.allclose(grad[row], 0.0)
    assert not np.allclose(grad[layout.mention_index], 0.0)


def test_full_stack_gradients_match_fd(world, rng):
    store, params = world
    m = mention(("e0", "e1"), before=("w0",), surface=("w1",), after=("w2", "w3"))
    mix = rng.normal(size=2)

    def build():
        n3 = local_scores_transformer(m, store, params, mode="eval")
        return ad.add(ad.tsum(n3 * Tensor(mix)), -ad.log(ad.gather(n3, 0)))

    loss = build()
    named = params.parameters()
    grads = ad.backward(loss)
    check_rng = np.random.default_rng(99)
    for name, t in named.items():
        k = min(4, t.data.size)
        entries = sorted(check_rng.choice(t.data.size, size=k, replace=False).tolist())
        fd = oracles.fd_gradient(lambda: float(build().data), t.data, entries)
        analytic = grads[t].ravel() if t in grads else np.zeros(t.data.size)
        for i, g in fd.items():
            assert oracles.rel_err(analytic[i], g) <= 1e-4, name


def ragged_document():
    """A store, a transformer model and a document whose mentions differ in
    context length (4 to 7 input rows before the candidates) and in
    candidate count (1 to 4), one candidate without a surface form."""
    rng = np.random.default_rng(7)
    store = EmbeddingStore(
        word_vecs={f"w{i}": rng.normal(size=DIM) for i in range(6)},
        entity_vecs={f"e{i}": rng.normal(size=DIM) for i in range(4)},
        entity_surface={"e0": ("w4",), "e1": ("w5",), "e2": ("w4", "w5")},
    )
    model = build_model(store, rng, local_model="transformer", transformer_config=CFG)
    for t in model.transformer.parameters().values():   # off the zero biases
        t.data += 0.1 * rng.normal(size=t.data.shape)
    shapes = [(("e0", "e1", "e2", "e3"), ("w0", "w1", "w2"), ("w3",)),
              (("e2",), ("w1",), ()),
              (("e3", "e1"), (), ("w0", "w1", "w2", "w3")),
              (("e1", "e0", "e2"), ("w3", "w0"), ())]
    mentions = tuple(dataclasses.replace(mention(cands, before=before, after=after),
                                         id=f"m{i}", position=i)
                     for i, (cands, before, after) in enumerate(shapes))
    return store, model, Document("d", ("w0",), mentions)


class TestDocumentPass:
    """One encoder pass over a whole document, padded and masked, scores
    every mention as if it were encoded alone."""

    def test_equals_the_per_mention_oracle(self):
        store, model, doc = ragged_document()
        enc = encode_document(doc, store, model, "eval")
        probs = document_scores(doc.mentions, enc.candidates.data, enc.slots, enc.valid,
                                store, model.transformer).data
        assert probs.shape == enc.valid.shape == (4, 4)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(probs[~enc.valid] == 0.0)
        for i, m in enumerate(doc.mentions):
            width = len(m.candidates)
            want = transformer_oracle(m, store, model.transformer)
            assert np.abs(probs[i, :width] - want).max() <= 1e-12
            assert np.abs(enc.local.data[enc.slots[i, :width]] - want).max() <= 1e-12

    def test_a_mention_scores_the_same_alone(self):
        store, model, doc = ragged_document()
        enc = encode_document(doc, store, model, "eval")
        for i, m in enumerate(doc.mentions):
            alone = local_scores_transformer(m, store, model.transformer).data
            assert np.abs(enc.local.data[enc.slots[i, :len(alone)]] - alone).max() <= 1e-12

    def test_gradients_equal_the_per_mention_passes(self):
        store, model, doc = ragged_document()
        params = model.transformer
        enc = encode_document(doc, store, model, "eval")
        mix = np.random.default_rng(8).normal(size=enc.valid.shape)
        probs = document_scores(doc.mentions, enc.candidates.data, enc.slots, enc.valid,
                                store, params)
        one = ad.tsum(probs * Tensor(mix))
        per_mention = [ad.tsum(local_scores_transformer(m, store, params)
                               * Tensor(mix[i, :len(m.candidates)]))
                       for i, m in enumerate(doc.mentions)]
        total = per_mention[0]
        for term in per_mention[1:]:
            total = ad.add(total, term)
        g_one, g_total = ad.backward(one), ad.backward(total)
        assert set(g_one) == set(g_total) == set(params.parameters().values())
        for name, t in params.parameters().items():
            scale = max(1.0, np.abs(g_total[t]).max())
            assert np.abs(g_one[t] - g_total[t]).max() <= 1e-12 * scale, name


def test_missing_surface_form_falls_back_to_projection(world, caplog):
    store, params = world
    del store.entity_surface["e0"]
    with caplog.at_level("WARNING"):
        x, layout = inputs(mention(), store, params)
    assert "no surface form" in caplog.text
    # the candidate row token part is exactly the projected entity vector
    params2 = params
    expected = store.entity_vecs["e0"] @ params2.entity_proj.data
    row = layout.candidate_indices[0]
    token_part = (
        x.data[row]
        - params.type_embed.data[1]
        - params.segment_embed.data[1]
        - params.position_embed.data[layout.mention_index]
    )
    assert np.allclose(token_part, expected, atol=1e-12)
