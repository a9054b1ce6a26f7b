import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynel import autodiff as ad
from dynel.autodiff import Tensor
from dynel.corpus import CandidateEntity, EmbeddingStore, Mention
from dynel.local_transformer import (
    ABLATION_FLAGS,
    TransformerConfig,
    TransformerLocalParams,
    build_input,
    local_scores_transformer,
    transformer_ablation,
)

import oracles

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


def mention(cands=("e0", "e1"), priors=None, before=("w0",), surface=("w1",),
            after=("w2",)):
    priors = priors or [1 / len(cands)] * len(cands)
    return Mention("m0", tuple(surface), 0, tuple(before), tuple(after),
                   tuple(CandidateEntity(e, p) for e, p in zip(cands, priors)),
                   cands[0])


def inputs(m, store, params):
    return build_input(m, Tensor(store.entities(m.candidate_ids)), store, params)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_build_input_matches_the_row_by_row_oracle(data):
    words = [f"w{i}" for i in range(5)]
    draw_words = lambda lo, hi: tuple(data.draw(st.lists(st.sampled_from(words),
                                                         min_size=lo, max_size=hi)))
    cands = tuple(data.draw(st.lists(st.sampled_from(["e0", "e1", "e2", "e3", "e4"]),
                                     min_size=1, max_size=4, unique=True)))
    surfaces = {e: draw_words(0, 3) for e in cands}
    before, surface, after = draw_words(0, 3), draw_words(1, 2), draw_words(0, 3)
    flags = data.draw(st.sets(st.sampled_from(sorted(ABLATION_FLAGS))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    store = EmbeddingStore(word_vecs={w: rng.normal(size=DIM) for w in words},
                           entity_vecs={e: rng.normal(size=DIM) for e in cands},
                           entity_surface={e: s for e, s in surfaces.items() if s})
    params = transformer_ablation(TransformerLocalParams.build(store, CFG, rng), flags)
    m = mention(cands, before=before, surface=surface, after=after)

    x, layout = inputs(m, store, params)

    tables = {name.split(".", 1)[1]: t.data for name, t in params.parameters().items()}
    word = lambda w: tables["word_embed"][params.vocab[w]]
    expected, expected_layout = oracles.transformer_input(
        [word(w) for w in before + surface + after], 1 + len(before),
        store.entities(cands), [[word(w) for w in surfaces[e]] for e in cands],
        tables, frozenset(flags),
    )
    assert dataclasses.asdict(layout) == expected_layout
    assert np.abs(x.data - expected).max() <= 1e-12


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
    grads = ad.backward(-ad.log(ad.item(n3, 0)))
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
        return ad.add(ad.tsum(n3 * Tensor(mix)), -ad.log(ad.item(n3, 0)))

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


class TestAblations:
    def test_unknown_flag_rejected(self, world):
        _, params = world
        with pytest.raises(ValueError, match="unknown ablation"):
            transformer_ablation(params, {"drop_everything"})
        assert ABLATION_FLAGS == {
            "drop_position", "drop_type", "drop_segment", "drop_n1", "drop_n2"
        }

    def test_drop_both_heads_gives_uniform(self, world):
        store, params = world
        ablated = transformer_ablation(params, {"drop_n1", "drop_n2"})
        n3 = local_scores_transformer(mention(("e0", "e1", "e2")), store, ablated).data
        assert np.allclose(n3, 1 / 3, atol=1e-12)

    def test_drop_position_makes_context_order_irrelevant(self, world):
        store, params = world
        ablated = transformer_ablation(params, {"drop_position"})
        m1 = mention(before=("w0", "w2"), surface=("w1",), after=())
        m2 = mention(before=("w2", "w0"), surface=("w1",), after=())
        p1 = local_scores_transformer(m1, store, ablated).data
        p2 = local_scores_transformer(m2, store, ablated).data
        assert np.allclose(p1, p2, atol=1e-12)
        # with positions active the order matters
        q1 = local_scores_transformer(m1, store, params).data
        q2 = local_scores_transformer(m2, store, params).data
        assert not np.allclose(q1, q2)

    def test_drop_embedding_tables_zero_their_contribution(self, world):
        store, params = world
        ablated = transformer_ablation(params, {"drop_type", "drop_segment"})
        params.type_embed.data[...] = 0.0
        params.segment_embed.data[...] = 0.0
        x_zeroed, _ = inputs(mention(), store, params)
        x_dropped, _ = inputs(mention(), store, ablated)
        assert np.array_equal(x_zeroed.data, x_dropped.data)


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
