"""Generator construction contract: determinism, local solvability of the
unambiguous regime, and the anchored coherence iff-property."""

import hashlib
import itertools

import numpy as np
import pytest

from dynel import autodiff as ad
from dynel.corpus import CorpusError
from dynel.local_attn import LocalAttnParams, context_feature, local_scores_attn
from dynel.synthetic import SyntheticSpec, generate_synthetic, required_dim

import oracles
from conftest import candidate_stack


def attn_scores(doc, store, params):
    """Each mention's local scores against its own context feature, in one
    call per document as ``encode_document`` computes them."""
    cand, valid = candidate_stack(doc.mentions, store)
    scores = local_scores_attn(cand, context_feature(doc.mentions, cand, store, params),
                               params).data
    return [line[real] for line, real in zip(scores, valid)]


def anchored_spec(**kw):
    base = dict(num_docs=6, mentions_per_doc=8, candidates_per_mention=8,
                embedding_dim=32, anchor_fraction=0.5, noise_scale=0.05, seed=11)
    base.update(kw)
    return SyntheticSpec(**base)


def test_bit_deterministic_under_seed():
    a_docs, a_store = generate_synthetic(anchored_spec())
    b_docs, b_store = generate_synthetic(anchored_spec())
    assert a_docs == b_docs
    for k in a_store.entity_vecs:
        assert np.array_equal(a_store.entity_vecs[k], b_store.entity_vecs[k])
    c_docs, _ = generate_synthetic(anchored_spec(seed=12))
    assert c_docs != a_docs


def test_infeasible_specs_rejected():
    with pytest.raises(CorpusError, match="mentions_per_doc >= 2"):
        generate_synthetic(anchored_spec(mentions_per_doc=1, embedding_dim=64))
    with pytest.raises(CorpusError, match="too large"):
        generate_synthetic(anchored_spec(anchor_fraction=0.9))
    with pytest.raises(CorpusError, match="too small"):
        generate_synthetic(anchored_spec(embedding_dim=8))


def test_required_dim_matches_default():
    spec = anchored_spec()
    assert required_dim(spec) <= spec.embedding_dim


def test_anchor_priors_meet_contract():
    docs, _ = generate_synthetic(anchored_spec())
    for doc in docs:
        for i, m in enumerate(doc.mentions):
            priors = {c.entity_id: c.prior for c in m.candidates}
            if m.position % 2 == 1:  # anchor
                assert priors[m.gold] >= 0.9
                assert all(p <= 0.05 for e, p in priors.items() if e != m.gold)


def test_unambiguous_corpus_solved_by_local_argmax():
    docs, store = generate_synthetic(
        SyntheticSpec(num_docs=10, mentions_per_doc=6, candidates_per_mention=5,
                      embedding_dim=24, anchor_fraction=0.0, noise_scale=0.05, seed=5)
    )
    params = LocalAttnParams.build(store.dim)
    correct = total = 0
    with ad.no_grad():
        for doc in docs:
            for m, scores in zip(doc.mentions, attn_scores(doc, store, params)):
                correct += m.candidates[int(np.argmax(scores))].entity_id == m.gold
                total += 1
    assert correct / total == 1.0


def test_anchored_mentions_tie_exactly_on_local_scores_and_priors():
    docs, store = generate_synthetic(anchored_spec())
    params = LocalAttnParams.build(store.dim)
    with ad.no_grad():
        for doc in docs:
            for m, scores in zip(doc.mentions, attn_scores(doc, store, params)):
                if m.position % 2 == 1:
                    continue  # anchors are the odd positions here
                ids = [c.entity_id for c in m.candidates]
                gi = ids.index(m.gold)
                decoy = next(
                    i for i, e in enumerate(ids)
                    if e.startswith("ent_p") and i != gi
                )
                assert scores[gi] == scores[decoy]
                assert m.candidates[gi].prior == m.candidates[decoy].prior
                assert scores[gi] > max(
                    s for i, s in enumerate(scores) if i not in (gi, decoy)
                )


def _pair_ids(mention):
    """(gold, decoy, anchor_gold, anchor_alt) ids for an anchored mention."""
    gold = mention.gold                      # ent_p{p}_cx or _cz
    p = gold.split("_")[1]
    variant = gold[-1]
    other = "z" if variant == "x" else "x"
    return (
        gold,
        f"ent_{p}_c{other}",
        f"ent_{p}_a{variant}",
        f"ent_{p}_a{other}",
    )


def test_coherence_separates_iff_anchor_linked():
    """Brute-force check of the construction contract on every anchored
    mention: gold coherence strictly beats the decoy iff the anchor's gold
    entity is among the linked entities."""
    docs, store = generate_synthetic(anchored_spec())
    diag = np.ones(store.dim)
    for doc in docs:
        others = [m.gold for m in doc.mentions]
        for m in doc.mentions:
            if m.position % 2 == 1:
                continue
            gold, decoy, anchor_gold, _ = _pair_ids(m)
            cand = np.stack([store.entity_vecs[c.entity_id] for c in m.candidates])
            ids = [c.entity_id for c in m.candidates]
            gi, di = ids.index(gold), ids.index(decoy)

            with_anchor = [e for e in others if e != gold]
            scores = oracles.pooled_scores(
                cand, np.stack([store.entity_vecs[e] for e in with_anchor]), diag, 7
            )
            assert scores[gi] > scores[di]

            without_anchor = [e for e in others if e not in (gold, anchor_gold)]
            if without_anchor:
                scores = oracles.pooled_scores(
                    cand,
                    np.stack([store.entity_vecs[e] for e in without_anchor]),
                    diag,
                    7,
                )
                assert scores[gi] == pytest.approx(scores[di], abs=1e-12)


def test_kg_neighborhood_mirrors_coherence_structure():
    docs, store = generate_synthetic(anchored_spec())
    m = next(m for d in docs for m in d.mentions if m.position == 0)
    gold, decoy, anchor_gold, _ = _pair_ids(m)
    assert gold in store.neighbors(anchor_gold)
    assert decoy not in store.neighbors(anchor_gold)


def test_candidate_order_is_shuffled():
    docs, _ = generate_synthetic(anchored_spec(num_docs=30))
    first_is_gold = [
        m.candidates[0].entity_id == m.gold for d in docs for m in d.mentions
    ]
    assert 0.0 < np.mean(first_is_gold) < 0.6


# mentions, candidates, anchor fractions, noise scales and seeds, 300 specs
GOLDEN_GRID = ((1, 2, 5, 8, 9), (1, 2, 3, 4, 8), (0.0, 0.25, 0.5), (0.0, 0.05), (3, 4))
GOLDEN_SHA256 = "8b97a6dbe014140cd80ce488cb73dadaa36ea1c68a419026fdab19f83a068091"


def _corpus_text(docs, store):
    """The documents and the store's tables, each table in sorted key order."""
    lines = [repr(docs)]
    for table in (store.word_vecs, store.entity_vecs):
        lines += [f"{k} {table[k].dtype} {table[k].tobytes().hex()}" for k in sorted(table)]
    lines += [f"{k} {store.entity_surface[k]}" for k in sorted(store.entity_surface)]
    lines += [f"{k} {sorted(store.kg_adjacency[k])}" for k in sorted(store.kg_adjacency)]
    lines += [f"{k} {store.type_vecs[k].tobytes().hex()}" for k in sorted(store.type_vecs)]
    return "\n".join(lines)


def test_every_spec_of_the_grid_gives_the_pinned_corpus():
    """Byte stability across changes to the generator: every corpus of the
    grid, or its refusal, hashes to one pinned digest."""
    digest = hashlib.sha256()
    for mentions, cands, frac, noise, seed in itertools.product(*GOLDEN_GRID):
        spec = SyntheticSpec(num_docs=3, mentions_per_doc=mentions,
                             candidates_per_mention=cands, embedding_dim=32,
                             anchor_fraction=frac, noise_scale=noise, seed=seed)
        try:
            text = _corpus_text(*generate_synthetic(spec))
        except CorpusError as err:
            text = f"refused: {err}"
        digest.update(f"{spec}\n{text}\n".encode())
    assert digest.hexdigest() == GOLDEN_SHA256
