from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from dynel.autodiff import Tensor
from dynel.corpus import CandidateEntity, EmbeddingStore, Mention
from dynel.local_transformer import document_input
from dynel.selector import Linked

import oracles


def make_store(dim: int = 4, words=(), entities=(), seed: int = 0, **extra) -> EmbeddingStore:
    """Store with named random unit vectors for quick hand-built fixtures."""
    rng = np.random.default_rng(seed)

    def vec():
        v = rng.normal(size=dim)
        return v / np.linalg.norm(v)

    return EmbeddingStore(
        word_vecs={w: vec() for w in words},
        entity_vecs={e: vec() for e in entities},
        **extra,
    )


def make_mention(
    mid="m0",
    position=0,
    candidates=("e0", "e1"),
    priors=None,
    gold=None,
    context=("w0",),
    surface=("w0",),
):
    priors = priors if priors is not None else [0.5] * len(candidates)
    return Mention(
        id=mid,
        surface=tuple(surface),
        position=position,
        context_before=tuple(context),
        context_after=(),
        candidates=tuple(CandidateEntity(e, p) for e, p in zip(candidates, priors)),
        gold=gold if gold is not None else candidates[0],
    )


def transformer_oracle(m: Mention, store: EmbeddingStore, params) -> np.ndarray:
    """``m``'s transformer distribution from the straight-line numpy oracles,
    encoded alone; ``params`` is the model's ``TransformerLocalParams``."""
    tables = {name.split(".", 1)[1]: t.data for name, t in params.parameters().items()}
    word = lambda w: tables["word_embed"][params.vocab[w]]
    cand = store.entities(m.candidate_ids)
    x, layout = oracles.transformer_input(
        [word(w) for w in m.context_before + m.surface + m.context_after],
        1 + len(m.context_before), cand,
        [[word(w) for w in store.entity_surface.get(e, ())] for e in m.candidate_ids],
        tables,
    )
    layers = [[p.data for p in layer.parameters()] for layer in params.encoder]
    head = params.pair_head.parameters()
    tables.update(pair_w1=head[0].data, pair_w2=head[1].data, pair_b1=head[2].data,
                  pair_b2=head[3].data)
    cfg = params.config
    return oracles.transformer_scores(x, layout, cand, layers, cfg.heads, cfg.head_dim,
                                      tables)


def built_input(mentions, store: EmbeddingStore, params):
    """``document_input`` over ``mentions``, each mention's candidates
    looked up in order: its rows and each mention's layout, as
    ``oracles.transformer_input`` gives it (the fields as attributes),
    counted from the mention's first row."""
    ids = [m.candidate_ids for m in mentions]
    widths = np.array([len(c) for c in ids])
    columns = np.arange(widths.max())
    valid = columns < widths[:, None]
    slots = (np.cumsum(widths) - widths)[:, None] + np.where(valid, columns, 0)
    x, keys, heads, cand_rows = document_input(
        mentions, store.entities([e for c in ids for e in c]), slots, valid, store, params)
    layouts = []
    for i, start in enumerate(np.arange(len(mentions)) * keys.shape[1]):
        cands = tuple((cand_rows[i, valid[i]] - start).tolist())
        layouts.append(SimpleNamespace(
            seq_len=int(keys[i].sum()), cls_index=0,
            sep_indices=(cands[0] - 1,) + tuple(c + 1 for c in cands),
            mention_index=int(heads[i] - start), candidate_indices=cands))
    return x, layouts


def linked_lines(histories, store: EmbeddingStore) -> Linked:
    """The ``Linked`` of lockstep lines that linked the entity ids of each
    of ``histories``: one matrix per line of their rows in link order, and
    one of the union of their KG neighbours sorted by id."""
    neighbors = [sorted(set().union(*(store.neighbors(e) for e in h))) for h in histories]
    return Linked([store.entities(list(h)) for h in histories], None,
                  [store.entities(n) for n in neighbors], None)


def selector_oracle(encoded, pos: int, linked_ids, store: EmbeddingStore, params):
    """``oracles.selector_distribution`` for position ``pos`` of ``encoded``
    with ``linked_ids`` linked before it, from the record's columns."""
    at = encoded.slots[pos, encoded.valid[pos]]
    neighbors = sorted(set().union(*(store.neighbors(e) for e in linked_ids)))
    layers = None if params.fusion is None else [
        (w.data, b.data) for w, b in zip(params.fusion.weights, params.fusion.biases)]
    return oracles.selector_distribution(
        encoded.candidates.data[at],
        {"prior": encoded.priors.data[at], "type": encoded.types.data[at],
         "local": encoded.local.data[at]},
        store.entities(list(linked_ids)), store.entities(neighbors),
        (params.linked_coherence.diag.data, params.neighborhood_coherence.diag.data),
        params.top_entities, params.features, params.feature_norm, layers)


def document_candidates(doc) -> tuple[str, ...]:
    """The candidate ids of every mention of ``doc``, in position order: the
    one ``EmbeddingStore.entities`` call that encodes it."""
    return tuple(e for m in doc.mentions for e in m.candidate_ids)


def candidate_lookups(monkeypatch, docs) -> Counter:
    """How often ``EmbeddingStore.entities`` is asked, while the test runs,
    for the candidate ids of a document of ``docs`` (``document_candidates``)
    or of one of its mentions."""
    known = {document_candidates(doc) for doc in docs}
    known |= {m.candidate_ids for doc in docs for m in doc.mentions}
    counts = Counter()
    real = EmbeddingStore.entities

    def counted(self, entity_ids):
        ids = tuple(entity_ids)
        if ids in known:
            counts[ids] += 1
        return real(self, ids)

    monkeypatch.setattr(EmbeddingStore, "entities", counted)
    return counts


def candidate_stack(mentions, store: EmbeddingStore) -> tuple[Tensor, np.ndarray]:
    """The padded ``(mentions, widest, d)`` candidate stack of ``mentions``
    and its real slots, padded as ``encode_document`` pads: a padded slot
    repeats its mention's first candidate."""
    widths = np.array([len(m.candidates) for m in mentions])
    valid = np.arange(widths.max()) < widths[:, None]
    columns = np.where(valid, np.arange(widths.max()), 0)
    return Tensor(np.stack([store.entities(m.candidate_ids)[line]
                            for m, line in zip(mentions, columns)])), valid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
