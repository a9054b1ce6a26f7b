from collections import Counter

import numpy as np
import pytest

from dynel.corpus import CandidateEntity, EmbeddingStore, Mention


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


def candidate_lookups(monkeypatch, docs) -> Counter:
    """Per candidate-id tuple of a mention in ``docs``, how often
    ``EmbeddingStore.entities`` is asked for it while the test runs."""
    known = {m.candidate_ids for doc in docs for m in doc.mentions}
    counts = Counter()
    real = EmbeddingStore.entities

    def counted(self, entity_ids):
        ids = tuple(entity_ids)
        if ids in known:
            counts[ids] += 1
        return real(self, ids)

    monkeypatch.setattr(EmbeddingStore, "entities", counted)
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
