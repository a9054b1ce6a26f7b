import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynel.corpus import (
    CandidateEntity,
    CorpusError,
    Document,
    EmbeddingStore,
    Mention,
    gold_recall,
    load_corpus,
    save_corpus,
)
from dynel.synthetic import SyntheticSpec, generate_synthetic

from conftest import make_mention


def small_corpus():
    spec = SyntheticSpec(num_docs=3, mentions_per_doc=4, candidates_per_mention=3,
                         embedding_dim=16, anchor_fraction=0.5, noise_scale=0.05, seed=7)
    return generate_synthetic(spec)


def test_round_trip_is_identity(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    docs2, store2 = load_corpus(tmp_path)
    assert docs2 == list(docs)
    assert set(store2.word_vecs) == set(store.word_vecs)
    for k in store.word_vecs:
        assert np.array_equal(store.word_vecs[k], store2.word_vecs[k])
    for k in store.entity_vecs:
        assert np.array_equal(store.entity_vecs[k], store2.entity_vecs[k])
    assert store2.entity_surface == store.entity_surface
    assert store2.kg_adjacency == store.kg_adjacency


def test_second_round_trip_is_bitwise_stable(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path / "a")
    docs2, store2 = load_corpus(tmp_path / "a")
    save_corpus(docs2, store2, tmp_path / "b")
    for name in ("docs.jsonl", "words.vec", "entities.vec", "entity_surfaces.tsv",
                 "kg_edges.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_empty_mention_list_rejected_with_line_number(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    lines = (tmp_path / "docs.jsonl").read_text().splitlines()
    bad = json.loads(lines[1])
    bad["mentions"] = []
    lines[1] = json.dumps(bad)
    (tmp_path / "docs.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(tmp_path)


def test_unknown_entity_reference_rejected(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    lines = (tmp_path / "docs.jsonl").read_text().splitlines()
    bad = json.loads(lines[0])
    bad["mentions"][0]["candidates"][0]["entity"] = "ent_missing"
    lines[0] = json.dumps(bad)
    (tmp_path / "docs.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match="ent_missing"):
        load_corpus(tmp_path)


def test_malformed_vector_line_names_file_and_line(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    path = tmp_path / "entities.vec"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(" ", 1)[0] + " not_a_number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match="entities.vec line 3"):
        load_corpus(tmp_path)


def test_mention_positions_must_increase():
    m0 = make_mention("m0", position=1)
    m1 = make_mention("m1", position=0)
    with pytest.raises(CorpusError, match="strictly increase"):
        Document("d", ("w0",), (m0, m1))


def test_candidates_required():
    with pytest.raises(CorpusError, match="no candidates"):
        Mention("m", ("w",), 0, ("w",), (), (), "e0")


def test_prior_range_validated():
    with pytest.raises(CorpusError, match="prior"):
        CandidateEntity("e0", 1.5)


def test_context_radius_caps_windows(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    capped, _ = load_corpus(tmp_path, context_radius=1)
    for doc in capped:
        for m in doc.mentions:
            assert len(m.context_before) <= 1
            assert len(m.context_after) <= 1
    full, _ = load_corpus(tmp_path)
    assert full == list(docs)


def test_valid_two_doc_file_loads(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs[:2], store, tmp_path)
    loaded, _ = load_corpus(tmp_path)
    assert len(loaded) == 2
    for doc in loaded:
        positions = [m.position for m in doc.mentions]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)


class TestGoldRecall:
    def test_all_golds_present(self):
        docs = [Document("d", ("w0",), (make_mention(),))]
        assert gold_recall(docs) == 1.0

    def test_synthetic_default_is_one(self):
        docs, _ = small_corpus()
        assert gold_recall(docs) == 1.0

    def test_hand_built_three_of_four(self):
        mentions = tuple(
            make_mention(f"m{i}", position=i, gold="e0" if i < 3 else "e_missing")
            for i in range(4)
        )
        docs = [Document("d", ("w0",), mentions)]
        assert gold_recall(docs) == 0.75


def test_store_rejects_mixed_dims():
    with pytest.raises(CorpusError, match="mixed"):
        EmbeddingStore(word_vecs={"w": np.zeros(3)}, entity_vecs={"e": np.zeros(4)})


def test_type_score_defaults_to_zero():
    store = EmbeddingStore(
        word_vecs={"w": np.zeros(2)},
        entity_vecs={"e": np.zeros(2)},
        type_vecs={("m", "e"): np.array([0.25, 0.5])},
    )
    assert store.type_score("m", "e") == 0.75
    assert store.type_score("m", "other") == 0.0


def one_mention_corpus(context_before=("w0",), context_after=()):
    store = EmbeddingStore(word_vecs={"w0": np.ones(2)},
                           entity_vecs={"e0": np.ones(2), "e1": np.zeros(2)})
    m = Mention("m0", ("w0",), 0, tuple(context_before), tuple(context_after),
                (CandidateEntity("e0", 0.5), CandidateEntity("e1", 0.5)), "e0")
    return [Document("d0", ("w0",), (m,))], store


def test_empty_context_window_rejected_at_load(tmp_path):
    docs, store = one_mention_corpus()
    save_corpus(docs, store, tmp_path)
    rec = json.loads((tmp_path / "docs.jsonl").read_text())
    rec["mentions"][0]["context_before"] = []
    (tmp_path / "docs.jsonl").write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match="docs.jsonl line 1: mention 'm0' has an "
                                          "empty context window"):
        load_corpus(tmp_path)


def test_save_refuses_empty_context_window(tmp_path):
    docs, store = one_mention_corpus(context_before=())
    with pytest.raises(CorpusError, match="docs.jsonl record 'm0': mention 'm0' has an "
                                          "empty context window"):
        save_corpus(docs, store, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_context_radius_zero_empties_every_window(tmp_path):
    docs, store = one_mention_corpus()
    save_corpus(docs, store, tmp_path)
    assert load_corpus(tmp_path)[0] == docs
    with pytest.raises(CorpusError, match="line 1: mention 'm0' has an empty context"):
        load_corpus(tmp_path, context_radius=0)


@pytest.mark.parametrize("table, bad", [
    ("word_vecs", "w a"), ("word_vecs", ""), ("entity_vecs", "e\ta"),
    ("entity_vecs", "e\n"),
])
def test_save_refuses_ids_with_whitespace_before_writing(tmp_path, table, bad):
    docs, store = one_mention_corpus()
    getattr(store, table)[bad] = np.ones(2)
    with pytest.raises(CorpusError, match=re.escape(repr(bad))):
        save_corpus(docs, store, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_save_refuses_mention_ids_with_tab_or_newline(tmp_path):
    docs, store = one_mention_corpus()
    for bad in ("m\t0", "m\n0"):
        renamed = [Document("d0", ("w0",), (replace(docs[0].mentions[0], id=bad),))]
        with pytest.raises(CorpusError, match=re.escape(repr(bad))):
            save_corpus(renamed, store, tmp_path)
    spaced = [Document("d0", ("w0",), (replace(docs[0].mentions[0], id="m 0"),))]
    save_corpus(spaced, store, tmp_path)
    assert load_corpus(tmp_path)[0] == spaced


def _duplicate_line(path, index):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[index]]) + "\n")
    return len(lines) + 1


@pytest.mark.parametrize("name", ["words.vec", "entities.vec"])
def test_duplicate_vector_id_rejected_with_line(tmp_path, name):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    lineno = _duplicate_line(tmp_path / name, 0)
    with pytest.raises(CorpusError, match=f"{name} line {lineno}: duplicate id"):
        load_corpus(tmp_path)


def test_duplicate_document_id_rejected_with_line(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    lineno = _duplicate_line(tmp_path / "docs.jsonl", 1)
    with pytest.raises(CorpusError, match=f"docs.jsonl line {lineno}: duplicate document "
                                          f"id '{docs[1].id}' \\(first on line 2\\)"):
        load_corpus(tmp_path)


def test_duplicate_mention_id_across_documents_rejected(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    lines = (tmp_path / "docs.jsonl").read_text().splitlines()
    rec = json.loads(lines[2])
    rec["mentions"][0]["id"] = docs[0].mentions[1].id
    lines[2] = json.dumps(rec)
    (tmp_path / "docs.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=f"docs.jsonl line 3: duplicate mention id "
                                          f"'{docs[0].mentions[1].id}' \\(first on line 1\\)"):
        load_corpus(tmp_path)


def test_save_refuses_duplicate_document_and_mention_ids(tmp_path):
    docs, store = small_corpus()
    with pytest.raises(CorpusError, match="duplicate document id"):
        save_corpus([docs[0], docs[0]], store, tmp_path)
    clash = replace(docs[1], mentions=(docs[0].mentions[0],) + docs[1].mentions[1:])
    with pytest.raises(CorpusError, match="duplicate mention id"):
        save_corpus([docs[0], clash], store, tmp_path)


def test_entities_stacks_rows_in_order():
    store = EmbeddingStore(word_vecs={}, entity_vecs={"a": np.zeros(2), "b": np.ones(2)})
    assert np.array_equal(store.entities(["b", "a", "b"]), [[1, 1], [0, 0], [1, 1]])
    with pytest.raises(CorpusError, match="unknown entity id 'c'"):
        store.entities(["a", "c"])


def test_mixed_widths_in_one_vector_file_name_the_line(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    path = tmp_path / "words.vec"
    lines = path.read_text().splitlines()
    lines[1] += " 0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=r"words.vec line 2: width 17 differs from "
                                          r"line 1 \(16\)"):
        load_corpus(tmp_path)


def test_entity_width_must_match_word_width(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    path = tmp_path / "entities.vec"
    path.write_text("".join(line.rsplit(" ", 1)[0] + "\n"
                            for line in path.read_text().splitlines()))
    with pytest.raises(CorpusError, match=r"entities.vec line 1: width 15 differs from "
                                          r"words.vec \(16\)"):
        load_corpus(tmp_path)


@pytest.mark.parametrize("row, problem", [
    ("nope\te0\t1.0 2.0", "mention 'nope' is in no document"),
    ("m0\tzz\t1.0 2.0", "unknown entity 'zz'"),
    ("m0\te1\t1.0", "width 1 differs from the first row's 2"),
])
def test_type_vec_rows_checked_at_load(tmp_path, row, problem):
    docs, store = one_mention_corpus()
    save_corpus(docs, store, tmp_path)
    (tmp_path / "type_vecs.tsv").write_text(f"m0\te0\t0.5 0.5\n{row}\n")
    with pytest.raises(CorpusError, match=f"type_vecs.tsv line 2: {re.escape(problem)}"):
        load_corpus(tmp_path)


@pytest.mark.parametrize("field, value, problem", [
    ("entity_surface", {"e0": ("zz",)}, "entity_surfaces.tsv record 'e0': unknown word 'zz'"),
    ("kg_adjacency", {"e0": frozenset()}, "kg_edges.tsv record 'e0': entity 'e0' has an "
                                          "empty neighbour set"),
    ("kg_adjacency", {"e0": frozenset({"zz"})}, "kg_edges.tsv record ('e0', 'zz'): "
                                                "unknown entity 'zz'"),
    ("type_vecs", {("m0", "zz"): np.ones(2)}, "type_vecs.tsv record ('m0', 'zz'): "
                                              "unknown entity 'zz'"),
    ("type_vecs", {("nope", "e0"): np.ones(2)}, "type_vecs.tsv record ('nope', 'e0'): "
                                                "mention 'nope' is in no document"),
])
def test_save_refuses_what_load_would_reject(tmp_path, field, value, problem):
    docs, store = one_mention_corpus()
    setattr(store, field, value)
    with pytest.raises(CorpusError, match=re.escape(problem)):
        save_corpus(docs, store, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# save/load round trip over generated ids
# ---------------------------------------------------------------------------

# ids the text files carry back unchanged, and ids that may be empty or hold
# whitespace, which save refuses
good_ids = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=4)
any_ids = st.text(min_size=0, max_size=4)
vectors = st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                   min_size=2, max_size=2).map(np.array)


@st.composite
def corpora(draw, flawed: bool):
    # a flawed corpus may hold bad ids, name ids that have no vector or mention,
    # hold an empty KG neighbour set or context window, or mix type vector widths
    ids = any_ids if flawed and draw(st.booleans()) else good_ids

    def ref(known: list[str]):
        known = st.sampled_from(known)
        return st.one_of(known, st.text("xyz", min_size=1, max_size=2)) if flawed else known

    words = draw(st.dictionaries(ids, vectors, min_size=1, max_size=4))
    entities = draw(st.dictionaries(ids, vectors, min_size=1, max_size=4))
    word_ids, entity_ids = sorted(words), sorted(entities)
    surfaces = draw(st.dictionaries(ref(entity_ids),
                                    st.lists(ref(word_ids), max_size=2).map(tuple),
                                    max_size=2))
    kg = draw(st.dictionaries(ref(entity_ids),
                              st.frozensets(ref(entity_ids), min_size=0 if flawed else 1,
                                            max_size=2),
                              max_size=2))
    mention_ids = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    type_vectors = st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                            min_size=1 if flawed else 2, max_size=2).map(np.array)
    types = draw(st.dictionaries(st.tuples(ref(mention_ids), ref(entity_ids)),
                                 type_vectors, max_size=2))
    doc_ids = draw(st.lists(ids, min_size=len(mention_ids), max_size=len(mention_ids),
                            unique=True))
    word, entity = st.sampled_from(word_ids), st.sampled_from(entity_ids)
    docs = []
    for did, mid in zip(doc_ids, mention_ids):
        cands = draw(st.lists(entity, min_size=1, max_size=2))
        before = () if flawed and draw(st.integers(0, 4)) == 4 else (draw(word),)
        mention = Mention(mid, (draw(word),), 0, before, (),
                          tuple(CandidateEntity(c, 0.5) for c in cands), draw(entity))
        docs.append(Document(did, (draw(word),), (mention,)))
    store = EmbeddingStore(words, entities, surfaces, kg, types)
    return docs, store


def _same_store(a: EmbeddingStore, b: EmbeddingStore) -> bool:
    def same_vecs(x, y):
        return x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)
    return (same_vecs(a.word_vecs, b.word_vecs) and same_vecs(a.entity_vecs, b.entity_vecs)
            and same_vecs(a.type_vecs, b.type_vecs) and a.entity_surface == b.entity_surface
            and a.kg_adjacency == b.kg_adjacency)


def _assert_reloads(docs, store, path):
    docs2, store2 = load_corpus(path)
    assert docs2 == docs
    assert _same_store(store, store2)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(flawed=False))
def test_save_load_round_trip(tmp_path_factory, corpus):
    docs, store = corpus
    path = tmp_path_factory.mktemp("corpus")
    save_corpus(docs, store, path)
    _assert_reloads(docs, store, path)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(flawed=True))
def test_save_load_round_trip_or_refusal(tmp_path_factory, corpus):
    docs, store = corpus
    path = tmp_path_factory.mktemp("corpus")
    try:
        save_corpus(docs, store, path)
    except CorpusError:
        assert not any(path.iterdir())
        return
    _assert_reloads(docs, store, path)
