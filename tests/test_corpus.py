import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynel.corpus import (
    MAX_MAGNITUDE,
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


@pytest.mark.parametrize("positions", [(1, 2), (0, 2), (0, 3, 6, 9)])
def test_mention_positions_are_their_indices(positions):
    mentions = tuple(make_mention(f"m{i}", position=p) for i, p in enumerate(positions))
    with pytest.raises(CorpusError, match=re.escape(f"got {list(positions)}")):
        Document("d", ("w0",), mentions)


def test_gapped_mention_positions_rejected_at_load(tmp_path):
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    lines = (tmp_path / "docs.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    for i, m in enumerate(rec["mentions"]):
        m["position"] = 3 * i
    lines[1] = json.dumps(rec)
    (tmp_path / "docs.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=r"docs.jsonl line 2: document '\S+': mention "
                                          r"positions must strictly increase by 1 from 0, "
                                          r"got \[0, 3, 6, 9\]"):
        load_corpus(tmp_path)


def test_candidates_required():
    with pytest.raises(CorpusError, match="no candidates"):
        Mention("m", ("w",), 0, ("w",), (), (), "e0")


def test_prior_range_validated():
    with pytest.raises(CorpusError, match="prior"):
        CandidateEntity("e0", 1.5)


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
    ("m0\te1\t0.5 inf", "type vector has a non-finite value"),
    ("m0\te1\t", "type vector has width 0"),
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
    ("word_vecs", {"w0": np.array([np.nan, 1.0])}, "words.vec record 'w0': word 'w0' has a "
                                                   "non-finite value"),
    ("entity_vecs", {"e0": np.ones(2), "e1": np.array([1.0, np.nan])},
     "entities.vec record 'e1': entity 'e1' has a non-finite value"),
    ("type_vecs", {("m0", "e0"): np.array([np.inf, 1.0])}, "type_vecs.tsv record ('m0', 'e0'): "
                                                           "type vector has a non-finite value"),
    ("type_vecs", {("m0", "e0"): np.array([])}, "type_vecs.tsv record ('m0', 'e0'): type "
                                                "vector has width 0"),
    # records whose keys or surfaces are not the strings the files carry back
    ("word_vecs", {"w0": np.ones(2), 5: np.ones(2)}, "words.vec record 5: word id 5 is not "
                                                     "a string"),
    ("entity_vecs", {"e0": np.ones(2), "e1": np.zeros(2), 5: np.ones(2)},
     "entities.vec record 5: entity id 5 is not a string"),
    ("entity_surface", {5: ("w0",)}, "entity_surfaces.tsv record 5: unknown entity 5"),
    ("entity_surface", {"e0": ["w0"]}, "entity_surfaces.tsv record 'e0': surface ['w0'] is "
                                       "not a tuple of strings"),
    ("entity_surface", {"e0": (5,)}, "entity_surfaces.tsv record 'e0': surface (5,) is not "
                                     "a tuple of strings"),
    # neighbour sets, vectors and type keys of another type than the files carry back
    ("kg_adjacency", {"e0": frozenset({"e1", 5})}, "kg_edges.tsv record 'e0': entity 'e0' has "
                                                   "a neighbour set that is not a frozenset of "
                                                   "strings"),
    ("kg_adjacency", {"e0": ["e1"]}, "kg_edges.tsv record 'e0': entity 'e0' has a neighbour "
                                     "set that is not a frozenset of strings"),
    ("word_vecs", {"w0": [1.0, 1.0]}, "words.vec record 'w0': word 'w0' is not a 1-D array of "
                                      "real numbers"),
    ("word_vecs", {"w0": np.ones((2, 4))}, "words.vec record 'w0': word 'w0' is not a 1-D "
                                           "array of real numbers"),
    ("type_vecs", {"m0": np.ones(2)}, "type_vecs.tsv record 'm0': key 'm0' is not a "
                                      "(mention id, entity id) pair"),
    # values whose products overflow in training
    ("word_vecs", {"w0": np.array([1.0, 7.07e159])}, "words.vec record 'w0': word 'w0' has a "
                                                     "value of magnitude 7.07e+159, above 1e+75"),
    ("type_vecs", {("m0", "e0"): np.array([-2e75, 1.0])}, "type_vecs.tsv record ('m0', 'e0'): "
                                                          "type vector has a value of magnitude "
                                                          "2e+75, above 1e+75"),
])
def test_save_refuses_what_load_would_reject(tmp_path, field, value, problem):
    docs, store = one_mention_corpus()
    setattr(store, field, value)
    with pytest.raises(CorpusError, match=re.escape(problem)):
        save_corpus(docs, store, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_save_refuses_an_empty_document_list(tmp_path):
    _, store = one_mention_corpus()
    with pytest.raises(CorpusError, match="docs.jsonl contains no documents"):
        save_corpus([], store, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_mention_id_with_a_tab_rejected_at_load_with_line(tmp_path):
    docs, store = one_mention_corpus()
    save_corpus(docs, store, tmp_path)
    rec = json.loads((tmp_path / "docs.jsonl").read_text())
    rec["mentions"][0]["id"] = "m\t0"
    (tmp_path / "docs.jsonl").write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match=re.escape("docs.jsonl line 1: mention id 'm\\t0' "
                                                    "contains a tab or line break")):
        load_corpus(tmp_path)


def test_save_refuses_vectors_of_width_zero(tmp_path):
    docs, _ = one_mention_corpus()
    store = EmbeddingStore(word_vecs={"w0": np.ones(0)},
                           entity_vecs={"e0": np.ones(0), "e1": np.zeros(0)})
    with pytest.raises(CorpusError, match=re.escape("words.vec record 'w0': word 'w0' has "
                                                    "width 0")):
        save_corpus(docs, store, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, token", [
    ("words.vec", "nan"), ("entities.vec", "nan"), ("entities.vec", "-inf"),
])
def test_non_finite_vector_rejected_at_load_with_line(tmp_path, name, token):
    # the word is in the first mention's context, the entity is its gold
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    mention = docs[0].mentions[0]
    kind, key = (("word", mention.context_window[0]) if name == "words.vec"
                 else ("entity", mention.gold))
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lineno = next(n for n, line in enumerate(lines, start=1) if line.split()[0] == key)
    parts = lines[lineno - 1].split()
    lines[lineno - 1] = " ".join([key, token] + parts[2:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=re.escape(f"{name} line {lineno}: {kind} {key!r} "
                                                    f"has a non-finite value")):
        load_corpus(tmp_path)


@pytest.mark.parametrize("name, token, magnitude", [
    ("words.vec", "7.07e159", "7.07e+159"), ("entities.vec", "-1.5e75", "1.5e+75"),
])
def test_a_value_beyond_the_magnitude_bound_rejected_at_load_with_line(tmp_path, name, token,
                                                                        magnitude):
    # the word is in the first mention's context, the entity is its gold; a
    # value at the bound loads
    docs, store = small_corpus()
    save_corpus(docs, store, tmp_path)
    mention = docs[0].mentions[0]
    kind, key = (("word", mention.context_window[0]) if name == "words.vec"
                 else ("entity", mention.gold))
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lineno = next(n for n, line in enumerate(lines, start=1) if line.split()[0] == key)
    parts = lines[lineno - 1].split()
    for value in (repr(MAX_MAGNITUDE), token):
        lines[lineno - 1] = " ".join([key, value] + parts[2:])
        path.write_text("\n".join(lines) + "\n")
        if value != token:
            load_corpus(tmp_path)
    with pytest.raises(CorpusError, match=re.escape(f"{name} line {lineno}: {kind} {key!r} "
                                                    f"has a value of magnitude {magnitude}, "
                                                    f"above 1e+75")):
        load_corpus(tmp_path)


def test_vectors_of_width_zero_rejected_at_load_with_line(tmp_path):
    docs, store = one_mention_corpus()
    save_corpus(docs, store, tmp_path)
    (tmp_path / "words.vec").write_text("w0\n")
    (tmp_path / "entities.vec").write_text("e0\ne1\n")
    with pytest.raises(CorpusError, match=re.escape("words.vec line 1: word 'w0' has width 0")):
        load_corpus(tmp_path)


@pytest.mark.parametrize("where, value, what, kind", [
    (("mentions", 0, "position"), 0.7, "mention", "an int"),
    (("mentions", 0, "position"), "0", "mention", "an int"),
    (("mentions", 0, "candidates", 0, "prior"), True, "candidate", "a number"),
    (("mentions", 0, "candidates", 0, "prior"), "0.5", "candidate", "a number"),
    (("words",), "w0", "document", "a tuple of strings"),
    (("mentions", 0, "id"), 5, "mention", "a string"),
    (("mentions", 0, "surface"), "w0", "mention", "a tuple of strings"),
], ids=["position-float", "position-string", "prior-bool", "prior-string", "words-string",
        "mention-id-int", "surface-string"])
def test_docs_values_of_the_wrong_json_type_rejected(tmp_path, where, value, what, kind):
    docs, store = one_mention_corpus()
    save_corpus(docs, store, tmp_path)
    rec = json.loads((tmp_path / "docs.jsonl").read_text())
    holder = rec
    for step in where[:-1]:
        holder = holder[step]
    holder[where[-1]] = value
    (tmp_path / "docs.jsonl").write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match=re.escape(f"docs.jsonl line 1: {what} field "
                                                    f"{where[-1]!r} must be {kind}, "
                                                    f"got {value!r}")):
        load_corpus(tmp_path)


@pytest.mark.parametrize("make, problem", [
    (lambda d, m: replace(d, id=7), "document field 'id' must be a string, got 7"),
    (lambda d, m: replace(d, mentions=(replace(m, id=7),)),
     "mention field 'id' must be a string, got 7"),
    (lambda d, m: replace(d, words=["w0"]),
     "document field 'words' must be a tuple of strings, got ['w0']"),
    (lambda d, m: replace(d, mentions=(replace(m, position=True),)),
     "mention field 'position' must be an int, got True"),
    (lambda d, m: replace(d, mentions=(replace(m, candidates=(CandidateEntity(5, 1.0),)),)),
     "candidate field 'entity_id' must be a string, got 5"),
], ids=["document-id-int", "mention-id-int", "words-list", "position-bool", "entity-int"])
def test_save_refuses_records_of_the_wrong_type_and_writes_nothing(tmp_path, make, problem):
    # the records refuse such values when they are built, so no save starts
    docs, store = one_mention_corpus()
    with pytest.raises(CorpusError, match=re.escape(problem)):
        save_corpus([make(docs[0], docs[0].mentions[0])], store, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_an_int_prior_saves_and_reloads_as_a_number(tmp_path):
    docs, store = one_mention_corpus()
    mention = docs[0].mentions[0]
    docs = [replace(docs[0], mentions=(replace(mention, candidates=(CandidateEntity("e0", 1),)),))]
    save_corpus(docs, store, tmp_path)
    loaded, _ = load_corpus(tmp_path)
    assert loaded == docs
    priors = np.array([c.prior for c in loaded[0].mentions[0].candidates], dtype=float)
    assert priors.dtype == float


# ---------------------------------------------------------------------------
# save/load round trip over generated ids
# ---------------------------------------------------------------------------

# ids the text files carry back unchanged, and ids that may be empty or hold
# whitespace, which save refuses
good_ids = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=4)
any_ids = st.text(min_size=0, max_size=4)


@st.composite
def corpora(draw, flawed: bool):
    # a flawed corpus may hold bad ids, name ids that have no vector or mention,
    # hold an empty KG neighbour set, context window or document list, mix type
    # vector widths, or hold vectors that are not finite, of width 0 or beyond
    # the magnitude bound
    ids = any_ids if flawed and draw(st.booleans()) else good_ids
    finite = not flawed or draw(st.booleans())
    bound = None if flawed else MAX_MAGNITUDE
    values = st.floats(min_value=bound and -bound, max_value=bound, allow_nan=not finite,
                       allow_infinity=not finite, width=64)
    width = 0 if flawed and draw(st.integers(0, 4)) == 0 else 2
    vectors = st.lists(values, min_size=width, max_size=width).map(np.array)

    def ref(known: list[str]):
        if not flawed:
            return st.sampled_from(known)
        unknown = st.text("xyz", min_size=1, max_size=2)
        return st.one_of(st.sampled_from(known), unknown) if known else unknown

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
    mention_ids = draw(st.lists(ids, min_size=0 if flawed else 1, max_size=3, unique=True))
    type_vectors = st.lists(values, min_size=0 if flawed else 2, max_size=2).map(np.array)
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


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(flawed=False), data=st.data())
def test_what_loads_saves_and_reloads_unchanged(tmp_path_factory, corpus, data):
    """Mutate one record of a saved corpus: an id in ``docs.jsonl`` made empty
    or given a tab, or a value of a ``.vec`` row made non-finite.  Either load
    refuses the result, or what it loaded saves and reloads unchanged."""
    path = tmp_path_factory.mktemp("corpus")
    save_corpus(*corpus, path)
    name = data.draw(st.sampled_from(["docs.jsonl", "words.vec", "entities.vec"]))
    lines = (path / name).read_text(encoding="utf-8").splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    if name == "docs.jsonl":
        rec = json.loads(lines[i])
        mention = rec["mentions"][0]
        holder, key = data.draw(st.sampled_from([(rec, "id"), (mention, "id"), (mention, "gold"),
                                                 (mention["candidates"][0], "entity")]))
        holder[key] = data.draw(st.sampled_from(["", "\t", holder[key] + "\t",
                                                 "\t" + holder[key]]))
        lines[i] = json.dumps(rec)
    else:
        parts = lines[i].split(" ")
        parts[data.draw(st.integers(1, len(parts) - 1))] = data.draw(
            st.sampled_from(["nan", "NaN", "inf", "-inf", "-Infinity"]))
        lines[i] = " ".join(parts)
    (path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        loaded = load_corpus(path)
    except CorpusError:
        return
    again = tmp_path_factory.mktemp("again")
    save_corpus(*loaded, again)
    _assert_reloads(*loaded, again)


@pytest.mark.parametrize("table, key, value", [
    ("word_vecs", "w0", [1.0, 1.0]),
    ("word_vecs", "w0", np.ones((1, 2))),
    ("entity_vecs", "e0", np.array(["a", "b"])),
    ("entity_vecs", "e0", np.array([1 + 1j, 1.0])),
    ("type_vecs", ("m0", "e0"), [1.0]),
], ids=["list", "matrix", "strings", "complex", "type-list"])
def test_store_refuses_a_vector_that_is_not_a_real_1d_array(table, key, value):
    tables = {"word_vecs": {"w0": np.ones(2)}, "entity_vecs": {"e0": np.ones(2)},
              "type_vecs": {}}
    tables[table][key] = value
    with pytest.raises(CorpusError, match=re.escape(
            f"{table[:-5]} vector {key!r} is not a 1-D array of real numbers")):
        EmbeddingStore(**tables)
