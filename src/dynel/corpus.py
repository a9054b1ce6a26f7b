"""Documents, mentions, candidate sets, embeddings and corpus file I/O.

A corpus lives in a directory of plain text files so it can be inspected
and diffed:

* ``docs.jsonl``            one JSON document per line
* ``words.vec``             ``<word> <f1> ... <fd>`` per line
* ``entities.vec``          ``<entity> <f1> ... <fd>`` per line
* ``entity_surfaces.tsv``   ``<entity>\\t<w1> <w2> ...`` per line
* ``kg_edges.tsv``          ``<src>\\t<dst>`` per line (directed)
* ``type_vecs.tsv``         optional ``<mention>\\t<entity>\\t<f1> ...``
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "CandidateEntity",
    "Mention",
    "Document",
    "EmbeddingStore",
    "CorpusError",
    "save_corpus",
    "load_corpus",
    "gold_recall",
]


class CorpusError(ValueError):
    """Malformed corpus data; the message names the offending file/line."""


# The largest magnitude a corpus value may have.  In one-epoch runs at window
# 2 on a 6-document synthetic corpus (dim 16, unit-scale vectors), one word or
# entity vector scaled by 1e151 trains on both scorers, and one entity scaled
# by 1e152 makes a gradient non-finite: the square of a value near 1e154
# overflows.  The bound is the square root of that edge, rounded down, so even
# a product of two values at the bound stays below it.
MAX_MAGNITUDE = 1e75

# Each record refuses, when it is built, a field not of the exact type that
# docs.jsonl carries back unchanged, so what save and load see is typed.
_STR = frozenset({str})


def _wrong(what: str, name: str, kind: str, value) -> CorpusError:
    return CorpusError(f"{what} field {name!r} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class CandidateEntity:
    entity_id: str
    prior: float

    def __post_init__(self):
        if type(self.entity_id) is not str:
            raise _wrong("candidate", "entity_id", "a string", self.entity_id)
        if type(self.prior) is not float and type(self.prior) is not int:
            raise _wrong("candidate", "prior", "a number", self.prior)
        if not (0.0 <= self.prior <= 1.0):
            raise CorpusError(f"prior for {self.entity_id!r} outside [0,1]: {self.prior}")


@dataclass(frozen=True)
class Mention:
    """One mention: surface tokens, split context window, candidates, gold.

    ``position`` is the 0-based index in the document's mention list; the
    gold entity may legitimately be missing from ``candidates`` (imperfect
    candidate generation), but must always have an embedding.
    """

    id: str
    surface: tuple[str, ...]
    position: int
    context_before: tuple[str, ...]
    context_after: tuple[str, ...]
    candidates: tuple[CandidateEntity, ...]
    gold: str

    def __post_init__(self):
        if type(self.id) is not str:
            raise _wrong("mention", "id", "a string", self.id)
        if type(self.gold) is not str:
            raise _wrong("mention", "gold", "a string", self.gold)
        if type(self.position) is not int:
            raise _wrong("mention", "position", "an int", self.position)
        for name in ("surface", "context_before", "context_after"):
            value = getattr(self, name)
            if type(value) is not tuple or not _STR.issuperset(map(type, value)):
                raise _wrong("mention", name, "a tuple of strings", value)
        if not self.candidates:
            raise CorpusError(f"mention {self.id!r} has no candidates")
        if self.position < 0:
            raise CorpusError(f"mention {self.id!r} has negative position")

    @property
    def context_window(self) -> tuple[str, ...]:
        return self.context_before + self.context_after

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(c.entity_id for c in self.candidates)


@dataclass(frozen=True)
class Document:
    id: str
    words: tuple[str, ...]
    mentions: tuple[Mention, ...]

    def __post_init__(self):
        if type(self.id) is not str:
            raise _wrong("document", "id", "a string", self.id)
        if type(self.words) is not tuple or not _STR.issuperset(map(type, self.words)):
            raise _wrong("document", "words", "a tuple of strings", self.words)
        if not self.mentions:
            raise CorpusError(f"document {self.id!r} has no mentions")
        positions = [m.position for m in self.mentions]
        if positions != list(range(len(positions))):
            raise CorpusError(
                f"document {self.id!r}: mention positions must strictly increase "
                f"by 1 from 0, got {positions}"
            )


def _is_real_vector(vec) -> bool:
    """A 1-D numpy array of real numbers, the form of every stored vector."""
    return type(vec) is np.ndarray and vec.ndim == 1 and vec.dtype.kind in "iuf"


@dataclass
class EmbeddingStore:
    """Frozen word/entity vectors plus KG adjacency and optional type vectors."""

    word_vecs: dict[str, np.ndarray]
    entity_vecs: dict[str, np.ndarray]
    entity_surface: dict[str, tuple[str, ...]] = field(default_factory=dict)
    kg_adjacency: dict[str, frozenset[str]] = field(default_factory=dict)
    type_vecs: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        dims = set()
        for what, table in (("word", self.word_vecs), ("entity", self.entity_vecs),
                            ("type", self.type_vecs)):
            for key, vec in table.items():
                if not _is_real_vector(vec):
                    raise CorpusError(f"{what} vector {key!r} is not a 1-D array of real numbers")
                if what != "type":
                    dims.add(vec.size)
        if len(dims) > 1:
            raise CorpusError(f"mixed embedding dimensions: {sorted(dims)}")
        if not dims:
            raise CorpusError("embedding store is empty")

    @property
    def dim(self) -> int:
        for v in self.word_vecs.values():
            return v.size
        for v in self.entity_vecs.values():
            return v.size
        raise CorpusError("embedding store is empty")

    def word(self, word_id: str) -> np.ndarray:
        try:
            return self.word_vecs[word_id]
        except KeyError:
            raise CorpusError(f"unknown word id {word_id!r}") from None

    def entity(self, entity_id: str) -> np.ndarray:
        try:
            return self.entity_vecs[entity_id]
        except KeyError:
            raise CorpusError(f"unknown entity id {entity_id!r}") from None

    def entities(self, entity_ids: Iterable[str]) -> np.ndarray:
        """The vectors of ``entity_ids`` stacked as rows, in the given order."""
        return np.stack([self.entity(e) for e in entity_ids])

    def neighbors(self, entity_id: str) -> frozenset[str]:
        return self.kg_adjacency.get(entity_id, frozenset())

    def type_score(self, mention_id: str, entity_id: str) -> float:
        """Dot product of the provided type vectors; 0 when absent."""
        vec = self.type_vecs.get((mention_id, entity_id))
        return 0.0 if vec is None else float(np.sum(vec))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def _mention_to_json(m: Mention) -> dict:
    return {
        "id": m.id,
        "surface": list(m.surface),
        "position": m.position,
        "context_before": list(m.context_before),
        "context_after": list(m.context_after),
        "candidates": [{"entity": c.entity_id, "prior": c.prior} for c in m.candidates],
        "gold": m.gold,
    }


def _check_corpus(
    docs: list[Document], store: EmbeddingStore, lines: dict[str, dict] | None = None
) -> None:
    """Refuse a corpus that the text files cannot carry back unchanged or
    whose records name what it does not hold.  ``save_corpus`` runs this
    before it writes any file and ``load_corpus`` after it parses them, so
    what saves loads and what loads saves.  (The records check their types.)

    There must be a document.  Word and entity ids fill whitespace-separated
    columns, so they are non-empty strings free of whitespace, and an entity
    surface is a tuple of word ids.  Every vector is a 1-D array of real
    numbers, finite, of magnitude at most ``MAX_MAGNITUDE`` and at least one
    value wide.  Document ids are unique;
    mention ids key ``type_vecs.tsv`` alone, so they are unique across the
    corpus and free of tabs and line breaks.  Every mention has a non-empty
    context window.  Every word and entity that a mention, an entity
    surface, a KG edge or a type vector names has a vector.  A KG neighbour
    set is a non-empty frozenset of entity ids (``kg_edges.tsv`` cannot
    carry an empty one).  A type vector is keyed by a (mention id, entity
    id) pair of strings, its mention is one of the corpus, and it is as
    wide as the first one.

    ``lines[file][key]`` is the line each record was read from, keyed by
    document index in ``docs.jsonl``; a record not read from a file is named
    by its key (a mention's or document's id in ``docs.jsonl``).
    """
    def fail(file: str, key, problem: str, line_key=None):
        where = (f"record {key!r}" if lines is None
                 else f"line {lines[file][key if line_key is None else line_key]}")
        raise CorpusError(f"{file} {where}: {problem}")

    def first_on(index: int) -> str:
        return "" if lines is None else f" (first on line {lines['docs.jsonl'][index]})"

    def check_values(file: str, key, what: str, vec: np.ndarray) -> None:
        if not _is_real_vector(vec):
            fail(file, key, f"{what} is not a 1-D array of real numbers")
        if not vec.size:
            fail(file, key, f"{what} has width 0")
        if not np.isfinite(vec).all():
            fail(file, key, f"{what} has a non-finite value")
        if np.abs(vec).max() > MAX_MAGNITUDE:
            fail(file, key, f"{what} has a value of magnitude {np.abs(vec).max():.3g}, "
                            f"above {MAX_MAGNITUDE:g}")

    if not docs:
        raise CorpusError("docs.jsonl contains no documents")
    words, entities = store.word_vecs, store.entity_vecs
    for file, kind, table in (("words.vec", "word", words), ("entities.vec", "entity", entities)):
        for key, vec in table.items():
            if type(key) is not str:
                fail(file, key, f"{kind} id {key!r} is not a string")
            if key.split() != [key]:
                fail(file, key, f"{kind} id {key!r} is empty or contains whitespace")
            check_values(file, key, f"{kind} {key!r}", vec)
    doc_index: dict[str, int] = {}      # the first document of each id
    mention_doc: dict[str, int] = {}    # the document of each mention id
    for i, doc in enumerate(docs):
        if doc.id in doc_index:
            fail("docs.jsonl", doc.id,
                 f"duplicate document id {doc.id!r}{first_on(doc_index[doc.id])}", i)
        doc_index[doc.id] = i
        for m in doc.mentions:
            if m.id in mention_doc:
                fail("docs.jsonl", m.id,
                     f"duplicate mention id {m.id!r}{first_on(mention_doc[m.id])}", i)
            mention_doc[m.id] = i
            if "\t" in m.id or "\r" in m.id or "\n" in m.id:
                fail("docs.jsonl", m.id, f"mention id {m.id!r} contains a tab or line break", i)
            window = m.context_window
            if not window:
                fail("docs.jsonl", m.id, f"mention {m.id!r} has an empty context window", i)
            for w in m.surface + window:
                if w not in words:
                    fail("docs.jsonl", m.id, f"unknown word {w!r} in {m.id!r}", i)
            for c in m.candidates:
                if c.entity_id not in entities:
                    fail("docs.jsonl", m.id, f"unknown entity {c.entity_id!r}", i)
            if m.gold not in entities:
                fail("docs.jsonl", m.id, f"unknown gold entity {m.gold!r}", i)
    for eid, surface in store.entity_surface.items():
        if type(eid) is not str or eid not in entities:
            fail("entity_surfaces.tsv", eid, f"unknown entity {eid!r}")
        if type(surface) is not tuple or not _STR.issuperset(map(type, surface)):
            fail("entity_surfaces.tsv", eid, f"surface {surface!r} is not a tuple of strings")
        for w in surface:
            if w not in words:
                fail("entity_surfaces.tsv", eid, f"unknown word {w!r}")
    for src, dsts in store.kg_adjacency.items():
        if type(dsts) is not frozenset or not _STR.issuperset(map(type, dsts)):
            fail("kg_edges.tsv", src,
                 f"entity {src!r} has a neighbour set that is not a frozenset of strings")
        if not dsts:
            fail("kg_edges.tsv", src, f"entity {src!r} has an empty neighbour set")
        for dst in sorted(dsts):
            for eid in (src, dst):
                if eid not in entities:
                    fail("kg_edges.tsv", (src, dst), f"unknown entity {eid!r}")
    width = None
    for key, vec in store.type_vecs.items():
        if type(key) is not tuple or len(key) != 2 or not _STR.issuperset(map(type, key)):
            fail("type_vecs.tsv", key, f"key {key!r} is not a (mention id, entity id) pair")
        mid, eid = key
        if mid not in mention_doc:
            fail("type_vecs.tsv", key, f"mention {mid!r} is in no document")
        if eid not in entities:
            fail("type_vecs.tsv", key, f"unknown entity {eid!r}")
        check_values("type_vecs.tsv", key, "type vector", vec)
        if width is None:
            width = vec.size
        elif vec.size != width:
            fail("type_vecs.tsv", key, f"width {vec.size} differs from the first row's {width}")


def save_corpus(docs: Iterable[Document], store: EmbeddingStore, path: str | Path) -> None:
    """Write a corpus directory; raises ``CorpusError`` before writing any
    file if ``load_corpus`` would refuse the corpus or read it back changed."""
    docs = list(docs)
    _check_corpus(docs, store)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "docs.jsonl", "w", encoding="utf-8") as fh:
        for doc in docs:
            rec = {
                "id": doc.id,
                "words": list(doc.words),
                "mentions": [_mention_to_json(m) for m in doc.mentions],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def write_vecs(name: str, table: Mapping[str, np.ndarray]) -> None:
        with open(path / name, "w", encoding="utf-8") as fh:
            for key in sorted(table):
                vals = " ".join(repr(float(v)) for v in table[key])
                fh.write(f"{key} {vals}\n")

    write_vecs("words.vec", store.word_vecs)
    write_vecs("entities.vec", store.entity_vecs)
    with open(path / "entity_surfaces.tsv", "w", encoding="utf-8") as fh:
        for key in sorted(store.entity_surface):
            fh.write(f"{key}\t{' '.join(store.entity_surface[key])}\n")
    with open(path / "kg_edges.tsv", "w", encoding="utf-8") as fh:
        for src in sorted(store.kg_adjacency):
            for dst in sorted(store.kg_adjacency[src]):
                fh.write(f"{src}\t{dst}\n")
    if store.type_vecs:
        with open(path / "type_vecs.tsv", "w", encoding="utf-8") as fh:
            for (mid, eid) in sorted(store.type_vecs):
                vals = " ".join(repr(float(v)) for v in store.type_vecs[(mid, eid)])
                fh.write(f"{mid}\t{eid}\t{vals}\n")


def _tuple(value):
    """A JSON list as a tuple; any other value as it is, for the record to refuse."""
    return tuple(value) if type(value) is list else value


def _document_from_json(line: str, lineno: int) -> Document:
    """The document on line ``lineno`` of ``docs.jsonl``."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as err:
        raise CorpusError(f"docs.jsonl line {lineno}: invalid JSON ({err})") from None
    try:
        mentions = tuple(
            Mention(m["id"], _tuple(m["surface"]), m["position"], _tuple(m["context_before"]),
                    _tuple(m["context_after"]),
                    tuple([CandidateEntity(c["entity"], c["prior"]) for c in m["candidates"]]),
                    m["gold"])
            for m in rec["mentions"])
        return Document(rec["id"], _tuple(rec["words"]), mentions)
    except CorpusError as err:
        raise CorpusError(f"docs.jsonl line {lineno}: {err}") from None
    except (KeyError, TypeError) as err:
        raise CorpusError(f"docs.jsonl line {lineno}: bad record ({err})") from None


def _rows(path: Path, optional: bool = False) -> Iterator[tuple[int, str]]:
    """The non-blank lines of ``path`` with their numbers; none when the
    file is ``optional`` and absent."""
    if optional and not path.exists():
        return
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def _load_vecs(path: Path, lines: dict, width: int | None = None,
               width_of: str = "") -> dict[str, np.ndarray]:
    """Read ``<id> <f1> ... <fd>`` rows, each as wide as the first row, or
    ``width`` wide (the width of ``width_of``) when given; ``lines`` gets the
    line of each id."""
    table: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                raise CorpusError(f"{path.name} line {lineno}: expected id + floats")
            if parts[0] in table:
                raise CorpusError(f"{path.name} line {lineno}: duplicate id {parts[0]!r}")
            try:
                vec = np.array([float(x) for x in parts[1:]])
            except ValueError:
                raise CorpusError(f"{path.name} line {lineno}: non-numeric value") from None
            if width is None:
                width, width_of = vec.size, f"line {lineno}"
            elif vec.size != width:
                raise CorpusError(f"{path.name} line {lineno}: width {vec.size} differs "
                                  f"from {width_of} ({width})")
            table[parts[0]] = vec
            lines[parts[0]] = lineno
    return table


def load_corpus(path: str | Path) -> tuple[list[Document], EmbeddingStore]:
    """Parse a corpus directory and check it by the rules ``save_corpus``
    runs; every refusal names the file and line it came from."""
    path = Path(path)
    lines: dict[str, dict] = defaultdict(dict)     # file -> record key -> line
    word_vecs = _load_vecs(path / "words.vec", lines["words.vec"])
    entity_vecs = _load_vecs(path / "entities.vec", lines["entities.vec"],
                             next((v.size for v in word_vecs.values()), None), "words.vec")
    surfaces: dict[str, tuple[str, ...]] = {}
    for lineno, line in _rows(path / "entity_surfaces.tsv", optional=True):
        eid, _, rest = line.rstrip("\n").partition("\t")
        surfaces[eid] = tuple(rest.split())
        lines["entity_surfaces.tsv"][eid] = lineno
    adjacency: dict[str, set[str]] = {}
    for lineno, line in _rows(path / "kg_edges.tsv", optional=True):
        parts = line.split()
        if len(parts) != 2:
            raise CorpusError(f"kg_edges.tsv line {lineno}: expected 'src dst'")
        adjacency.setdefault(parts[0], set()).add(parts[1])
        lines["kg_edges.tsv"][tuple(parts)] = lineno
    type_vecs: dict[tuple[str, str], np.ndarray] = {}
    for lineno, line in _rows(path / "type_vecs.tsv", optional=True):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise CorpusError(f"type_vecs.tsv line {lineno}: expected 3 columns")
        mid, eid, rest = parts
        try:
            type_vecs[(mid, eid)] = np.array([float(x) for x in rest.split()])
        except ValueError:
            raise CorpusError(f"type_vecs.tsv line {lineno}: non-numeric value") from None
        lines["type_vecs.tsv"][(mid, eid)] = lineno
    store = EmbeddingStore(word_vecs, entity_vecs, surfaces, type_vecs=type_vecs,
                           kg_adjacency={k: frozenset(v) for k, v in sorted(adjacency.items())})
    docs: list[Document] = []
    for lineno, line in _rows(path / "docs.jsonl"):
        lines["docs.jsonl"][len(docs)] = lineno
        docs.append(_document_from_json(line, lineno))
    _check_corpus(docs, store, lines)
    return docs, store


def gold_recall(docs: Iterable[Document]) -> float:
    """Fraction of mentions whose candidate set contains the gold entity."""
    total = hits = 0
    for doc in docs:
        for m in doc.mentions:
            total += 1
            hits += m.gold in m.candidate_ids
    if total == 0:
        raise CorpusError("empty corpus")
    return hits / total
