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

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

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


@dataclass(frozen=True)
class CandidateEntity:
    entity_id: str
    prior: float

    def __post_init__(self):
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

    @property
    def priors(self) -> np.ndarray:
        return np.array([c.prior for c in self.candidates])


@dataclass(frozen=True)
class Document:
    id: str
    words: tuple[str, ...]
    mentions: tuple[Mention, ...]

    def __post_init__(self):
        if not self.mentions:
            raise CorpusError(f"document {self.id!r} has no mentions")
        positions = [m.position for m in self.mentions]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise CorpusError(
                f"document {self.id!r}: mention positions must strictly increase"
            )


@dataclass
class EmbeddingStore:
    """Frozen word/entity vectors plus KG adjacency and optional type vectors."""

    word_vecs: dict[str, np.ndarray]
    entity_vecs: dict[str, np.ndarray]
    entity_surface: dict[str, tuple[str, ...]] = field(default_factory=dict)
    kg_adjacency: dict[str, frozenset[str]] = field(default_factory=dict)
    type_vecs: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        dims = {v.size for v in self.word_vecs.values()}
        dims |= {v.size for v in self.entity_vecs.values()}
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


def _mention_from_json(obj: dict, line: int) -> Mention:
    try:
        return Mention(
            id=obj["id"],
            surface=tuple(obj["surface"]),
            position=int(obj["position"]),
            context_before=tuple(obj["context_before"]),
            context_after=tuple(obj["context_after"]),
            candidates=tuple(
                CandidateEntity(c["entity"], float(c["prior"])) for c in obj["candidates"]
            ),
            gold=obj["gold"],
        )
    except (KeyError, TypeError) as err:
        raise CorpusError(f"docs.jsonl line {line}: bad mention record ({err})") from None


def _check_ids(docs: list[Document], store: EmbeddingStore) -> None:
    """Refuse ids that the text files cannot carry back unchanged.

    Word and entity ids are written into whitespace-separated columns, so
    they must be non-empty and free of whitespace.  Mention ids key
    ``type_vecs.tsv`` by themselves, so they must be unique across the
    corpus and free of tabs and line breaks; document ids must be unique.
    """
    word_ids = itertools.chain(store.word_vecs, *store.entity_surface.values())
    entity_ids = itertools.chain(
        store.entity_vecs, store.entity_surface, store.kg_adjacency,
        *store.kg_adjacency.values(), (eid for _, eid in store.type_vecs),
    )
    for kind, ids in (("word", word_ids), ("entity", entity_ids)):
        for i in ids:
            if not i or any(c.isspace() for c in i):
                raise CorpusError(f"{kind} id {i!r} is empty or contains whitespace")
    doc_ids: set[str] = set()
    mention_ids: set[str] = set()
    for doc in docs:
        if doc.id in doc_ids:
            raise CorpusError(f"duplicate document id {doc.id!r}")
        doc_ids.add(doc.id)
        for m in doc.mentions:
            if m.id in mention_ids:
                raise CorpusError(f"duplicate mention id {m.id!r}")
            mention_ids.add(m.id)
    for mid in itertools.chain(mention_ids, (mid for mid, _ in store.type_vecs)):
        if any(c in "\t\r\n" for c in mid):
            raise CorpusError(f"mention id {mid!r} contains a tab or line break")


def _check_references(
    docs: list[Document], store: EmbeddingStore, lines: dict[str, dict] | None = None
) -> None:
    """Refuse a corpus whose records name what it does not hold.

    Every mention needs a non-empty context window.  Every word and entity
    that a mention, an entity surface, a KG edge or a type vector names
    needs a vector.  A KG neighbour set must be non-empty,
    since ``kg_edges.tsv`` cannot carry an empty one.  A type vector must be
    keyed by a mention of the corpus and be as wide as the first one.
    ``save_corpus`` and ``load_corpus`` both call this, so what saves also
    loads.  ``lines[file][key]`` is the line each record was read from; a
    record that was not read from a file is named by its key.
    """
    def fail(file: str, key, problem: str):
        where = f"line {lines[file][key]}" if lines is not None else f"record {key!r}"
        raise CorpusError(f"{file} {where}: {problem}")

    words, entities = store.word_vecs, store.entity_vecs
    for doc in docs:
        for m in doc.mentions:
            if not m.context_window:
                fail("docs.jsonl", m.id, f"mention {m.id!r} has an empty context window")
            for w in m.surface + m.context_window:
                if w not in words:
                    fail("docs.jsonl", m.id, f"unknown word {w!r} in {m.id!r}")
            for c in m.candidates:
                if c.entity_id not in entities:
                    fail("docs.jsonl", m.id, f"unknown entity {c.entity_id!r}")
            if m.gold not in entities:
                fail("docs.jsonl", m.id, f"unknown gold entity {m.gold!r}")
    for eid, surface in store.entity_surface.items():
        if eid not in entities:
            fail("entity_surfaces.tsv", eid, f"unknown entity {eid!r}")
        for w in surface:
            if w not in words:
                fail("entity_surfaces.tsv", eid, f"unknown word {w!r}")
    for src, dsts in store.kg_adjacency.items():
        if not dsts:
            fail("kg_edges.tsv", src, f"entity {src!r} has an empty neighbour set")
        for dst in sorted(dsts):
            for eid in (src, dst):
                if eid not in entities:
                    fail("kg_edges.tsv", (src, dst), f"unknown entity {eid!r}")
    mention_ids = {m.id for doc in docs for m in doc.mentions}
    width = None
    for key, vec in store.type_vecs.items():
        mid, eid = key
        if mid not in mention_ids:
            fail("type_vecs.tsv", key, f"mention {mid!r} is in no document")
        if eid not in entities:
            fail("type_vecs.tsv", key, f"unknown entity {eid!r}")
        if width is None:
            width = vec.size
        elif vec.size != width:
            fail("type_vecs.tsv", key, f"width {vec.size} differs from the first row's {width}")


def save_corpus(docs: Iterable[Document], store: EmbeddingStore, path: str | Path) -> None:
    """Write a corpus directory; raises ``CorpusError`` before writing any
    file if an id could not be read back unchanged or ``load_corpus`` would
    reject a reference."""
    docs = list(docs)
    _check_ids(docs, store)
    _check_references(docs, store)
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


def _load_vecs(
    path: Path, width: int | None = None, width_of: str = ""
) -> dict[str, np.ndarray]:
    """Read ``<id> <f1> ... <fd>`` rows, each as wide as the first row, or
    ``width`` wide (the width of ``width_of``) when given."""
    table: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) < 2:
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
    return table


def load_corpus(
    path: str | Path, context_radius: int | None = None
) -> tuple[list[Document], EmbeddingStore]:
    """Load and cross-validate a corpus directory.

    Every word/entity referenced anywhere must have an embedding, all word
    and entity vectors one width, every id must be unique (mention ids
    across the whole corpus), every type vector must name a mention of the
    corpus, and every mention needs a non-empty context window; violations
    are reported with the file and line they came from.  ``context_radius``
    caps each mention's window to the nearest ``radius`` words on each side
    (None keeps the stored windows untouched, preserving save/load identity).
    """
    if context_radius is not None and context_radius < 0:
        raise ValueError(f"context_radius must be >= 0, got {context_radius}")
    path = Path(path)
    word_vecs = _load_vecs(path / "words.vec")
    entity_vecs = _load_vecs(path / "entities.vec",
                             next((v.size for v in word_vecs.values()), None), "words.vec")

    # the line each record came from, for ``_check_references``
    lines: dict[str, dict] = {name: {} for name in (
        "docs.jsonl", "entity_surfaces.tsv", "kg_edges.tsv", "type_vecs.tsv")}
    surfaces: dict[str, tuple[str, ...]] = {}
    surf_path = path / "entity_surfaces.tsv"
    if surf_path.exists():
        with open(surf_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                eid, _, rest = line.rstrip("\n").partition("\t")
                surfaces[eid] = tuple(rest.split())
                lines["entity_surfaces.tsv"][eid] = lineno

    adjacency: dict[str, set[str]] = {}
    edges_path = path / "kg_edges.tsv"
    if edges_path.exists():
        with open(edges_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise CorpusError(f"kg_edges.tsv line {lineno}: expected 'src dst'")
                src, dst = parts
                adjacency.setdefault(src, set()).add(dst)
                lines["kg_edges.tsv"][(src, dst)] = lineno

    type_vecs: dict[tuple[str, str], np.ndarray] = {}
    types_path = path / "type_vecs.tsv"
    if types_path.exists():
        with open(types_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 3:
                    raise CorpusError(f"type_vecs.tsv line {lineno}: expected 3 columns")
                mid, eid, rest = parts
                try:
                    type_vecs[(mid, eid)] = np.array([float(x) for x in rest.split()])
                except ValueError:
                    raise CorpusError(
                        f"type_vecs.tsv line {lineno}: non-numeric value"
                    ) from None
                lines["type_vecs.tsv"][(mid, eid)] = lineno

    store = EmbeddingStore(
        word_vecs=word_vecs,
        entity_vecs=entity_vecs,
        entity_surface=surfaces,
        kg_adjacency={k: frozenset(v) for k, v in sorted(adjacency.items())},
        type_vecs=type_vecs,
    )

    docs: list[Document] = []
    doc_lines: dict[str, int] = {}       # first line of each document / mention id
    mention_lines = lines["docs.jsonl"]
    with open(path / "docs.jsonl", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise CorpusError(f"docs.jsonl line {lineno}: invalid JSON ({err})") from None
            try:
                mentions = tuple(_mention_from_json(m, lineno) for m in rec["mentions"])
                doc = Document(rec["id"], tuple(rec["words"]), mentions)
            except CorpusError as err:
                raise CorpusError(f"docs.jsonl line {lineno}: {err}") from None
            except (KeyError, TypeError) as err:
                raise CorpusError(f"docs.jsonl line {lineno}: bad record ({err})") from None
            if context_radius is not None:
                doc = Document(
                    doc.id,
                    doc.words,
                    tuple(
                        Mention(
                            id=m.id,
                            surface=m.surface,
                            position=m.position,
                            context_before=m.context_before[
                                max(0, len(m.context_before) - context_radius):],
                            context_after=m.context_after[:context_radius],
                            candidates=m.candidates,
                            gold=m.gold,
                        )
                        for m in doc.mentions
                    ),
                )
            if doc.id in doc_lines:
                raise CorpusError(f"docs.jsonl line {lineno}: duplicate document id "
                                  f"{doc.id!r} (first on line {doc_lines[doc.id]})")
            doc_lines[doc.id] = lineno
            for m in doc.mentions:
                if m.id in mention_lines:
                    raise CorpusError(f"docs.jsonl line {lineno}: duplicate mention id "
                                      f"{m.id!r} (first on line {mention_lines[m.id]})")
                mention_lines[m.id] = lineno
            docs.append(doc)
    if not docs:
        raise CorpusError("docs.jsonl contains no documents")
    _check_references(docs, store, lines)
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
