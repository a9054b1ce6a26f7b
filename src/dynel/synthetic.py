"""Deterministic synthetic corpora with controllable ordering difficulty.

Geometry (all vectors live on reserved coordinate axes, so diagonal
bilinear scorers can express every relation exactly):

* an *anchor* mention is locally unambiguous: its context names its gold
  entity's identity axis and its gold prior dominates;
* an *anchored* mention has two candidates whose local scores and priors
  tie exactly; each candidate is correlated (weight ``RHO``) with one of
  the anchor's two possible gold entities, and the anchor sits at a later
  document position.  Coherence with previously linked entities separates
  the pair if and only if the anchor's gold entity has already been
  linked;
* anchor-quality entities additionally carry a shared tag axis (weight
  ``KAPPA``) so an ordering policy has a linearly readable "easy mention"
  signal;
* junk candidates, junk context words and noise words occupy their own
  axes and score zero against everything that matters.

Documents share one global entity/word inventory; per document the
generator flips which variant of each anchored/anchor pair is gold, so no
local scorer can beat chance on anchored mentions before the anchor is
resolved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CandidateEntity, CorpusError, Document, EmbeddingStore, Mention

__all__ = ["SyntheticSpec", "generate_synthetic", "required_dim"]

RHO = 0.6            # coupling between an anchored candidate and its anchor entity
KAPPA = 0.5          # shared tag weight on anchor-quality entities
ANCHOR_GOLD_PRIOR = 0.92
TIED_PRIOR = 0.45
N_NOISE_WORDS = 2


@dataclass(frozen=True)
class SyntheticSpec:
    num_docs: int = 100
    mentions_per_doc: int = 8
    candidates_per_mention: int = 8
    embedding_dim: int = 32
    anchor_fraction: float = 0.0
    noise_scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if min(self.num_docs, self.mentions_per_doc, self.candidates_per_mention) < 1:
            raise CorpusError("all synthetic counts must be >= 1")
        if self.embedding_dim < 1:
            raise CorpusError("embedding_dim must be >= 1")
        if not (0.0 <= self.anchor_fraction <= 1.0):
            raise CorpusError("anchor_fraction must lie in [0, 1]")
        if self.noise_scale < 0:
            raise CorpusError("noise_scale must be >= 0")


def _n_anchored(spec: SyntheticSpec) -> int:
    n = round(spec.anchor_fraction * spec.mentions_per_doc)
    if spec.anchor_fraction > 0:
        if spec.mentions_per_doc < 2:
            raise CorpusError("anchored mentions need mentions_per_doc >= 2")
        if n == 0:
            raise CorpusError("anchor_fraction too small to place an anchored mention")
        if 2 * n > spec.mentions_per_doc:
            raise CorpusError(
                "anchor_fraction too large: each anchored mention needs its own anchor"
            )
    return n


def required_dim(spec: SyntheticSpec) -> int:
    n_pairs = _n_anchored(spec)
    n_fill = spec.mentions_per_doc - 2 * n_pairs
    n_junk = max(spec.candidates_per_mention - 1, 1)
    return 1 + 4 * n_pairs + n_fill + n_junk + N_NOISE_WORDS


def _axis(dim: int, idx: int, scale: float = 1.0) -> np.ndarray:
    v = np.zeros(dim)
    v[idx] = scale
    return v


def generate_synthetic(spec: SyntheticSpec) -> tuple[list[Document], EmbeddingStore]:
    """Build ``spec.num_docs`` documents plus their shared embedding store."""
    need = required_dim(spec)
    if spec.embedding_dim < need:
        raise CorpusError(
            f"embedding_dim {spec.embedding_dim} too small; this spec needs {need}"
        )
    rng = np.random.default_rng(spec.seed)
    dim = spec.embedding_dim
    n_pairs = _n_anchored(spec)
    n_fill = spec.mentions_per_doc - 2 * n_pairs
    n_junk = max(spec.candidates_per_mention - 1, 1)

    # axis layout: [tag q | 4 per pair (x, z, uX, uY) | fillers | junk | noise]
    q_ax = 0
    pair_ax = lambda p, k: 1 + 4 * p + k
    fill_ax = lambda g: 1 + 4 * n_pairs + g
    junk_ax = lambda k: 1 + 4 * n_pairs + n_fill + k
    noise_ax = lambda k: 1 + 4 * n_pairs + n_fill + n_junk + k

    anchor_norm = 1.0 / np.sqrt(1.0 + KAPPA**2)
    s = np.sqrt(1.0 - RHO**2)

    entity_vecs: dict[str, np.ndarray] = {}
    word_vecs: dict[str, np.ndarray] = {}
    surfaces: dict[str, tuple[str, ...]] = {}
    adjacency: dict[str, set[str]] = {}

    def add_edge(a: str, b: str) -> None:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    for p in range(n_pairs):
        x, z, ux, uz = (pair_ax(p, k) for k in range(4))
        entity_vecs[f"ent_p{p}_ax"] = (_axis(dim, x) + _axis(dim, q_ax, KAPPA)) * anchor_norm
        entity_vecs[f"ent_p{p}_az"] = (_axis(dim, z) + _axis(dim, q_ax, KAPPA)) * anchor_norm
        entity_vecs[f"ent_p{p}_cx"] = _axis(dim, ux, s) + _axis(dim, x, RHO)
        entity_vecs[f"ent_p{p}_cz"] = _axis(dim, uz, s) + _axis(dim, z, RHO)
        word_vecs[f"w_p{p}_x"] = _axis(dim, x)
        word_vecs[f"w_p{p}_z"] = _axis(dim, z)
        word_vecs[f"w_p{p}_ux"] = _axis(dim, ux)
        word_vecs[f"w_p{p}_uz"] = _axis(dim, uz)
        word_vecs[f"w_p{p}_amb"] = (_axis(dim, ux) + _axis(dim, uz)) / np.sqrt(2.0)
        surfaces[f"ent_p{p}_ax"] = (f"w_p{p}_x",)
        surfaces[f"ent_p{p}_az"] = (f"w_p{p}_z",)
        surfaces[f"ent_p{p}_cx"] = (f"w_p{p}_ux",)
        surfaces[f"ent_p{p}_cz"] = (f"w_p{p}_uz",)
        add_edge(f"ent_p{p}_ax", f"ent_p{p}_cx")
        add_edge(f"ent_p{p}_az", f"ent_p{p}_cz")

    for g in range(n_fill):
        ax = fill_ax(g)
        entity_vecs[f"ent_f{g}"] = (_axis(dim, ax) + _axis(dim, q_ax, KAPPA)) * anchor_norm
        word_vecs[f"w_f{g}"] = _axis(dim, ax)
        surfaces[f"ent_f{g}"] = (f"w_f{g}",)

    junk_ids = []
    for k in range(n_junk):
        vec = _axis(dim, junk_ax(k))
        if spec.noise_scale > 0:
            # jitter confined to the junk block keeps junk orthogonal to signal
            jitter = np.zeros(dim)
            jitter[junk_ax(0) : junk_ax(0) + n_junk] = rng.normal(size=n_junk)
            vec = vec + spec.noise_scale * jitter
            vec = vec / np.linalg.norm(vec)
        entity_vecs[f"ent_j{k}"] = vec
        word_vecs[f"w_j{k}"] = _axis(dim, junk_ax(k))
        surfaces[f"ent_j{k}"] = (f"w_j{k}",)
        junk_ids.append(f"ent_j{k}")

    noise_words = []
    for k in range(N_NOISE_WORDS):
        word_vecs[f"w_n{k}"] = _axis(dim, noise_ax(k), spec.noise_scale)
        noise_words.append(f"w_n{k}")

    def pick_junk(count: int) -> list[str]:
        if count <= 0:
            return []
        idx = rng.choice(len(junk_ids), size=min(count, len(junk_ids)), replace=False)
        return [junk_ids[int(i)] for i in sorted(idx)]

    def noise_word() -> tuple[str, ...]:
        return (noise_words[int(rng.integers(len(noise_words)))],)

    def mention(doc_id: str, pos: int, word: str, gold: str,
                head: tuple[tuple[str, float], ...], junk_mass: float) -> Mention:
        """Mention ``pos``, named by ``word`` in its surface and its context,
        with the ``head`` candidates and their priors, and junk candidates
        sharing ``junk_mass`` up to ``candidates_per_mention``.  It draws
        the junk, then the candidate order, then the noise word."""
        junk = pick_junk(spec.candidates_per_mention - len(head))
        cands = [CandidateEntity(e, prior) for e, prior in head] + [
            CandidateEntity(j, round(junk_mass / max(len(junk), 1), 6)) for j in junk
        ]
        order = rng.permutation(len(cands))
        after = noise_word()
        return Mention(id=f"{doc_id}_m{pos}", surface=(word,), position=pos,
                       context_before=(word,), context_after=after,
                       candidates=tuple(cands[i] for i in order), gold=gold)

    docs: list[Document] = []
    for d in range(spec.num_docs):
        mentions: list[Mention] = []
        doc_id = f"doc{d:04d}"
        for p in range(n_pairs):
            # the anchored mention sits at 2p and its anchor at 2p + 1
            gold, alt = ("x", "z") if rng.integers(2) else ("z", "x")
            mentions.append(mention(
                doc_id, 2 * p, f"w_p{p}_amb", f"ent_p{p}_c{gold}",
                ((f"ent_p{p}_c{gold}", TIED_PRIOR), (f"ent_p{p}_c{alt}", TIED_PRIOR)), 0.10))
            mentions.append(mention(
                doc_id, 2 * p + 1, f"w_p{p}_{gold}", f"ent_p{p}_a{gold}",
                ((f"ent_p{p}_a{gold}", ANCHOR_GOLD_PRIOR), (f"ent_p{p}_a{alt}", 0.01)), 0.07))
        for g in range(n_fill):
            mentions.append(mention(doc_id, 2 * n_pairs + g, f"w_f{g}", f"ent_f{g}",
                                    ((f"ent_f{g}", ANCHOR_GOLD_PRIOR),), 0.07))
        words = dict.fromkeys(w for m in mentions for w in m.surface + m.context_window)
        docs.append(Document(doc_id, tuple(words), tuple(mentions)))

    store = EmbeddingStore(
        word_vecs=word_vecs,
        entity_vecs=entity_vecs,
        entity_surface=surfaces,
        kg_adjacency={k: frozenset(v) for k, v in sorted(adjacency.items())},
    )
    return docs, store
