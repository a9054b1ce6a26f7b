"""Correctness checks on linking results, computed apart from the program.

Each check returns the indices of the documents it finds at fault, so the
benchmark can count them as failed operations.  None compares against a
stored copy of earlier output: each follows from the corpus gold or from
the method itself.
"""

from __future__ import annotations

from typing import Sequence

from dynel.corpus import Document


Links = Sequence[tuple[int, str]]   # (mention position, predicted entity id) per step


def recounted_f1(links: Sequence[Links], docs: Sequence[Document]) -> float:
    """Micro-F1 of the predicted entity ids against the corpus gold.

    Every mention gets exactly one prediction, so micro-F1 is the share of
    mentions linked to their gold entity.
    """
    total = correct = 0
    for doc_links, doc in zip(links, docs, strict=True):
        gold = {m.position: m.gold for m in doc.mentions}
        total += len(gold)
        correct += sum(gold[pos] == eid for pos, eid in doc_links)
    return correct / total


def f1_faults(reported: float, links: Sequence[Links], docs: Sequence[Document]) -> list[int]:
    """All documents when the reported micro-F1 differs from the recount."""
    return [] if reported == recounted_f1(links, docs) else list(range(len(docs)))


def window_faults(
    orders: Sequence[Sequence[int]], docs: Sequence[Document], window: int | None
) -> list[int]:
    """Documents whose order is not a permutation of their mentions, or whose
    replay shows a pick outside the ``window`` earliest unresolved mentions."""
    bad = []
    for i, (order, doc) in enumerate(zip(orders, docs, strict=True)):
        unresolved = sorted(m.position for m in doc.mentions)
        if sorted(order) != unresolved:
            bad.append(i)
            continue
        width = len(unresolved) if window is None else window
        for pos in order:
            if pos not in unresolved[:width]:
                bad.append(i)
                break
            unresolved.remove(pos)
    return bad


def document_order_faults(orders: Sequence[Sequence[int]], docs: Sequence[Document]) -> list[int]:
    """Documents whose order is not the document order."""
    return [
        i for i, (order, doc) in enumerate(zip(orders, docs, strict=True))
        if list(order) != [m.position for m in doc.mentions]
    ]


def anchor_first_rate(orders: Sequence[Sequence[int]], pairs: int) -> float:
    """Share of (anchored 2p, anchor 2p+1) pairs whose anchor is linked first."""
    first = total = 0
    for order in orders:
        step = {pos: t for t, pos in enumerate(order)}
        for p in range(pairs):
            if 2 * p + 1 in step:
                total += 1
                first += step[2 * p + 1] < step[2 * p]
    return first / total


def differing(a: Sequence, b: Sequence) -> list[int]:
    """Indices where two per-document sequences differ, bit for bit."""
    if len(a) != len(b):
        return list(range(max(len(a), len(b))))
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
