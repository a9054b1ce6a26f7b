"""Dynamic mention selection: RL state, sliding-window actions, policy net.

The state is the ordered list of (mention representation; linked entity)
pairs, seeded with a learned initial pair.  At every step the candidate
actions are the ``window_size`` earliest unresolved mentions in document
order.  Each action is summarised by its local-score-weighted
mention/entity vector; history elements are scored by their best-matching
action, the top ``top_k`` serve as attention evidence, and a second
diagonal form turns evidence-weighted matches into action logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiagonalBilinear, Tensor

__all__ = [
    "PolicyParams",
    "HistoryEntry",
    "LinkingState",
    "ActionWindow",
    "action_representation",
    "select_action",
    "advance",
]


@dataclass
class PolicyParams:
    history_match: DiagonalBilinear    # scores history elements against actions
    action_scorer: DiagonalBilinear    # turns evidence-weighted matches into logits
    init_pair: Tensor                  # learned initial (mention; entity) pair, 2d
    top_k: int = 7

    @classmethod
    def build(cls, dim: int, top_k: int = 7) -> "PolicyParams":
        return cls(
            DiagonalBilinear.ones(2 * dim),
            DiagonalBilinear.ones(2 * dim),
            ad.parameter(np.zeros(2 * dim)),
            top_k,
        )

    def parameters(self) -> dict[str, Tensor]:
        return {
            "policy.history_match": self.history_match.diag,
            "policy.action_scorer": self.action_scorer.diag,
            "policy.init_pair": self.init_pair,
        }


@dataclass(frozen=True)
class HistoryEntry:
    mention_id: str | None
    entity_id: str | None
    pair: Tensor


@dataclass(frozen=True)
class LinkingState:
    """History of resolved (mention, entity) pairs; entry 0 is the init pair."""

    entries: tuple[HistoryEntry, ...]

    @classmethod
    def initial(cls, params: PolicyParams) -> "LinkingState":
        return cls((HistoryEntry(None, None, params.init_pair),))

    @property
    def step(self) -> int:
        return len(self.entries) - 1

    def stacked(self) -> Tensor:
        return ad.stack([e.pair for e in self.entries])

    def linked_entity_ids(self) -> tuple[str, ...]:
        return tuple(e.entity_id for e in self.entries if e.entity_id is not None)


@dataclass(frozen=True)
class ActionWindow:
    """Unresolved mention positions in document order plus the window size."""

    window_size: int
    unresolved: tuple[int, ...]

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError("window size must be >= 1")

    def actions(self) -> tuple[int, ...]:
        return self.unresolved[: min(self.window_size, len(self.unresolved))]

    @property
    def exhausted(self) -> bool:
        return not self.unresolved


def action_representation(mention_repr: Tensor, cand_vecs: Tensor, psi: Tensor) -> Tensor:
    """Local-score-weighted (mention; entity) summary of one action.

    ``psi`` holds one weight per candidate; the mention half is scaled by
    their sum so normalised weights leave the mention vector untouched.
    """
    if psi.data.ndim != 1 or cand_vecs.data.shape[0] != psi.data.size:
        raise ad.ShapeError("psi must hold one weight per candidate row")
    mention_half = ad.mul(mention_repr, ad.tsum(psi))
    entity_half = ad.matmul(psi, cand_vecs)
    return ad.concat([mention_half, entity_half])


def select_action(
    state: LinkingState,
    window: ActionWindow,
    action_reps: dict[int, Tensor],
    params: PolicyParams,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
    force: int | None = None,
) -> tuple[int, Tensor, np.ndarray]:
    """Pick the next mention position.

    Returns ``(position, log_prob, distribution)``; ``distribution`` is
    aligned with ``window.actions()``.  Single-action windows skip the rng
    so greedy and sampled rollouts stay trace-identical there.  ``force``
    evaluates the distribution but returns the given position (it must be
    inside the window).
    """
    acts = window.actions()
    if not acts:
        raise ValueError("cannot select from an empty action window")
    reps = ad.stack([action_reps[a] for a in acts])
    evidence = params.history_match.pool(reps, state.stacked(), params.top_k)
    log_probs = ad.log_softmax(params.action_scorer.scores(reps, evidence))
    probs = np.exp(log_probs.data)

    if force is not None:
        if force not in acts:
            raise ValueError(f"forced action {force} is outside the window {acts}")
        idx = acts.index(force)
    elif len(acts) == 1:
        idx = 0
    elif mode == "greedy":
        idx = int(np.argmax(probs))
    elif mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs an rng")
        idx = int(rng.choice(len(acts), p=probs / probs.sum()))
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    return acts[idx], ad.item(log_probs, idx), probs


def advance(
    state: LinkingState,
    window: ActionWindow,
    action: int,
    pair: Tensor,
    mention_id: str,
    entity_id: str,
) -> tuple[LinkingState, ActionWindow]:
    """Append the linked pair to the history and refill the window."""
    if action not in window.actions():
        raise ValueError(f"action {action} is not in the current window {window.actions()}")
    new_state = LinkingState(state.entries + (HistoryEntry(mention_id, entity_id, pair),))
    remaining = tuple(p for p in window.unresolved if p != action)
    return new_state, ActionWindow(window.window_size, remaining)
