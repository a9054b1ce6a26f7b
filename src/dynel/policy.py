"""Dynamic mention selection: RL state, sliding-window actions, policy net.

The state is the history of (mention representation; linked entity) pairs,
one row each, seeded with a learned initial pair.  At every step the
candidate actions are the ``window_size`` earliest unresolved mentions in
document order.  Each action is summarised by its local-score-weighted
mention/entity vector, built for every mention of a document at once by
``action_representation``; history elements are scored by their best-matching
action, the top ``top_k`` serve as attention evidence, and a second
diagonal form turns evidence-weighted matches into action logits.

``select_action`` picks one step's action for each line of a batch and
returns each window's distribution as plain numbers; ``advance`` refills
the window.  The trainer's one stepping loop calls both, with one line per
training episode or per document linked in lockstep.  When the history is
fixed in advance, as the gold history of a training episode is,
``episode_log_probs`` scores every step of the episode in one graph: step
t's window against the first t+1 history rows, with the causal prefix mask
of Vaswani et al. 2017.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DiagonalBilinear, Tensor

__all__ = [
    "PolicyParams",
    "ActionWindow",
    "NonFiniteWindow",
    "action_representation",
    "select_action",
    "episode_log_probs",
    "advance",
]


class NonFiniteWindow(RuntimeError):
    """A window distribution holding a NaN or an infinity; ``line`` is a
    line of the ``select_action`` call whose distribution holds one."""

    def __init__(self, line: int):
        super().__init__("non-finite window distribution")
        self.line = line


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
class ActionWindow:
    """Unresolved mention positions in document order plus the window size."""

    window_size: int
    unresolved: tuple[int, ...]

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError("window size must be >= 1")

    def actions(self) -> tuple[int, ...]:
        return self.unresolved[: min(self.window_size, len(self.unresolved))]


def action_representation(contexts: Tensor, cand: Tensor, weights: Tensor) -> Tensor:
    """Each action's local-score-weighted (mention; entity) summary, one row
    per mention.

    Line i of ``weights`` weighs the slots of line i of the candidate stack
    ``cand``, and is 0 on padded slots.  The mention half, line i of
    ``contexts``, is scaled by the line's sum, so normalised weights leave
    it untouched.
    """
    lines, width, dim = cand.shape
    if weights.shape != (lines, width) or contexts.shape != (lines, dim):
        raise ad.ShapeError(f"{weights.shape} weights and {contexts.shape} contexts "
                            f"for a candidate stack of shape {cand.shape}")
    mention_half = ad.mul(contexts, ad.tsum(weights, axis=-1, keepdims=True))
    entity_half = ad.reshape(ad.matmul(ad.reshape(weights, (lines, 1, width)), cand),
                             (lines, dim))
    return ad.concat([mention_half, entity_half], axis=-1)


def select_action(
    histories: Tensor,
    windows: Sequence[ActionWindow],
    actions: Tensor,
    params: PolicyParams,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
) -> tuple[list[int], list[np.ndarray]]:
    """Pick the next mention position of each line.

    Line i has linked the pairs ``histories[i]``, one ``(mention; entity)``
    row each, the init pair first; every line has linked as many.  Its
    window ``windows[i]`` holds positions that are rows of ``actions``, and
    only the window's rows are read.  Returns each line's position and its
    window's distribution, aligned with ``windows[i].actions()``.

    Lines whose windows are equally wide are scored as one stack, so a line
    gets exactly the numbers it gets alone (see ``DiagonalBilinear.pool``).
    A distribution holding a NaN or an infinity, or whose logits are all
    -inf, is refused with a ``NonFiniteWindow`` naming its line, in both
    modes.  Sampled lines draw in line order.  Single-action windows skip
    the rng so greedy and sampled rollouts stay trace-identical there.
    """
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown selection mode {mode!r}")
    if mode == "sample" and rng is None:
        raise ValueError("sample mode needs an rng")
    acts = [window.actions() for window in windows]
    widths = [len(a) for a in acts]
    if histories.shape[0] != len(acts):
        raise ValueError(f"{histories.shape[0]} histories for {len(acts)} windows")
    if not all(widths):
        raise ValueError("cannot select from an empty action window")
    probs: list[np.ndarray] = [np.empty(0)] * len(acts)
    for width in sorted(set(widths)):
        lines = [i for i, w in enumerate(widths) if w == width]
        reps = ad.gather(actions, [acts[i] for i in lines])
        rows = histories.data if len(lines) == len(acts) else histories.data[lines]
        evidence = params.history_match.pool(reps, rows, params.top_k)
        log_probs = ad.log_softmax(params.action_scorer.scores(reps, evidence)).data
        finite = np.isfinite(log_probs.max(axis=1))   # no NaN, no inf, not all -inf
        if not finite.all():
            raise NonFiniteWindow(lines[int(np.argmin(finite))])
        for line, line_probs in zip(lines, np.exp(log_probs)):
            probs[line] = line_probs

    positions = []
    for window_acts, line_probs in zip(acts, probs):
        if len(window_acts) == 1:
            idx = 0
        elif mode == "greedy":
            idx = int(np.argmax(line_probs))
        else:
            idx = int(rng.choice(len(window_acts), p=line_probs / line_probs.sum()))
        positions.append(window_acts[idx])
    return positions, probs


def episode_log_probs(
    windows: Sequence[tuple[int, ...]],
    order: Sequence[int],
    actions: Tensor,
    pairs: Tensor,
    params: PolicyParams,
) -> Tensor:
    """``log pi(a_t)`` of every step of an episode, as one ``(steps,)`` graph.

    ``windows[t]`` is the window of step t and ``order[t]`` the position it
    chose.  ``actions`` and ``pairs`` hold one row per mention, in position
    order: its action summary, and the pair it adds to the history once
    linked.  Step t sees the init pair and the pairs of ``order[:t]``, so
    line t is the log of ``select_action``'s distribution on that history,
    at the chosen slot.  Windows are padded to the widest; a padded slot
    repeats its step's first action, so it never changes a best match, and
    the log-softmax leaves it out.  The query stack is gathered by a
    constant one-hot product, which copies rows exactly and scatters its
    gradient with one matrix product.
    """
    steps, width = len(windows), max(len(w) for w in windows)
    slots = np.array([w + (w[0],) * (width - len(w)) for w in windows])
    valid = np.arange(width) < np.array([len(w) for w in windows])[:, None]
    picks = np.eye(actions.shape[0])[slots.ravel()]
    queries = ad.reshape(ad.matmul(Tensor(picks), actions), slots.shape + (-1,))

    # row 0 is the init pair, row t the pair linked at step t-1
    history = ad.concat([ad.reshape(params.init_pair, (1, -1)),
                         ad.gather(pairs, list(order[:-1]))])

    visible = np.tri(steps, dtype=bool)
    evidence = params.history_match.pool(queries, history, params.top_k, visible)
    log_probs = ad.log_softmax(params.action_scorer.scores(queries, evidence), valid)
    chosen = [window.index(pos) for window, pos in zip(windows, order)]
    return ad.gather(ad.reshape(log_probs, (-1,)), np.arange(steps) * width + chosen)


def advance(window: ActionWindow, action: int) -> ActionWindow:
    """The window once ``action`` is linked: refilled from the unresolved."""
    if action not in window.actions():
        raise ValueError(f"action {action} is not in the current window {window.actions()}")
    at = window.unresolved.index(action)
    return ActionWindow(window.window_size, window.unresolved[:at] + window.unresolved[at + 1:])
