"""Delayed episode rewards computed from per-step correctness flags.

All three reward families share the ``gamma**(L-t) / L`` prefactor and
differ in how they score the flag pattern:

* ``reward_r1`` looks only at the position of the first wrong link.
* ``reward_r2`` sums transition rewards over consecutive flag pairs,
  with the step before the episode counted as correct.
* ``reward_r3`` penalises every wrong link, less so the later it occurs.

Indices are 1-based throughout; the reference worked example in the
test suite pins the resulting values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "REWARD_KINDS",
    "EpisodeOutcome",
    "TransitionRewards",
    "STATIC_TRANSITIONS",
    "PROB_SCALED_TRANSITIONS",
    "first_error_index",
    "error_indices",
    "transition_counts",
    "reward_r1",
    "reward_r2",
    "reward_r3",
    "reward_trace",
]

REWARD_KINDS = ("r1", "r2-1", "r2-2", "r3")   # the names ``reward_trace`` accepts


@dataclass(frozen=True)
class EpisodeOutcome:
    """Correctness flags of one episode, in selection order."""

    flags: tuple[bool, ...]
    gamma: float = 0.9

    def __post_init__(self):
        if len(self.flags) < 1:
            raise ValueError("an episode needs at least one step")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")

    @property
    def length(self) -> int:
        return len(self.flags)


@dataclass(frozen=True)
class TransitionRewards:
    """Rewards indexed by the (previous, current) correctness pair.

    With ``prob_scaled`` set, transitions ending in a wrong link are
    re-priced per step as ``-L * p_hat`` where ``p_hat`` is the model's
    probability for the wrongly chosen entity; transitions ending in a
    correct link stay at zero.
    """

    tt: float = 0.0
    tf: float = -2.0
    ff: float = -1.0
    ft: float = 0.0
    prob_scaled: bool = False


STATIC_TRANSITIONS = TransitionRewards(0.0, -2.0, -1.0, 0.0)
PROB_SCALED_TRANSITIONS = TransitionRewards(0.0, 0.0, 0.0, 0.0, prob_scaled=True)


def first_error_index(flags: Sequence[bool]) -> int:
    """1-based index of the first wrong link; L+1 when every link is correct."""
    for i, ok in enumerate(flags):
        if not ok:
            return i + 1
    return len(flags) + 1


def error_indices(flags: Sequence[bool]) -> tuple[int, ...]:
    """1-based indices of all wrong links."""
    return tuple(i + 1 for i, ok in enumerate(flags) if not ok)


def transition_counts(flags: Sequence[bool]) -> dict[str, int]:
    """Counts of TT/TF/FF/FT flag transitions, with a correct virtual step 0."""
    counts = {"tt": 0, "tf": 0, "ff": 0, "ft": 0}
    prev = True
    for ok in flags:
        key = ("t" if prev else "f") + ("t" if ok else "f")
        counts[key] += 1
        prev = ok
    return counts


def _prefactor(outcome: EpisodeOutcome, t: int) -> float:
    n = outcome.length
    if not 1 <= t <= n:
        raise ValueError(f"step t={t} outside 1..{n}")
    return outcome.gamma ** (n - t) / n


def reward_r1(outcome: EpisodeOutcome, t: int) -> float:
    """First-error reward: the earlier the first mistake, the worse."""
    return _prefactor(outcome, t) * (-outcome.length + first_error_index(outcome.flags))


def reward_r2(
    outcome: EpisodeOutcome,
    t: int,
    lam: TransitionRewards = STATIC_TRANSITIONS,
    per_step_prob: Sequence[float] | None = None,
) -> float:
    """Transition reward summed over consecutive correctness pairs.

    ``per_step_prob[i]`` is the predicted probability of the entity chosen
    at step ``i+1``; it is required (and only read at wrong steps) when
    ``lam.prob_scaled`` is set.
    """
    n = outcome.length
    if lam.prob_scaled:
        if per_step_prob is None:
            raise ValueError("prob-scaled transitions need per_step_prob")
        if len(per_step_prob) != n:
            raise ValueError("per_step_prob length must equal the episode length")
    total = 0.0
    prev = True
    for i, ok in enumerate(outcome.flags):
        if lam.prob_scaled:
            total += 0.0 if ok else -n * per_step_prob[i]
        else:
            if prev and ok:
                total += lam.tt
            elif prev and not ok:
                total += lam.tf
            elif not prev and not ok:
                total += lam.ff
            else:
                total += lam.ft
        prev = ok
    return _prefactor(outcome, t) * total


def reward_r3(outcome: EpisodeOutcome, t: int) -> float:
    """Every wrong link costs -1 + (index - L)/L: accuracy first, then order."""
    n = outcome.length
    total = sum(-1.0 + (idx - n) / n for idx in error_indices(outcome.flags))
    return _prefactor(outcome, t) * total


def reward_trace(
    kind: str,
    outcome: EpisodeOutcome,
    lam: TransitionRewards = STATIC_TRANSITIONS,
    per_step_prob: Sequence[float] | None = None,
) -> tuple[float, ...]:
    """R(t) for every step t = 1..L under the named reward family.

    ``kind`` is one of ``r1``, ``r2-1``, ``r2-2``, ``r3``.
    """
    n = outcome.length
    if kind == "r1":
        return tuple(reward_r1(outcome, t) for t in range(1, n + 1))
    if kind == "r2-1":
        return tuple(reward_r2(outcome, t, lam) for t in range(1, n + 1))
    if kind == "r2-2":
        return tuple(
            reward_r2(outcome, t, PROB_SCALED_TRANSITIONS, per_step_prob)
            for t in range(1, n + 1)
        )
    if kind == "r3":
        return tuple(reward_r3(outcome, t) for t in range(1, n + 1))
    raise ValueError(f"unknown reward kind {kind!r}")
