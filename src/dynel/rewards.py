"""Delayed episode rewards computed from per-step correctness flags.

All reward families share the ``gamma**(L-t) / L`` prefactor and
differ in how they score the flag pattern:

* ``reward_r1`` looks only at the position of the first wrong link.
* ``reward_r2`` sums transition rewards over consecutive flag pairs,
  with the step before the episode counted as correct.
* ``reward_r2_prob`` charges each wrong link ``-L`` times the model's
  probability for the wrongly chosen entity.
* ``reward_r3`` penalises every wrong link, less so the later it occurs.

Indices are 1-based throughout; the reference worked example in the
test suite pins the resulting values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "REWARD_KINDS",
    "EpisodeOutcome",
    "TransitionRewards",
    "first_error_index",
    "error_indices",
    "transition_counts",
    "reward_r1",
    "reward_r2",
    "reward_r2_prob",
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
    """Rewards indexed by the (previous, current) correctness pair."""

    tt: float = 0.0
    tf: float = -2.0
    ff: float = -1.0
    ft: float = 0.0

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "TransitionRewards":
        """The four rewards in (tt, tf, ff, ft) order; any other count is refused."""
        if len(values) != 4:
            raise ValueError(f"transition needs 4 values (tt, tf, ff, ft), got {len(values)}")
        return cls(*values)


def first_error_index(flags: Sequence[bool]) -> int:
    """1-based index of the first wrong link; L+1 when every link is correct."""
    for i, ok in enumerate(flags):
        if not ok:
            return i + 1
    return len(flags) + 1


def error_indices(flags: Sequence[bool]) -> tuple[int, ...]:
    """1-based indices of all wrong links."""
    return tuple(i + 1 for i, ok in enumerate(flags) if not ok)


def _transitions(flags: Sequence[bool]) -> Iterator[str]:
    """The (previous, current) correctness key of each step, ``tt``, ``tf``,
    ``ff`` or ``ft``, with a correct virtual step 0."""
    prev = True
    for ok in flags:
        yield ("t" if prev else "f") + ("t" if ok else "f")
        prev = ok


def transition_counts(flags: Sequence[bool]) -> dict[str, int]:
    """Counts of TT/TF/FF/FT flag transitions, with a correct virtual step 0."""
    counts = {"tt": 0, "tf": 0, "ff": 0, "ft": 0}
    for key in _transitions(flags):
        counts[key] += 1
    return counts


def _prefactor(outcome: EpisodeOutcome, t: int) -> float:
    n = outcome.length
    if not 1 <= t <= n:
        raise ValueError(f"step t={t} outside 1..{n}")
    return outcome.gamma ** (n - t) / n


def _base(kind: str, outcome: EpisodeOutcome, lam: TransitionRewards | None,
          per_step_prob: Sequence[float] | None) -> float:
    """The named family's R(t) without its prefactor: the same for every t."""
    n = outcome.length
    if kind == "r1":
        return -n + first_error_index(outcome.flags)
    if kind == "r2-1":
        total = 0.0
        for key in _transitions(outcome.flags):
            total += getattr(lam, key)
        return total
    if kind == "r2-2":
        if per_step_prob is None:
            raise ValueError("r2-2 needs per_step_prob")
        if len(per_step_prob) != n:
            raise ValueError("per_step_prob length must equal the episode length")
        total = 0.0
        for i, ok in enumerate(outcome.flags):
            total += 0.0 if ok else -n * per_step_prob[i]
        return total
    if kind == "r3":
        return sum(-1.0 + (idx - n) / n for idx in error_indices(outcome.flags))
    raise ValueError(f"unknown reward kind {kind!r}")


def reward_r1(outcome: EpisodeOutcome, t: int) -> float:
    """First-error reward: the earlier the first mistake, the worse."""
    return _prefactor(outcome, t) * _base("r1", outcome, None, None)


def reward_r2(
    outcome: EpisodeOutcome,
    t: int,
    lam: TransitionRewards = TransitionRewards(),
) -> float:
    """Transition reward summed over consecutive correctness pairs."""
    return _prefactor(outcome, t) * _base("r2-1", outcome, lam, None)


def reward_r2_prob(outcome: EpisodeOutcome, t: int, per_step_prob: Sequence[float]) -> float:
    """Probability-scaled transition reward (r2-2): each wrong link costs
    ``-L * per_step_prob[i]``, the model's probability for the entity it
    wrongly chose at step ``i+1``; correct links cost nothing."""
    return _prefactor(outcome, t) * _base("r2-2", outcome, None, per_step_prob)


def reward_r3(outcome: EpisodeOutcome, t: int) -> float:
    """Every wrong link costs -1 + (index - L)/L: accuracy first, then order."""
    return _prefactor(outcome, t) * _base("r3", outcome, None, None)


def reward_trace(
    kind: str,
    outcome: EpisodeOutcome,
    lam: TransitionRewards = TransitionRewards(),
    per_step_prob: Sequence[float] | None = None,
) -> tuple[float, ...]:
    """R(t) for every step t = 1..L under the named reward family.

    ``kind`` is one of ``r1``, ``r2-1``, ``r2-2``, ``r3``; ``r2-2`` needs
    ``per_step_prob``.  The family's base is computed once, then scaled by
    each step's prefactor.
    """
    base = _base(kind, outcome, lam, per_step_prob)
    return tuple(_prefactor(outcome, t) * base for t in range(1, outcome.length + 1))
