"""Reward functions against hand arithmetic, the reference worked-example
triple, and exhaustive flag-pattern properties."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynel.rewards import (
    REWARD_KINDS,
    EpisodeOutcome,
    TransitionRewards,
    error_indices,
    first_error_index,
    reward_r1,
    reward_r2,
    reward_r2_prob,
    reward_r3,
    reward_trace,
    transition_counts,
)

import oracles

# reconstructed flag patterns of the reference worked-example sequences
S1 = (False, True, False, True, True, True, True)
S2 = (True, True, True, False, False, False, True)
S3 = (True, False, False, True, True, True, True)


def base(fn, flags, **kw):
    """Undiscounted per-episode value: R(L) * L (gamma^0 = 1)."""
    out = EpisodeOutcome(flags, gamma=0.9)
    return fn(out, out.length, **kw) * out.length


class TestR1:
    def test_reference_values(self):
        assert base(reward_r1, S1) == pytest.approx(-6, abs=1e-12)
        assert base(reward_r1, S2) == pytest.approx(-3, abs=1e-12)
        assert base(reward_r1, S3) == pytest.approx(-5, abs=1e-12)

    def test_all_correct_is_maximal(self):
        flags = (True,) * 5
        out = EpisodeOutcome(flags)
        assert reward_r1(out, 5) == pytest.approx((-5 + 6) / 5)
        for bits in itertools.product((True, False), repeat=5):
            if not all(bits):
                assert reward_r1(EpisodeOutcome(bits), 5) < reward_r1(out, 5)

    def test_first_mention_wrong_is_minimal(self):
        n = 6
        worst = reward_r1(EpisodeOutcome((False,) + (True,) * (n - 1)), n)
        assert worst == pytest.approx((-n + 1) / n)
        for bits in itertools.product((True, False), repeat=n):
            assert reward_r1(EpisodeOutcome(bits), n) >= worst - 1e-12

    def test_reference_ordering(self):
        r = {k: base(reward_r1, f) for k, f in {"s1": S1, "s2": S2, "s3": S3}.items()}
        assert r["s2"] > r["s3"] > r["s1"]


class TestR2:
    def test_reference_decomposition(self):
        counts = transition_counts(S2)
        assert (counts["tt"], counts["tf"], counts["ff"], counts["ft"]) == (3, 1, 2, 1)
        lam = TransitionRewards()
        expected = 3 * lam.tt + 1 * lam.tf + 2 * lam.ff + 1 * lam.ft
        assert base(reward_r2, S2, lam=lam) == pytest.approx(expected)
        assert expected == -4

    def test_all_correct_zero_under_both_builtin_sets(self):
        flags = (True,) * 6
        assert base(reward_r2, flags, lam=TransitionRewards()) == 0.0
        assert base(reward_r2_prob, flags, per_step_prob=[0.5] * 6) == 0.0

    def test_alternating_hand_enumeration(self):
        # T->1,1->0,0->1,1->0 = TT, TF, FT, TF
        flags = (True, False, True, False)
        assert base(reward_r2, flags, lam=TransitionRewards()) == pytest.approx(-4.0)

    def test_prob_scaled_requires_probs(self):
        out = EpisodeOutcome((True, False))
        with pytest.raises(ValueError):
            reward_trace("r2-2", out)
        with pytest.raises(ValueError):
            reward_r2_prob(out, 2, [0.5])

    def test_prob_scaled_charges_failing_steps(self):
        flags = (True, False, False)
        probs = [0.9, 0.6, 0.2]
        got = base(reward_r2_prob, flags, per_step_prob=probs)
        assert got == pytest.approx(-3 * (0.6 + 0.2))

    def test_nonzero_ft_is_honoured(self):
        # the built-in sets zero this transition; a custom one must count it
        lam = TransitionRewards(0.0, -2.0, -1.0, 5.0)
        flags = (False, True)
        assert base(reward_r2, flags, lam=lam) == pytest.approx(-2.0 + 5.0)


class TestR3:
    def test_reference_values(self):
        assert base(reward_r3, S1) == pytest.approx(-24 / 7, abs=1e-12)
        assert base(reward_r3, S2) == pytest.approx(-27 / 7, abs=1e-12)
        assert base(reward_r3, S3) == pytest.approx(-23 / 7, abs=1e-12)

    def test_no_errors_is_zero_maximum(self):
        assert reward_r3(EpisodeOutcome((True,) * 4), 4) == 0.0
        for bits in itertools.product((True, False), repeat=4):
            assert reward_r3(EpisodeOutcome(bits), 4) <= 0.0

    def test_reference_ordering(self):
        r = {k: base(reward_r3, f) for k, f in {"s1": S1, "s2": S2, "s3": S3}.items()}
        assert r["s3"] > r["s1"] > r["s2"]

    def test_single_error_later_is_better(self):
        for n in range(2, 9):
            vals = []
            for pos in range(n):
                flags = tuple(i != pos for i in range(n))
                vals.append(reward_r3(EpisodeOutcome(flags), n))
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_fewer_errors_beats_best_of_more_errors(self):
        # max over k-error patterns < max over (k-1)-error patterns, all L <= 8
        for n in range(1, 9):
            by_count = {}
            for bits in itertools.product((True, False), repeat=n):
                k = sum(not b for b in bits)
                by_count.setdefault(k, []).append(reward_r3(EpisodeOutcome(bits), n))
            for k in range(1, n + 1):
                assert max(by_count[k]) < max(by_count[k - 1])


@given(
    st.lists(st.booleans(), min_size=1, max_size=10),
    st.floats(0.1, 1.0),
    st.integers(1, 10),
)
@settings(max_examples=150, deadline=None)
def test_gamma_discounting_property(flags, gamma, t_raw):
    out = EpisodeOutcome(tuple(flags), gamma=gamma)
    n = out.length
    t = 1 + (t_raw - 1) % n
    probs = [0.5] * n
    for fn, kw in [
        (reward_r1, {}),
        (reward_r2, {"lam": TransitionRewards()}),
        (reward_r2_prob, {"per_step_prob": probs}),
        (reward_r3, {}),
    ]:
        full = fn(out, n, **kw)
        assert fn(out, t, **kw) == pytest.approx(gamma ** (n - t) * full, rel=1e-12)


def test_all_correct_maximises_every_reward():
    n = 6
    best = EpisodeOutcome((True,) * n)
    probs = [0.5] * n
    for bits in itertools.product((True, False), repeat=n):
        out = EpisodeOutcome(bits)
        assert reward_r1(out, n) <= reward_r1(best, n)
        assert reward_r2(out, n, TransitionRewards()) <= reward_r2(best, n, TransitionRewards())
        assert reward_r2_prob(out, n, probs) <= reward_r2_prob(best, n, probs)
        assert reward_r3(out, n) <= reward_r3(best, n)


def test_reward_trace_matches_pointwise():
    out = EpisodeOutcome(S2)
    lam = TransitionRewards(0.5, -2.0, -1.0, 0.25)
    probs = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3)
    pointwise = {"r1": lambda t: reward_r1(out, t),
                 "r2-1": lambda t: reward_r2(out, t, lam),
                 "r2-2": lambda t: reward_r2_prob(out, t, probs),
                 "r3": lambda t: reward_r3(out, t)}
    assert set(pointwise) == set(REWARD_KINDS)
    for kind, reward in pointwise.items():
        trace = reward_trace(kind, out, lam, probs)
        assert trace == tuple(reward(t) for t in range(1, 8)), kind
    with pytest.raises(ValueError):
        reward_trace("r9", out)


class TestFlagReconstruction:
    def test_solver_finds_consistent_patterns(self):
        sols = oracles.solve_flag_reconstruction()
        assert S1 in sols["s1"]
        assert S2 in sols["s2"]
        assert S3 in sols["s3"]

    def test_error_sets_are_pinned_uniquely(self):
        sols = oracles.solve_flag_reconstruction()
        assert {oracles.base_r1(f) for f in sols["s1"]} == {Fraction(-6)}
        assert [error_indices(f) for f in sols["s1"]] == [(1, 3)]
        assert [error_indices(f) for f in sols["s2"]] == [(4, 5, 6)]
        assert [error_indices(f) for f in sols["s3"]] == [(2, 3)]


def test_first_error_index_cases():
    assert first_error_index((True, True)) == 3
    assert first_error_index((False,)) == 1
    assert first_error_index(S2) == 4
