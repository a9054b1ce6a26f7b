import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynel import autodiff as ad
from dynel.autodiff import Tensor
from dynel.policy import (
    ActionWindow,
    LinkingState,
    PolicyParams,
    action_representation,
    advance,
    select_action,
)

import oracles


def make_params(dim: int, top_k: int = 7, rng=None) -> PolicyParams:
    p = PolicyParams.build(dim, top_k=top_k)
    if rng is not None:
        p.history_match.diag.data[...] = rng.normal(size=2 * dim)
        p.action_scorer.diag.data[...] = rng.normal(size=2 * dim)
        p.init_pair.data[...] = rng.normal(size=2 * dim)
    return p


def state_from(pairs, params) -> LinkingState:
    return LinkingState((params.init_pair, *(Tensor(p) for p in pairs)))


class TestActionRepresentation:
    def test_single_candidate_concatenates(self):
        d = action_representation(Tensor([1.0, 2.0]), Tensor([[5.0, 6.0]]), Tensor([1.0]))
        assert np.allclose(d.data, [1.0, 2.0, 5.0, 6.0])

    def test_opposite_entities_cancel(self):
        cands = Tensor([[1.0, -2.0], [-1.0, 2.0]])
        d = action_representation(Tensor([0.5, 0.5]), cands, Tensor([0.5, 0.5]))
        assert np.allclose(d.data[2:], 0.0)

    def test_normalised_weights_keep_mention_half(self, rng):
        psi = ad.softmax(Tensor(rng.normal(size=3)))
        mention = rng.normal(size=4)
        d = action_representation(Tensor(mention), Tensor(rng.normal(size=(3, 4))), psi)
        assert np.allclose(d.data[:4], mention, atol=1e-12)


def relevance(state, actions, params):
    """Each history element's best match against the actions, as ``select_action``
    computes it."""
    return params.history_match.match(ad.stack(actions), state.stacked())


class TestStateRelevance:
    def test_single_action_is_plain_bilinear(self, rng):
        dim = 3
        params = make_params(dim, rng=rng)
        s = rng.normal(size=(2, 2 * dim))
        a = Tensor(rng.normal(size=2 * dim))
        c = relevance(state_from(s[1:], params), [a], params).data
        manual = [
            float(np.sum(a.data * params.history_match.diag.data * params.init_pair.data)),
            float(np.sum(a.data * params.history_match.diag.data * s[1])),
        ]
        assert np.allclose(c, manual, atol=1e-12)

    def test_zero_matrix_zeroes_relevance(self, rng):
        params = make_params(2)
        params.history_match.diag.data[...] = 0.0
        c = relevance(
            state_from(rng.normal(size=(2, 4)), params),
            [Tensor(rng.normal(size=4)) for _ in range(2)],
            params,
        ).data
        assert np.allclose(c, 0.0)

    def test_matches_bruteforce_table(self, rng):
        dim = 3
        params = make_params(dim, rng=rng)
        hist = rng.normal(size=(3, 2 * dim))
        actions = [Tensor(rng.normal(size=2 * dim)) for _ in range(2)]
        state = LinkingState(tuple(Tensor(h) for h in hist))
        got = relevance(state, actions, params).data
        table = np.array(
            [
                [float(np.sum(a.data * params.history_match.diag.data * s)) for s in hist]
                for a in actions
            ]
        )
        assert np.allclose(got, table.max(axis=0), atol=1e-12)


class TestSelectAction:
    def test_single_action_probability_one(self, rng):
        dim = 2
        params = make_params(dim, rng=rng)
        window = ActionWindow(3, (4,))
        reps = {4: Tensor(rng.normal(size=2 * dim))}
        pos, logp, probs = select_action(
            LinkingState.initial(params), window, reps, params
        )
        assert pos == 4
        assert probs.tolist() == [1.0]
        assert logp.item() == 0.0

    def test_identical_reps_split_evenly(self, rng):
        dim = 2
        params = make_params(dim, rng=rng)
        rep = rng.normal(size=2 * dim)
        window = ActionWindow(2, (0, 1))
        reps = {0: Tensor(rep.copy()), 1: Tensor(rep.copy())}
        _, _, probs = select_action(LinkingState.initial(params), window, reps, params)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_straightline_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        hist_len = int(rng.integers(1, 5))
        n_actions = int(rng.integers(1, 4))
        top_k = int(rng.integers(1, 5))
        params = make_params(dim, top_k=top_k, rng=rng)
        hist = rng.normal(size=(hist_len, 2 * dim))
        state = state_from(hist, params)
        acts = tuple(range(n_actions))
        reps = {a: Tensor(rng.normal(size=2 * dim)) for a in acts}

        _, _, probs = select_action(state, ActionWindow(n_actions, acts), reps, params)
        expected = oracles.policy_distribution(
            np.vstack([params.init_pair.data[None], hist]),
            np.stack([reps[a].data for a in acts]),
            params.history_match.diag.data,
            params.action_scorer.diag.data,
            top_k,
        )
        assert np.allclose(probs, expected, atol=1e-10)

    def test_topk_uses_full_history_when_short(self, rng):
        dim = 2
        params = make_params(dim, top_k=7, rng=rng)
        hist = rng.normal(size=(3, 2 * dim))  # K=7, t=3 -> 4 evidence elements
        state = state_from(hist, params)
        acts = (0, 1)
        reps = {a: Tensor(rng.normal(size=2 * dim)) for a in acts}
        _, _, probs = select_action(state, ActionWindow(2, acts), reps, params)
        full = oracles.policy_distribution(
            np.vstack([params.init_pair.data[None], hist]),
            np.stack([reps[a].data for a in acts]),
            params.history_match.diag.data,
            params.action_scorer.diag.data,
            top_k=99,
        )
        assert np.allclose(probs, full, atol=1e-12)

    def test_empty_window_rejected(self, rng):
        params = make_params(2)
        with pytest.raises(ValueError, match="empty action window"):
            select_action(LinkingState.initial(params), ActionWindow(2, ()), {}, params)

    def test_distribution_sums_to_one(self, rng):
        params = make_params(3, rng=rng)
        acts = (0, 1, 2)
        reps = {a: Tensor(rng.normal(size=6)) for a in acts}
        _, _, probs = select_action(LinkingState.initial(params),
                                    ActionWindow(3, acts), reps, params)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_log_prob_gradient_matches_fd(self, rng):
        dim = 3
        params = make_params(dim, rng=rng)
        hist = rng.normal(size=(2, 2 * dim))
        acts = (0, 1, 2)
        reps_arr = rng.normal(size=(3, 2 * dim))

        def build():
            state = state_from(hist, params)
            reps = {a: Tensor(reps_arr[a]) for a in acts}
            _, logp, _ = select_action(state, ActionWindow(3, acts), reps, params,
                                       mode="greedy")
            return logp

        logp = build()
        named = params.parameters()
        ad.zero_grad(named.values())
        ad.backward(logp)
        for name, t in named.items():
            fd = oracles.fd_gradient(lambda: float(build().data), t.data)
            for i, g in fd.items():
                assert oracles.rel_err(t.grad.ravel()[i], g) <= 1e-4, name


class TestAdvanceAndWindow:
    def test_refill_rule(self, rng):
        params = make_params(2)
        window = ActionWindow(3, (1, 2, 3, 4))
        state = LinkingState.initial(params)
        assert window.actions() == (1, 2, 3)
        pair = Tensor(np.zeros(4))
        state, window = advance(state, window, 2, pair)
        assert window.actions() == (1, 3, 4)
        assert state.pairs == (params.init_pair, pair)

    def test_window_larger_than_doc_degenerates(self):
        window = ActionWindow(10, (0, 1, 2))
        assert window.actions() == (0, 1, 2)

    def test_action_outside_window_rejected(self):
        params = make_params(2)
        window = ActionWindow(2, (0, 1, 2))
        with pytest.raises(ValueError, match="not in the current window"):
            advance(LinkingState.initial(params), window, 2, Tensor(np.zeros(4)))

    @given(
        st.integers(2, 8),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_discipline_over_random_policies(self, n_mentions, w, seed):
        rng = np.random.default_rng(seed)
        window = ActionWindow(w, tuple(range(n_mentions)))
        chosen = []
        while window.unresolved:
            acts = window.actions()
            earliest = sorted(window.unresolved)[: min(w, len(window.unresolved))]
            assert list(acts) == earliest
            pick = acts[int(rng.integers(len(acts)))]
            chosen.append(pick)
            window = ActionWindow(w, tuple(p for p in window.unresolved if p != pick))
        assert sorted(chosen) == list(range(n_mentions))


def test_enumeration_counts_match_recursive_oracle():
    for n in range(1, 7):
        for w in range(1, 5):
            seqs = oracles.enumerate_orderings(list(range(n)), w)
            assert len(seqs) == oracles.count_orderings(n, w)
            assert len(set(seqs)) == len(seqs)
    assert len(oracles.enumerate_orderings([0, 1, 2], 1)) == 1
    assert len(oracles.enumerate_orderings([0, 1, 2], 3)) == 6
