import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynel import autodiff as ad
from dynel.autodiff import Tensor
from dynel.policy import (
    ActionWindow,
    NonFiniteWindow,
    PolicyParams,
    action_representation,
    advance,
    episode_log_probs,
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


def history_from(pairs, params) -> Tensor:
    """The history rows: the init pair, then ``pairs``."""
    return Tensor(np.vstack([params.init_pair.data, *pairs]))


def select_one(history: Tensor, window: ActionWindow, actions: Tensor, params, **kwargs):
    """``select_action`` on a batch of one line: its position and distribution."""
    (pos,), (probs,) = select_action(Tensor(history.data[None]), [window], actions, params,
                                     **kwargs)
    return pos, probs


def action_stack(reps) -> Tensor:
    """The ``(mentions, 2d)`` action stack with row ``p`` set to ``reps[p]``
    and every other row NaN, so a read outside the window shows."""
    width = next(iter(reps.values())).shape[0]
    rows = np.full((max(reps) + 1, width), np.nan)
    for p, rep in reps.items():
        rows[p] = rep.data
    return Tensor(rows)


class TestActionRepresentation:
    """One summary per line of a candidate stack, as ``encode_document``
    builds them for a whole document."""

    def test_single_candidate_concatenates(self):
        d = action_representation(Tensor([[1.0, 2.0]]), Tensor([[[5.0, 6.0]]]),
                                  Tensor([[1.0]]))
        assert np.array_equal(d.data, [[1.0, 2.0, 5.0, 6.0]])

    def test_opposite_entities_cancel(self):
        cands = Tensor([[[1.0, -2.0], [-1.0, 2.0]]])
        d = action_representation(Tensor([[0.5, 0.5]]), cands, Tensor([[0.5, 0.5]]))
        assert np.allclose(d.data[0, 2:], 0.0)

    def test_normalised_weights_keep_mention_half(self, rng):
        psi = ad.row_softmax(Tensor(rng.normal(size=(2, 3))))
        mention = rng.normal(size=(2, 4))
        d = action_representation(Tensor(mention), Tensor(rng.normal(size=(2, 3, 4))), psi)
        assert np.allclose(d.data[:, :4], mention, atol=1e-12)

    def test_refuses_weights_of_another_shape(self, rng):
        with pytest.raises(ad.ShapeError):
            action_representation(Tensor(rng.normal(size=(2, 4))),
                                  Tensor(rng.normal(size=(2, 3, 4))), Tensor(np.ones((2, 2))))


def relevance(history, actions, params):
    """Each history element's best match against the actions, as ``select_action``
    computes it."""
    line = params.history_match.match(ad.stack([ad.stack(actions)]), history)
    return ad.reshape(line, (history.shape[0],))


class TestStateRelevance:
    def test_single_action_is_plain_bilinear(self, rng):
        dim = 3
        params = make_params(dim, rng=rng)
        s = rng.normal(size=(2, 2 * dim))
        a = Tensor(rng.normal(size=2 * dim))
        c = relevance(history_from(s[1:], params), [a], params).data
        manual = [
            float(np.sum(a.data * params.history_match.diag.data * params.init_pair.data)),
            float(np.sum(a.data * params.history_match.diag.data * s[1])),
        ]
        assert np.allclose(c, manual, atol=1e-12)

    def test_zero_matrix_zeroes_relevance(self, rng):
        params = make_params(2)
        params.history_match.diag.data[...] = 0.0
        c = relevance(
            history_from(rng.normal(size=(2, 4)), params),
            [Tensor(rng.normal(size=4)) for _ in range(2)],
            params,
        ).data
        assert np.allclose(c, 0.0)

    def test_matches_bruteforce_table(self, rng):
        dim = 3
        params = make_params(dim, rng=rng)
        hist = rng.normal(size=(3, 2 * dim))
        actions = [Tensor(rng.normal(size=2 * dim)) for _ in range(2)]
        got = relevance(Tensor(hist), actions, params).data
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
        pos, probs = select_one(history_from([], params), window, action_stack(reps), params)
        assert pos == 4
        assert probs.tolist() == [1.0]

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_a_window_whose_logits_are_all_minus_inf_is_refused(self, mode):
        # every action's logit overflows to -inf and none to NaN: no action
        # has a probability, so the window is refused rather than given zeros
        params = make_params(2)
        params.action_scorer.diag.data[...] = np.inf
        with np.errstate(all="ignore"), pytest.raises(NonFiniteWindow):
            select_action(Tensor(np.ones((1, 2, 4))), [ActionWindow(3, (0, 1, 2))],
                          Tensor(-np.ones((3, 4))), params, mode, np.random.default_rng(0))

    def test_identical_reps_split_evenly(self, rng):
        dim = 2
        params = make_params(dim, rng=rng)
        rep = rng.normal(size=2 * dim)
        window = ActionWindow(2, (0, 1))
        reps = {0: Tensor(rep.copy()), 1: Tensor(rep.copy())}
        _, probs = select_one(history_from([], params), window, action_stack(reps), params)
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
        acts = tuple(range(n_actions))
        reps = {a: Tensor(rng.normal(size=2 * dim)) for a in acts}

        _, probs = select_one(history_from(hist, params), ActionWindow(n_actions, acts),
                                 action_stack(reps), params)
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
        acts = (0, 1)
        reps = {a: Tensor(rng.normal(size=2 * dim)) for a in acts}
        _, probs = select_one(history_from(hist, params), ActionWindow(2, acts),
                                 action_stack(reps), params)
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
            select_one(history_from([], params), ActionWindow(2, ()),
                          Tensor(np.zeros((1, 4))), params)

    def test_distribution_sums_to_one(self, rng):
        params = make_params(3, rng=rng)
        acts = (0, 1, 2)
        reps = {a: Tensor(rng.normal(size=6)) for a in acts}
        _, probs = select_one(history_from([], params), ActionWindow(3, acts),
                                 action_stack(reps), params)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("unresolved", [(0, 1, 2, 3, 4, 5), (2, 3, 5), (5,)],
                             ids=["first", "gapped", "last"])
    def test_reads_no_action_row_outside_its_window(self, rng, unresolved):
        # every row but the window's is NaN: one read outside it poisons
        # the distribution
        dim, n = 3, 6
        params = make_params(dim, top_k=2, rng=rng)
        window = ActionWindow(2, unresolved)
        acts = window.actions()
        rows = np.full((n, 2 * dim), np.nan)
        rows[list(acts)] = rng.normal(size=(len(acts), 2 * dim))
        hist = history_from(rng.normal(size=(3, 2 * dim)), params)
        _, probs = select_one(hist, window, Tensor(rows), params)
        assert probs.shape == (len(acts),) and np.isfinite(probs).all()
        expected = oracles.policy_distribution(hist.data, rows[list(acts)],
                                               params.history_match.diag.data,
                                               params.action_scorer.diag.data, 2)
        assert np.allclose(probs, expected, atol=1e-12)


    @pytest.mark.parametrize("seed", range(10))
    def test_a_batch_scores_each_line_as_alone(self, seed):
        # lines of windows 1-4 wide over one action stack, each its own history
        rng = np.random.default_rng(seed)
        dim, n = 4, 9
        params = make_params(dim, top_k=int(rng.integers(1, 5)), rng=rng)
        actions = Tensor(rng.normal(size=(n, 2 * dim)))
        sizes = (2, 1, 4, 3, 2, 4, 3)
        histories = rng.normal(size=(len(sizes), int(rng.integers(1, 8)), 2 * dim))
        histories[:, 0] = params.init_pair.data
        windows = [ActionWindow(size, tuple(sorted(rng.choice(n, size=size + 1, replace=False))))
                   for size in sizes]
        positions, probs = select_action(Tensor(histories), windows, actions, params)
        for line, window in enumerate(windows):
            pos, alone = select_one(Tensor(histories[line]), window, actions, params)
            assert positions[line] == pos and pos in window.actions()
            assert probs[line].tobytes() == alone.tobytes()
            want = oracles.policy_distribution(histories[line], actions.data[list(window.actions())],
                                               params.history_match.diag.data,
                                               params.action_scorer.diag.data, params.top_k)
            assert np.abs(probs[line] - want).max() <= 1e-12


class TestEpisodeLogProbs:
    # three mentions, window 2: step 0 picks 1 from (0, 1), step 1 picks 0
    # from (0, 2), step 2 is left with (2,)
    WINDOWS, ORDER = [(0, 1), (0, 2), (2,)], (1, 0, 2)

    def test_each_step_is_the_log_of_the_oracle_distribution(self, rng):
        dim = 3
        params = make_params(dim, top_k=2, rng=rng)
        reps, pairs = rng.normal(size=(3, 2 * dim)), rng.normal(size=(3, 2 * dim))
        got = episode_log_probs(self.WINDOWS, self.ORDER, Tensor(reps), Tensor(pairs), params)
        for t, (acts, pos) in enumerate(zip(self.WINDOWS, self.ORDER)):
            history = np.vstack([params.init_pair.data[None], pairs[list(self.ORDER[:t])]])
            want = oracles.policy_distribution(
                history, reps[list(acts)], params.history_match.diag.data,
                params.action_scorer.diag.data, params.top_k)
            assert abs(got.data[t] - np.log(want[acts.index(pos)])) <= 1e-12
        assert got.data[2] == 0.0   # a single action has log-probability 0

    def test_gradient_matches_fd(self, rng):
        dim = 3
        params = make_params(dim, top_k=2, rng=rng)
        reps, pairs = rng.normal(size=(3, 2 * dim)), rng.normal(size=(3, 2 * dim))
        mix = Tensor(rng.normal(size=3))

        def build():
            log_probs = episode_log_probs(self.WINDOWS, self.ORDER, Tensor(reps),
                                          Tensor(pairs), params)
            return ad.tsum(log_probs * mix)

        grads = ad.backward(build())
        for name, t in params.parameters().items():
            fd = oracles.fd_gradient(lambda: float(build().data), t.data)
            for i, g in fd.items():
                assert oracles.rel_err(grads[t].ravel()[i], g) <= 1e-4, name


class TestAdvanceAndWindow:
    def test_refill_rule(self):
        window = ActionWindow(3, (1, 2, 3, 4))
        assert window.actions() == (1, 2, 3)
        window = advance(window, 2)
        assert window == ActionWindow(3, (1, 3, 4))
        assert window.actions() == (1, 3, 4)

    def test_window_larger_than_doc_degenerates(self):
        window = ActionWindow(10, (0, 1, 2))
        assert window.actions() == (0, 1, 2)

    def test_action_outside_window_rejected(self):
        window = ActionWindow(2, (0, 1, 2))
        with pytest.raises(ValueError, match=r"action 2 is not in the current window \(0, 1\)"):
            advance(window, 2)

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
