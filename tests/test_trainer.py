import hashlib
import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynel import autodiff as ad
from dynel import trainer
from dynel.autodiff import Tensor
from dynel.corpus import CandidateEntity, EmbeddingStore
from dynel.harness import ordering_for
from dynel.local_transformer import TransformerConfig
from dynel.model import build_model, encode_document, load_checkpoint, save_checkpoint
from dynel.policy import ActionWindow, advance, select_action
from dynel.selector import Linked, candidate_distribution
from dynel.synthetic import SyntheticSpec, generate_synthetic
from dynel.trainer import (
    Adam,
    Episode,
    TrainConfig,
    evaluate,
    link_documents,
    policy_objective,
    rollout,
    train,
)

import oracles
from conftest import candidate_lookups, document_candidates, linked_lines, selector_oracle


def anchored_world(num_docs=8, mentions=6, candidates=4, seed=21):
    spec = SyntheticSpec(num_docs=num_docs, mentions_per_doc=mentions,
                         candidates_per_mention=candidates, embedding_dim=28,
                         anchor_fraction=0.5, noise_scale=0.05, seed=seed)
    return generate_synthetic(spec)


def unambiguous_world(num_docs=6, seed=3):
    spec = SyntheticSpec(num_docs=num_docs, mentions_per_doc=5,
                         candidates_per_mention=4, embedding_dim=24,
                         anchor_fraction=0.0, noise_scale=0.05, seed=seed)
    return generate_synthetic(spec)


def oracle_selector_config(**kw):
    """Fixed analytic selector: raw feature sum, no learned fusion."""
    base = dict(fusion="sum", feature_norm=False, epochs=1)
    base.update(kw)
    return TrainConfig(**base)


def build(store, cfg, seed=0):
    return build_model(store, np.random.default_rng(seed),
                       features=cfg.features, feature_norm=cfg.feature_norm,
                       fusion=cfg.fusion, fusion_hidden=cfg.fusion_hidden)


class TestRolloutBasics:
    def test_w1_equals_offset_trace(self):
        docs, store = anchored_world()
        cfg = oracle_selector_config(window=1)
        params = build(store, cfg)
        for doc in docs:
            with ad.no_grad():
                dyn = rollout(doc, store, params, cfg, mode="eval")
                off = rollout(doc, store, params, cfg, mode="eval",
                              order=[m.position for m in doc.mentions])
            assert dyn.order == off.order
            assert dyn.predicted == off.predicted
            assert dyn.predicted_prob == off.predicted_prob
            assert dyn.flags == off.flags

    def test_unambiguous_corpus_all_correct_r3_zero(self):
        docs, store = unambiguous_world()
        cfg = oracle_selector_config(reward="r3")
        params = build(store, cfg)
        with ad.no_grad():
            ep = rollout(docs[0], store, params, cfg, mode="eval")
        assert all(ep.flags)
        assert ep.rewards == (0.0,) * len(ep.flags)

    def test_episode_order_is_permutation(self):
        docs, store = anchored_world()
        cfg = oracle_selector_config(window=3)
        params = build(store, cfg)
        rng = np.random.default_rng(0)
        for doc in docs:
            ep = rollout(doc, store, params, cfg, mode="train", rng=rng)
            assert sorted(ep.order) == [m.position for m in doc.mentions]

    def test_log_probs_only_where_the_policy_scores_a_train_order(self):
        # every train order is scored, sampled or forced; only a sampled or
        # greedy order leaves the policy's window distributions
        docs, store = anchored_world(num_docs=1)
        cfg = oracle_selector_config(window=3)
        params = build(store, cfg)
        doc, n = docs[0], len(docs[0].mentions)
        order = [m.position for m in doc.mentions]
        rng = np.random.default_rng(0)
        with ad.no_grad():
            greedy = rollout(doc, store, params, cfg, mode="eval")
            offset = rollout(doc, store, params, cfg, mode="eval", order=order)
        assert greedy.log_probs is None and offset.log_probs is None
        assert [p.size for p in greedy.window_probs] == [3, 3, 3, 3, 2, 1]
        assert offset.window_probs == ()
        for forced in (None, order):
            ep = rollout(doc, store, params, cfg, mode="train", rng=rng, order=forced)
            assert ep.log_probs.shape == (n,) and ep.log_probs.requires_grad
            sizes = [p.size for p in ep.window_probs]
            assert sizes == ([3, 3, 3, 3, 2, 1] if forced is None else [])

    def test_a_forced_train_order_must_keep_the_window(self):
        docs, store = anchored_world(num_docs=1)
        cfg = oracle_selector_config(window=2)
        params = build(store, cfg)
        doc = docs[0]
        backwards = [m.position for m in reversed(doc.mentions)]
        with pytest.raises(ValueError, match=r"action 5 is not in the current window \(0, 1\)"):
            rollout(doc, store, params, cfg, mode="train", rng=np.random.default_rng(0),
                    order=backwards)

    def test_a_forced_eval_order_outside_the_window_is_linked(self):
        # the size baseline orders by candidate count, whatever the window
        docs, store = anchored_world(num_docs=1)
        doc = _ragged(docs[0])
        cfg = oracle_selector_config(window=2)
        params = build(store, cfg)
        order = ordering_for(doc, "size", store, params, cfg)
        assert order == [3, 1, 5, 2, 0, 4]   # 3 is outside the first window (0, 1)
        with ad.no_grad():
            ep = rollout(doc, store, params, cfg, mode="eval", order=order)
        assert ep.order == tuple(order) and len(ep.predicted) == len(order)
        assert ep.log_probs is None and ep.window_probs == ()

    def test_a_train_rollout_refuses_an_eval_mode_encoding(self):
        # an eval encode builds no teacher-forced pairs for the policy graph
        docs, store = anchored_world(num_docs=1)
        cfg = oracle_selector_config(window=3)
        params = build(store, cfg)
        encoded = encode_document(docs[0], store, params, "eval")
        with pytest.raises(ValueError, match="needs a train-mode encoding"):
            rollout(docs[0], store, params, cfg, mode="train", rng=np.random.default_rng(0),
                    encoded=encoded)

    def test_forced_order_must_be_permutation(self):
        docs, store = anchored_world(num_docs=1)
        cfg = oracle_selector_config()
        params = build(store, cfg)
        with pytest.raises(ValueError, match="permutation"):
            rollout(docs[0], store, params, cfg, mode="eval", order=[0, 0, 1, 2, 3, 4])


class TestOrderingConstruction:
    """The generator's ordering claims, checked with the analytic selector."""

    def setup_method(self):
        self.docs, self.store = anchored_world(num_docs=12, seed=33)
        self.cfg = oracle_selector_config()
        self.params = build(self.store, self.cfg)

    def _forced_f1(self, order_fn):
        total = correct = 0
        with ad.no_grad():
            for doc in self.docs:
                ep = rollout(doc, self.store, self.params, self.cfg, mode="eval",
                             order=order_fn(doc))
                total += len(ep.flags)
                correct += sum(ep.flags)
        return correct / total

    def test_anchors_first_reaches_perfect_f1(self):
        def anchors_first(doc):
            pos = [m.position for m in doc.mentions]
            return [p for p in pos if p % 2 == 1] + [p for p in pos if p % 2 == 0]
        assert self._forced_f1(anchors_first) == 1.0

    def test_offset_order_leaves_anchored_mentions_at_chance(self):
        f1 = self._forced_f1(lambda doc: [m.position for m in doc.mentions])
        # anchors (half) are always solved; anchored mentions break ties blindly
        assert 0.5 <= f1 <= 0.92
        acc_anchored = (f1 * 6 - 3) / 3
        assert acc_anchored < 0.9

    def test_full_gold_history_solves_offset_order(self):
        # conditioning on every other mention's gold entity recovers 100%
        total = correct = 0
        with ad.no_grad():
            for doc in self.docs:
                golds = [m.gold for m in doc.mentions]
                encoded = encode_document(doc, self.store, self.params)
                histories = [tuple(g for j, g in enumerate(golds) if j != i)
                             for i in range(len(golds))]
                probs = candidate_distribution(
                    encoded, range(len(golds)), linked_lines(histories, self.store),
                    self.params.selector
                ).data
                for m, line in zip(doc.mentions, probs):
                    pick = m.candidates[int(np.argmax(line[:len(m.candidates)]))].entity_id
                    correct += pick == m.gold
                    total += 1
        assert correct / total == 1.0


class TestMarginLoss:
    def test_hand_cases(self):
        # separated by more than the margin -> no loss from the other candidate
        probs = ad.reshape(ad.row_softmax(Tensor(np.log([[0.9, 0.1]]))), (2,))
        gold_prob = ad.gather(probs, 0)
        hinge = ad.relu(ad.sub(probs, gold_prob) + 0.2)
        # gold term contributes exactly beta
        assert np.allclose(hinge.data, [0.2, 0.0])

        probs = Tensor(np.array([0.5, 0.5]))
        hinge = ad.relu(ad.sub(probs, ad.gather(probs, 0)) + 0.2)
        assert np.allclose(hinge.data, [0.2, 0.2])

    def test_uniform_distribution_charges_beta_per_candidate(self):
        n, beta = 4, 0.05
        probs = Tensor(np.full(n, 1 / n))
        hinge = ad.relu(ad.sub(probs, ad.gather(probs, 0)) + beta)
        assert np.allclose(hinge.data, beta)

    def test_rollout_margin_zero_when_gold_dominates(self):
        docs, store = unambiguous_world()
        cfg = oracle_selector_config(margin=0.01)
        params = build(store, cfg)
        loss = rollout(docs[0], store, params, cfg, mode="train",
                       rng=np.random.default_rng(cfg.seed)).margin
        # every mention contributes at least the gold term beta
        n_mentions = len(docs[0].mentions)
        assert float(loss.data) == pytest.approx(n_mentions * cfg.margin, abs=1e-9)

    def test_missing_gold_skipped(self):
        docs, store = anchored_world(num_docs=1)
        cfg = oracle_selector_config()
        params = build(store, cfg)
        doc = docs[0]
        broken = doc.mentions[0]
        # gold exists in the store but is absent from this candidate set
        outside = next(e for e in sorted(store.entity_vecs)
                       if e not in broken.candidate_ids)
        object.__setattr__(broken, "gold", outside)
        rng = np.random.default_rng(0)
        ep = rollout(doc, store, params, cfg, mode="train", rng=rng)
        assert ep.margin_terms == len(doc.mentions) - 1
        assert ep.flags[ep.order.index(0)] is False
        # teacher forcing still records the (unreachable) gold
        assert ep.history_entities[ep.order.index(0)] == outside


def _ragged(doc, widths=(4, 2, 3, 1, 4, 2), missing=2):
    """``doc`` with each mention cut to its width in candidates, gold kept,
    except mention ``missing``, whose gold is left out."""
    mentions = []
    for i, (m, width) in enumerate(zip(doc.mentions, widths)):
        gold = [c for c in m.candidates if c.entity_id == m.gold]
        others = [c for c in m.candidates if c.entity_id != m.gold]
        kept = others[:width] if i == missing else (gold + others)[:width][::-1]
        mentions.append(replace(m, candidates=tuple(kept)))
    return replace(doc, mentions=tuple(mentions))


def _episode_config(case):
    return {
        "full": dict(),
        "features": dict(features=("coherence", "neighborhood", "local")),
        "sum-raw": dict(fusion="sum", feature_norm=False),
        "transformer": dict(local_model="transformer", encoder_layers=1,
                            attention_heads=2, head_dim=4, model_dim=28,
                            encoder_ff_dim=8, head_hidden=4),
    }[case]


def _per_step_policy(encoded, store, params, window_size, order=None, rng=None):
    """The policy as one graph per step on the gold history: pool the
    window's actions against the history rows, score, log-softmax.  Forced
    to ``order`` or sampling from ``rng`` as ``select_action`` samples;
    returns the order, each step's log-probability, and each step's
    history rows and window."""
    pol = params.policy
    n = len(encoded.mentions)
    window = ActionWindow(window_size, tuple(range(n)))
    history = [pol.init_pair]
    chosen, log_probs, seen = [], [], []
    for t in range(n):
        acts, rows = window.actions(), ad.stack(history)
        seen.append((rows.data, acts))
        reps = ad.gather(encoded.actions, [list(acts)])
        evidence = pol.history_match.pool(reps, rows, pol.top_k)
        logp = ad.reshape(ad.log_softmax(pol.action_scorer.scores(reps, evidence)),
                          (len(acts),))
        if order is not None:
            idx = acts.index(order[t])
        elif len(acts) == 1:
            idx = 0
        else:
            probs = np.exp(logp.data)
            idx = int(rng.choice(len(acts), p=probs / probs.sum()))
        pos = acts[idx]
        chosen.append(pos)
        log_probs.append(ad.gather(logp, idx))
        context = ad.reshape(ad.gather(encoded.contexts, [pos]), (-1,))
        history.append(ad.concat([context, Tensor(store.entity(encoded.mentions[pos].gold))]))
        window = advance(window, pos)
    return chosen, log_probs, seen


class TestEncodedDocument:
    """The one record a rollout reads: flat candidate arrays, padded slots
    into them, and one row per mention."""

    @pytest.mark.parametrize("case", ["full", "transformer"])
    def test_slots_valid_and_gold_on_a_ragged_document(self, case):
        docs, store = anchored_world(num_docs=1)
        doc = _ragged(docs[0])
        # a distinct type score per (mention, candidate), so a wrong row shows
        store = replace(store, type_vecs={
            (m.id, c.entity_id): np.array([10.0 * i + j])
            for i, m in enumerate(doc.mentions) for j, c in enumerate(m.candidates)})
        cfg = TrainConfig(window=None, epochs=1, fusion_hidden=8, **_episode_config(case))
        params = cfg.build_model(store, np.random.default_rng(3))
        enc = encode_document(doc, store, params, "eval")
        widths = [len(m.candidates) for m in doc.mentions]
        assert sorted(set(widths)) == [1, 2, 3, 4]
        assert enc.slots.shape == enc.valid.shape == (len(widths), 4)
        assert enc.candidates.shape == (sum(widths), store.dim)
        first_row = 0
        for i, (m, width) in enumerate(zip(doc.mentions, widths)):
            rows = enc.slots[i]
            # the real slots are the mention's own rows, in candidate order
            assert rows[:width].tolist() == list(range(first_row, first_row + width))
            assert enc.valid[i].tolist() == [j < width for j in range(4)]
            assert np.array_equal(enc.candidates.data[rows[:width]],
                                  store.entities(m.candidate_ids))
            assert np.array_equal(enc.priors.data[rows[:width]],
                                  np.array([c.prior for c in m.candidates], dtype=float))
            assert enc.types.data[rows[:width]].tolist() == [
                store.type_score(m.id, e) for e in m.candidate_ids]
            # each padded slot repeats the mention's first candidate
            for field in (enc.candidates, enc.priors, enc.types, enc.local):
                for j in range(width, 4):
                    assert np.array_equal(field.data[rows[j]], field.data[rows[0]])
            first_row += width
            if m.gold in m.candidate_ids:
                assert m.candidate_ids[enc.gold[i]] == m.gold
            else:
                assert enc.gold[i] == -1
        assert enc.gold.tolist().count(-1) == 1
        dim = store.dim
        assert enc.contexts.shape == (len(widths), dim)
        assert enc.actions.shape == (len(widths), 2 * dim)
        # only training reads the teacher-forced pairs
        assert enc.pairs is None
        train_enc = encode_document(doc, store, params, "train", np.random.default_rng(4))
        assert train_enc.pairs.shape == (len(widths), 2 * dim)
        assert np.array_equal(train_enc.pairs.data[:, :dim], train_enc.contexts.data)
        assert np.array_equal(train_enc.pairs.data[:, dim:],
                              store.entities([m.gold for m in doc.mentions]))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_transformer_path_looks_up_each_candidate_matrix_once(self, mode, monkeypatch):
        docs, store = anchored_world(num_docs=1)
        doc = _ragged(docs[0])
        cfg = TrainConfig(epochs=1, fusion_hidden=8, **_episode_config("transformer"))
        params = cfg.build_model(store, np.random.default_rng(3))
        counts = candidate_lookups(monkeypatch, [doc])
        encode_document(doc, store, params, mode, np.random.default_rng(4))
        assert counts == Counter([document_candidates(doc)])


class TestEpisodeGraph:
    """A training episode scores all its steps in one selector call and one
    policy graph; each must equal one call per step, each with the golds
    linked before it."""

    def test_a_one_mention_update_gives_linked_coherence_no_gradient(self):
        # nothing is linked before the only step, so the coherence column is
        # a zero with no graph edge, and Adam leaves the parameter as it is
        docs, store = anchored_world(num_docs=1)
        doc = replace(docs[0], mentions=docs[0].mentions[:1])
        cfg = TrainConfig(window=None, epochs=1, fusion_hidden=8, margin=0.9)
        params = cfg.build_model(store, np.random.default_rng(0))
        encoded = encode_document(doc, store, params, "train", np.random.default_rng(1))
        ep = rollout(doc, store, params, cfg, mode="train", rng=np.random.default_rng(2),
                     encoded=encoded)
        grads = ad.backward(ep.margin)
        assert params.selector.fusion.weights[0] in grads
        assert params.selector.linked_coherence.diag not in grads

    @pytest.mark.parametrize("case", ["full", "features", "sum-raw", "transformer"])
    def test_one_call_per_episode_equals_the_steps_composed(self, case):
        docs, store = anchored_world(num_docs=1)
        doc = _ragged(docs[0])
        # neighbours that several golds bring in, each first by one of them
        golds, others = [m.gold for m in doc.mentions], sorted(store.entity_vecs)[-3:]
        store = replace(store, kg_adjacency={
            g: frozenset({others[i % 3], others[(i + 1) % 3]}) for i, g in enumerate(golds)})
        cfg = TrainConfig(window=None, epochs=1, fusion_hidden=8, selector_top_k=2,
                          margin=0.9, **_episode_config(case))
        params = cfg.build_model(store, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for t in params.parameters():   # off the symmetric init
            t.data += 0.1 * rng.normal(size=t.data.shape)
        order = [3, 0, 5, 2, 1, 4]
        encoded = encode_document(doc, store, params, "train", np.random.default_rng(5))
        ep = rollout(doc, store, params, cfg, mode="train", rng=np.random.default_rng(0),
                     order=order, encoded=encoded)
        mentions = [doc.mentions[p] for p in order]
        golds = ep.history_entities
        batched = candidate_distribution(encoded, order,
                                         Linked.prefixes(golds[:-1], store, len(order)),
                                         params.selector)
        # each step alone: a one-step episode that linked the golds before it
        steps = [ad.gather(ad.reshape(candidate_distribution(
                     encoded, [pos], Linked.prefixes(golds[:t], store, 1), params.selector),
                     (-1,)), np.arange(len(m.candidates)))
                 for t, (pos, m) in enumerate(zip(order, mentions))]

        hinges = [ad.tsum(ad.relu(ad.sub(p, ad.gather(p, m.candidate_ids.index(m.gold)))
                                  + cfg.margin))
                  for p, m in zip(steps, mentions) if m.gold in m.candidate_ids]
        composed = hinges[0]
        for term in hinges[1:]:
            composed = ad.add(composed, term)
        assert ep.margin_terms == len(hinges) == 5
        assert abs(float(ep.margin.data) - float(composed.data)) <= 1e-12

        for t, (p, m) in enumerate(zip(steps, mentions)):
            width = len(m.candidates)
            assert np.abs(batched.data[t, :width] - p.data).max() <= 1e-12
            want = selector_oracle(encoded, order[t], golds[:t], store, params.selector)
            assert np.abs(batched.data[t, :width] - want).max() <= 1e-12
            assert not batched.data[t, width:].any()   # padding: exactly 0
            pick = int(np.argmax(p.data))
            assert ep.predicted[t] == m.candidates[pick].entity_id
            assert abs(ep.predicted_prob[t] - p.data[pick]) <= 1e-12
        assert ep.flags[order.index(2)] is False      # gold missing
        assert {len(m.candidates) for m in mentions} == {1, 2, 3, 4}

        mix = rng.normal(size=batched.shape)
        one = ad.add(ep.margin, ad.tsum(batched * Tensor(mix)))
        per_step = composed
        for t, p in enumerate(steps):
            per_step = ad.add(per_step, ad.tsum(p * Tensor(mix[t, :p.shape[0]])))
        g_one, g_steps = ad.backward(one), ad.backward(per_step)
        named = params.named_parameters()
        reached = {name for name, t in named.items() if t in g_steps}
        assert {name for name, t in named.items() if t in g_one} == reached
        assert {"selector.linked_coherence", "selector.neighborhood_coherence"} <= reached
        if case == "transformer":
            assert any(name.startswith("transformer.") for name in reached)
        for name in reached:
            t = named[name]
            assert np.abs(g_one[t] - g_steps[t]).max() <= 1e-12, name

    @pytest.mark.parametrize("window, top_k", [(1, 2), (4, 2), (None, 2), (None, 7)])
    def test_log_probs_equal_the_per_step_policy(self, window, top_k):
        # window 1: every step single-action; 4: ragged last windows; None: L.
        # top_k 2 prunes every history longer than two rows
        docs, store = anchored_world(num_docs=1)
        doc, n = docs[0], len(docs[0].mentions)
        cfg = TrainConfig(window=window, policy_top_k=top_k, epochs=1, fusion_hidden=8)
        params = cfg.build_model(store, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for t in params.parameters():   # off the symmetric init
            t.data += 0.1 * rng.normal(size=t.data.shape)
        encoded = encode_document(doc, store, params, "train")
        ep = rollout(doc, store, params, cfg, mode="train", rng=np.random.default_rng(5),
                     encoded=encoded)
        _, steps, seen = _per_step_policy(encoded, store, params, window or n, order=ep.order)

        assert ep.log_probs.shape == (n,)
        pol = params.policy
        for t, (pos, (history, acts)) in enumerate(zip(ep.order, seen)):
            assert abs(ep.log_probs.data[t] - float(steps[t].data)) <= 1e-12
            reps = encoded.actions.data[list(acts)]
            want = oracles.policy_distribution(history, reps, pol.history_match.diag.data,
                                               pol.action_scorer.diag.data, top_k)
            assert abs(ep.log_probs.data[t] - np.log(want[acts.index(pos)])) <= 1e-12
        widths = [len(acts) for _, acts in seen]
        assert widths[-1] == 1 and widths[0] == min(window or n, n)
        if window == 1:
            assert not ep.log_probs.data.any()
        if top_k == 2:
            assert max(len(history) for history, _ in seen) > top_k

        mix = rng.normal(size=n)
        one = ad.tsum(ep.log_probs * Tensor(mix))
        per_step = steps[0] * mix[0]
        for step, weight in zip(steps[1:], mix[1:]):
            per_step = ad.add(per_step, step * weight)
        g_one, g_steps = ad.backward(one), ad.backward(per_step)
        named = params.named_parameters()
        reached = {name for name, t in named.items() if t in g_steps}
        assert {name for name, t in named.items() if t in g_one} == reached
        assert set(pol.parameters()) <= reached
        assert "local_attn.entity_context" in reached
        for name in reached:
            want = g_steps[named[name]]
            assert np.abs(g_one[named[name]] - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("window", [2, 4, None])
    def test_train_rollout_samples_the_order_of_the_per_step_graph(self, window):
        docs, store = anchored_world(num_docs=4)
        cfg = TrainConfig(window=window, epochs=1, fusion_hidden=8)
        params = cfg.build_model(store, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for t in params.parameters():
            t.data += 0.1 * rng.normal(size=t.data.shape)
        orders = set()
        for i, doc in enumerate(docs):
            encoded = encode_document(doc, store, params, "train")
            ep = rollout(doc, store, params, cfg, mode="train", rng=np.random.default_rng(i),
                         encoded=encoded)
            order, steps, seen = _per_step_policy(encoded, store, params,
                                                  window or len(doc.mentions),
                                                  rng=np.random.default_rng(i))
            assert ep.order == tuple(order)
            assert np.abs(ep.log_probs.data - [float(s.data) for s in steps]).max() <= 1e-12
            # the sampling pass draws from the distribution that is differentiated
            for t, (pos, (_, acts)) in enumerate(zip(ep.order, seen)):
                assert ep.window_probs[t].size == len(acts)
                chosen = ep.window_probs[t][acts.index(pos)]
                assert abs(chosen - np.exp(ep.log_probs.data[t])) <= 1e-12
            orders.add(ep.order)
        assert len(orders) > 1

    def test_sampled_training_orders_are_pinned(self, monkeypatch):
        # every draw of the sampling pass, in the order it is made: one epoch
        # of orders, window distributions and log-probabilities at three windows
        docs, store = anchored_world(num_docs=4)
        digest, episodes = hashlib.sha256(), []
        real = trainer.rollout

        def kept(*args, **kwargs):
            episodes.append(real(*args, **kwargs))
            digest.update(np.array(episodes[-1].order, dtype=np.int64).tobytes())
            for probs in episodes[-1].window_probs:
                digest.update(probs.tobytes())
            digest.update(episodes[-1].log_probs.data.tobytes())
            return episodes[-1]

        monkeypatch.setattr(trainer, "rollout", kept)
        for window in (2, 4, None):
            train(docs, [], store, TrainConfig(window=window, epochs=1, episodes_per_doc=2,
                                               fusion_hidden=8, lr=0.01, seed=7))
        assert len(episodes) == 3 * len(docs) * 2
        assert len({ep.order for ep in episodes}) > 3
        assert digest.hexdigest() == ("0459f1060a38dad9712a1de8f0c399c0"
                                      "99a773aeed06c5d4b00bac77167940b1")

    def test_steps_without_gold_are_counted_in_the_epoch_metrics(self):
        docs, store = anchored_world(num_docs=3)
        docs = [_ragged(docs[0]), _ragged(docs[1], missing=4), docs[2]]
        cfg = TrainConfig(window=3, epochs=2, fusion_hidden=8, episodes_per_doc=2,
                          lr=0.01)
        metrics = train(docs, [], store, cfg).metrics
        # one such mention in each of two documents, two episodes per document
        assert [m["skipped_margin_terms"] for m in metrics] == [4, 4]
        full = train(docs[2:], [], store, cfg).metrics
        assert [m["skipped_margin_terms"] for m in full] == [0, 0]


class TestReinforce:
    def test_zero_rewards_zero_gradient(self):
        docs, store = anchored_world(num_docs=2)
        cfg = oracle_selector_config(window=3)
        params = build(store, cfg)
        rng = np.random.default_rng(1)
        ep = rollout(docs[0], store, params, cfg, mode="train", rng=rng)
        ep_zero = Episode(**{**ep.__dict__, "rewards": (0.0,) * len(ep.rewards)})
        grads = ad.backward(policy_objective([ep_zero]) * -1.0)
        pol = params.policy.parameters()
        for name, t in pol.items():
            assert t not in grads or np.allclose(grads[t], 0.0), name

    def test_constant_reward_shift_has_zero_expected_gradient_shift(self):
        # E[sum_t grad log pi] = 0: adding c to all R(t) shifts the estimator
        # by c * that score function, whose empirical mean must be ~0
        docs, store = anchored_world(num_docs=1, mentions=4, seed=4)
        cfg = oracle_selector_config(window=2, episodes_per_doc=1)
        params = build(store, cfg)
        rng = np.random.default_rng(7)
        n = 400
        score_sum = None
        for _ in range(n):
            ep = rollout(docs[0], store, params, cfg, mode="train", rng=rng)
            shifted = Episode(**{**ep.__dict__, "rewards": (1.0,) * len(ep.rewards)})
            grads = ad.backward(policy_objective([shifted]) * 1.0)  # +grad of sum log pi
            diag = params.policy.action_scorer.diag
            g = grads.get(diag, np.zeros_like(diag.data))
            score_sum = g if score_sum is None else score_sum + g
        mean = score_sum / n
        se = np.abs(mean).max() / np.sqrt(n)  # crude scale guard
        assert np.abs(mean).max() <= max(0.25, 3 * se * np.sqrt(n))

    def test_policy_objective_averages_episodes(self):
        logp = ad.parameter(np.array([-0.5]))
        def make_ep(r):
            return Episode(
                doc_id="d", order=(0,), log_probs=logp,
                flags=(True,), predicted=("e",), predicted_prob=(1.0,),
                history_entities=("e",), rewards=(r,),
            )
        obj = policy_objective([make_ep(2.0), make_ep(4.0)])
        assert float(obj.data) == pytest.approx((-0.5 * 2 + -0.5 * 4) / 2)


class TestTeacherForcing:
    def test_history_is_gold_every_step(self):
        docs, store = anchored_world(num_docs=4)
        cfg = oracle_selector_config(window=3)
        params = build(store, cfg)
        rng = np.random.default_rng(0)
        for doc in docs:
            ep = rollout(doc, store, params, cfg, mode="train", rng=rng)
            golds = {m.position: m.gold for m in doc.mentions}
            for pos, linked in zip(ep.order, ep.history_entities):
                assert linked == golds[pos]

    def test_eval_history_is_predicted(self):
        docs, store = anchored_world(num_docs=2)
        cfg = oracle_selector_config()
        params = build(store, cfg)
        with ad.no_grad():
            ep = rollout(docs[0], store, params, cfg, mode="eval")
        assert ep.history_entities == ep.predicted


    def test_linking_steps_on_the_predicted_pair_after_a_wrong_link(self):
        # step 1's window is scored on the pair step 0 linked, a wrong entity
        # here: no mention keeps its gold among its candidates
        docs, store = anchored_world(num_docs=1)
        doc = replace(docs[0], mentions=tuple(
            replace(m, candidates=tuple(c for c in m.candidates if c.entity_id != m.gold))
            for m in docs[0].mentions))
        cfg = oracle_selector_config(window=3)
        params = build(store, cfg)
        rng = np.random.default_rng(2)
        for t in params.parameters():   # off the symmetric init
            t.data += 0.1 * rng.normal(size=t.data.shape)
        with ad.no_grad():
            ep = rollout(doc, store, params, cfg, mode="eval")
        assert not any(ep.flags)
        encoded = encode_document(doc, store, params)
        first = ep.order[0]
        window = advance(ActionWindow(3, tuple(range(len(doc.mentions)))), first)

        def step_one(entity):
            pair = np.concatenate([encoded.contexts.data[first], store.entity(entity)])
            history = Tensor(np.stack([params.policy.init_pair.data, pair])[None])
            return select_action(history, [window], encoded.actions, params.policy)[1][0]

        assert len(ep.window_probs[1]) == 3
        assert ep.window_probs[1].tobytes() == step_one(ep.predicted[0]).tobytes()
        assert not np.array_equal(step_one(doc.mentions[first].gold), ep.window_probs[1])


class TestAdam:
    def test_zero_grad_params_unchanged_from_fresh_state(self):
        a = ad.parameter(np.array([1.0, 2.0]))
        b = ad.parameter(np.array([3.0]))
        opt = Adam([a, b])
        grads = ad.backward(ad.tsum(a * a))
        before_b = b.data.copy()
        opt.step(grads, 0.1)
        assert np.array_equal(b.data, before_b)
        assert not np.array_equal(a.data, np.array([1.0, 2.0]))

    def test_step_keeps_parameters_finite(self):
        a = ad.parameter(np.array([1.0]))
        opt = Adam([a])
        for _ in range(50):
            opt.step(ad.backward(ad.tsum(a * a)), 0.05)
            assert np.all(np.isfinite(a.data))


    def test_in_place_step_equals_the_textbook_expressions_bitwise(self):
        rng = np.random.default_rng(7)
        params = [ad.parameter(rng.normal(size=(4, 3))), ad.parameter(rng.normal(size=5))]
        opt = Adam(params)
        b1, b2, eps, lr = opt.beta1, opt.beta2, opt.eps, 0.01
        want = [p.data.copy() for p in params]
        m = [np.zeros_like(p) for p in want]
        v = [np.zeros_like(p) for p in want]
        for t in range(1, 6):
            # the vector has no gradient on even steps
            grads = {p: rng.normal(size=p.data.shape)
                     for i, p in enumerate(params) if i == 0 or t % 2}
            for i, p in enumerate(params):
                if p not in grads:
                    continue
                g = grads[p]
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                mhat = m[i] / (1 - b1**t)
                vhat = v[i] / (1 - b2**t)
                want[i] = want[i] - lr * mhat / (np.sqrt(vhat) + eps)
            opt.step(grads, lr)
            for i, p in enumerate(params):
                assert np.array_equal(p.data, want[i])
                assert np.array_equal(opt.m[i], m[i]) and np.array_equal(opt.v[i], v[i])


    def test_row_lazy_step_is_bytewise_the_dense_update(self):
        rng = np.random.default_rng(11)
        params = [ad.parameter(rng.normal(size=shape)) for shape in ((6, 3), (5,), (2, 2))]
        opt = Adam(params)
        b1, b2, eps, lr = opt.beta1, opt.beta2, opt.eps, 0.01
        want = [p.data.copy() for p in params]
        m = [np.zeros_like(p) for p in want]
        v = [np.zeros_like(p) for p in want]
        ever = [set() for _ in params]
        # rows with a nonzero gradient: sparse, repeated, none at all, one
        # zero entry inside a touched row, and the (2, 2) matrix filling up
        for t, rows in enumerate([[1, 4], [4], [], [0, 1, 4], [], [2, 1]], start=1):
            grads = {}
            for i, p in enumerate(params):
                g = np.zeros(p.data.shape)
                kept = [r for r in rows if r < g.shape[0]]
                g[kept] = rng.normal(size=g[kept].shape)
                if t == 4 and g.ndim == 2:
                    g[1, 0] = 0.0
                grads[p] = g
                ever[i] |= set(kept)
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                want[i] = want[i] - lr * (m[i] / (1 - b1**t)) / (np.sqrt(v[i] / (1 - b2**t)) + eps)
            changed = opt.step(grads, lr)
            for i, p in enumerate(params):
                assert p.data.tobytes() == want[i].tobytes()
                assert opt.m[i].tobytes() == m[i].tobytes()
                assert opt.v[i].tobytes() == v[i].tobytes()
                assert np.arange(p.data.shape[0])[changed[p]].tolist() == sorted(ever[i])
        assert changed[params[2]] == slice(None)


class TestTrainLoop:
    def test_rl_weight_zero_decouples_policy(self):
        docs, store = anchored_world(num_docs=4)
        cfg = TrainConfig(window=3, epochs=2, rl_weight=0.0, lr=0.01,
                          fusion_hidden=8, episodes_per_doc=1, seed=1)
        result = train(docs[:3], docs[3:], store, cfg)
        pol = result.params.policy
        assert np.array_equal(pol.history_match.diag.data, np.ones(2 * store.dim))
        assert np.array_equal(pol.init_pair.data, np.zeros(2 * store.dim))
        # selector still trained
        sel = result.params.selector.fusion.weights[0].data
        fresh = build_model(store, np.random.default_rng(cfg.seed).spawn(2)[0],
                            fusion_hidden=8).selector.fusion.weights[0].data
        assert not np.array_equal(sel, fresh)

    def test_divergence_aborts_with_diagnostic(self):
        docs, store = anchored_world(num_docs=2)
        cfg = TrainConfig(window=2, epochs=1, fusion_hidden=8,
                          episodes_per_doc=1, seed=0)
        params = build_model(store, np.random.default_rng(0), fusion_hidden=8)
        params.selector.fusion.weights[0].data[0, 0] = np.nan
        with pytest.raises(RuntimeError, match=(
                f"non-finite loss at epoch 0, document {re.escape(docs[0].id)}$")):
            train(docs[:1], docs[1:], store, cfg, params=params)

    def test_a_non_finite_window_distribution_is_named_at_the_document(self):
        # a finite init pair whose history match overflows: NaN window
        # probabilities, which rng.choice would meet first
        docs, store = generate_synthetic(SyntheticSpec(num_docs=4, mentions_per_doc=4,
                                                       candidates_per_mention=3,
                                                       embedding_dim=16))
        cfg = TrainConfig(window=2, epochs=1, fusion_hidden=8, episodes_per_doc=1, seed=0)
        params = cfg.build_model(store, np.random.default_rng(0))
        params.policy.init_pair.data[...] = 1e308
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match=(
                f"^non-finite window distribution at epoch 0, document "
                f"{re.escape(docs[0].id)}$")):
            train(docs[:1], docs[1:], store, cfg, params=params)

    def test_linking_names_the_document_of_a_non_finite_window(self, monkeypatch):
        # document 2 alone has NaN action rows; document 0's order is fixed,
        # so document 2 is line 1 of the lockstep batch's policy call
        docs, store = generate_synthetic(SyntheticSpec(num_docs=4, mentions_per_doc=4,
                                                       candidates_per_mention=3,
                                                       embedding_dim=16))
        cfg = TrainConfig(window=2, fusion_hidden=8)
        params = cfg.build_model(store, np.random.default_rng(0))
        real = trainer.encode_document

        def encode(doc, *args, **kwargs):
            record = real(doc, *args, **kwargs)
            if doc is docs[2]:
                record.actions.data[...] = np.nan
            return record

        monkeypatch.setattr(trainer, "encode_document", encode)
        fixed = lambda doc, record: range(len(doc.mentions)) if doc is docs[0] else None
        with pytest.raises(RuntimeError, match=(
                f"^non-finite window distribution at document {re.escape(docs[2].id)}$")):
            list(link_documents(docs, store, params, cfg, fixed))

    @pytest.mark.parametrize("what", ["gradient", "value"])
    def test_divergence_is_named_at_the_parameter(self, what, monkeypatch):
        docs, store = anchored_world(num_docs=2)
        cfg = TrainConfig(window=2, epochs=1, fusion_hidden=8, episodes_per_doc=1, seed=0,
                          lr=1e300)
        params = build_model(store, np.random.default_rng(0), fusion_hidden=8)
        target = params.selector.fusion.weights[0]
        real = ad.backward

        def poisoned(loss):
            assert np.isfinite(loss.data)
            grads = real(loss)
            g = grads[target]
            i = np.unravel_index(np.argmax(np.abs(g)), g.shape)
            if what == "gradient":
                g[i] = np.nan
            else:   # a finite gradient whose step passes the largest float
                target.data[i] = -np.sign(g[i]) * np.finfo(float).max
            return grads

        monkeypatch.setattr(ad, "backward", poisoned)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match=(
                f"non-finite {what} of selector.fusion.0 at epoch 0, "
                f"document {re.escape(docs[0].id)}$")):
            train(docs[:1], docs[1:], store, cfg, params=params)

    def test_policy_entropy_and_multi_action_share_per_epoch(self):
        docs, store = anchored_world(num_docs=3)
        fixed = train(docs, [], store, TrainConfig(window=1, epochs=2, fusion_hidden=8,
                                                   lr=0.01)).metrics
        assert [(m["policy_entropy"], m["multi_action_share"]) for m in fixed] == [(0, 0)] * 2
        # six mentions in windows of 3: only the last step has one action
        free = train(docs, [], store, TrainConfig(window=3, epochs=2, fusion_hidden=8,
                                                  lr=0.01)).metrics
        assert [m["multi_action_share"] for m in free] == [5 / 6] * 2
        assert all(0 < m["policy_entropy"] < np.log(3) for m in free)

    def test_lr_drops_after_validation_threshold(self):
        docs, store = unambiguous_world(num_docs=4)
        cfg = TrainConfig(window=2, epochs=2, lr=0.01, lr_after=0.0005,
                          val_acc_threshold=0.9, fusion_hidden=8,
                          episodes_per_doc=1, seed=0)
        result = train(docs[:3], docs[3:], store, cfg)
        assert result.metrics[-1]["lr"] == 0.0005

    def test_checkpoint_round_trip(self, tmp_path):
        docs, store = anchored_world(num_docs=2)
        cfg = oracle_selector_config()
        params = build(store, cfg, seed=4)
        path = str(tmp_path / "model.npz")
        save_checkpoint(params, path, meta={"note": "test"})
        fresh = build(store, cfg, seed=5)
        meta = load_checkpoint(fresh, path)
        assert meta == {"note": "test"}
        for name, t in params.named_parameters().items():
            assert np.array_equal(t.data, fresh.named_parameters()[name].data)

    def test_train_refuses_an_empty_training_set(self):
        docs, store = anchored_world(num_docs=1)
        with pytest.raises(ValueError, match="no training documents"):
            train([], docs, store, oracle_selector_config())


def test_restore_refuses_parameters_the_model_lacks():
    _, store = anchored_world(num_docs=1)
    params = build(store, oracle_selector_config())
    arrays = params.snapshot()
    before = params.snapshot()
    arrays["transformer.word_embed"] = np.zeros((2, store.dim))
    with pytest.raises(ValueError, match=r"parameters the model lacks: \['transformer.word_embed'\]"):
        params.restore(arrays)
    assert all(np.array_equal(a, before[k]) for k, a in params.snapshot().items())


@pytest.mark.parametrize("field", ["local_model", "dim"])
def test_load_checkpoint_refuses_another_model(field, tmp_path):
    _, store = anchored_world(num_docs=1)
    target = build(store, oracle_selector_config())
    if field == "local_model":
        saved = TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                            head_dim=4, model_dim=store.dim, encoder_ff_dim=8,
                            head_hidden=4).build_model(store, np.random.default_rng(1))
        message = "has local_model 'transformer'; the model has 'attn'"
    else:
        _, other = generate_synthetic(SyntheticSpec(num_docs=1, mentions_per_doc=4,
                                                    candidates_per_mention=4,
                                                    embedding_dim=32, seed=2))
        saved = build(other, oracle_selector_config())
        message = f"has dim 32; the model has {store.dim}"
    path = str(tmp_path / "other.npz")
    save_checkpoint(saved, path)
    before = target.snapshot()
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(target, path)
    assert all(np.array_equal(a, before[k]) for k, a in target.snapshot().items())


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_load_checkpoint_refuses_a_non_finite_array(value, tmp_path):
    # restored, it would link every mention with probability NaN
    _, store = anchored_world(num_docs=1)
    saved = build(store, oracle_selector_config(), seed=1)
    saved.selector.linked_coherence.diag.data[3] = value
    path = str(tmp_path / "model.npz")
    save_checkpoint(saved, path)
    target = build(store, oracle_selector_config())
    before = target.snapshot()
    with pytest.raises(ValueError, match=(
            f"^checkpoint {re.escape(path)} has a non-finite value in "
            f"selector.linked_coherence$")):
        load_checkpoint(target, path)
    assert all(np.array_equal(a, before[k]) for k, a in target.snapshot().items())


def test_load_checkpoint_refuses_a_non_numeric_array(tmp_path):
    _, store = anchored_world(num_docs=1)
    path = str(tmp_path / "model.npz")
    save_checkpoint(build(store, oracle_selector_config(), seed=1), path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["policy.init_pair"] = np.full(arrays["policy.init_pair"].shape, "x")
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="could not convert string to float"):
        load_checkpoint(build(store, oracle_selector_config()), path)


_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
                | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_checkpoint_round_trip_is_byte_exact(tmp_path_factory, data):
    _, store = unambiguous_world(num_docs=1)
    sizes = {"fusion_hidden": data.draw(st.integers(1, 6), label="fusion_hidden")}
    if data.draw(st.booleans(), label="transformer"):
        sizes.update(
            local_model="transformer", model_dim=store.dim,
            encoder_layers=data.draw(st.integers(1, 2), label="encoder_layers"),
            attention_heads=data.draw(st.integers(1, 3), label="attention_heads"),
            head_dim=data.draw(st.integers(1, 4), label="head_dim"),
            encoder_ff_dim=data.draw(st.integers(1, 6), label="encoder_ff_dim"),
            head_hidden=data.draw(st.integers(1, 5), label="head_hidden"))
    cfg = TrainConfig(**sizes)
    meta = data.draw(st.dictionaries(st.text(max_size=6), _JSON_LEAVES, max_size=4),
                     label="meta")
    params = cfg.build_model(store, np.random.default_rng(0))
    noise = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="noise seed"))
    for t in params.parameters():
        t.data += noise.normal(size=t.data.shape)
    path = str(tmp_path_factory.mktemp("ckpt") / "model.npz")
    save_checkpoint(params, path, meta=meta)
    fresh = cfg.build_model(store, np.random.default_rng(1))
    assert load_checkpoint(fresh, path) == meta
    loaded = fresh.snapshot()
    assert loaded.keys() == params.snapshot().keys()
    for name, array in params.snapshot().items():
        assert (loaded[name].dtype, loaded[name].shape) == (array.dtype, array.shape)
        assert loaded[name].tobytes() == array.tobytes()


def _small_transformer(store, seed=1):
    return TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                       head_dim=4, model_dim=store.dim, encoder_ff_dim=8,
                       head_hidden=4).build_model(store, np.random.default_rng(seed))


def _rename_words(store, names):
    """The same vectors under other words: a vocabulary of the same size."""
    renamed = dict(zip(sorted(store.word_vecs), names))
    return EmbeddingStore(
        word_vecs={renamed[w]: v for w, v in store.word_vecs.items()},
        entity_vecs=store.entity_vecs,
        entity_surface={e: tuple(renamed[w] for w in s)
                        for e, s in store.entity_surface.items()},
    )


def test_load_checkpoint_refuses_a_transformer_of_another_vocabulary(tmp_path):
    _, store = anchored_world(num_docs=1)
    other = _rename_words(store, [f"x{i:05d}" for i in range(len(store.word_vecs))])
    path = str(tmp_path / "model.npz")
    saved = _small_transformer(store)
    save_checkpoint(saved, path)
    target = _small_transformer(other, seed=2)
    before = target.snapshot()
    with pytest.raises(ValueError, match=rf"checkpoint {re.escape(path)} has vocab_sha256 "):
        load_checkpoint(target, path)
    assert all(np.array_equal(a, before[k]) for k, a in target.snapshot().items())
    # the same vocabulary loads
    same = _small_transformer(store, seed=2)
    load_checkpoint(same, path)
    assert all(np.array_equal(a, saved.snapshot()[k]) for k, a in same.snapshot().items())


def _drop_header_key(path, key):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["__header__"]).decode())
    del header[key]
    arrays["__header__"] = np.bytes_(json.dumps(header))
    np.savez(path, **arrays)


def test_load_checkpoint_refuses_a_transformer_without_a_vocabulary_digest(tmp_path):
    _, store = anchored_world(num_docs=1)
    path = str(tmp_path / "model.npz")
    save_checkpoint(_small_transformer(store), path)
    _drop_header_key(path, "vocab_sha256")
    with pytest.raises(ValueError, match=rf"checkpoint {re.escape(path)} has vocab_sha256 None"):
        load_checkpoint(_small_transformer(store, seed=2), path)


def test_load_checkpoint_refuses_a_header_without_meta(tmp_path):
    # the header names the model (version, local_model, dim, vocab_sha256) but
    # holds no caller metadata
    _, store = anchored_world(num_docs=1)
    path = str(tmp_path / "model.npz")
    save_checkpoint(build(store, oracle_selector_config()), path, meta={"epoch": 1})
    _drop_header_key(path, "meta")
    with pytest.raises(ValueError, match=rf"checkpoint {re.escape(path)} has no dynel header"):
        load_checkpoint(build(store, oracle_selector_config()), path)


@pytest.mark.parametrize("header", [None, b"not json", b"[1]", b"{}"],
                         ids=["missing", "not-json", "not-an-object", "no-version"])
def test_load_checkpoint_refuses_a_file_without_a_dynel_header(header, tmp_path):
    _, store = anchored_world(num_docs=1)
    path = str(tmp_path / "other.npz")
    extra = {} if header is None else {"__header__": np.bytes_(header)}
    np.savez(path, a=np.zeros(2), **extra)
    with pytest.raises(ValueError, match=rf"checkpoint {re.escape(path)} has no dynel header"):
        load_checkpoint(build(store, oracle_selector_config()), path)


def test_single_document_reinforce_improves_sampled_reward():
    """200 policy-gradient steps on one frozen document raise the mean
    sampled reward (trend over seeds), using the position-penalty reward."""
    docs, store = anchored_world(num_docs=12, mentions=6, seed=8)
    cfg = oracle_selector_config(window=2, reward="r3")
    params = build(store, cfg)

    # pick a document whose offset-order rollout gets an anchored mention
    # wrong (its pre-anchor tie breaks to the decoy), so ordering matters
    def offset_flags(d):
        return rollout(d, store, params, cfg, mode="train",
                       rng=np.random.default_rng(0),
                       order=[m.position for m in d.mentions]).flags

    doc = next(d for d in docs if not all(offset_flags(d)))

    trends = []
    for seed in (1, 2, 3):
        fresh = build(store, cfg, seed=seed)
        opt = Adam(list(fresh.policy.parameters().values()))
        rng = np.random.default_rng(seed)
        totals = []
        for _ in range(200):
            ep = rollout(doc, store, fresh, cfg, mode="train", rng=rng)
            opt.step(ad.backward(policy_objective([ep]) * -1.0), 0.05)
            totals.append(sum(ep.rewards))
        first, last = np.mean(totals[:50]), np.mean(totals[-50:])
        trends.append(last - first)
    assert np.mean(trends) > 0
    assert sum(t > 0 for t in trends) >= 2


def test_one_training_update_looks_up_each_candidate_matrix_once(monkeypatch):
    docs, store = anchored_world(num_docs=1)
    counts = candidate_lookups(monkeypatch, docs)
    # one epoch over one document is one update: encode_document + 2 rollouts
    train(docs, [], store, TrainConfig(window=3, epochs=1, episodes_per_doc=2,
                                       fusion_hidden=8))
    assert counts == Counter([document_candidates(docs[0])])


def test_config_round_trip_and_hash():
    cfg = TrainConfig(window=None, reward="r2-2", rl_weight=5e-4)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    assert TrainConfig(seed=1).config_hash() != TrainConfig(seed=2).config_hash()
    with pytest.raises(ValueError, match="reward"):
        TrainConfig(reward="r7")


def test_config_builds_the_transformer_it_describes():
    docs, store = unambiguous_world(num_docs=1)
    cfg = TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                      head_dim=3, model_dim=store.dim, encoder_ff_dim=5, head_hidden=4,
                      max_seq_len=40, max_candidates=5, drop_rate=0.2, top_words=9,
                      policy_top_k=3, selector_top_k=2, fusion_hidden=6)
    params = cfg.build_model(store, np.random.default_rng(0))
    assert params.transformer.config == TransformerConfig(
        layers=1, heads=2, head_dim=3, model_dim=store.dim, ff_dim=5, hidden=4,
        max_seq_len=40, max_candidates=5, drop_rate=0.2)
    assert (params.local_attn.top_words, params.policy.top_k,
            params.selector.top_entities) == (9, 3, 2)
    assert params.selector.fusion.weights[0].data.shape == (5, 6)
    # train builds the same initial model from the first spawned stream
    init = TrainConfig(epochs=0, seed=4).build_model(
        store, np.random.default_rng(4).spawn(2)[0])
    trained = train(docs, [], store, TrainConfig(epochs=0, seed=4)).params
    assert all(np.array_equal(a, trained.snapshot()[k]) for k, a in init.snapshot().items())


def _with_last_mention(doc, **changes):
    return replace(doc, mentions=doc.mentions[:-1] + (replace(doc.mentions[-1], **changes),))


def _caps_config(store, **caps):
    return TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                       head_dim=3, model_dim=store.dim, encoder_ff_dim=5, head_hidden=4,
                       window=2, epochs=1, lr=0.01, fusion_hidden=8, episodes_per_doc=1,
                       seed=0, **caps)


def test_candidate_cap_is_checked_before_the_first_update():
    docs, store = anchored_world(num_docs=3, mentions=4, candidates=4)
    last = docs[2].mentions[-1]
    extra = next(c for c in docs[0].mentions[0].candidates if c not in last.candidates)
    docs[2] = _with_last_mention(docs[2], candidates=last.candidates + (extra,))
    cfg = _caps_config(store, max_candidates=4, max_seq_len=64)
    params = cfg.build_model(store, np.random.default_rng(0))
    before = params.snapshot()
    message = f"document 'doc0002': mention {last.id!r} has 5 candidates; max is 4"
    with pytest.raises(ValueError, match=re.escape(message)):
        train(docs, [], store, cfg, params=params)
    assert all(np.array_equal(a, before[k]) for k, a in params.snapshot().items())


def test_sequence_length_cap_covers_validation_documents():
    docs, store = anchored_world(num_docs=3, mentions=4, candidates=4)
    cap = max(2 + len(m.context_window) + len(m.surface) + 2 * len(m.candidates)
              for doc in docs for m in doc.mentions)
    last = docs[2].mentions[-1]
    docs[2] = _with_last_mention(docs[2],
                                 context_before=last.context_before + last.surface * cap)
    cfg = _caps_config(store, max_candidates=4, max_seq_len=cap)
    params = cfg.build_model(store, np.random.default_rng(0))
    before = params.snapshot()
    with pytest.raises(ValueError, match=re.escape(
            f"document 'doc0002': mention {last.id!r} has sequence length")):
        train(docs[:2], docs[2:], store, cfg, params=params)
    assert all(np.array_equal(a, before[k]) for k, a in params.snapshot().items())


@pytest.mark.parametrize("cap", ["policy_top_k", "selector_top_k", "top_words", "fusion_hidden"])
def test_config_rejects_a_pool_cap_below_one(cap):
    # a cap of 0 would leave the attention pool with nothing to softmax, and a
    # fusion_hidden of 0 the selector's fusion net with an empty hidden layer
    with pytest.raises(ValueError, match=f"{cap} must be >= 1"):
        TrainConfig(**{cap: 0})
    assert getattr(TrainConfig(**{cap: 1}), cap) == 1


@pytest.mark.parametrize("field, size", [
    ("encoder_layers", "layers"), ("attention_heads", "heads"), ("head_dim", "head_dim"),
    ("model_dim", "model_dim"), ("encoder_ff_dim", "ff_dim"), ("head_hidden", "hidden"),
    ("max_seq_len", "max_seq_len"), ("max_candidates", "max_candidates"),
])
def test_config_refuses_a_transformer_size_below_one(field, size):
    # attention_heads=0 trained with no attention at all, head_hidden=0 to
    # validation accuracy 0.0, and attention_heads=-1 died inside numpy
    message = f"transformer {size} must be >= 1, got 0"
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(local_model="transformer", **{field: 0})
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig.from_dict({"local_model": "transformer", field: 0})


@pytest.mark.parametrize("field, value, message", [
    ("epochs", -3, "epochs must be >= 0, got -3"),
    ("lr", -0.5, "lr must be > 0, got -0.5"),
    ("lr", 0.0, "lr must be > 0, got 0.0"),
    ("lr_after", 0.0, "lr_after must be > 0, got 0.0"),
], ids=["epochs", "lr", "lr-zero", "lr_after"])
def test_config_refuses_out_of_range_training_settings(field, value, message):
    # -3 epochs trains nothing and a negative rate climbs the loss; 0 epochs
    # stays valid, for an untrained model
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**{field: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig.from_dict({field: value})
    assert TrainConfig(epochs=0).epochs == 0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["lr", "lr_after", "margin", "rl_weight",
                                   "val_acc_threshold", "transition"])
def test_config_refuses_a_value_that_is_not_finite(field, value):
    # a NaN fails every range comparison silently, and an infinite rate or
    # margin passes them; each would first show as a non-finite update
    if field == "transition":
        value = (0.0, value, -1.0, 0.0)
    message = f"{field} must be finite, got {value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**{field: value})
    # JSON's NaN and Infinity tokens arrive as floats
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TrainConfig.from_dict(json.loads(json.dumps({field: value})))


@pytest.mark.parametrize("rate", [1.0, -0.5])
def test_config_rejects_a_drop_rate_outside_0_1(rate):
    # 1.0 would drop every unit; dropout's 1/(1-p) rescaling then divides by zero
    with pytest.raises(ValueError, match=re.escape(f"drop_rate must lie in [0, 1), got {rate}")):
        TrainConfig(drop_rate=rate)
    assert TrainConfig(drop_rate=0.0).drop_rate == 0.0


@pytest.mark.parametrize("transition", [(0.0, -2.0), (0.0, -2.0, -1.0, 0.0, 1.0)])
def test_config_needs_exactly_four_transition_rewards(transition):
    with pytest.raises(ValueError, match=f"transition needs 4 values .*got {len(transition)}"):
        TrainConfig(transition=transition)
    with pytest.raises(ValueError, match="transition needs 4 values"):
        TrainConfig.from_dict({"transition": list(transition)})


def test_config_from_dict_names_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: top_k, windw"):
        TrainConfig.from_dict({"windw": 4, "top_k": 2, "seed": 1})


@pytest.mark.parametrize("value, message", [
    ([], "a config must be a JSON object, got list"),
    (5, "a config must be a JSON object, got int"),
    ({"epochs": "1"}, "config key 'epochs' must be int, got '1'"),
    ({"window": "4"}, "config key 'window' must be an int, \"L\" or null, got '4'"),
    ({"features": "prior"}, "config key 'features' must be a list of str, got 'prior'"),
    ({"epochs": True}, "config key 'epochs' must be int, got True"),
    ({"lr": "0.1"}, "config key 'lr' must be float, got '0.1'"),
    ({"transition": [0, -2, "x", 0]}, "config key 'transition' must be a list of float"),
])
def test_config_from_dict_refuses_values_of_the_wrong_json_type(value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig.from_dict(value)


def test_config_from_dict_takes_the_json_forms_of_each_field():
    cfg = TrainConfig.from_dict({"lr": 1, "window": "l", "features": ["prior", "local"],
                                 "transition": [0, -2, -1, 0], "feature_norm": False})
    assert cfg == TrainConfig(lr=1, window=None, features=("prior", "local"),
                              transition=(0.0, -2.0, -1.0, 0.0), feature_norm=False)
    assert TrainConfig.from_dict({"window": None}).window is None
    assert TrainConfig.from_dict({"window": 3}).window == 3
