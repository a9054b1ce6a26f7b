import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dynel import autodiff as ad
from dynel.autodiff import Tensor
from dynel.corpus import CandidateEntity, EmbeddingStore
from dynel.local_transformer import TransformerConfig
from dynel.model import build_model, encode_document, load_checkpoint, save_checkpoint
from dynel.selector import candidate_distribution
from dynel.synthetic import SyntheticSpec, generate_synthetic
from dynel.trainer import (
    Adam,
    Episode,
    TrainConfig,
    evaluate,
    policy_objective,
    rollout,
    train,
)

from conftest import candidate_lookups


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
                records = encode_document(doc, self.store, self.params)
                for i, (m, rec) in enumerate(zip(doc.mentions, records)):
                    linked = tuple(g for j, g in enumerate(golds) if j != i)
                    probs = candidate_distribution(
                        rec, linked, self.store, self.params.selector
                    )
                    pick = m.candidates[int(np.argmax(probs.data))].entity_id
                    correct += pick == m.gold
                    total += 1
        assert correct / total == 1.0


class TestMarginLoss:
    def test_hand_cases(self):
        # separated by more than the margin -> no loss from the other candidate
        probs = ad.softmax(Tensor(np.log([0.9, 0.1])))
        gold_prob = ad.item(probs, 0)
        hinge = ad.relu(probs - gold_prob + 0.2)
        # gold term contributes exactly beta
        assert np.allclose(hinge.data, [0.2, 0.0])

        probs = Tensor(np.array([0.5, 0.5]))
        hinge = ad.relu(probs - ad.item(probs, 0) + 0.2)
        assert np.allclose(hinge.data, [0.2, 0.2])

    def test_uniform_distribution_charges_beta_per_candidate(self):
        n, beta = 4, 0.05
        probs = Tensor(np.full(n, 1 / n))
        hinge = ad.relu(probs - ad.item(probs, 0) + beta)
        assert np.allclose(hinge.data, beta)

    def test_rollout_margin_zero_when_gold_dominates(self):
        docs, store = unambiguous_world()
        cfg = oracle_selector_config(margin=0.01)
        params = build(store, cfg)
        loss = rollout(docs[0], store, params, cfg, mode="train",
                       rng=np.random.default_rng(cfg.seed)).margin
        # every mention contributes at least the gold term beta
        n_mentions = len(docs[0].mentions)
        assert loss.item() == pytest.approx(n_mentions * cfg.margin, abs=1e-9)

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
                doc_id="d", order=(0,), log_probs=[ad.item(Tensor(logp.data), 0)],
                flags=(True,), predicted=("e",), predicted_prob=(1.0,),
                history_entities=("e",), rewards=(r,),
            )
        obj = policy_objective([make_ep(2.0), make_ep(4.0)])
        assert obj.item() == pytest.approx((-0.5 * 2 + -0.5 * 4) / 2)


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
    assert counts == Counter(m.candidate_ids for m in docs[0].mentions)


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
