import csv
import json
from collections import Counter

import numpy as np
import pytest

from dynel import harness, model
from dynel.autodiff import DiagonalBilinear
from dynel.harness import (
    GAMMA1_GRID,
    WINDOW_GRID,
    grad_check,
    ordering_experiment,
    ordering_for,
    run_baseline,
    sweep,
    write_csv,
)
from dynel.model import build_model
from dynel.rewards import REWARD_KINDS
from dynel.synthetic import SyntheticSpec, generate_synthetic
from dynel.trainer import Episode, TrainConfig, micro_f1, train

from conftest import candidate_lookups, make_mention
from dynel.corpus import Document


def anchored_world(num_docs=10, mentions=6, seed=17):
    spec = SyntheticSpec(num_docs=num_docs, mentions_per_doc=mentions,
                         candidates_per_mention=4, embedding_dim=28,
                         anchor_fraction=0.5, noise_scale=0.05, seed=seed)
    return generate_synthetic(spec)


def oracle_config(**kw):
    base = dict(fusion="sum", feature_norm=False, epochs=1, window=4)
    base.update(kw)
    return TrainConfig(**base)


def episode(*flags):
    n = len(flags)
    return Episode(doc_id="d", order=tuple(range(n)), log_probs=[], flags=flags,
                   predicted=("e",) * n, predicted_prob=(1.0,) * n,
                   history_entities=("e",) * n, rewards=(0.0,) * n)


class TestMicroF1:
    def test_all_correct(self):
        assert micro_f1([episode(True), episode(True)]) == 1.0

    def test_three_of_four(self):
        # pooled over links, not averaged over documents (which would give 2/3)
        assert micro_f1([episode(True, True, False), episode(True)]) == 0.75

    def test_empty_is_error_not_zero(self):
        with pytest.raises(ValueError, match="empty"):
            micro_f1([])


class TestStrategies:
    def setup_method(self):
        self.docs, self.store = anchored_world()
        self.cfg = oracle_config()
        self.params = build_model(self.store, np.random.default_rng(0),
                                  fusion="sum", feature_norm=False)

    def test_offset_equals_w1_dynamic_trace(self):
        cfg1 = oracle_config(window=1)
        off = run_baseline(self.docs, self.store, self.params, cfg1, "offset")
        dyn = run_baseline(self.docs, self.store, self.params, cfg1, "dynamic")
        assert off.flags == dyn.flags
        assert off.orders == dyn.orders
        assert off.micro_f1 == dyn.micro_f1

    def test_size_strategy_sorts_by_candidate_count(self):
        mentions = tuple(
            make_mention(f"m{i}", position=i, candidates=tuple(f"e{j}" for j in range(n)),
                         priors=[1 / n] * n)
            for i, n in enumerate((3, 1, 2))
        )
        doc = Document("d", ("w0",), mentions)
        order = ordering_for(doc, "size", self.store, self.params, self.cfg)
        assert order == [1, 2, 0]

    def test_random_strategy_is_seeded_permutation(self):
        r1 = run_baseline(self.docs, self.store, self.params, self.cfg, "random", seed=5)
        r2 = run_baseline(self.docs, self.store, self.params, self.cfg, "random", seed=5)
        r3 = run_baseline(self.docs, self.store, self.params, self.cfg, "random", seed=6)
        assert r1.orders == r2.orders
        assert r1.orders != r3.orders
        for doc, order in zip(self.docs, r1.orders):
            assert sorted(order) == [m.position for m in doc.mentions]

    def test_similarity_strategy_starts_at_offset_first(self):
        for doc in self.docs[:3]:
            order = ordering_for(doc, "similarity", self.store, self.params, self.cfg)
            assert order[0] == doc.mentions[0].position
            assert sorted(order) == [m.position for m in doc.mentions]

    def test_every_strategy_emits_permutations(self):
        rng = np.random.default_rng(0)
        for strategy in ("offset", "size", "random", "similarity"):
            rep = run_baseline(self.docs, self.store, self.params, self.cfg,
                               strategy, seed=3)
            for doc, order in zip(self.docs, rep.orders):
                assert sorted(order) == [m.position for m in doc.mentions]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown ordering strategy"):
            run_baseline(self.docs, self.store, self.params, self.cfg, "sideways")

    def test_exhaustive_best_dominates_other_strategies(self):
        best = run_baseline(self.docs, self.store, self.params, self.cfg,
                            "exhaustive-best")
        for strategy in ("offset", "size", "random", "similarity", "dynamic"):
            other = run_baseline(self.docs, self.store, self.params, self.cfg,
                                 strategy, seed=1)
            for b, o in zip(best.per_doc_accuracy, other.per_doc_accuracy):
                assert b >= o - 1e-12

    def test_similarity_baseline_encodes_each_mention_once(self, monkeypatch):
        calls = []
        real = model.context_feature

        def counted(mention, *args, **kwargs):
            calls.append(mention.id)
            return real(mention, *args, **kwargs)

        monkeypatch.setattr(model, "context_feature", counted)
        run_baseline(self.docs, self.store, self.params, self.cfg, "similarity")
        assert sorted(calls) == sorted(m.id for doc in self.docs for m in doc.mentions)

    def test_dynamic_baseline_looks_up_each_candidate_matrix_once(self, monkeypatch):
        counts = candidate_lookups(monkeypatch, self.docs)
        run_baseline(self.docs, self.store, self.params, self.cfg, "dynamic")
        assert counts == Counter(m.candidate_ids for doc in self.docs for m in doc.mentions)

    def test_exhaustive_best_rejects_long_documents(self):
        mentions = tuple(make_mention(f"m{i}", position=i) for i in range(10))
        doc = Document("d", ("w0",), mentions)
        with pytest.raises(ValueError, match="at most 9"):
            ordering_for(doc, "exhaustive-best", self.store, self.params, self.cfg)

    def test_report_embeds_config_hash_and_seed(self):
        rep = run_baseline(self.docs, self.store, self.params, self.cfg, "offset",
                           seed=11)
        assert rep.config_hash == self.cfg.config_hash()
        assert rep.seed == 11
        payload = json.loads(rep.to_json())
        assert payload["config_hash"] == self.cfg.config_hash()

    def test_rerun_reproduces_report_bit_exactly(self):
        a = run_baseline(self.docs, self.store, self.params, self.cfg, "dynamic")
        b = run_baseline(self.docs, self.store, self.params, self.cfg, "dynamic")
        assert a.to_json() == b.to_json()


class TestSweep:
    def test_default_grids(self):
        assert WINDOW_GRID == (2, 3, 4, 5, 6, 7, None)
        assert GAMMA1_GRID == (1e-3, 7.5e-4, 5e-4, 2.5e-4, 1e-4)
        assert REWARD_KINDS == ("r1", "r2-1", "r2-2", "r3")

    def test_sweep_rows_and_csv_round_trip(self, tmp_path):
        docs, store = anchored_world(num_docs=6, mentions=4, seed=2)
        cfg = TrainConfig(window=2, epochs=1, lr=0.01, fusion_hidden=8,
                          episodes_per_doc=1)
        rows = sweep(docs[:3], docs[3:4], docs[4:], store, cfg,
                     axis="window", grid=(1, 2), seeds=(0, 1))
        values = {r["value"] for r in rows}
        assert values == {1, 2}
        per_cell = [r for r in rows if r["seed"] != "mean±std"]
        assert len(per_cell) == 4
        path = tmp_path / "sweep.csv"
        write_csv(rows, str(path))
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        assert {r["value"] for r in back} == {"1", "2"}
        assert [float(r["micro_f1"]) for r in back] == [r["micro_f1"] for r in rows]

    def test_unknown_axis_rejected(self):
        docs, store = anchored_world(num_docs=3, mentions=4, seed=2)
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweep(docs[:1], docs[1:2], docs[2:], store, TrainConfig(), "beta")

    @pytest.mark.parametrize("axis, grid, seeds, message", [
        ("window", (2, 0), (0,), "window must be >= 1 or None"),
        ("window", ("2", "x"), (0,), "invalid literal"),
        ("reward", ("r1", "r7"), (0,), "reward must be one of"),
        ("gamma1", ("1e-3", "-1"), (0,), "rl_weight must be >= 0"),
        ("gamma1", (), (0,), "grid is empty"),
        ("window", (2,), (), "at least one seed"),
    ])
    def test_a_bad_grid_is_refused_before_any_training(self, monkeypatch, axis, grid, seeds,
                                                       message):
        calls = []
        real = harness.train
        monkeypatch.setattr(harness, "train", lambda *a: calls.append(a) or real(*a))
        docs, store = anchored_world(num_docs=3, mentions=4, seed=2)
        cfg = TrainConfig(epochs=1, fusion_hidden=8, episodes_per_doc=1)
        with pytest.raises(ValueError, match=message):
            sweep(docs[:1], docs[1:2], docs[2:], store, cfg, axis, grid=grid, seeds=seeds)
        assert calls == []

    def test_grid_values_parse_from_text(self):
        docs, store = anchored_world(num_docs=6, mentions=4, seed=2)
        cfg = TrainConfig(epochs=1, lr=0.01, fusion_hidden=8, episodes_per_doc=1)
        as_text = sweep(docs[:3], docs[3:4], docs[4:], store, cfg, "window", grid=("2", "L"))
        as_values = sweep(docs[:3], docs[3:4], docs[4:], store, cfg, "window",
                          grid=(2, None))
        assert as_text == as_values
        assert [r["value"] for r in as_text] == [2, 2, "L", "L"]


def test_ordering_experiment_equals_two_trained_arms_per_seed():
    """The experiment's arms are a window sweep; the oracle is the loop it
    replaced: per seed, train each arm and link the test documents."""
    kw = dict(num_docs=20, mentions_per_doc=4, candidates_per_mention=3, embedding_dim=16,
              corpus_seed=5, window=3, epochs=1)
    result = ordering_experiment(seeds=(0, 1), **kw)

    docs, store = generate_synthetic(SyntheticSpec(
        num_docs=20, mentions_per_doc=4, candidates_per_mention=3, embedding_dim=16,
        anchor_fraction=0.5, noise_scale=0.05, seed=5))
    train_docs, val_docs, test_docs = docs[:16], docs[16:18], docs[18:]
    expected = []
    for seed in (0, 1):
        f1 = {}
        for arm, window in (("dynamic", 3), ("offset", 1)):
            cfg = TrainConfig(window=window, epochs=1, seed=seed, lr=0.01, rl_weight=1e-4,
                              gamma=0.9, reward="r1", policy_top_k=7, episodes_per_doc=2,
                              fusion_hidden=16)
            params = train(train_docs, val_docs, store, cfg).params
            f1[arm] = run_baseline(test_docs, store, params, cfg, "dynamic", seed=seed).micro_f1
        expected.append({"seed": seed, **f1, "gap": f1["dynamic"] - f1["offset"]})
    assert result["rows"] == expected
    gaps = [r["gap"] for r in expected]
    assert result["wins"] == sum(g > 0 for g in gaps)
    assert result["mean_gap"] == float(np.mean(gaps))


def test_grad_check_passes_and_reports_every_tensor():
    report = grad_check(tolerance=1e-4, seed=0, samples_per_tensor=2)
    assert report["passed"], report
    names = set(report["per_tensor"])
    assert any(n.startswith("policy.") for n in names)
    assert any(n.startswith("selector.") for n in names)
    assert any(n.startswith("local_attn.") for n in names)
    assert any(n.startswith("transformer.") for n in names)


def test_grad_check_pools_with_the_top_k_caps_of_its_config(monkeypatch):
    # the check's config caps the policy and selector pools at 3; some pools
    # must truncate, or the top-k branch is never differentiated
    calls = []
    real = DiagonalBilinear.pool

    def recorded(self, queries, rows, top_k):
        calls.append((rows.data.shape[0], top_k))
        return real(self, queries, rows, top_k)

    monkeypatch.setattr(DiagonalBilinear, "pool", recorded)
    assert grad_check(seed=0, include_transformer=False)["passed"]
    top_words = TrainConfig().top_words
    assert {k for _, k in calls} == {3, top_words}
    assert any(rows > k for rows, k in calls)


def test_oracles_stay_independent_of_the_package():
    # the whole point of the test-side oracles is that they share no code
    # with the implementation they check
    import pathlib

    import oracles as oracle_module

    source = pathlib.Path(oracle_module.__file__).read_text()
    assert "dynel" not in source
    for value in vars(oracle_module).values():
        assert not str(getattr(value, "__module__", "")).startswith("dynel")
