import json

import numpy as np
import pytest

from dynel import model
from dynel.harness import (
    GAMMA1_GRID,
    WINDOW_GRID,
    grad_check,
    micro_f1,
    ordering_for,
    read_sweep_csv,
    run_baseline,
    sweep,
    write_sweep_csv,
)
from dynel.model import build_model
from dynel.rewards import REWARD_KINDS
from dynel.synthetic import SyntheticSpec, generate_synthetic
from dynel.trainer import TrainConfig

from conftest import make_mention
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


class TestMicroF1:
    def test_all_correct(self):
        assert micro_f1(["a", "b"], ["a", "b"]) == 1.0

    def test_three_of_four(self):
        assert micro_f1(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75

    def test_empty_is_error_not_zero(self):
        with pytest.raises(ValueError, match="empty"):
            micro_f1([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            micro_f1(["a"], ["a", "b"])


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
        write_sweep_csv(rows, str(path))
        back = read_sweep_csv(str(path))
        assert len(back) == len(rows)
        assert {r["value"] for r in back} == {"1", "2"}
        assert [float(r["micro_f1"]) for r in back] == [r["micro_f1"] for r in rows]

    def test_unknown_axis_rejected(self):
        docs, store = anchored_world(num_docs=3, mentions=4, seed=2)
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweep(docs[:1], docs[1:2], docs[2:], store, TrainConfig(), "beta")


def test_grad_check_passes_and_reports_every_tensor():
    report = grad_check(tolerance=1e-4, seed=0, samples_per_tensor=2)
    assert report["passed"], report
    names = set(report["per_tensor"])
    assert any(n.startswith("policy.") for n in names)
    assert any(n.startswith("selector.") for n in names)
    assert any(n.startswith("local_attn.") for n in names)
    assert any(n.startswith("transformer.") for n in names)


def test_oracles_stay_independent_of_the_package():
    # the whole point of the test-side oracles is that they share no code
    # with the implementation they check
    import pathlib

    import oracles as oracle_module

    source = pathlib.Path(oracle_module.__file__).read_text()
    assert "dynel" not in source
    for value in vars(oracle_module).values():
        assert not str(getattr(value, "__module__", "")).startswith("dynel")
