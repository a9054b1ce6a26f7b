"""The benchmark's own tests: tiny runs complete with every check passing,
and the checks reject corrupted results.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import compare  # noqa: E402
import measure  # noqa: E402
from dynel import harness, policy, trainer  # noqa: E402
from dynel.corpus import load_corpus  # noqa: E402
from dynel.local_transformer import TransformerConfig  # noqa: E402
from dynel.synthetic import SyntheticSpec, generate_synthetic  # noqa: E402
from spans import LAYER_SPANS, Tracer, patched  # noqa: E402
from workloads import WORKLOADS, write_corpus  # noqa: E402

SEED = 3
# enough training for the learned order to show on this seed (4 documents are not)
TINY = replace(WORKLOADS["anchored-attn"], train_docs=24, link_docs=6, setup_repeats=1)
TINY_TRANSFORMER = replace(
    WORKLOADS["transformer-bigvocab"], train_docs=1, link_docs=2, dim=24, vocab_size=60,
    setup_repeats=1,
    transformer=TransformerConfig(layers=1, heads=2, head_dim=4, model_dim=24, ff_dim=12,
                                  hidden=6, max_seq_len=32, max_candidates=4),
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "corpus"
    write_corpus(TINY, SEED, path)
    return path


def _run(w, corpus_dir, tmp_path, tracer=None):
    return measure.run(w, SEED, corpus_dir, tmp_path / "model.npz", seconds=0,
                       setup_repeats=1, tracer=tracer)


def test_tiny_run_passes_every_check(corpus_dir, tmp_path):
    out = _run(TINY, corpus_dir, tmp_path)
    assert out.problems == [] and out.failed == 0
    # one training round, three checked linking passes, two timed ones
    assert out.attempted == TINY.train_docs + 5 * TINY.link_docs
    assert all(value > 0 for value, _ in out.end_to_end().values())


def test_tiny_transformer_run_passes_every_check(tmp_path):
    write_corpus(TINY_TRANSFORMER, SEED, tmp_path / "corpus")
    out = _run(TINY_TRANSFORMER, tmp_path / "corpus", tmp_path)
    assert out.problems == [] and out.failed == 0


def test_long_documents_keep_whole_anchor_pairs(tmp_path):
    w = replace(WORKLOADS["long-docs-wholewin"], train_docs=11, link_docs=11)
    write_corpus(w, SEED, tmp_path / "corpus")
    docs, _ = load_corpus(tmp_path / "corpus")
    lengths = sorted(len(d.mentions) for d in docs[:11])
    assert lengths == list(range(20, 31))
    assert all(d.mentions[-1].position >= 2 * w.anchor_pairs - 1 for d in docs)


def test_traced_run_links_the_same_and_reports_every_layer(corpus_dir, tmp_path):
    plain = _run(TINY, corpus_dir, tmp_path)
    original = policy.select_action
    tracer = Tracer()
    with tracer.installed():
        assert trainer.select_action.__wrapped__ is original
        traced = _run(TINY, corpus_dir, tmp_path, tracer)
    assert trainer.select_action is original and policy.select_action is original
    assert traced.digest == plain.digest and traced.failed == 0

    metrics = tracer.layer_metrics()
    assert set(metrics) == {f"{n}.{k}" for n in LAYER_SPANS for k in ("calls", "self_s")} | {
        "autodiff.graph_nodes_per_update"}
    assert metrics["trainer.Adam.step.calls"][0] == TINY.train_docs
    assert metrics["autodiff.backward.calls"][0] == TINY.train_docs
    assert metrics["harness.run_baseline.calls"][0] == 5
    assert metrics["autodiff.graph_nodes_per_update"][0] > 100
    assert metrics["local_transformer.local_scores_transformer.calls"][0] == 0
    assert 0 < tracer.coverage("bench.train") <= 1


def _corrupting(change):
    """A ``run_baseline`` whose report is altered by ``change``."""
    original = harness.run_baseline

    def corrupted(*args, **kwargs):
        return change(original(*args, **kwargs))

    return corrupted


def test_checks_reject_a_misreported_f1(corpus_dir, tmp_path):
    lowered = _corrupting(lambda rep: replace(rep, micro_f1=rep.micro_f1 - 1e-9))
    with patched(harness, "run_baseline", lowered):
        out = _run(TINY, corpus_dir, tmp_path)
    assert out.failed == 3 * TINY.link_docs
    assert all("F1 differs from the recount" in p for p in out.problems)


def test_checks_reject_an_order_outside_the_window(corpus_dir, tmp_path):
    def reverse_first(rep):
        return replace(rep, orders=(tuple(reversed(rep.orders[0])),) + rep.orders[1:])

    with patched(harness, "run_baseline", _corrupting(reverse_first)):
        out = _run(TINY, corpus_dir, tmp_path)
    assert out.failed > 0
    broken = [p for p in out.problems if "order breaks the window (1 of" in p]
    assert len(broken) == 3    # document 0 of each checked pass
    assert any("not the document order" in p for p in out.problems)


def test_window_replay():
    docs, _ = generate_synthetic(SyntheticSpec(num_docs=1, mentions_per_doc=8,
                                               candidates_per_mention=4))
    assert checks.window_faults([[1, 0, 2, 3, 4, 5, 6, 7]], docs, 2) == []
    assert checks.window_faults([[2, 0, 1, 3, 4, 5, 6, 7]], docs, 2) == [0]
    assert checks.window_faults([[2, 0, 1, 3, 4, 5, 6, 7]], docs, None) == []
    assert checks.window_faults([[0, 0, 1, 3, 4, 5, 6, 7]], docs, None) == [0]
    assert checks.anchor_first_rate([[1, 0, 2, 3, 4, 5, 6, 7]], 4) == 0.25


def test_compare_flags_a_regression_beyond_its_bound(tmp_path, capsys):
    def write(path, rate):
        rec = {"workload": "anchored-attn", "metrics": {
            "train_mention_steps_per_s": {"value": rate, "unit": "mention-steps/s"},
            "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}
        path.write_text(json.dumps(rec) + "\n")

    write(tmp_path / "base.jsonl", 1000.0)
    write(tmp_path / "slower.jsonl", 700.0)
    write(tmp_path / "same.jsonl", 900.0)     # within the 0.25 bound
    spec = BENCH.parent / "BENCHMARK.json"
    assert compare.main(spec, tmp_path / "base.jsonl", tmp_path / "same.jsonl") == 0
    assert compare.main(spec, tmp_path / "base.jsonl", tmp_path / "slower.jsonl") == 1
    flagged = [line for line in capsys.readouterr().out.splitlines() if "REGRESSION" in line]
    assert len(flagged) == 1 and "train_mention_steps_per_s" in flagged[0]
