import csv
import json

import numpy as np
import pytest

from dynel import cli, harness
from dynel.cli import main
from dynel.corpus import EmbeddingStore, load_corpus
from dynel.model import save_checkpoint
from dynel.trainer import TrainConfig


@pytest.fixture
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    rc = main([
        "gen-corpus", "--out", str(out), "--docs", "6", "--mentions", "4",
        "--candidates", "3", "--dim", "20", "--anchor-fraction", "0.5",
        "--seed", "3",
    ])
    assert rc == 0
    return out


@pytest.fixture
def config_path(tmp_path):
    cfg = TrainConfig(window=2, epochs=2, lr=0.01, fusion_hidden=8,
                      episodes_per_doc=1, seed=0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def test_gen_corpus_is_loadable(corpus_dir):
    docs, store = load_corpus(corpus_dir)
    assert len(docs) == 6
    assert store.dim == 20


def test_gen_corpus_rejects_bad_spec(tmp_path, capsys):
    rc = main(["gen-corpus", "--out", str(tmp_path / "x"), "--docs", "2",
               "--mentions", "1", "--anchor-fraction", "0.5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_2(corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["gen-corpus", "--out", "x", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_train_missing_config_fails(corpus_dir, tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "missing.cfg"),
               "--corpus", str(corpus_dir), "--out", str(tmp_path / "m.npz")])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    ({"windw": 4}, "error: unknown config keys: windw"),
    ({"top_words": 0}, "error: top_words must be >= 1, got 0"),
])
def test_train_rejects_a_bad_config_with_a_message(corpus_dir, tmp_path, capsys,
                                                   bad, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    rc = main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
               "--out", str(tmp_path / "m.npz")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


@pytest.mark.parametrize("fraction", ["1.0", "1.5", "-0.5"])
def test_train_refuses_a_validation_fraction_outside_0_1(fraction, corpus_dir, config_path,
                                                         tmp_path, capsys):
    rc = main(["train", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--out", str(tmp_path / "m.npz"), "--val-fraction", fraction])
    assert rc == 1
    assert capsys.readouterr().err.strip() == (
        f"error: --val-fraction must lie in [0, 1), got {float(fraction)}")
    assert not (tmp_path / "m.npz").exists()


def test_train_with_validation_fraction_zero_holds_back_no_document(
        corpus_dir, config_path, tmp_path, monkeypatch):
    sizes = []
    real = cli.train

    def recorded(train_docs, val_docs, *args, **kwargs):
        sizes.append((len(train_docs), len(val_docs)))
        return real(train_docs, val_docs, *args, **kwargs)

    monkeypatch.setattr(cli, "train", recorded)
    rc = main(["train", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--out", str(tmp_path / "m.npz"), "--val-fraction", "0"])
    assert rc == 0
    assert sizes == [(6, 0)]


def test_train_without_validation_writes_strict_json_metrics(corpus_dir, config_path,
                                                             tmp_path, capsys):
    metrics = tmp_path / "metrics.jsonl"
    rc = main(["train", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--out", str(tmp_path / "m.npz"), "--val-fraction", "0",
               "--metrics", str(metrics)])
    assert rc == 0
    assert "best_val_accuracy=none" in capsys.readouterr().out.splitlines()

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    rows = [json.loads(line, parse_constant=refuse)
            for line in metrics.read_text().splitlines()]
    assert len(rows) == 2
    assert all(row["val_accuracy"] is None for row in rows)


def test_train_link_eval_pipeline(corpus_dir, config_path, tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    metrics = tmp_path / "metrics.jsonl"
    rc = main(["train", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--out", str(ckpt), "--metrics", str(metrics)])
    assert rc == 0
    train_out = capsys.readouterr().out
    assert "config_hash=" in train_out
    assert ckpt.exists()
    assert len(metrics.read_text().splitlines()) == 2

    linked = tmp_path / "links.jsonl"
    rc = main(["link", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--checkpoint", str(ckpt), "--out", str(linked)])
    assert rc == 0
    capsys.readouterr()
    rows = [json.loads(l) for l in linked.read_text().splitlines()]
    assert len(rows) == 6
    assert all(len(r["links"]) == 4 for r in rows)

    rc = main(["eval", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--checkpoint", str(ckpt), "--order", "offset"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert 0.0 <= report["micro_f1"] <= 1.0
    assert report["strategy"] == "offset"


def test_eval_offset_equals_dynamic_w1(corpus_dir, config_path, tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    assert main(["train", "--config", str(config_path), "--corpus", str(corpus_dir),
                 "--out", str(ckpt)]) == 0
    capsys.readouterr()

    def run(args):
        assert main(args) == 0
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    base = ["eval", "--config", str(config_path), "--corpus", str(corpus_dir),
            "--checkpoint", str(ckpt), "--window", "1"]
    offset = run(base + ["--order", "offset"])
    dynamic = run(base + ["--order", "dynamic"])
    for key in ("micro_f1", "per_doc_accuracy", "flags", "orders",
                "mean_displacement"):
        assert offset[key] == dynamic[key]


def test_train_rerun_reproduces_metrics_bit_exactly(corpus_dir, config_path,
                                                    tmp_path, capsys):
    out = []
    for tag in ("a", "b"):
        metrics = tmp_path / f"metrics_{tag}.jsonl"
        rc = main(["train", "--config", str(config_path), "--corpus", str(corpus_dir),
                   "--out", str(tmp_path / f"m_{tag}.npz"), "--metrics", str(metrics)])
        assert rc == 0
        capsys.readouterr()
        out.append(metrics.read_bytes())
    assert out[0] == out[1]


def test_reward_table_reproduces_reference_example(capsys):
    rc = main(["reward-table", "--flags", "1110001", "--L", "7", "--t", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "R1: base=-3 " in out
    assert "base=-27/7" in out
    assert "3xTT 1xTF 2xFF 1xFT" in out


def test_reward_table_rejects_bad_flags(capsys):
    assert main(["reward-table", "--flags", "10x1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("transition", ["0,-2", "0,-2,-1,0,1"])
def test_reward_table_needs_four_transition_rewards(transition, capsys):
    rc = main(["reward-table", "--flags", "10", "--transition", transition,
               "--probs", "0.5,0.5"])
    assert rc == 1
    count = len(transition.split(","))
    assert capsys.readouterr().err.strip() == (
        f"error: transition needs 4 values (tt, tf, ff, ft), got {count}")


def test_grad_check_cli(capsys):
    rc = main(["grad-check", "--samples", "2"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_config_type_errors_are_reported_before_the_corpus_is_read(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"epochs": "1"}))
    rc = main(["train", "--config", str(cfg), "--corpus", str(tmp_path / "missing"),
               "--out", str(tmp_path / "m.npz")])
    assert rc == 1
    assert capsys.readouterr().err.strip() == "error: config key 'epochs' must be int, got '1'"


def test_link_refuses_a_file_without_a_dynel_header(corpus_dir, config_path, tmp_path,
                                                    capsys):
    ckpt = tmp_path / "x.npz"
    np.savez(ckpt, a=np.zeros(2))
    rc = main(["link", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--checkpoint", str(ckpt), "--out", str(tmp_path / "links.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: checkpoint {ckpt} has no dynel header")
    assert not (tmp_path / "links.jsonl").exists()


def test_sweep_refuses_a_bad_grid_before_training(corpus_dir, config_path, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.setattr(harness, "train", lambda *a: pytest.fail("a grid value trained"))
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--axis", "window", "--grid", "2,0", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == "error: window must be >= 1 or None"
    assert not out.exists()


def test_ordering_experiment_prints_paired_seeds_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "ordering.csv"
    rc = main(["ordering-experiment", "--docs", "20", "--mentions", "4", "--candidates", "3",
               "--dim", "16", "--seeds", "0,1", "--epochs", "1", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    config = json.loads(lines[0].removeprefix("# config="))
    assert config == {"corpus_seed": 20240808, "epochs": 1, "gamma": 0.9, "lr": 0.01,
                      "mentions_per_doc": 4, "num_docs": 20, "reward": "r1",
                      "rl_weight": 1e-4, "seeds": [0, 1], "window": 4}
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["seed"] for r in rows] == ["0", "1"]
    for row, line in zip(rows, lines[1:3]):
        d, o, gap = (float(row[k]) for k in ("dynamic", "offset", "gap"))
        assert gap == d - o
        assert line == f"seed={row['seed']} dynamic={d:.4f} offset={o:.4f} gap={gap:+.4f}"
    gaps = [float(r["gap"]) for r in rows]
    assert lines[3] == f"wins={sum(g > 0 for g in gaps)}/2 mean_gap={np.mean(gaps):+.4f}"
    assert lines[4:] == [f"wrote {out}"]
    assert out.read_text().splitlines()[0] == "seed,dynamic,offset,gap"


def test_sweep_cli_writes_csv(corpus_dir, config_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--axis", "window", "--grid", "1,2", "--seeds", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis,value,seed,micro_f1,config_hash"
    assert len(lines) > 2


def test_transformer_train_link_eval_round_trip(corpus_dir, tmp_path, capsys):
    cfg = TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                      head_dim=4, model_dim=20, encoder_ff_dim=12, head_hidden=6,
                      max_seq_len=64, max_candidates=4, window=2, epochs=1, lr=0.01,
                      fusion_hidden=8, episodes_per_doc=1, seed=0)
    config_path = tmp_path / "transformer.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    ckpt = tmp_path / "model.npz"
    common = ["--config", str(config_path), "--corpus", str(corpus_dir)]
    assert main(["train", *common, "--out", str(ckpt)]) == 0
    capsys.readouterr()

    linked = tmp_path / "links.jsonl"
    assert main(["link", *common, "--checkpoint", str(ckpt), "--out", str(linked)]) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in linked.read_text().splitlines()]
    assert main(["eval", *common, "--checkpoint", str(ckpt), "--order", "dynamic"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["config_echo"]["local_model"] == "transformer"

    # link and eval restore the same trained model: both report the same links
    docs, _ = load_corpus(corpus_dir)
    golds = {m.id: m.gold for doc in docs for m in doc.mentions}
    for row, order, flags in zip(rows, report["orders"], report["flags"]):
        by_step = sorted(row["links"], key=lambda link: link["step"])
        assert [link["step"] for link in by_step] == list(range(len(order)))
        assert [int(link["predicted"] == golds[link["mention"]]) for link in by_step] == flags
    # and the checkpoint holds the transformer's parameters
    with np.load(ckpt) as data:
        assert "transformer.word_embed" in data.files


@pytest.mark.parametrize("command", ["link", "eval"])
def test_link_and_eval_refuse_inputs_over_the_transformer_caps(command, corpus_dir, tmp_path,
                                                                capsys):
    cfg = TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                      head_dim=4, model_dim=20, encoder_ff_dim=12, head_hidden=6,
                      max_seq_len=64, max_candidates=2)
    config_path = tmp_path / "transformer.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    # refused before the checkpoint is read, so it need not exist
    rc = main([command, "--config", str(config_path), "--corpus", str(corpus_dir),
               "--checkpoint", str(tmp_path / "none.npz"), "--out", str(tmp_path / "out")])
    assert rc == 1
    docs, _ = load_corpus(corpus_dir)
    first = docs[0].mentions[0]
    assert capsys.readouterr().err.strip() == (
        f"error: document {docs[0].id!r}: mention {first.id!r} has 3 candidates; max is 2")


def test_link_refuses_a_checkpoint_of_another_local_model(corpus_dir, config_path, tmp_path,
                                                          capsys):
    docs, store = load_corpus(corpus_dir)
    other = TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                        head_dim=4, model_dim=20, encoder_ff_dim=12, head_hidden=6)
    ckpt = tmp_path / "transformer.npz"
    save_checkpoint(other.build_model(store, np.random.default_rng(0)), str(ckpt))
    rc = main(["link", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--checkpoint", str(ckpt), "--out", str(tmp_path / "links.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.strip() == (
        f"error: checkpoint {ckpt} has local_model 'transformer'; the model has 'attn'")
    assert not (tmp_path / "links.jsonl").exists()


def test_link_refuses_a_transformer_checkpoint_of_another_vocabulary(corpus_dir, tmp_path,
                                                                     capsys):
    cfg = TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                      head_dim=4, model_dim=20, encoder_ff_dim=12, head_hidden=6,
                      max_seq_len=64, max_candidates=4)
    config_path = tmp_path / "transformer.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    _, store = load_corpus(corpus_dir)
    # the same number of words under other names: the word table keeps its shape
    renamed = {w: f"x{i:05d}" for i, w in enumerate(sorted(store.word_vecs))}
    other = EmbeddingStore(word_vecs={renamed[w]: v for w, v in store.word_vecs.items()},
                           entity_vecs=store.entity_vecs)
    ckpt = tmp_path / "other-vocab.npz"
    save_checkpoint(cfg.build_model(other, np.random.default_rng(0)), str(ckpt))
    rc = main(["link", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--checkpoint", str(ckpt), "--out", str(tmp_path / "links.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.strip().startswith(
        f"error: checkpoint {ckpt} has vocab_sha256 ")
    assert not (tmp_path / "links.jsonl").exists()
