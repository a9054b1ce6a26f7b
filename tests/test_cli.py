import json

import numpy as np
import pytest

from dynel.cli import main
from dynel.corpus import load_corpus
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


def test_grad_check_cli(capsys):
    rc = main(["grad-check", "--samples", "2"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


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
