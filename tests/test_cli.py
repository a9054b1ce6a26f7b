import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from dynel import cli, harness
from dynel.cli import main
from dynel.corpus import EmbeddingStore, load_corpus
from dynel.harness import run_baseline
from dynel.model import ModelParams, load_checkpoint, save_checkpoint
from dynel.trainer import TrainConfig, evaluate


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
    rc = main(["link", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
               "--out", str(linked)])
    assert rc == 0
    capsys.readouterr()
    rows = [json.loads(l) for l in linked.read_text().splitlines()]
    assert len(rows) == 6
    assert all(len(r["links"]) == 4 for r in rows)

    rc = main(["eval", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
               "--order", "offset"])
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

    base = ["eval", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt), "--window", "1"]
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


@pytest.mark.parametrize("setting, message", [
    ({"epochs": -3}, "epochs must be >= 0, got -3"),
    ({"lr": -0.5}, "lr must be > 0, got -0.5"),
    ({"lr": float("nan")}, "lr must be finite, got nan"),
    ({"fusion_hidden": 0}, "fusion_hidden must be >= 1, got 0"),
    ({"local_model": "transformer", "attention_heads": 0}, "transformer heads must be >= 1, got 0"),
], ids=["epochs", "lr", "lr-nan", "fusion_hidden", "attention_heads"])
def test_out_of_range_settings_are_refused_before_the_corpus_is_read(tmp_path, capsys,
                                                                     setting, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(setting))
    out = tmp_path / "m.npz"
    rc = main(["train", "--config", str(cfg), "--corpus", str(tmp_path / "missing"),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ({"local_model": "bogus"},
     "local_model must be one of ('attn', 'transformer'), got 'bogus'"),
    ({"fusion": "bogus"}, "fusion must be one of ('ffn', 'sum'), got 'bogus'"),
    ({"features": ["prior", "bogus"]},
     "features must be a non-empty subset of ('coherence', 'prior', 'type', "
     "'neighborhood', 'local'), got ['prior', 'bogus']"),
    ({"features": []},
     "features must be a non-empty subset of ('coherence', 'prior', 'type', "
     "'neighborhood', 'local'), got []"),
], ids=["local_model", "fusion", "features", "no-features"])
def test_model_choices_are_refused_with_their_key_before_the_corpus_is_read(
        tmp_path, capsys, setting, message):
    # build_model refuses these too, but only after the corpus is read
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(setting))
    out = tmp_path / "m.npz"
    rc = main(["train", "--config", str(cfg), "--corpus", str(tmp_path / "missing"),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not out.exists()


def test_link_refuses_a_checkpoint_header_without_meta(corpus_dir, config_path, tmp_path,
                                                       capsys):
    _, store = load_corpus(corpus_dir)
    config = TrainConfig.from_dict(json.loads(config_path.read_text()))
    ckpt = tmp_path / "no-meta.npz"
    save_checkpoint(config.build_model(store, np.random.default_rng(0)), str(ckpt),
                    meta={"config": config.to_dict()})
    with np.load(ckpt) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["__header__"]).decode())
    del header["meta"]
    arrays["__header__"] = np.bytes_(json.dumps(header))
    np.savez(ckpt, **arrays)
    rc = main(["link", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "links.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: checkpoint {ckpt} has no dynel header")
    assert not (tmp_path / "links.jsonl").exists()


def test_link_refuses_a_file_without_a_dynel_header(corpus_dir, tmp_path, capsys):
    ckpt = tmp_path / "x.npz"
    np.savez(ckpt, a=np.zeros(2))
    rc = main(["link", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "links.jsonl")])
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


def test_sweep_refuses_an_empty_grid_before_training(corpus_dir, config_path, tmp_path,
                                                    monkeypatch, capsys):
    # an empty --grid is one empty value, not the default grid
    calls = []
    monkeypatch.setattr(harness, "train", lambda *a: calls.append(a))
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", str(config_path), "--corpus", str(corpus_dir),
               "--axis", "reward", "--grid", "", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.strip().startswith("error: reward must be one of")
    assert calls == []
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
    corpus = ["--corpus", str(corpus_dir)]
    assert main(["train", "--config", str(config_path), *corpus, "--out", str(ckpt)]) == 0
    capsys.readouterr()

    linked = tmp_path / "links.jsonl"
    assert main(["link", *corpus, "--checkpoint", str(ckpt), "--out", str(linked)]) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in linked.read_text().splitlines()]
    assert main(["eval", *corpus, "--checkpoint", str(ckpt), "--order", "dynamic"]) == 0
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
                                                                capsys, monkeypatch):
    cfg = TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                      head_dim=4, model_dim=20, encoder_ff_dim=12, head_hidden=6,
                      max_seq_len=64, max_candidates=2)
    docs, store = load_corpus(corpus_dir)
    ckpt = tmp_path / "transformer.npz"
    save_checkpoint(cfg.build_model(store, np.random.default_rng(0)), str(ckpt),
                    meta={"config": cfg.to_dict()})
    monkeypatch.setattr(ModelParams, "restore", lambda *a: pytest.fail("an array was restored"))
    rc = main([command, "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert not (tmp_path / "out").exists()
    first = docs[0].mentions[0]
    assert capsys.readouterr().err.strip() == (
        f"error: document {docs[0].id!r}: mention {first.id!r} has 3 candidates; max is 2")


def test_link_refuses_a_checkpoint_of_another_local_model(corpus_dir, config_path, tmp_path,
                                                          capsys):
    # tampered meta: the stored config says attn, the arrays are a transformer's
    docs, store = load_corpus(corpus_dir)
    other = TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                        head_dim=4, model_dim=20, encoder_ff_dim=12, head_hidden=6)
    ckpt = tmp_path / "transformer.npz"
    save_checkpoint(other.build_model(store, np.random.default_rng(0)), str(ckpt),
                    meta={"config": json.loads(config_path.read_text())})
    rc = main(["link", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "links.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.strip() == (
        f"error: checkpoint {ckpt} has local_model 'transformer'; the model has 'attn'")
    assert not (tmp_path / "links.jsonl").exists()


def test_link_refuses_a_transformer_checkpoint_of_another_vocabulary(corpus_dir, tmp_path,
                                                                     capsys):
    cfg = TrainConfig(local_model="transformer", encoder_layers=1, attention_heads=2,
                      head_dim=4, model_dim=20, encoder_ff_dim=12, head_hidden=6,
                      max_seq_len=64, max_candidates=4)
    _, store = load_corpus(corpus_dir)
    # the same number of words under other names: the word table keeps its shape
    renamed = {w: f"x{i:05d}" for i, w in enumerate(sorted(store.word_vecs))}
    other = EmbeddingStore(word_vecs={renamed[w]: v for w, v in store.word_vecs.items()},
                           entity_vecs=store.entity_vecs)
    ckpt = tmp_path / "other-vocab.npz"
    save_checkpoint(cfg.build_model(other, np.random.default_rng(0)), str(ckpt),
                    meta={"config": cfg.to_dict()})
    rc = main(["link", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "links.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.strip().startswith(
        f"error: checkpoint {ckpt} has vocab_sha256 ")
    assert not (tmp_path / "links.jsonl").exists()


@pytest.mark.parametrize("command", ["link", "eval"])
def test_link_and_eval_take_no_config_flag(command, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "cfg.json", "--corpus", "corpus",
              "--checkpoint", "model.npz", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_link_and_eval_build_the_model_train_stored(corpus_dir, tmp_path, capsys):
    # fields that shape no array: a model built from defaults would load these
    # arrays without complaint and link differently
    cfg = TrainConfig(window=3, epochs=2, lr=0.01, fusion_hidden=8, episodes_per_doc=1,
                      seed=0, feature_norm=False, policy_top_k=2, selector_top_k=2,
                      top_words=1)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    ckpt, linked = tmp_path / "model.npz", tmp_path / "links.jsonl"
    assert main(["train", "--config", str(config_path), "--corpus", str(corpus_dir),
                 "--out", str(ckpt)]) == 0
    echoed = capsys.readouterr().out.splitlines()[0]
    assert echoed == f"# config_hash={cfg.config_hash()} seed=0"
    assert main(["link", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
                 "--out", str(linked)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == echoed
    assert main(["eval", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
                 "--order", "dynamic"]) == 0
    eval_out = capsys.readouterr().out.splitlines()
    assert eval_out[0] == echoed

    docs, store = load_corpus(corpus_dir)

    def restored(config):
        params = config.build_model(store, np.random.default_rng(config.seed))
        load_checkpoint(params, str(ckpt))
        return params

    def link_lines(config):
        lines = []
        for doc, ep in zip(docs, evaluate(docs, store, restored(config), config)):
            by_step = {pos: step for step, pos in enumerate(ep.order)}
            links = [{"mention": m.id, "predicted": ep.predicted[by_step[m.position]],
                      "probability": ep.predicted_prob[by_step[m.position]],
                      "step": by_step[m.position]} for m in doc.mentions]
            lines.append(json.dumps({"id": doc.id, "links": links}, sort_keys=True) + "\n")
        return "".join(lines)

    assert linked.read_text() == link_lines(cfg)
    report = run_baseline(docs, store, restored(cfg), cfg, "dynamic", seed=cfg.seed)
    assert eval_out[-1] == report.to_json()
    defaults = replace(cfg, window=4, feature_norm=True, policy_top_k=7, selector_top_k=7,
                       top_words=25)
    assert link_lines(defaults) != link_lines(cfg)


NO_CONFIG = "checkpoint {} stores no config; save it with meta={{\"config\": config.to_dict()}}"


@pytest.mark.parametrize("command", ["link", "eval"])
@pytest.mark.parametrize("meta, message", [
    (None, NO_CONFIG),
    (["config"], NO_CONFIG),
    ({"config": {"lr": "x"}}, "config key 'lr' must be float, got 'x'"),
], ids=["no-config", "meta-not-an-object", "bad-config"])
def test_link_and_eval_refuse_a_checkpoint_without_a_usable_config(command, meta, message,
                                                                  corpus_dir, config_path,
                                                                  tmp_path, capsys):
    _, store = load_corpus(corpus_dir)
    config = TrainConfig.from_dict(json.loads(config_path.read_text()))
    ckpt, out = tmp_path / "model.npz", tmp_path / "out"
    save_checkpoint(config.build_model(store, np.random.default_rng(0)), str(ckpt), meta=meta)
    # refused before the corpus is read, so it need not exist
    rc = main([command, "--corpus", str(tmp_path / "missing"), "--checkpoint", str(ckpt),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == "error: " + message.format(ckpt)
    assert not out.exists()


@pytest.mark.parametrize("command", ["link", "eval"])
def test_link_and_eval_refuse_a_non_finite_checkpoint(command, corpus_dir, config_path,
                                                       tmp_path, capsys):
    # restored, it would link every mention with probability NaN, and the
    # links file would hold NaN, which is not JSON
    _, store = load_corpus(corpus_dir)
    config = TrainConfig.from_dict(json.loads(config_path.read_text()))
    params = config.build_model(store, np.random.default_rng(0))
    params.selector.linked_coherence.diag.data[0] = np.nan
    ckpt, out = tmp_path / "model.npz", tmp_path / "out"
    save_checkpoint(params, str(ckpt), meta={"config": config.to_dict()})
    capsys.readouterr()
    rc = main([command, "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == (
        f"error: checkpoint {ckpt} has a non-finite value in selector.linked_coherence")
    assert not out.exists()


@pytest.mark.parametrize("command", ["link", "eval"])
def test_link_and_eval_refuse_a_non_finite_window_distribution(command, tmp_path, capsys):
    # a finite init pair whose history match overflows: greedy linking would
    # take the argmax of NaN probabilities without a word
    corpus = tmp_path / "corpus"
    assert main(["gen-corpus", "--out", str(corpus), "--docs", "4", "--mentions", "4",
                 "--candidates", "3", "--dim", "16", "--seed", "0"]) == 0
    docs, store = load_corpus(corpus)
    config = TrainConfig(window=2, fusion_hidden=8)
    params = config.build_model(store, np.random.default_rng(0))
    params.policy.init_pair.data[...] = 1e308
    ckpt, out = tmp_path / "model.npz", tmp_path / "out"
    save_checkpoint(params, str(ckpt), meta={"config": config.to_dict()})
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = main([command, "--corpus", str(corpus), "--checkpoint", str(ckpt),
                   "--out", str(out)])
    assert rc == 1
    # every document of the lockstep batch fails; the first is named
    assert capsys.readouterr().err.strip() == (
        f"error: non-finite window distribution at document {docs[0].id}")


def test_eval_out_holds_the_printed_report(corpus_dir, config_path, tmp_path, capsys):
    ckpt, out = tmp_path / "model.npz", tmp_path / "report.json"
    assert main(["train", "--config", str(config_path), "--corpus", str(corpus_dir),
                 "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["eval", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt),
                 "--order", "offset", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert out.read_text() == printed[-1] + "\n"
    assert json.loads(printed[-1])["strategy"] == "offset"
