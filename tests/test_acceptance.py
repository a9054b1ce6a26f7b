"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS line when its assertions hold, so a verbose
run doubles as the acceptance report.  The training-based criteria are the
slow ones; the whole module targets a laptop-CPU pytest run.
"""

import itertools
import json
import time

import numpy as np
import pytest

from dynel import autodiff as ad
from dynel.autodiff import Tensor
from dynel.cli import main as cli_main
from dynel.corpus import CandidateEntity, Document, EmbeddingStore, Mention
from dynel.harness import (
    grad_check,
    ordering_experiment,
    run_baseline,
)
from dynel.local_transformer import (
    TransformerConfig,
    TransformerLocalParams,
    build_input,
    local_scores_transformer,
    transformer_ablation,
)
from dynel.model import build_model
from dynel.policy import ActionWindow
from dynel.rewards import (
    EpisodeOutcome,
    TransitionRewards,
    reward_r1,
    reward_r2,
    reward_r3,
    transition_counts,
)
from dynel.selector import SelectorParams, linked_context_feature, neighborhood_scores
from dynel.synthetic import SyntheticSpec, generate_synthetic
from dynel.trainer import Adam, TrainConfig, rollout, train

import oracles

S1 = (False, True, False, True, True, True, True)
S2 = (True, True, True, False, False, False, True)
S3 = (True, False, False, True, True, True, True)


def _base(fn, flags, **kw):
    out = EpisodeOutcome(flags, gamma=0.9)
    return fn(out, out.length, **kw) * out.length


def test_criterion_01_reward_worked_example():
    start = time.time()
    assert abs(_base(reward_r1, S1) - (-6)) <= 1e-12
    assert abs(_base(reward_r1, S2) - (-3)) <= 1e-12
    assert abs(_base(reward_r1, S3) - (-5)) <= 1e-12
    assert abs(_base(reward_r3, S1) - (-24 / 7)) <= 1e-12
    assert abs(_base(reward_r3, S2) - (-27 / 7)) <= 1e-12
    assert abs(_base(reward_r3, S3) - (-23 / 7)) <= 1e-12

    counts = transition_counts(S2)
    assert (counts["tt"], counts["tf"], counts["ff"], counts["ft"]) == (3, 1, 2, 1)
    lam = TransitionRewards()
    decomposed = 3 * lam.tt + 1 * lam.tf + 2 * lam.ff + 1 * lam.ft
    assert abs(_base(reward_r2, S2, lam=lam) - decomposed) <= 1e-12

    sols = oracles.solve_flag_reconstruction()
    assert S1 in sols["s1"] and S2 in sols["s2"] and S3 in sols["s3"]
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPT 1 PASS: worked-example rewards exact "
          f"(R1 -6/-3/-5, R3 -24/7,-27/7,-23/7, R2 3TT+1TF+2FF; {elapsed:.3f}s)")


def test_criterion_02_reward_orderings_and_r3_properties():
    start = time.time()
    r1 = {k: _base(reward_r1, f) for k, f in {"s1": S1, "s2": S2, "s3": S3}.items()}
    assert r1["s2"] > r1["s3"] > r1["s1"]
    r3 = {k: _base(reward_r3, f) for k, f in {"s1": S1, "s2": S2, "s3": S3}.items()}
    assert r3["s3"] > r3["s1"] > r3["s2"]

    by_count: dict[int, list[float]] = {}
    for bits in itertools.product((True, False), repeat=7):
        out = EpisodeOutcome(bits)
        by_count.setdefault(sum(not b for b in bits), []).append(reward_r3(out, 7))
        # equal accuracy, one error moved later -> strictly better
    for k in range(1, 8):
        assert max(by_count[k]) < max(by_count[k - 1])
    for bits in itertools.product((True, False), repeat=7):
        for i in range(6):
            if not bits[i] and bits[i + 1]:
                moved = list(bits)
                moved[i], moved[i + 1] = moved[i + 1], moved[i]
                assert (
                    reward_r3(EpisodeOutcome(tuple(moved)), 7)
                    > reward_r3(EpisodeOutcome(bits), 7)
                )
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPT 2 PASS: R1 ordering s2>s3>s1, R3 ordering s3>s1>s2, "
          f"accuracy dominates + later errors preferred over all 2^7 patterns ({elapsed:.3f}s)")


def test_criterion_03_gradient_fidelity_100_seeds():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        report = grad_check(tolerance=1e-4, seed=seed, samples_per_tensor=2,
                            include_transformer=True)
        worst = max(worst, report["max_relative_error"])
        assert report["passed"], (seed, report["max_relative_error"])
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\nACCEPT 3 PASS: finite-difference checks on every trainable tensor, "
          f"100 seeds, worst rel err {worst:.2e} <= 1e-4 ({elapsed:.1f}s)")


def test_criterion_04_reinforce_bandit():
    start = time.time()
    theta = np.array([0.3, -0.2])
    pi = np.exp(theta - theta.max())
    pi /= pi.sum()
    analytic = np.array([pi[0] * (1 - pi[0]), -pi[0] * pi[1]])

    # our log-prob gradients realise the score function exactly
    t = ad.parameter(theta.copy())
    for a in (0, 1):
        grads = ad.backward(ad.item(ad.log_softmax(t), a))
        assert np.allclose(grads[t], np.eye(2)[a] - pi, atol=1e-12)

    rng = np.random.default_rng(0)
    n = 100_000
    acts = rng.choice(2, size=n, p=pi)
    rewards = (acts == 0).astype(float)
    per_sample = rewards[:, None] * (np.eye(2)[acts] - pi)
    mc = per_sample.mean(axis=0)
    se = per_sample.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mc - analytic) <= 3 * se)

    # 200 ascent steps: expected reward strictly increases
    theta_t = ad.parameter(np.array([0.0, 0.0]))
    opt = Adam([theta_t])
    exact, batch_means = [], []
    for step in range(200):
        p = np.exp(theta_t.data - theta_t.data.max())
        p /= p.sum()
        exact.append(p[0])
        batch = rng.choice(2, size=256, p=p)
        r = (batch == 0).astype(float)
        batch_means.append(r.mean())
        grad_est = (r[:, None] * (np.eye(2)[batch] - p)).mean(axis=0)
        opt.step({theta_t: -grad_est}, 0.008)  # descend the negated objective
    p_final = np.exp(theta_t.data - theta_t.data.max())
    p_final /= p_final.sum()
    assert p_final[0] > exact[0]
    blocks = [np.mean(batch_means[i : i + 20]) for i in range(0, 200, 20)]
    assert all(a < b for a, b in zip(blocks, blocks[1:])), blocks
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPT 4 PASS: MC gradient within 3 SE of closed form; expected "
          f"reward rose {exact[0]:.3f} -> {p_final[0]:.3f} over 200 ascent steps, "
          f"block means strictly increasing ({elapsed:.1f}s)")


def test_criterion_05_w1_degeneracy_bit_exact():
    spec = SyntheticSpec(num_docs=12, mentions_per_doc=7, candidates_per_mention=4,
                         embedding_dim=32, anchor_fraction=0.4, noise_scale=0.05,
                         seed=51)
    docs, store = generate_synthetic(spec)
    cfg = TrainConfig(window=1, epochs=1, fusion_hidden=8)
    params = build_model(store, np.random.default_rng(0), fusion_hidden=8)
    for doc in docs:
        with ad.no_grad():
            dyn = rollout(doc, store, params, cfg, mode="eval")
            off = rollout(doc, store, params, cfg, mode="eval",
                          order=[m.position for m in doc.mentions])
        assert dyn.order == off.order
        assert dyn.predicted == off.predicted
        assert dyn.flags == off.flags
        assert dyn.predicted_prob == off.predicted_prob  # float-for-float
    print(f"\nACCEPT 5 PASS: W=1 dynamic rollout trace-identical to the offset "
          f"baseline on all {len(docs)} documents (bit-exact)")


def test_criterion_06_window_discipline_and_enumeration():
    rng = np.random.default_rng(6)
    runs = 0
    while runs < 1000:
        n = int(rng.integers(2, 9))
        w = int(rng.integers(2, 5))
        window = ActionWindow(w, tuple(range(n)))
        chosen = []
        while window.unresolved:
            acts = window.actions()
            assert list(acts) == sorted(window.unresolved)[: min(w, len(window.unresolved))]
            pick = acts[int(rng.integers(len(acts)))]
            chosen.append(pick)
            window = ActionWindow(w, tuple(p for p in window.unresolved if p != pick))
        assert sorted(chosen) == list(range(n))
        runs += 1
    counts_checked = 0
    for n in range(1, 7):
        for w in range(1, 5):
            assert len(oracles.enumerate_orderings(list(range(n)), w)) == \
                oracles.count_orderings(n, w)
            counts_checked += 1
    print(f"\nACCEPT 6 PASS: window discipline held over {runs} random rollouts; "
          f"enumeration counts match the recursive oracle in {counts_checked} cells")


def test_criterion_07_dual_implementation_agreement():
    worst_policy = worst_pool = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 6))
        from dynel.policy import LinkingState, PolicyParams, select_action

        params = PolicyParams.build(dim, top_k=int(rng.integers(1, 6)))
        params.history_match.diag.data[...] = rng.normal(size=2 * dim)
        params.action_scorer.diag.data[...] = rng.normal(size=2 * dim)
        params.init_pair.data[...] = rng.normal(size=2 * dim)
        hist = rng.normal(size=(int(rng.integers(1, 6)), 2 * dim))
        state = LinkingState((params.init_pair, *(Tensor(h) for h in hist)))
        acts = tuple(range(int(rng.integers(1, 5))))
        reps = {a: Tensor(rng.normal(size=2 * dim)) for a in acts}
        _, _, probs = select_action(state, ActionWindow(len(acts), acts), reps, params)
        expected = oracles.policy_distribution(
            np.vstack([params.init_pair.data[None], hist]),
            np.stack([reps[a].data for a in acts]),
            params.history_match.diag.data,
            params.action_scorer.diag.data,
            params.top_k,
        )
        worst_policy = max(worst_policy, float(np.abs(probs - expected).max()))

        # pooled coherence + neighborhood machinery
        n_ent = 8
        store = EmbeddingStore(
            word_vecs={"w": rng.normal(size=dim)},
            entity_vecs={f"e{i}": rng.normal(size=dim) for i in range(n_ent)},
            kg_adjacency={f"e{i}": frozenset({f"e{(i + 3) % n_ent}"}) for i in range(4)},
        )
        sel = SelectorParams.build(dim, rng, hidden=4,
                                   top_entities=int(rng.integers(1, 5)))
        sel.linked_coherence.diag.data[...] = rng.normal(size=dim)
        sel.neighborhood_coherence.diag.data[...] = rng.normal(size=dim)
        cands = [f"e{i}" for i in range(3)]
        cand_mat = Tensor(np.stack([store.entity_vecs[c] for c in cands]))
        linked = tuple(f"e{i}" for i in range(3, 3 + int(rng.integers(1, 4))))
        pooled = linked_context_feature(cand_mat, linked, store, sel)
        expected_pool = oracles.pooled_feature(
            cand_mat.data, np.stack([store.entity_vecs[e] for e in linked]),
            sel.linked_coherence.diag.data, sel.top_entities,
        )
        worst_pool = max(worst_pool, float(np.abs(pooled.data - expected_pool).max()))

        got_n = neighborhood_scores(cand_mat, linked, store, sel).data
        neighbor_ids = sorted(set().union(*[store.neighbors(e) for e in linked], set()))
        if neighbor_ids:
            expected_n = oracles.pooled_scores(
                cand_mat.data, np.stack([store.entity_vecs[e] for e in neighbor_ids]),
                sel.neighborhood_coherence.diag.data, sel.top_entities,
            )
        else:
            expected_n = np.zeros(3)
        worst_pool = max(worst_pool, float(np.abs(got_n - expected_n).max()))

    assert worst_policy <= 1e-10
    assert worst_pool <= 1e-10
    print(f"\nACCEPT 7 PASS: policy distribution and coherence pooling match "
          f"straight-line oracles on 100 instances each "
          f"(max dev {worst_policy:.1e} / {worst_pool:.1e} <= 1e-10)")


@pytest.mark.slow
def test_criterion_08_ordering_effect():
    start = time.time()
    anchored = ordering_experiment(
        anchor_fraction=0.5, num_docs=260, mentions_per_doc=8,
        candidates_per_mention=4, seeds=(0, 1, 2, 3, 4),
        window=4, epochs=8, lr=0.01, rl_weight=1e-4, gamma=0.9,
        policy_top_k=7,
    )
    assert anchored["wins"] >= 4, anchored
    assert anchored["mean_gap"] >= 0.03, anchored

    control = ordering_experiment(
        anchor_fraction=0.0, num_docs=260, mentions_per_doc=8,
        candidates_per_mention=4, seeds=(0, 1, 2),
        window=4, epochs=8, lr=0.01, rl_weight=1e-4, gamma=0.9,
        policy_top_k=7,
    )
    assert control["mean_abs_gap"] <= 0.01, control
    elapsed = time.time() - start
    assert elapsed < 1800.0
    print(f"\nACCEPT 8 PASS: dynamic beat the W=1 control in "
          f"{anchored['wins']}/5 paired seeds, mean gap "
          f"{100 * anchored['mean_gap']:.1f} points (>= 3); unambiguous control "
          f"|gap| {100 * control['mean_abs_gap']:.2f} points (<= 1) "
          f"({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_09_exhaustive_best_sandwich():
    spec = SyntheticSpec(num_docs=40, mentions_per_doc=6, candidates_per_mention=4,
                         embedding_dim=28, anchor_fraction=0.5, noise_scale=0.05,
                         seed=90)
    docs, store = generate_synthetic(spec)
    train_docs, val_docs, test_docs = docs[:26], docs[26:30], docs[30:]
    cfg = TrainConfig(window=4, epochs=8, lr=0.01, rl_weight=1e-4,
                      episodes_per_doc=2, fusion_hidden=16, seed=0)
    result = train(train_docs, val_docs, store, cfg)

    best = run_baseline(test_docs, store, result.params, cfg, "exhaustive-best")
    dynamic = run_baseline(test_docs, store, result.params, cfg, "dynamic")
    offset = run_baseline(test_docs, store, result.params, cfg, "offset")
    for b, d in zip(best.per_doc_accuracy, dynamic.per_doc_accuracy):
        assert b >= d - 1e-12
    assert best.micro_f1 >= dynamic.micro_f1 >= offset.micro_f1
    print(f"\nACCEPT 9 PASS: exhaustive-best {best.micro_f1:.3f} >= trained policy "
          f"{dynamic.micro_f1:.3f} >= offset {offset.micro_f1:.3f} "
          f"on {len(test_docs)} anchored documents (L=6)")


def _beacon_world(n_docs, n_mentions=4, n_cands=3, dim=16, seed=7):
    """Candidates distinguishable only through their surface tokens: raw
    entity vectors are all identical, so the mention-similarity head carries
    no candidate signal, while correct-entity surface words share a beacon
    direction the context head can read out."""
    rng = np.random.default_rng(seed)

    def unit():
        v = rng.normal(size=dim)
        return v / np.linalg.norm(v)

    hub = unit() * 0.25
    beacon = unit()
    n_entities = 2 * n_cands
    words = {"neutral": unit(), "ctx": unit()}
    ents, surfaces = {}, {}
    for i in range(n_entities):
        ents[f"E{i}"] = hub.copy()
        base = unit() * 0.6
        words[f"sw{i}"] = base + (1.1 * beacon if i < n_cands else 0.0)
        surfaces[f"E{i}"] = (f"sw{i}",)
    docs = []
    for d in range(n_docs):
        mentions = []
        for m in range(n_mentions):
            gold = f"E{int(rng.integers(n_cands))}"
            decoys = rng.choice(np.arange(n_cands, n_entities), size=n_cands - 1,
                                replace=False)
            cand_ids = [gold] + [f"E{int(i)}" for i in decoys]
            cand_ids = [cand_ids[i] for i in rng.permutation(n_cands)]
            mentions.append(Mention(
                id=f"d{d}m{m}", surface=("neutral",), position=m,
                context_before=("ctx",), context_after=(),
                candidates=tuple(CandidateEntity(c, 1 / n_cands) for c in cand_ids),
                gold=gold))
        docs.append(Document(f"d{d}", tuple(words), tuple(mentions)))
    store = EmbeddingStore(word_vecs=words, entity_vecs=ents, entity_surface=surfaces)
    return docs, store


@pytest.mark.slow
def test_criterion_10_transformer_head_contracts():
    rng = np.random.default_rng(10)
    dim = 16
    words = {f"w{i}": rng.normal(size=dim) for i in range(6)}
    ents = {f"e{i}": rng.normal(size=dim) for i in range(3)}
    store = EmbeddingStore(word_vecs=words, entity_vecs=ents,
                           entity_surface={e: ("w0",) for e in ents})
    tcfg = TransformerConfig(layers=2, heads=2, head_dim=4, model_dim=dim,
                             ff_dim=24, hidden=8, max_seq_len=32,
                             max_candidates=4, drop_rate=0.1)
    params = TransformerLocalParams.build(store, tcfg, rng)
    mention = Mention("m", ("w1",), 0, ("w2",), ("w3",),
                      tuple(CandidateEntity(e, 1 / 3) for e in sorted(ents)), "e0")

    n3 = local_scores_transformer(mention, store, params, mode="eval")
    assert abs(float(n3.data.sum()) - 1.0) <= 1e-9

    # candidate rows share the position slot: only used rows get gradient
    grads = ad.backward(-ad.log(ad.item(n3, 0)))
    _, layout = build_input(mention, Tensor(store.entities(mention.candidate_ids)),
                            store, params)
    grad = grads[params.position_embed]
    used = {0, *range(1, 4), *layout.sep_indices, layout.mention_index}
    for row in range(tcfg.max_seq_len):
        if row not in used:
            assert np.allclose(grad[row], 0.0)
    assert not np.allclose(grad[layout.mention_index], 0.0)

    # permutation equivariance with tied segments, deterministic on rerun
    params.segment_embed.data[...] = params.segment_embed.data[0]
    m_perm = Mention("m", ("w1",), 0, ("w2",), ("w3",),
                     tuple(CandidateEntity(e, 1 / 3) for e in ["e1", "e0", "e2"]), "e0")
    p1 = local_scores_transformer(mention, store, params, mode="eval").data
    p2 = local_scores_transformer(m_perm, store, params, mode="eval").data
    assert np.abs(p1[[1, 0, 2]] - p2).max() <= 1e-14
    assert np.array_equal(
        p1, local_scores_transformer(mention, store, params, mode="eval").data
    )

    # trained drop-N1 ablation strictly reduces synthetic F1
    docs, bstore = _beacon_world(30)
    tr, te = docs[:22], docs[22:]
    bcfg = TransformerConfig(layers=1, heads=2, head_dim=4, model_dim=dim,
                             ff_dim=24, hidden=16, max_candidates=4, drop_rate=0.0)

    def train_arm(seed, drop_n1):
        p = TransformerLocalParams.build(bstore, bcfg, np.random.default_rng(seed))
        if drop_n1:
            p = transformer_ablation(p, {"drop_n1"})
        opt = Adam(p.parameters().values())
        pairs = [(m, [c.entity_id for c in m.candidates].index(m.gold))
                 for d in tr for m in d.mentions]
        for _ in range(12):
            for m, gi in pairs:
                out = local_scores_transformer(m, bstore, p, mode="eval")
                loss = -ad.log(ad.item(out, gi))
                opt.step(ad.backward(loss), 0.02)
        correct = total = 0
        with ad.no_grad():
            for d in te:
                for m in d.mentions:
                    gi = [c.entity_id for c in m.candidates].index(m.gold)
                    out = local_scores_transformer(m, bstore, p, mode="eval")
                    correct += int(np.argmax(out.data) == gi)
                    total += 1
        return correct / total

    base = [train_arm(s, False) for s in range(3)]
    ablated = [train_arm(s, True) for s in range(3)]
    assert np.mean(base) > np.mean(ablated)
    assert min(base) > max(ablated)
    print(f"\nACCEPT 10 PASS: N3 sums to 1; candidate rows share the position "
          f"slot; tied-segment permutation equivariance at machine precision, "
          f"bit-stable; trained drop-N1 F1 {np.mean(ablated):.3f} < baseline "
          f"{np.mean(base):.3f} on 3 seeds")


def test_criterion_11_teacher_forcing():
    spec = SyntheticSpec(num_docs=6, mentions_per_doc=6, candidates_per_mention=4,
                         embedding_dim=28, anchor_fraction=0.5, noise_scale=0.05,
                         seed=11)
    docs, store = generate_synthetic(spec)
    cfg = TrainConfig(window=3, epochs=1, fusion_hidden=8)
    params = build_model(store, np.random.default_rng(0), fusion_hidden=8)
    rng = np.random.default_rng(1)
    steps = 0
    for doc in docs:
        ep = rollout(doc, store, params, cfg, mode="train", rng=rng)
        golds = {m.position: m.gold for m in doc.mentions}
        for pos, linked in zip(ep.order, ep.history_entities):
            assert linked == golds[pos]
            steps += 1
    print(f"\nACCEPT 11 PASS: training history held gold entities only, "
          f"asserted at each of {steps} steps")


@pytest.mark.slow
def test_criterion_12_cli_reproducibility(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert cli_main(["gen-corpus", "--out", str(corpus), "--docs", "8",
                     "--mentions", "5", "--candidates", "3", "--dim", "24",
                     "--anchor-fraction", "0.4", "--seed", "9"]) == 0
    cfg = TrainConfig(window=2, epochs=2, lr=0.01, fusion_hidden=8,
                      episodes_per_doc=1, seed=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    outputs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"ck_{tag}.npz"
        metrics = tmp_path / f"metrics_{tag}.jsonl"
        assert cli_main(["train", "--config", str(cfg_path), "--corpus", str(corpus),
                         "--out", str(ckpt), "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg_path), "--corpus", str(corpus),
                         "--checkpoint", str(ckpt), "--order", "dynamic"]) == 0
        report = capsys.readouterr().out.splitlines()[-1]
        outputs.append((metrics.read_bytes(), report))
    assert outputs[0] == outputs[1]
    print("\nACCEPT 12 PASS: identical config+seed reproduced training metrics "
          "and evaluation reports bit-exactly")
