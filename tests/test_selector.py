from dataclasses import replace

import numpy as np
import pytest

from dynel import autodiff as ad
from dynel.autodiff import Tensor
from dynel.corpus import Document, EmbeddingStore
from dynel.model import build_model, encode_document
from dynel.selector import Linked, SelectorParams, candidate_distribution

import oracles
from conftest import linked_lines, make_mention, selector_oracle


def build_store(rng, n_entities=6, dim=4, adjacency=None, type_vecs=None):
    ents = {f"e{i}": rng.normal(size=dim) for i in range(n_entities)}
    return EmbeddingStore(
        word_vecs={"w0": rng.normal(size=dim)},
        entity_vecs=ents,
        kg_adjacency={k: frozenset(v) for k, v in (adjacency or {}).items()},
        type_vecs=type_vecs or {},
    )


def build_params(dim, rng, **kw) -> SelectorParams:
    return SelectorParams.build(dim, rng, hidden=8, **kw)


def cand_matrix(store, ids):
    """A one-line candidate stack: the candidates ``ids`` of one mention."""
    return Tensor(store.entities(ids)[None])


def linked_feature(cand, linked, store, params, line=-1):
    """The pooled linked entities of a one-line stack, seeing what line
    ``line`` of a training episode over ``linked`` sees (line t the first t
    entities); by default the last line, which sees every one."""
    prefixes = Linked.prefixes(linked, store, len(linked) + 1)
    return params.linked_coherence.pool(cand, Tensor(prefixes.entities), params.top_entities,
                                        prefixes.entities_visible[[line]]).data[0]


def neighborhood(cand, linked, store, params):
    """The KG-neighbourhood scores of a one-line stack that sees every
    linked entity."""
    prefixes = Linked.prefixes(linked, store, 1)
    bilinear = params.neighborhood_coherence
    pooled = bilinear.pool(cand, Tensor(prefixes.neighbors), params.top_entities,
                           prefixes.neighbors_visible)
    return bilinear.scores(cand, pooled).data[0]


def record(m, store, local):
    """The ``encode_document`` record of a document of ``m`` alone, with
    ``local`` as its local scores."""
    model = build_model(store, np.random.default_rng(0))
    encoded = encode_document(Document("d", ("w0",), (m,)), store, model)
    return replace(encoded, local=ad.as_tensor(local))


class TestLinkedContextFeature:
    def test_empty_history_gives_zero_vector(self, rng):
        store = build_store(rng)
        params = build_params(4, rng)
        # an episode's first step sees none of the entities linked after it
        f = linked_feature(cand_matrix(store, ["e0", "e1"]), ("e2",), store, params, line=0)
        assert np.allclose(f, 0.0)
        scores = params.linked_coherence.scores(cand_matrix(store, ["e0", "e1"]),
                                                Tensor([f])).data
        assert np.allclose(scores, 0.0)

    def test_single_linked_entity_is_its_vector(self, rng):
        store = build_store(rng)
        params = build_params(4, rng)
        f = linked_feature(cand_matrix(store, ["e0"]), ("e3",), store, params)
        assert np.allclose(f, store.entity_vecs["e3"], atol=1e-12)

    def test_two_equal_scoring_entities_average(self):
        store = EmbeddingStore(
            word_vecs={"w0": np.zeros(4)},
            entity_vecs={
                "c0": np.array([1.0, 1.0, 0.0, 0.0]),
                "la": np.array([1.0, 0.0, 0.5, 0.0]),
                "lb": np.array([0.0, 1.0, 0.0, 0.5]),
            },
        )
        params = build_params(4, np.random.default_rng(0))
        f = linked_feature(cand_matrix(store, ["c0"]), ("la", "lb"), store, params)
        mean = (store.entity_vecs["la"] + store.entity_vecs["lb"]) / 2
        assert np.allclose(f, mean, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_topk_pooling_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        store = build_store(rng, n_entities=7)
        params = build_params(4, rng, top_entities=2)
        diag = rng.normal(size=4)
        params.linked_coherence.diag.data[...] = diag
        cands = ["e0", "e1"]
        linked = ("e2", "e3", "e4", "e5")
        f = linked_feature(cand_matrix(store, cands), linked, store, params)
        expected = oracles.pooled_feature(
            np.stack([store.entity_vecs[e] for e in cands]),
            np.stack([store.entity_vecs[e] for e in linked]),
            diag,
            top_k=2,
        )
        assert np.allclose(f, expected, atol=1e-10)


class TestCoherence:
    def test_identity_parallel_candidate_max(self, rng):
        store = build_store(rng)
        params = build_params(4, rng)
        pooled = Tensor(np.array([0.5, 0.5, -0.5, 0.5]))
        unit = pooled.data / np.linalg.norm(pooled.data)
        score = params.linked_coherence.scores(Tensor([[unit]]), Tensor([pooled.data]))
        assert float(score.data[0, 0]) == pytest.approx(np.linalg.norm(pooled.data))

    def test_random_instance_hand_arithmetic(self, rng):
        params = build_params(3, rng)
        diag = rng.normal(size=3)
        params.linked_coherence.diag.data[...] = diag
        e, f = rng.normal(size=3), rng.normal(size=3)
        got = float(params.linked_coherence.scores(Tensor([[e]]), Tensor([f])).data[0, 0])
        assert got == pytest.approx(float(np.sum(e * diag * f)))


class TestNeighborhood:
    def test_no_edges_gives_zero(self, rng):
        store = build_store(rng)
        params = build_params(4, rng, features=("neighborhood",), feature_norm=False,
                              fusion="sum")
        linked = Linked.prefixes(("e2",), store, 1)
        assert linked.neighbors.shape == (0, 4)
        # no rows to pool: a zero column, so the plain sum's softmax is uniform
        m = make_mention(candidates=("e0", "e1"), priors=[0.9, 0.1])
        probs = candidate_distribution(record(m, store, rng.normal(size=2)), [0], linked,
                                       params)
        assert np.allclose(probs.data, 0.5)

    def test_single_neighbor_identity_is_dot_product(self, rng):
        store = build_store(rng, adjacency={"e2": {"e3"}})
        params = build_params(4, rng)
        scores = neighborhood(cand_matrix(store, ["e0", "e1"]), ("e2",), store, params)
        n = store.entity_vecs["e3"]
        assert scores[0] == pytest.approx(float(store.entity_vecs["e0"] @ n))
        assert scores[1] == pytest.approx(float(store.entity_vecs["e1"] @ n))

    @pytest.mark.parametrize("seed", range(10))
    def test_multi_neighbor_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        store = build_store(rng, n_entities=8,
                            adjacency={"e4": {"e5", "e6"}, "e3": {"e7"}})
        params = build_params(4, rng, top_entities=2)
        diag = rng.normal(size=4)
        params.neighborhood_coherence.diag.data[...] = diag
        cands = ["e0", "e1", "e2"]
        got = neighborhood(cand_matrix(store, cands), ("e3", "e4"), store, params)
        pool = np.stack([store.entity_vecs[e] for e in sorted({"e5", "e6", "e7"})])
        expected = oracles.pooled_scores(
            np.stack([store.entity_vecs[e] for e in cands]), pool, diag, top_k=2
        )
        assert np.allclose(got, expected, atol=1e-10)


def one_line(encoded, linked_ids, store, params):
    """The lockstep form on one line, position 0 of ``encoded``: its real
    candidates' probabilities."""
    probs = candidate_distribution(encoded, [0], linked_lines([linked_ids], store), params).data
    return probs[0, :encoded.valid[0].sum()]


class TestCandidateDistribution:
    def test_single_candidate_is_certain(self, rng):
        store = build_store(rng)
        params = build_params(4, rng)
        m = make_mention(candidates=("e0",), priors=[0.9])
        probs = one_line(record(m, store, np.zeros(1)), (), store, params)
        assert probs.tolist() == [1.0]

    def test_prior_only_fusion_is_softmax_of_priors(self, rng):
        store = build_store(rng)
        params = build_params(4, rng, features=("prior",), feature_norm=False,
                              fusion="sum")
        m = make_mention(candidates=("e0", "e1"), priors=[0.8, 0.2])
        probs = one_line(record(m, store, np.zeros(2)), (), store, params)
        expected = np.exp([0.8, 0.2]) / np.exp([0.8, 0.2]).sum()
        assert np.allclose(probs, expected, atol=1e-12)

    def test_distribution_sums_to_one_and_feature_ablation_works(self, rng):
        store = build_store(rng, adjacency={"e2": {"e3"}})
        # the classic ablation: drop the type and neighborhood features
        params = build_params(4, rng, features=("coherence", "prior", "local"))
        assert params.fusion.weights[0].data.shape[0] == 3
        m = make_mention(candidates=("e0", "e1"), priors=[0.6, 0.4])
        probs = one_line(record(m, store, rng.normal(size=2)), ("e2",), store, params)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_feature_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown selector features"):
            build_params(4, rng, features=("coherence", "nope"))

    def test_empty_history_local_only_degenerates_to_local_argmax(self, rng):
        store = build_store(rng)
        params = build_params(4, rng, features=("local",), feature_norm=False,
                              fusion="sum")
        local = Tensor(np.array([0.1, 1.4, -0.3]))
        m = make_mention(candidates=("e0", "e1", "e2"), priors=[0.3] * 3)
        probs = one_line(record(m, store, local), (), store, params)
        assert int(np.argmax(probs)) == int(np.argmax(local.data))

    def test_candidate_permutation_equivariance(self, rng):
        store = build_store(rng, adjacency={"e4": {"e5"}})
        params = build_params(4, rng)
        perm = [2, 0, 1]
        local = rng.normal(size=3)
        m1 = make_mention(candidates=("e0", "e1", "e2"), priors=[0.5, 0.3, 0.2])
        m2 = make_mention(candidates=tuple(f"e{i}" for i in perm),
                          priors=[[0.5, 0.3, 0.2][i] for i in perm])
        p1 = one_line(record(m1, store, local), ("e4",), store, params)
        p2 = one_line(record(m2, store, local[perm]), ("e4",), store, params)
        assert np.allclose(p1[perm], p2, atol=1e-12)

    def test_type_feature_reads_store(self, rng):
        store = build_store(
            rng, type_vecs={("m0", "e0"): np.array([2.0]), ("m0", "e1"): np.array([-1.0])}
        )
        params = build_params(4, rng, features=("type",), feature_norm=False,
                              fusion="sum")
        m = make_mention(candidates=("e0", "e1"), priors=[0.5, 0.5])
        probs = one_line(record(m, store, np.zeros(2)), (), store, params)
        expected = np.exp([2.0, -1.0]) / np.exp([2.0, -1.0]).sum()
        assert np.allclose(probs, expected, atol=1e-12)

    @pytest.mark.parametrize("fusion, feature_norm", [("ffn", True), ("sum", False)])
    def test_lockstep_lines_score_as_alone_and_as_the_oracle(self, fusion, feature_norm):
        # lines of 1-4 candidates, 0-4 linked neighbours and a top-k of 2
        rng = np.random.default_rng(7)
        store = build_store(rng, n_entities=12, dim=5,
                            adjacency={"e0": {"e9", "e10"}, "e1": {"e11"},
                                       "e2": {"e9", "e10", "e11", "e8"}})
        params = build_params(5, rng, top_entities=2, fusion=fusion, feature_norm=feature_norm)
        for t in params.parameters().values():
            t.data += 0.1 * rng.normal(size=t.data.shape)
        widths = (3, 1, 4, 2, 4, 3)
        mentions = tuple(make_mention(f"m{i}", position=i, priors=rng.random(n).tolist(),
                                      candidates=tuple(f"e{3 + (i + j) % 9}" for j in range(n)))
                         for i, n in enumerate(widths))
        model = build_model(store, np.random.default_rng(0))
        encoded = replace(encode_document(Document("d", ("w0",), mentions), store, model),
                          local=Tensor(rng.normal(size=sum(widths))))
        histories = [("e1", "e3"), ("e5", "e0"), ("e2", "e0"), ("e6", "e7"), ("e0", "e2"),
                     ("e7", "e7")]
        steps = [0, 1, 2, 3, 4, 5]
        probs = candidate_distribution(encoded, steps, linked_lines(histories, store),
                                       params).data
        for line, (pos, history) in enumerate(zip(steps, histories)):
            alone = candidate_distribution(encoded, [pos], linked_lines([history], store),
                                           params).data[0]
            assert probs[line].tobytes() == alone.tobytes()
            width = widths[pos]
            assert not probs[line, width:].any()   # padding: exactly 0
            want = selector_oracle(encoded, pos, history, store, params)
            assert np.abs(probs[line, :width] - want).max() <= 1e-12

    def test_gradients_match_fd_through_fusion_and_pooling(self, rng):
        store = build_store(rng, adjacency={"e3": {"e4"}})
        params = build_params(4, rng)
        m = make_mention(candidates=("e0", "e1"), priors=[0.7, 0.3])
        rec = record(m, store, rng.normal(size=2))

        def build():
            # one step of an episode that linked e3 before it
            probs = candidate_distribution(rec, [0], Linked.prefixes(("e3",), store, 1), params)
            return -ad.log(ad.gather(ad.reshape(probs, (-1,)), 0))

        loss = build()
        named = params.parameters()
        grads = ad.backward(loss)
        for name, t in named.items():
            fd = oracles.fd_gradient(lambda: float(build().data), t.data)
            for i, g in fd.items():
                assert oracles.rel_err(grads[t].ravel()[i], g) <= 1e-4, name
