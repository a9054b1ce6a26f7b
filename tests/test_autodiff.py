import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynel import autodiff as ad
from dynel.autodiff import DiagonalBilinear, ShapeError, Tensor

import oracles


def coherence(x, b: DiagonalBilinear, y) -> Tensor:
    """x . diag(b) . y for one row, through ``DiagonalBilinear.scores``."""
    return ad.item(b.scores(Tensor([x]), Tensor(y)), 0)


def test_bilinear_identity_reduces_to_dot():
    x = [1.0, 2.0]
    y = [3.0, 4.0]
    assert coherence(x, DiagonalBilinear.ones(2), y).item() == 11.0


def test_bilinear_zero_matrix():
    b = DiagonalBilinear(ad.parameter(np.zeros(2)))
    assert coherence([1.0, 2.0], b, [3.0, 4.0]).item() == 0.0


def test_bilinear_hand_arithmetic():
    b = DiagonalBilinear(ad.parameter(np.array([0.5, 2.0, 1.0])))
    s = coherence([1.0, -1.0, 2.0], b, [2.0, 3.0, 1.0])
    assert s.item() == pytest.approx(1.0 - 6.0 + 2.0)


def test_bilinear_dimension_mismatch():
    with pytest.raises(ShapeError):
        coherence([1.0, 2.0], DiagonalBilinear.ones(3), [1.0, 2.0, 3.0])


def test_bilinear_gradient_is_outer_product():
    x = np.array([1.5, -2.0, 0.5])
    y = np.array([2.0, 1.0, -3.0])
    b = DiagonalBilinear.ones(3)
    loss = coherence(x, b, y)
    assert np.allclose(ad.backward(loss)[b.diag], x * y)


def test_softmax_symmetry():
    assert np.allclose(ad.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_overflow_guard():
    out = ad.softmax(Tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)


def test_softmax_closed_form():
    out = ad.softmax(Tensor(np.log([1.0, 2.0, 3.0]))).data
    assert np.allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(ShapeError):
        ad.softmax(Tensor(np.zeros(0)))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-100, 100))
@settings(max_examples=100, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(vals, shift):
    inputs = np.array(vals)
    base = ad.softmax(Tensor(inputs)).data
    assert abs(base.sum() - 1.0) <= 1e-12
    shifted = ad.softmax(Tensor(inputs + shift)).data
    assert np.allclose(base, shifted, atol=1e-9)

    def top_gap(x):
        return np.inf if x.size == 1 else np.diff(np.sort(x)[-2:])[0]

    # inputs closer than that may round to a tie (next test)
    if min(top_gap(inputs), top_gap(inputs + shift)) > 1e-6:
        assert np.argmax(base) == np.argmax(shifted)


def test_softmax_shift_can_round_inputs_to_a_tie():
    # a case Hypothesis found: both inputs round to 9.0 after the shift, so the
    # argmax moves from the larger entry to the first of the tied ones
    inputs = np.array([-8.65e-16, 0.0])
    assert inputs[0] + 9.0 == inputs[1] + 9.0
    base = ad.softmax(Tensor(inputs)).data
    shifted = ad.softmax(Tensor(inputs + 9.0)).data
    assert np.argmax(base) == 1 and np.argmax(shifted) == 0
    assert shifted[0] == shifted[1]
    assert np.allclose(base, shifted, atol=1e-9)


def test_softmax_gradient_translation_invariance():
    v = ad.parameter(np.array([0.3, -1.2, 0.7]))
    assert abs(ad.backward(ad.item(ad.softmax(v), 0))[v].sum()) <= 1e-12


def test_backward_returns_fresh_equal_gradients_on_every_call():
    x = ad.parameter(np.array([2.0]))
    loss = ad.tsum(x * x)
    first = ad.backward(loss)
    second = ad.backward(loss)
    assert np.array_equal(first[x], [4.0])  # d(x^2)=4, not added up across calls
    assert np.array_equal(second[x], [4.0])
    assert first[x] is not second[x]


def test_a_loss_that_needs_no_gradient_returns_no_gradients():
    assert ad.backward(Tensor(1.0)) == {}
    x = ad.parameter(np.array([1.0, 2.0]))
    with ad.no_grad():
        assert ad.backward(ad.tsum(x * x)) == {}


def test_a_parameter_loss_gets_its_own_unit_gradient():
    x = ad.parameter(3.0)
    assert ad.backward(x) == {x: np.ones(())}


def test_the_operands_of_one_add_get_distinct_arrays():
    # `add` hands one gradient array to both operands
    a, b = ad.parameter(np.array([1.0, 2.0])), ad.parameter(np.array([3.0, 4.0]))
    w = Tensor([5.0, 7.0])
    grads = ad.backward(ad.tsum(ad.mul(ad.add(a, b), w)))
    assert np.array_equal(grads[a], w.data) and np.array_equal(grads[b], w.data)
    assert not np.shares_memory(grads[a], grads[b])
    grads[a] += 1.0
    assert np.array_equal(grads[b], w.data)


def test_backward_requires_scalar():
    x = ad.parameter(np.array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        ad.backward(x * x)


def test_no_grad_disables_recording():
    x = ad.parameter(np.array([1.0, 2.0]))
    with ad.no_grad():
        y = ad.tsum(x * x)
    assert not y.requires_grad
    # separate graph still works
    assert np.allclose(ad.backward(ad.tsum(x))[x], [1.0, 1.0])


def _random_graph_loss(arrs):
    """A composite graph hitting most primitives."""
    a, b, w = arrs
    vb = ad.relu(b * 2.0)
    m = ad.stack([a, ad.mul(a, vb)])            # 2x4
    h = ad.matmul(m, w)                         # 2x3
    v = ad.matmul(Tensor(np.ones(2)), ad.row_softmax(h))
    s = ad.softmax(v)
    ls = ad.log_softmax(v * 0.5)
    mx = ad.tmax(ad.mul(m, m), axis=1)
    return (
        ad.tsum(s * Tensor([0.3, 0.5, 0.2]))
        + ad.tsum(ls * 0.1)
        + ad.tsum(ad.sqrt(ad.exp(mx) + 1.0))
        + ad.item(v, 0)
    )


@pytest.mark.parametrize("seed", range(8))
def test_composite_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = ad.parameter(rng.normal(size=4))
    b = ad.parameter(rng.normal(size=4))
    w = ad.parameter(rng.normal(size=(4, 3)))

    def loss():
        return float(_random_graph_loss([a, b, w]).data)

    out = _random_graph_loss([a, b, w])
    grads = ad.backward(out)
    for t in (a, b, w):
        fd = oracles.fd_gradient(loss, t.data)
        for i, g_fd in fd.items():
            assert oracles.rel_err(grads[t].ravel()[i], g_fd) <= 1e-4


def test_matmul_all_arities():
    m = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    v = ad.parameter(np.array([1.0, -1.0]))
    assert np.allclose(ad.matmul(m, v).data, [-1.0, -1.0])
    assert np.allclose(ad.matmul(v, m).data, [-2.0, -2.0])
    assert ad.matmul(v, v).item() == 2.0
    loss = ad.tsum(ad.matmul(m, v)) + ad.matmul(v, v)
    grads = ad.backward(loss)
    fd = oracles.fd_gradient(lambda: float(
        (ad.tsum(ad.matmul(m, v)) + ad.matmul(v, v)).data), v.data)
    for i, g in fd.items():
        assert oracles.rel_err(grads[v][i], g) <= 1e-6


def test_gather_scatter_accumulates_repeats():
    v = ad.parameter(np.array([1.0, 2.0, 3.0]))
    picked = ad.gather(v, [0, 0, 2])
    assert np.allclose(ad.backward(ad.tsum(picked))[v], [2.0, 0.0, 1.0])


def test_max_tie_routes_to_first():
    v = ad.parameter(np.array([5.0, 5.0, 1.0]))
    assert np.allclose(ad.backward(ad.tmax(v))[v], [1.0, 0.0, 0.0])


# dyadic entries make products and sums exact, so equal scores tie exactly
dyadic = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pool_matches_the_straightline_oracle(data):
    dim = data.draw(st.integers(1, 3))
    top_k = data.draw(st.integers(1, 4))
    n_rows = data.draw(st.integers(max(1, top_k - 2), top_k + 3))  # below, at, above
    n_queries = data.draw(st.integers(1, 3))

    def matrix(n):
        return np.array(data.draw(st.lists(st.lists(dyadic, min_size=dim, max_size=dim),
                                           min_size=n, max_size=n)))

    queries, rows = matrix(n_queries), matrix(n_rows)
    diag = matrix(1)[0]
    got = DiagonalBilinear(ad.parameter(diag)).pool(Tensor(queries), Tensor(rows), top_k)
    expected = oracles.pooled_feature(queries, rows, diag, top_k)
    assert np.abs(got.data - expected).max() <= 1e-12


def test_pool_keeps_the_earlier_of_tied_rows():
    # rows 0 and 2 tie for the last kept place; the earlier one stays
    rows = np.array([[1.0, 5.0], [2.0, 0.0], [1.0, -5.0]])
    b = DiagonalBilinear(ad.parameter(np.array([1.0, 0.0])))
    got = b.pool(Tensor([[1.0, 1.0]]), Tensor(rows), top_k=2).data
    weights = np.exp([1.0, 2.0]) / np.exp([1.0, 2.0]).sum()
    assert np.allclose(got, weights @ rows[[0, 1]], atol=1e-12)


def test_pool_gradients_match_finite_differences(rng):
    # differentiable rows are the policy's case: its history holds learned pairs
    b = DiagonalBilinear(ad.parameter(rng.normal(size=3)))
    queries = ad.parameter(rng.normal(size=(2, 3)))
    rows = ad.parameter(rng.normal(size=(5, 3)))
    mix = rng.normal(size=3)

    def loss():
        return ad.tsum(b.pool(queries, rows, top_k=3) * Tensor(mix))

    tensors = (b.diag, queries, rows)
    grads = ad.backward(loss())
    for t in tensors:
        fd = oracles.fd_gradient(lambda: float(loss().data), t.data)
        for i, g in fd.items():
            assert oracles.rel_err(grads[t].ravel()[i], g) <= 1e-6


# ---------------------------------------------------------------------------
# row-sparse gradients of gather_rows
# ---------------------------------------------------------------------------

def dense_gather_rows(a: Tensor, idx) -> Tensor:
    """``gather_rows`` with the dense gradient it used to have: one |rows| x d
    ``np.add.at`` table per gather, which ``backward`` adds in arrival order."""
    idx = np.asarray(idx, dtype=np.intp)

    def back(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return out

    return ad._result(a.data[idx], (a,), (back,))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_gather_gradients_equal_dense_tables_summed_in_arrival_order(data):
    n_rows = data.draw(st.integers(1, 5))
    dim = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    index_lists = st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=5)
    # (source, indices): 0 gathers the table, 1 a product's output, None uses the
    # table densely; the terms are summed in the drawn order
    uses = data.draw(st.permutations(
        [(0, i) for i in data.draw(st.lists(index_lists, min_size=1, max_size=4))]
        + [(1, i) for i in data.draw(st.lists(index_lists, min_size=1, max_size=2))]
        + [(None, None)]))
    table_data, mix_data = rng.normal(size=(n_rows, dim)), rng.normal(size=(dim, dim))
    weights = [rng.normal(size=(n_rows if src is None else len(idx), dim))
               for src, idx in uses]

    def grads(gather):
        table, mix = ad.parameter(table_data.copy()), ad.parameter(mix_data.copy())
        sources = (table, ad.matmul(table, mix))
        terms = [ad.tsum(ad.mul(table if src is None else gather(sources[src], idx),
                                Tensor(w)))
                 for (src, idx), w in zip(uses, weights)]
        loss = terms[0]
        for term in terms[1:]:
            loss = ad.add(loss, term)
        grads = ad.backward(loss)
        return grads[table], grads[mix]

    for got, want in zip(grads(ad.gather_rows), grads(dense_gather_rows)):
        assert np.array_equal(got, want)


def test_gather_gradients_are_bit_identical_over_two_backward_calls(rng):
    table = ad.parameter(rng.normal(size=(4, 3)))
    bias = ad.parameter(rng.normal(size=(3, 3)))
    w1, w2 = Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(2, 3)))
    # `add` hands one gradient array to both operands, and `picked` is
    # gathered again, so its gradient arrives row-sparse and dense
    picked = ad.add(ad.add(ad.gather_rows(table, [0, 2, 0]),
                           ad.gather_rows(table, [2, 2, 1])), bias)
    loss = ad.add(ad.tsum(ad.mul(picked, w1)),
                  ad.tsum(ad.mul(ad.gather_rows(picked, [1, 1]), w2)))
    first = ad.backward(loss)
    second = ad.backward(loss)
    # exactly the parameters: the gathered intermediate `picked` has no entry
    assert list(first) == list(second) and set(first) == {table, bias}
    for t in first:
        assert np.array_equal(first[t], second[t])
        assert not np.shares_memory(first[t], second[t])


def test_gather_rows_with_repeats_matches_finite_differences(rng):
    table = ad.parameter(rng.normal(size=(4, 3)))
    w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))

    def loss():
        first = ad.exp(ad.gather_rows(table, [1, 1, 3, 1]) * 0.5)
        second = ad.gather_rows(table, [3, 0, 3])
        return ad.tsum(first * Tensor(w1)) + ad.tsum(ad.mul(second, second) * Tensor(w2))

    grad = ad.backward(loss())[table]
    fd = oracles.fd_gradient(lambda: float(loss().data), table.data)
    assert np.all(grad[2] == 0.0)  # never gathered
    for i, g in fd.items():
        assert oracles.rel_err(grad.ravel()[i], g) <= 1e-6
