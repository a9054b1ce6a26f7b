import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynel import autodiff as ad
from dynel.autodiff import DiagonalBilinear, ShapeError, Tensor

import oracles


def coherence(x, b: DiagonalBilinear, y) -> Tensor:
    """x . diag(b) . y for one row, through ``DiagonalBilinear.scores`` on a
    one-line stack."""
    return ad.reshape(b.scores(Tensor([[x]]), Tensor([y])), ())


def softmax(v) -> Tensor:
    """``row_softmax`` of the one-line matrix ``v``, as a vector."""
    v = ad.as_tensor(v)
    return ad.reshape(ad.row_softmax(ad.reshape(v, (1, -1))), v.shape)


def test_bilinear_identity_reduces_to_dot():
    x = [1.0, 2.0]
    y = [3.0, 4.0]
    assert float(coherence(x, DiagonalBilinear.ones(2), y).data) == 11.0


def test_bilinear_zero_matrix():
    b = DiagonalBilinear(ad.parameter(np.zeros(2)))
    assert float(coherence([1.0, 2.0], b, [3.0, 4.0]).data) == 0.0


def test_bilinear_hand_arithmetic():
    b = DiagonalBilinear(ad.parameter(np.array([0.5, 2.0, 1.0])))
    s = coherence([1.0, -1.0, 2.0], b, [2.0, 3.0, 1.0])
    assert float(s.data) == pytest.approx(1.0 - 6.0 + 2.0)


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
    assert np.allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_overflow_guard():
    out = softmax(Tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)


def test_softmax_closed_form():
    out = softmax(Tensor(np.log([1.0, 2.0, 3.0]))).data
    assert np.allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(ShapeError):
        ad.row_softmax(Tensor(np.zeros((1, 0))))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-100, 100))
@settings(max_examples=100, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(vals, shift):
    inputs = np.array(vals)
    base = softmax(Tensor(inputs)).data
    assert abs(base.sum() - 1.0) <= 1e-12
    shifted = softmax(Tensor(inputs + shift)).data
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
    base = softmax(Tensor(inputs)).data
    shifted = softmax(Tensor(inputs + 9.0)).data
    assert np.argmax(base) == 1 and np.argmax(shifted) == 0
    assert shifted[0] == shifted[1]
    assert np.allclose(base, shifted, atol=1e-9)


def test_softmax_gradient_translation_invariance():
    v = ad.parameter(np.array([0.3, -1.2, 0.7]))
    assert abs(ad.backward(ad.gather(softmax(v), 0))[v].sum()) <= 1e-12


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
    v = ad.reshape(ad.matmul(Tensor(np.ones((1, 2))), ad.row_softmax(h)), (3,))
    s = softmax(v)
    ls = ad.log_softmax(v * 0.5)
    mx = ad.tmax(ad.mul(m, m), axis=1)
    return (
        ad.tsum(s * Tensor([0.3, 0.5, 0.2]))
        + ad.tsum(ls * 0.1)
        + ad.tsum(ad.sqrt(ad.log(mx + 1.0) + 1.0))
        + ad.gather(v, 0)
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


@pytest.mark.parametrize("a_shape, b_shape", [((2, 2), (2,)), ((2,), (2, 2)), ((2,), (2,))],
                         ids=["matrix@vector", "vector@matrix", "vector@vector"])
def test_matmul_refuses_vectors(a_shape, b_shape):
    # a vector is a one-row matrix: numpy's vector rules would drop an axis
    with pytest.raises(ShapeError, match="matrices or stacks of matrices"):
        ad.matmul(ad.parameter(np.ones(a_shape)), ad.parameter(np.ones(b_shape)))


@pytest.mark.parametrize("axes", [(2, 0, 1), (0, 2, 1), (1, 0, 2), None])
def test_stacked_matmul_and_axis_permutation_match_finite_differences(axes, rng):
    a = ad.parameter(rng.normal(size=(3, 2, 4)))
    b = ad.parameter(rng.normal(size=(3, 4, 5)))
    product = np.matmul(a.data, b.data)
    mix = rng.normal(size=np.transpose(product, axes).shape)

    def loss():
        moved = ad.transpose(ad.matmul(a, b), axes)
        assert np.array_equal(moved.data, np.transpose(np.matmul(a.data, b.data), axes))
        return ad.tsum(moved * Tensor(mix))

    grads = ad.backward(loss())
    for t in (a, b):
        assert grads[t].shape == t.shape
        for i, g in oracles.fd_gradient(lambda: float(loss().data), t.data).items():
            assert oracles.rel_err(grads[t].ravel()[i], g) <= 1e-6


@pytest.mark.parametrize("a_shape, b_shape", [((2, 3, 4), (3, 4, 5)), ((2, 3, 4), (4, 5)),
                                              ((4, 3), (2, 3, 5)), ((2, 3, 4), (4,))])
def test_matmul_refuses_stacks_of_another_leading_shape(a_shape, b_shape):
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


@pytest.mark.parametrize("shape, axes", [((3,), None), ((2, 3), (0, 0)), ((2, 3, 4), (0, 1)),
                                         ((2, 3, 4), (0, 1, 3))])
def test_transpose_refuses_what_is_no_axis_permutation(shape, axes):
    with pytest.raises(ShapeError):
        ad.transpose(Tensor(np.ones(shape)), axes)


@pytest.mark.parametrize("axis", [0, 1, -1])
@pytest.mark.parametrize("join", ["concat", "stack"])
def test_axis_joins_copy_numpy_and_match_finite_differences(join, axis, rng):
    """``concat`` and ``stack`` equal ``np.concatenate`` and ``np.stack``
    exactly, and each part's gradient is its slice along ``axis``."""
    op, numpy_op = {"concat": (ad.concat, np.concatenate), "stack": (ad.stack, np.stack)}[join]
    shapes = [[2, 3, 4] for _ in range(3)]
    if join == "concat":   # the parts differ along the joined axis
        for i, shape in enumerate(shapes):
            shape[axis] = 1 + i
    parts = [ad.parameter(rng.normal(size=shape)) for shape in shapes]
    joined = op(parts, axis=axis)
    assert np.array_equal(joined.data, numpy_op([p.data for p in parts], axis=axis))
    mix = rng.normal(size=joined.shape)

    def loss():
        out = op(parts, axis=axis)
        return ad.tsum(ad.mul(ad.mul(out, out), Tensor(mix)))

    grads = ad.backward(loss())
    for p in parts:
        assert grads[p].shape == p.shape
        for i, g in oracles.fd_gradient(lambda: float(loss().data), p.data).items():
            assert oracles.rel_err(grads[p].ravel()[i], g) <= 1e-6


@pytest.mark.parametrize("join, shapes, axis", [
    ("concat", [], 0), ("concat", [(), ()], 0), ("concat", [(2, 3), (3,)], 0),
    ("concat", [(2, 3), (3, 3)], 1), ("concat", [(2, 3), (2, 4)], 0), ("concat", [(2, 3)], 2),
    ("stack", [], 0), ("stack", [(), ()], 0), ("stack", [(2, 3), (2, 4)], -1),
    ("stack", [(2, 3)], 3),
])
def test_axis_joins_refuse_mismatched_shapes(join, shapes, axis):
    with pytest.raises(ShapeError):
        getattr(ad, join)([Tensor(np.ones(shape)) for shape in shapes], axis=axis)


def test_row_softmax_of_a_stack_equals_each_slice_exactly(rng):
    stack = ad.parameter(rng.normal(size=(3, 4, 5)) * 10)
    mix = rng.normal(size=(3, 4, 5))
    out = ad.row_softmax(stack)
    grad = ad.backward(ad.tsum(out * Tensor(mix)))[stack]
    for h in range(3):
        part = ad.parameter(stack.data[h].copy())
        part_out = ad.row_softmax(part)
        assert np.array_equal(out.data[h], part_out.data)
        part_grad = ad.backward(ad.tsum(part_out * Tensor(mix[h])))[part]
        assert np.array_equal(grad[h], part_grad)


def test_reshape_passes_on_a_c_ordered_gradient(rng):
    # the attention's key path: (rows, heads*dim) -> (rows, heads, dim) ->
    # (heads, rows, dim) -> (heads, dim, rows).  The gradient reaches the
    # reshape as a permuted view that numpy could reshape to an F-ordered
    # (rows, heads*dim) view, and a reduction over such a view, like a
    # bias gradient, sums in another order
    x = ad.parameter(rng.normal(size=(4, 6)))
    keys = ad.transpose(ad.transpose(ad.reshape(x, (4, 2, 3)), (1, 0, 2)), (0, 2, 1))
    mix = rng.normal(size=(2, 3, 4))
    grad = ad.backward(ad.tsum(keys * Tensor(mix)))[x]
    assert grad.flags.c_contiguous
    assert np.array_equal(grad, mix.transpose(2, 0, 1).reshape(4, 6))


def test_gather_scatter_accumulates_repeats():
    v = ad.parameter(np.array([1.0, 2.0, 3.0]))
    picked = ad.gather(v, [0, 0, 2])
    assert np.allclose(ad.backward(ad.tsum(picked))[v], [2.0, 0.0, 1.0])


def test_max_tie_routes_to_first():
    v = ad.parameter(np.array([5.0, 5.0, 1.0]))
    assert np.allclose(ad.backward(ad.tmax(v, axis=0))[v], [1.0, 0.0, 0.0])


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
    got = DiagonalBilinear(ad.parameter(diag)).pool(Tensor(queries[None]), Tensor(rows), top_k)
    expected = oracles.pooled_feature(queries, rows, diag, top_k)
    assert np.abs(got.data[0] - expected).max() <= 1e-12


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_masked_pool_lines_match_the_oracle_over_their_visible_prefix(data):
    dim = data.draw(st.integers(1, 3))
    top_k = data.draw(st.integers(1, 4))
    n_rows = data.draw(st.integers(1, top_k + 3))
    lines = data.draw(st.integers(1, 4))
    n_queries = data.draw(st.integers(1, 3))

    def matrix(n):
        return np.array(data.draw(st.lists(st.lists(dyadic, min_size=dim, max_size=dim),
                                           min_size=n, max_size=n)))

    queries = np.stack([matrix(n_queries) for _ in range(lines)])
    rows, diag = matrix(n_rows), matrix(1)[0]
    # prefixes from nothing visible to all rows: below, at and above top_k
    seen = np.array(data.draw(st.lists(st.integers(0, n_rows), min_size=lines,
                                       max_size=lines)))
    visible = np.arange(n_rows) < seen[:, None]
    got = DiagonalBilinear(ad.parameter(diag)).pool(Tensor(queries), Tensor(rows), top_k,
                                                    visible)
    assert got.shape == (lines, dim)
    for line, n in enumerate(seen):
        expected = oracles.pooled_feature(queries[line], rows[:n], diag, top_k)
        assert np.abs(got.data[line] - expected).max() <= 1e-12
        if n == 0:
            assert not got.data[line].any()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_per_line_pool_is_bytewise_the_pool_of_each_line_alone(data):
    # dense random values: a product or a sum of another shape rounds differently
    dim = data.draw(st.sampled_from([1, 3, 8, 33]))
    top_k = data.draw(st.integers(1, 6))
    lines = data.draw(st.integers(1, 5))
    n_queries = data.draw(st.integers(1, 4))
    # each line's own row count, below, at and above top_k, or one for all
    counts = data.draw(st.lists(st.integers(0, top_k + 4), min_size=lines, max_size=lines))
    if data.draw(st.booleans()):
        counts = [counts[0]] * lines
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    queries = rng.normal(size=(lines, n_queries, dim))
    rows = [rng.normal(size=(n, dim)) for n in counts]
    if data.draw(st.booleans()):
        for own in rows:
            own[1::2] = own[:-1:2]   # every other row repeated: tied scores
    b = DiagonalBilinear(ad.parameter(rng.normal(size=dim)))
    stacked = len(set(counts)) == 1 and data.draw(st.booleans())
    got = b.pool(Tensor(queries), np.array(rows) if stacked else rows, top_k).data
    assert got.shape == (lines, dim)
    for line, own in enumerate(rows):
        # a one-line pool of the line's rows: what a document linked alone runs
        want = b.pool(Tensor(queries[line:line + 1]), [own], top_k).data[0]
        assert got[line].tobytes() == want.tobytes()
        if not len(own):
            assert not want.any()


def test_masked_pool_gradients_match_finite_differences(rng):
    b = DiagonalBilinear(ad.parameter(rng.normal(size=3)))
    queries = ad.parameter(rng.normal(size=(3, 2, 3)))
    rows = ad.parameter(rng.normal(size=(5, 3)))
    visible = np.arange(5) < np.array([[0], [2], [5]])
    mix = rng.normal(size=(3, 3))

    def loss():
        return ad.tsum(b.pool(queries, rows, top_k=3, visible=visible) * Tensor(mix))

    grads = ad.backward(loss())
    for t in (b.diag, queries, rows):
        fd = oracles.fd_gradient(lambda: float(loss().data), t.data)
        for i, g in fd.items():
            assert oracles.rel_err(grads[t].ravel()[i], g) <= 1e-6
    assert not grads[queries][0].any()   # the line that sees nothing


def test_masked_row_softmax_leaves_masked_entries_at_zero(rng):
    x = ad.parameter(rng.normal(size=(3, 4)) * 10)
    mask = np.array([[True] * 4, [True, False, True, False], [False] * 4])
    out = ad.row_softmax(x, mask)
    assert np.array_equal(out.data[0], ad.row_softmax(Tensor(x.data[:1])).data[0])
    assert np.array_equal(out.data[1, [1, 3]], [0.0, 0.0])
    assert out.data[1].sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(out.data[1, [0, 2]], softmax(Tensor(x.data[1, [0, 2]])).data)
    assert not out.data[2].any()
    grad = ad.backward(ad.tsum(out * Tensor(rng.normal(size=(3, 4)))))[x]
    assert not grad[1, [1, 3]].any() and not grad[2].any()
    with pytest.raises(ShapeError):
        ad.row_softmax(x, mask[:2])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_both_softmaxes_are_bytewise_the_reference_formulas(data):
    shape = (*data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)),
             data.draw(st.integers(1, 40)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=shape) * data.draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    if data.draw(st.booleans()):
        v = np.round(v)   # ties, and whole lines of one value
    if data.draw(st.booleans()):
        mask = None
    else:
        mask = rng.random(shape) < data.draw(st.sampled_from([0.2, 0.7, 1.0]))
        mask[rng.random(shape[:-1]) < 0.25] = False   # lines with nothing unmasked
        # any finite value behind the mask, the extremes included
        extremes = [np.finfo(np.float64).max, -np.finfo(np.float64).max, 1e300, 0.0]
        v = np.where(mask, v, rng.choice(extremes, size=shape) * rng.random(shape).round())
    if data.draw(st.booleans()):
        v[rng.random(shape) < 0.05] = np.nan   # NaN lines
    g = rng.normal(size=shape)
    for op, reference in ((ad.row_softmax, oracles.masked_row_softmax),
                          (ad.log_softmax, oracles.masked_log_softmax)):
        x = ad.parameter(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = op(x, mask)
            grad = ad.backward(ad.tsum(out * Tensor(g)))[x]
        want_out, want_grad = reference(v, np.True_ if mask is None else mask, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def test_masked_log_softmax_leaves_masked_entries_at_zero(rng):
    x = ad.parameter(rng.normal(size=(3, 4)) * 10)
    x.data[1, 0] = -1e4   # its probability underflows to 0; its log stays finite
    mask = np.array([[True] * 4, [True, False, True, False], [False] * 4])
    out = ad.log_softmax(x, mask)
    assert np.abs(out.data[0] - ad.log_softmax(Tensor(x.data[0])).data).max() <= 1e-12
    assert np.abs(out.data[1, [0, 2]]
                  - ad.log_softmax(Tensor(x.data[1, [0, 2]])).data).max() <= 1e-12
    assert np.isfinite(out.data[1, 0]) and out.data[1, 0] < -9e3
    assert np.array_equal(out.data[1, [1, 3]], [0.0, 0.0])
    assert not out.data[2].any()
    mix = rng.normal(size=(3, 4))
    grad = ad.backward(ad.tsum(out * Tensor(mix)))[x]
    assert np.isfinite(grad).all()
    assert not grad[1, [1, 3]].any() and not grad[2].any()
    line = ad.parameter(x.data[1, [0, 2]])
    want = ad.backward(ad.tsum(ad.log_softmax(line) * Tensor(mix[1, [0, 2]])))[line]
    assert np.abs(grad[1, [0, 2]] - want).max() <= 1e-12
    with pytest.raises(ShapeError):
        ad.log_softmax(x, mask[:2])


def test_pool_keeps_the_earlier_of_tied_rows():
    # rows 0 and 2 tie for the last kept place; the earlier one stays
    rows = np.array([[1.0, 5.0], [2.0, 0.0], [1.0, -5.0]])
    b = DiagonalBilinear(ad.parameter(np.array([1.0, 0.0])))
    got = b.pool(Tensor([[[1.0, 1.0]]]), Tensor(rows), top_k=2).data[0]
    weights = np.exp([1.0, 2.0]) / np.exp([1.0, 2.0]).sum()
    assert np.allclose(got, weights @ rows[[0, 1]], atol=1e-12)


def test_pool_gradients_match_finite_differences(rng):
    # differentiable rows are the policy's case: its history holds learned pairs
    b = DiagonalBilinear(ad.parameter(rng.normal(size=3)))
    queries = ad.parameter(rng.normal(size=(2, 2, 3)))
    rows = ad.parameter(rng.normal(size=(5, 3)))
    mix = rng.normal(size=(2, 3))

    def loss():
        return ad.tsum(b.pool(queries, rows, top_k=3) * Tensor(mix))

    tensors = (b.diag, queries, rows)
    grads = ad.backward(loss())
    for t in tensors:
        fd = oracles.fd_gradient(lambda: float(loss().data), t.data)
        for i, g in fd.items():
            assert oracles.rel_err(grads[t].ravel()[i], g) <= 1e-6


# ---------------------------------------------------------------------------
# gathers of rows, and gradients handed to more than one key
# ---------------------------------------------------------------------------

def test_gather_gradients_are_bit_identical_over_two_backward_calls(rng):
    table = ad.parameter(rng.normal(size=(4, 3)))
    bias = ad.parameter(rng.normal(size=(3, 3)))
    w1, w2 = Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(2, 3)))
    # `add` hands one gradient array to both operands, and `picked` is
    # gathered again, so its gradient is a sum of two
    picked = ad.add(ad.add(ad.gather(table, [0, 2, 0]),
                           ad.gather(table, [2, 2, 1])), bias)
    loss = ad.add(ad.tsum(ad.mul(picked, w1)),
                  ad.tsum(ad.mul(ad.gather(picked, [1, 1]), w2)))
    first = ad.backward(loss)
    second = ad.backward(loss)
    # exactly the parameters: the gathered intermediate `picked` has no entry
    assert list(first) == list(second) and set(first) == {table, bias}
    for t in first:
        assert np.array_equal(first[t], second[t])
        assert not np.shares_memory(first[t], second[t])


def test_gather_with_repeats_matches_finite_differences(rng):
    table = ad.parameter(rng.normal(size=(4, 3)))
    w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))

    def loss():
        halves = ad.gather(table, [1, 1, 3, 1]) * 0.5
        first = ad.sqrt(ad.mul(halves, halves) + 1.0)
        second = ad.gather(table, [3, 0, 3])
        return ad.tsum(first * Tensor(w1)) + ad.tsum(ad.mul(second, second) * Tensor(w2))

    grad = ad.backward(loss())[table]
    fd = oracles.fd_gradient(lambda: float(loss().data), table.data)
    assert np.all(grad[2] == 0.0)  # never gathered
    for i, g in fd.items():
        assert oracles.rel_err(grad.ravel()[i], g) <= 1e-6


@pytest.mark.parametrize("through", ["itself", "a view"])
def test_a_gradient_handed_to_two_keys_is_never_added_into(rng, through):
    # both `add`s hand one gradient array to both operands: `p` receives it
    # (or a transposed view of it), then its second term `p * c`, while
    # `q`, reached after that term, still holds the array
    p, q = ad.parameter(rng.normal(size=(3, 3))), ad.parameter(rng.normal(size=(3, 3)))
    w, c = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    first = p if through == "itself" else ad.transpose(p)
    shared = ad.add(first, ad.add(p * Tensor(c), q))
    grads = ad.backward(ad.tsum(shared * Tensor(w)))
    assert np.array_equal(grads[q], w)
    assert np.array_equal(grads[p], (w if through == "itself" else w.T) + w * c)
    assert not np.shares_memory(grads[p], grads[q])
