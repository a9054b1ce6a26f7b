import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynel import autodiff as ad
from dynel.autodiff import DiagonalBilinear, ShapeError, Tensor
from dynel.selector import SelectorParams, coherence_scores

import oracles


def coherence(x, b: DiagonalBilinear, y) -> Tensor:
    """x . diag(b) . y for one candidate row, through the selector's coherence score."""
    params = SelectorParams(b, DiagonalBilinear.ones(b.dim), fusion=None)
    return ad.item(coherence_scores(Tensor([x]), Tensor(y), params), 0)


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
    ad.backward(loss)
    assert np.allclose(b.diag.grad, x * y)


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
    base = ad.softmax(Tensor(np.array(vals))).data
    assert abs(base.sum() - 1.0) <= 1e-12
    shifted = ad.softmax(Tensor(np.array(vals) + shift)).data
    assert np.allclose(base, shifted, atol=1e-9)
    assert np.argmax(base) == np.argmax(shifted)


def test_softmax_gradient_translation_invariance():
    v = ad.parameter(np.array([0.3, -1.2, 0.7]))
    ad.backward(ad.item(ad.softmax(v), 0))
    assert abs(v.grad.sum()) <= 1e-12


def test_backward_accumulates_across_calls():
    x = ad.parameter(np.array([2.0]))
    loss = ad.tsum(x * x)
    ad.backward(loss)
    ad.backward(loss)
    assert np.allclose(x.grad, [8.0])  # 2 passes of d(x^2)=4


def test_backward_requires_scalar():
    x = ad.parameter(np.array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        ad.backward(x * x)


def test_no_grad_disables_recording():
    x = ad.parameter(np.array([1.0, 2.0]))
    with ad.no_grad():
        y = ad.tsum(x * x)
    assert not y.requires_grad
    ad.backward(ad.tsum(x))  # separate graph still works
    assert np.allclose(x.grad, [1.0, 1.0])


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
    ad.zero_grad([a, b, w])
    ad.backward(out)
    for t in (a, b, w):
        fd = oracles.fd_gradient(loss, t.data)
        for i, g_fd in fd.items():
            assert oracles.rel_err(t.grad.ravel()[i], g_fd) <= 1e-4


def test_matmul_all_arities():
    m = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    v = ad.parameter(np.array([1.0, -1.0]))
    assert np.allclose(ad.matmul(m, v).data, [-1.0, -1.0])
    assert np.allclose(ad.matmul(v, m).data, [-2.0, -2.0])
    assert ad.matmul(v, v).item() == 2.0
    loss = ad.tsum(ad.matmul(m, v)) + ad.matmul(v, v)
    ad.backward(loss)
    fd = oracles.fd_gradient(lambda: float(
        (ad.tsum(ad.matmul(m, v)) + ad.matmul(v, v)).data), v.data)
    for i, g in fd.items():
        assert oracles.rel_err(v.grad[i], g) <= 1e-6


def test_gather_scatter_accumulates_repeats():
    v = ad.parameter(np.array([1.0, 2.0, 3.0]))
    picked = ad.gather(v, [0, 0, 2])
    ad.backward(ad.tsum(picked))
    assert np.allclose(v.grad, [2.0, 0.0, 1.0])


def test_max_tie_routes_to_first():
    v = ad.parameter(np.array([5.0, 5.0, 1.0]))
    ad.backward(ad.tmax(v))
    assert np.allclose(v.grad, [1.0, 0.0, 0.0])
