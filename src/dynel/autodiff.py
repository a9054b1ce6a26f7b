"""Reverse-mode automatic differentiation over small dense float64 tensors.

Every forward operation records its parents and per-parent gradient
functions on a dynamic graph; ``backward`` walks the graph in reverse
topological order and returns the gradients as values: one array per
parameter (a leaf that requires a gradient) that reaches the loss.  Tensors
hold no gradient state, so nothing needs clearing between calls.  The op
set is deliberately minimal: exactly what the linker's scorers, policy
network and training losses need.  No GPU, no generic dtype support.

Gradients through ``gather_rows`` leave the gather row-sparse, as the
gathered rows' indices and gradients; ``backward`` scatters these parts into
one dense array per receiving node as they arrive, so a word table gathered
one token at a time costs one table-sized array per ``backward``, not one
per token.  The sums are bit-identical to adding one dense table per gather.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "DiagonalBilinear",
    "ShapeError",
    "as_tensor",
    "parameter",
    "no_grad",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "transpose",
    "reshape",
    "tsum",
    "tmax",
    "relu",
    "exp",
    "log",
    "sqrt",
    "softmax",
    "log_softmax",
    "row_softmax",
    "concat",
    "stack",
    "gather",
    "gather_rows",
    "cols",
    "hstack",
    "item",
]


class ShapeError(ValueError):
    """Raised when tensor shapes cannot be combined."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure numpy forward)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense float64 array and, when it needs a gradient, its graph edges.

    A tensor stores no gradient: ``backward`` returns the gradients of the
    parameters, keyed by tensor (identity hashing).
    """

    __slots__ = ("data", "requires_grad", "_parents", "_grad_fns")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fns: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """A leaf tensor that collects gradients."""
    return Tensor(data, requires_grad=True)


def _result(data, parents: Sequence[Tensor], grad_fns) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fns = tuple(grad_fns)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a: Tensor, b: Tensor, fwd, ga_fn, gb_fn) -> Tensor:
    try:
        data = fwd(a.data, b.data)
    except ValueError as err:
        raise ShapeError(f"cannot combine shapes {a.shape} and {b.shape}") from err
    return _result(
        data,
        (a, b),
        (
            lambda g: _unbroadcast(ga_fn(g), a.shape),
            lambda g: _unbroadcast(gb_fn(g), b.shape),
        ),
    )


# ---------------------------------------------------------------------------
# elementwise ops (numpy broadcasting, gradients unbroadcast)
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.add, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.subtract, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _binary(a, b, np.multiply, lambda g: g * bd, lambda g: g * ad)


def div(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _binary(a, b, np.divide, lambda g: g / bd, lambda g: -g * ad / (bd * bd))


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, (a,), (lambda g: -g,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    # np.maximum propagates NaN, so poisoned values surface in the loss
    return _result(np.maximum(a.data, 0.0), (a,), (lambda g: g * mask,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _result(out, (a,), (lambda g: g * out,))


def log(a: Tensor) -> Tensor:
    ad = a.data
    return _result(np.log(ad), (a,), (lambda g: g / ad,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _result(out, (a,), (lambda g: g * 0.5 / out,))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise ShapeError("matmul requires 1-d or 2-d operands")
    try:
        data = np.matmul(ad, bd)
    except ValueError as err:
        raise ShapeError(f"matmul shapes {ad.shape} @ {bd.shape}") from err

    if ad.ndim == 2 and bd.ndim == 2:
        ga = lambda g: g @ bd.T
        gb = lambda g: ad.T @ g
    elif ad.ndim == 1 and bd.ndim == 2:
        ga = lambda g: g @ bd.T
        gb = lambda g: np.outer(ad, g)
    elif ad.ndim == 2 and bd.ndim == 1:
        ga = lambda g: np.outer(g, bd)
        gb = lambda g: ad.T @ g
    else:  # 1-d dot 1-d -> scalar
        ga = lambda g: g * bd
        gb = lambda g: g * ad
    return _result(data, (a, b), (ga, gb))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("transpose expects a matrix")
    return _result(a.data.T.copy(), (a,), (lambda g: g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape
    return _result(a.data.reshape(shape), (a,), (lambda g: g.reshape(orig),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    ad = a.data
    if axis is None:
        return _result(ad.sum(), (a,), (lambda g: np.broadcast_to(g, ad.shape).copy(),))

    def back(g):
        return np.broadcast_to(np.expand_dims(g, axis), ad.shape).copy()

    return _result(ad.sum(axis=axis), (a,), (back,))


def tmax(a: Tensor, axis: int | None = None) -> Tensor:
    """Max reduction; ties route the gradient to the first argmax."""
    ad = a.data
    if ad.size == 0:
        raise ShapeError("max of empty tensor")
    if axis is None:
        idx = int(np.argmax(ad))

        def back(g):
            out = np.zeros_like(ad)
            out.flat[idx] = g
            return out

        return _result(ad.max(), (a,), (back,))

    arg = np.expand_dims(np.argmax(ad, axis=axis), axis)

    def back_ax(g):
        out = np.zeros_like(ad)
        np.put_along_axis(out, arg, np.expand_dims(g, axis), axis=axis)
        return out

    return _result(ad.max(axis=axis), (a,), (back_ax,))


# ---------------------------------------------------------------------------
# softmax family (numerically stabilised by max subtraction)
# ---------------------------------------------------------------------------

def _softmax1d(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 1 or a.data.size == 0:
        raise ShapeError("softmax expects a non-empty vector")
    y = _softmax1d(a.data)
    return _result(y, (a,), (lambda g: y * (g - float(g @ y)),))


def log_softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 1 or a.data.size == 0:
        raise ShapeError("log_softmax expects a non-empty vector")
    v = a.data
    shifted = v - v.max()
    lse = np.log(np.exp(shifted).sum())
    y = shifted - lse
    sm = np.exp(y)
    return _result(y, (a,), (lambda g: g - sm * g.sum(),))


def row_softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 2 or a.data.shape[1] == 0:
        raise ShapeError("row_softmax expects a matrix with nonzero width")
    v = a.data
    e = np.exp(v - v.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    return _result(y, (a,), (lambda g: y * (g - (g * y).sum(axis=1, keepdims=True)),))


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def concat(parts: Sequence[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts or any(p.data.ndim != 1 for p in parts):
        raise ShapeError("concat expects a non-empty list of vectors")
    data = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + [p.data.size for p in parts])

    grad_fns = []
    for i in range(len(parts)):
        lo, hi = offsets[i], offsets[i + 1]
        grad_fns.append(lambda g, lo=lo, hi=hi: g[lo:hi])
    return _result(data, parts, grad_fns)


def stack(rows: Sequence[Tensor]) -> Tensor:
    rows = [as_tensor(r) for r in rows]
    if not rows or any(r.data.ndim != 1 for r in rows):
        raise ShapeError("stack expects a non-empty list of vectors")
    data = np.stack([r.data for r in rows])
    grad_fns = [lambda g, i=i: g[i] for i in range(len(rows))]
    return _result(data, rows, grad_fns)


def gather(a: Tensor, idx) -> Tensor:
    if a.data.ndim != 1:
        raise ShapeError("gather expects a vector")
    idx = np.asarray(idx, dtype=np.intp)
    ad = a.data

    def back(g):
        out = np.zeros_like(ad)
        np.add.at(out, idx, g)
        return out

    return _result(ad[idx], (a,), (back,))


class _RowPart(NamedTuple):
    """The gradient of one ``gather_rows``: ``rows[i]`` belongs to row ``idx[i]``."""

    idx: np.ndarray
    rows: np.ndarray


def _add_part(out: np.ndarray, part: _RowPart) -> None:
    """``out +=`` the dense table of ``part``.

    A row gathered more than once is summed on its own first, as in the
    part's own table; ``np.add.at`` straight into ``out`` would add the
    repeats one by one to the running total and round differently.
    """
    idx, rows = part
    if idx.size > 1:
        uniq, inverse = np.unique(idx, return_inverse=True)
        if uniq.size < idx.size:
            sums = np.zeros((uniq.size,) + rows.shape[1:])
            np.add.at(sums, inverse, rows)
            out[uniq] += sums
            return
    out[idx] += rows


def gather_rows(a: Tensor, idx) -> Tensor:
    """Rows ``idx`` of a matrix; its gradient flows row-sparse (see ``backward``)."""
    if a.data.ndim != 2:
        raise ShapeError("gather_rows expects a matrix")
    idx = np.asarray(idx, dtype=np.intp)
    return _result(a.data[idx], (a,), (lambda g: _RowPart(idx, g),))


def cols(a: Tensor, lo: int, hi: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("cols expects a matrix")
    ad = a.data

    def back(g):
        out = np.zeros_like(ad)
        out[:, lo:hi] = g
        return out

    return _result(ad[:, lo:hi].copy(), (a,), (back,))


def hstack(parts: Sequence[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeError("hstack expects matrices")
    data = np.hstack([p.data for p in parts])
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])
    grad_fns = []
    for i in range(len(parts)):
        lo, hi = offsets[i], offsets[i + 1]
        grad_fns.append(lambda g, lo=lo, hi=hi: g[:, lo:hi])
    return _result(data, parts, grad_fns)


def item(a: Tensor, i: int) -> Tensor:
    if a.data.ndim != 1:
        raise ShapeError("item expects a vector")
    ad = a.data

    def back(g):
        out = np.zeros_like(ad)
        out[i] = g
        return out

    return _result(ad[i], (a,), (back,))


# ---------------------------------------------------------------------------
# diagonal bilinear forms
# ---------------------------------------------------------------------------

@dataclass
class DiagonalBilinear:
    """A d x d matrix stored as its diagonal: score(x, y) = sum_i x_i d_i y_i.

    ``pool`` is the one hard-attention pool of the linker (Ganea & Hofmann
    2017): the context feature pools context words against the candidates,
    the selector pools linked entities and KG neighbours against them, and
    the policy pools the linked-pair history against the window's actions.
    """

    diag: Tensor

    @classmethod
    def ones(cls, dim: int) -> "DiagonalBilinear":
        return cls(parameter(np.ones(dim)))

    @property
    def dim(self) -> int:
        return self.diag.data.size

    def scores(self, rows: Tensor, vec: Tensor) -> Tensor:
        """``rows @ (diag * vec)``: one score per row."""
        return matmul(rows, mul(self.diag, vec))

    def match(self, queries: Tensor, rows: Tensor) -> Tensor:
        """Each row's best score against any query row."""
        return tmax(matmul(queries, transpose(mul(rows, self.diag))), axis=0)

    def pool(self, queries: Tensor, rows: Tensor, top_k: int) -> Tensor:
        """Softmax-weighted sum of the ``top_k`` best-matching rows.

        The kept rows stay in their original order; ties in the match score
        keep the earlier row.
        """
        scores = self.match(queries, rows)
        if rows.data.shape[0] > top_k:
            keep = np.sort(np.argsort(-scores.data, kind="stable")[:top_k])
            scores = gather(scores, keep)
            rows = gather_rows(rows, keep)
        return matmul(softmax(scores), rows)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(p) for every parameter ``p`` that reaches ``loss``.

    A parameter is a leaf that requires a gradient.  Each returned array is
    fresh, owned by the caller and shared with no other key; intermediate
    nodes get none, and a loss that needs no gradient returns ``{}``.  Each
    node's incoming gradients are summed in arrival order, left to right;
    the row-sparse parts from ``gather_rows`` are scattered so that every
    row gets the same sums, in the same order, as one dense table per gather.
    """
    if loss.data.shape != ():
        raise ShapeError("backward expects a scalar loss")
    if not loss.requires_grad:
        return {}

    # iterative post-order topological sort over grad-requiring nodes
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack_: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack_:
        node, done = stack_.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack_.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack_.append((p, False))

    # a flowing gradient is a dense array; ``owned`` holds the keys whose
    # array backward allocated itself, the only arrays it adds into in place
    # or hands out unchanged (a grad function may return its input, so any
    # other array can be shared with another node)
    flowing: dict[int, np.ndarray] = {id(loss): np.ones(())}
    owned: set[int] = set()
    grads: dict[Tensor, np.ndarray] = {}
    for node in reversed(topo):
        key = id(node)
        g = flowing.pop(key, None)
        if g is None:
            continue
        if not node._parents:
            grads[node] = g if key in owned else np.array(g)
        for parent, fn in zip(node._parents, node._grad_fns):
            if not parent.requires_grad:
                continue
            contrib = fn(g)
            pkey = id(parent)
            acc = flowing.get(pkey)
            if type(contrib) is _RowPart:
                if acc is None:
                    acc = np.zeros_like(parent.data)
                    np.add.at(acc, *contrib)  # into zeros this is the part's own table
                else:
                    if pkey not in owned:
                        acc = acc.copy()
                    _add_part(acc, contrib)
                flowing[pkey] = acc
                owned.add(pkey)
            elif acc is None:
                flowing[pkey] = contrib
            elif pkey in owned:
                acc += contrib
            else:
                # 0-d sums come back as numpy scalars; keep an array to add into
                flowing[pkey] = np.asarray(acc + contrib)
                owned.add(pkey)
    return grads
