"""Reverse-mode automatic differentiation over small dense float64 tensors.

Every forward operation records its parents and per-parent gradient
functions on a dynamic graph; ``backward`` walks the graph in reverse
topological order and returns the gradients as values: one array per
parameter (a leaf that requires a gradient) that reaches the loss.  Tensors
hold no gradient state, so nothing needs clearing between calls.  The op
set is deliberately minimal: exactly what the linker's scorers, policy
network and training losses need.  No GPU, no generic dtype support.

Every gradient is a dense array.  ``gather`` is the one gather, of entries
of a vector or rows of a matrix; its gradient is one table of the gathered
tensor's shape, and ``backward`` adds into a fresh one in place rather
than copying it, so a word table gathered once per document costs one
table-sized array per gather.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Sequence

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
    "log",
    "sqrt",
    "log_softmax",
    "row_softmax",
    "concat",
    "stack",
    "gather",
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
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fns: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar: ``t + x``, ``t * x`` and ``-t`` -------------------
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __neg__(self):
        return neg(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """A leaf tensor that collects gradients."""
    return Tensor(data, requires_grad=True)


def _result(data, parents: Sequence[Tensor], grad_fns) -> Tensor:
    """A tensor of ``data`` whose gradient reaches each parent through its
    grad function.  A grad function returns its input, a view of it or a
    new array, and never an array it keeps: ``backward`` adds in place into
    a new array it is handed (see ``backward``)."""
    out = Tensor(data)
    if not _GRAD_ENABLED:
        return out
    if any(p.requires_grad for p in parents):
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
    """``a @ b`` over matrices, or two stacks of matrices with the same
    leading shape (one product per stacked pair)."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul expects matrices or stacks of matrices, "
                         f"got {ad.shape} @ {bd.shape}")
    if max(ad.ndim, bd.ndim) > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul stacks {ad.shape} @ {bd.shape} differ in leading shape")
    try:
        data = np.matmul(ad, bd)
    except ValueError as err:
        raise ShapeError(f"matmul shapes {ad.shape} @ {bd.shape}") from err
    return _result(data, (a, b), (lambda g: g @ np.swapaxes(bd, -1, -2),
                                  lambda g: np.swapaxes(ad, -1, -2) @ g))


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """``a`` with its axes permuted by ``axes``, or reversed when ``axes`` is
    ``None`` (a matrix's transpose); the gradient takes the inverse
    permutation."""
    if a.data.ndim < 2:
        raise ShapeError("transpose expects a matrix or a stack of matrices")
    try:
        data = np.transpose(a.data, axes).copy()
    except ValueError as err:  # numpy's AxisError is a ValueError
        raise ShapeError(f"axes {axes} do not permute shape {a.shape}") from err
    inverse = None if axes is None else np.argsort(np.arange(a.data.ndim)[list(axes)])
    return _result(data, (a,), (lambda g: np.transpose(g, inverse),))


def reshape(a: Tensor, shape) -> Tensor:
    """``a`` in ``shape``.  The gradient leaves C-ordered: reshaping a
    permuted view could pass on another memory order, and every reduction
    downstream (a bias gradient's sum) would then add in another order."""
    orig = a.data.shape
    return _result(a.data.reshape(shape), (a,),
                   (lambda g: np.ascontiguousarray(g).reshape(orig),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    ad = a.data
    if axis is None:
        return _result(ad.sum(), (a,), (lambda g: np.broadcast_to(g, ad.shape).copy(),))

    def back(g):
        return np.broadcast_to(g if keepdims else np.expand_dims(g, axis), ad.shape).copy()

    return _result(ad.sum(axis=axis, keepdims=keepdims), (a,), (back,))


def tmax(a: Tensor, axis: int) -> Tensor:
    """Max reduction over ``axis``; ties route the gradient to the first argmax."""
    ad = a.data
    if ad.size == 0:
        raise ShapeError("max of empty tensor")
    arg = np.expand_dims(np.argmax(ad, axis=axis), axis)

    def back(g):
        out = np.zeros_like(ad)
        np.put_along_axis(out, arg, np.expand_dims(g, axis), axis=axis)
        return out

    return _result(ad.max(axis=axis), (a,), (back,))


# ---------------------------------------------------------------------------
# softmax family (numerically stabilised by max subtraction)
# ---------------------------------------------------------------------------

_FLOOR = np.finfo(np.float64).min   # keeps a line with nothing unmasked from -inf - -inf


def _exp_lines(v: np.ndarray, mask: np.ndarray | None):
    """The one softmax kernel.  Returns ``mask`` (all true for ``None``);
    each line of the last axis shifted by its max over the unmasked entries,
    masked entries to -inf; the exps, masked ones 0; and each line's sum: at
    least 1, as the max exps to 1, or raised from 0 to 1 with nothing
    unmasked, so that line divides to zeros and logs to 0.  A NaN line stays
    NaN, and no step warns."""
    if mask is None:
        mask = np.True_
    elif mask.shape != v.shape:
        raise ShapeError(f"mask of shape {mask.shape} for softmax input {v.shape}")
    shifted = np.where(mask, v, -np.inf)
    shifted -= shifted.max(axis=-1, keepdims=True, initial=_FLOOR)
    e = np.exp(shifted)
    return mask, shifted, e, np.maximum(e.sum(axis=-1, keepdims=True), 1.0)


def log_softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Log-softmax over each line of the last axis of a non-empty tensor.

    A line is computed exactly as the line alone would be, vector or not.
    With a boolean ``mask`` of ``a``'s shape, each line is a log-softmax
    over its unmasked entries alone, as in ``row_softmax(a, mask)``.  Masked
    entries come out exactly 0 and take no gradient: never log 0, whose
    gradient would be NaN.
    """
    v = a.data
    if v.ndim == 0 or v.size == 0:
        raise ShapeError("log_softmax expects a non-empty vector or stack of vectors")
    mask, shifted, _, total = _exp_lines(v, mask)
    y = np.where(mask, shifted - np.log(total), 0.0)

    def back(g):
        sm = np.exp(y, where=mask, out=np.zeros_like(y))
        g = np.where(mask, g, 0.0)
        return g - sm * g.sum(axis=-1, keepdims=True)

    return _result(y, (a,), (back,))


def row_softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis of a matrix or a stack of matrices.

    With a boolean ``mask`` of ``a``'s shape, each line is a softmax over
    its unmasked entries alone: masked entries come out exactly 0, and a
    line with nothing unmasked is all zeros.  Without a mask every entry is
    unmasked.
    """
    if a.data.ndim < 2 or a.data.shape[-1] == 0:
        raise ShapeError("row_softmax expects a matrix or stack with nonzero width")
    _, _, e, total = _exp_lines(a.data, mask)
    y = e / total
    return _result(y, (a,), (lambda g: y * (g - (g * y).sum(axis=-1, keepdims=True)),))


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Tensors that agree on every axis but ``axis``, joined along it; each
    part's gradient is its slice of the joined gradient, C-ordered (see
    ``reshape``)."""
    parts = [as_tensor(p) for p in parts]
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as err:   # no parts, scalars, another shape or no such axis
        raise ShapeError(f"cannot concatenate shapes {[p.shape for p in parts]} "
                         f"on axis {axis}") from err
    ends = np.cumsum([p.shape[axis] for p in parts])
    return _result(data, parts, [lambda g, at=np.arange(end - p.shape[axis], end):
                                 np.take(g, at, axis) for p, end in zip(parts, ends)])


def stack(rows: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Equally shaped tensors (vectors or more) along a new axis ``axis``;
    each row's gradient is its index of the stacked gradient, C-ordered."""
    rows = [as_tensor(r) for r in rows]
    try:
        data = np.stack([r.data for r in rows], axis=axis)
    except ValueError as err:   # no rows, rows of another shape or no such axis
        raise ShapeError(f"cannot stack shapes {[r.shape for r in rows]} "
                         f"on axis {axis}") from err
    if data.ndim < 2:
        raise ShapeError("stack expects vectors or larger")
    return _result(data, rows, [lambda g, i=i: np.take(g, i, axis) for i in range(len(rows))])


def gather(a: Tensor, idx) -> Tensor:
    """Entries of a vector or rows of a matrix, ``idx`` along axis 0, in the
    shape of ``idx`` (a scalar or one row for one index).  The gradient is
    one dense table, repeats summed in ``idx``'s order."""
    if a.data.ndim not in (1, 2):
        raise ShapeError("gather expects a vector or a matrix")
    idx = np.asarray(idx, dtype=np.intp)
    ad = a.data

    def back(g):
        out = np.zeros_like(ad)
        np.add.at(out, idx, g)
        return out

    return _result(ad[idx], (a,), (back,))


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
    Queries always come as a stack of matrices, and each pools over the rows
    its line of a visibility mask lets it see: a document's mentions in one
    call, each over its own block of context words, or a training episode's
    steps, with the causal prefix mask of Vaswani et al. 2017.  One row
    matrix per query matrix pools each line over its own rows: documents
    linked in lockstep, each with its own history.
    """

    diag: Tensor

    @classmethod
    def ones(cls, dim: int) -> "DiagonalBilinear":
        return cls(parameter(np.ones(dim)))

    def scores(self, rows: Tensor, vec: Tensor) -> Tensor:
        """``rows[i] @ (diag * vec[i])``: one score per row of each matrix of
        a stack, each matrix against its own vector, a line of ``vec``."""
        weighted = mul(self.diag, vec)
        columns = matmul(rows, reshape(weighted, weighted.shape + (1,)))
        return reshape(columns, rows.shape[:-1])

    def match(self, queries: Tensor, rows: Tensor) -> Tensor:
        """Each row's best score against any row of a query matrix: one line
        of scores per matrix of the stack ``queries``."""
        keyed = transpose(mul(rows, self.diag))
        flat = matmul(reshape(queries, (-1, queries.shape[-1])), keyed)
        return tmax(reshape(flat, queries.shape[:-1] + (rows.shape[0],)), axis=-2)

    def pool(self, queries: Tensor, rows: Tensor | Sequence[np.ndarray], top_k: int,
             visible: np.ndarray | None = None) -> Tensor:
        """Softmax-weighted sum of the ``top_k`` best-matching rows, once per
        matrix of the stack ``queries``.

        Ties in the match score keep the earlier row.  ``visible`` holds one
        boolean line per query matrix, one entry per row: each matrix pools
        only its visible rows, and one that sees none pools to zeros.
        Without it every row is visible.

        With one row matrix per line, a sequence (or stack) of plain arrays,
        line i pools ``queries[i]`` over all of ``rows[i]``: byte for byte the
        pool of those rows alone, zeros when it has none.  This form serves
        greedy linking, takes no ``visible`` and records no graph.
        """
        if not isinstance(rows, Tensor):
            return Tensor(self._pool_lines(queries.data, rows, top_k))
        scores = self.match(queries, rows)
        if visible is None:
            visible = np.ones(scores.shape, dtype=bool)
        return matmul(row_softmax(scores, _top_k_visible(scores.data, visible, top_k)), rows)

    def _pool_lines(self, queries: np.ndarray, rows: Sequence[np.ndarray],
                    top_k: int) -> np.ndarray:
        """The per-line pool as plain arrays.  Lines with as many rows pool
        as one stack, so every product and sum has the shape it has for the
        line alone: BLAS rounds a product of another shape differently, and
        a sum padded with zeros can associate differently."""
        if queries.ndim != 3 or len(queries) != len(rows):
            raise ShapeError(f"{len(rows)} row matrices need as many query matrices, "
                             f"got shape {queries.shape}")
        counts = [len(r) for r in rows]
        out = np.zeros((len(rows), queries.shape[2]))
        for count in sorted(set(counts) - {0}):
            lines = [i for i, c in enumerate(counts) if c == count]
            if len(lines) == len(rows):   # one group of every line: nothing to gather
                return self._pool_stack(queries, np.asarray(rows), top_k)
            out[lines] = self._pool_stack(queries[lines], np.array([rows[i] for i in lines]),
                                          top_k)
        return out

    def _pool_stack(self, queries: np.ndarray, rows: np.ndarray, top_k: int) -> np.ndarray:
        """``pool`` of each query matrix over its own row matrix, every row
        visible: the kept rows gathered in row order, then one stacked call
        per operation."""
        keyed = np.transpose(np.multiply(rows, self.diag.data), (0, 2, 1)).copy()
        scores = np.matmul(queries, keyed).max(axis=1)
        if rows.shape[1] > top_k:
            keep = np.sort(np.argsort(-scores, axis=-1, kind="stable")[:, :top_k], axis=-1)
            line = np.arange(rows.shape[0])[:, None]
            scores, rows = scores[line, keep], rows[line, keep]
        _, _, e, total = _exp_lines(scores, None)
        return np.matmul((e / total)[:, None, :], rows)[:, 0]


def _top_k_visible(scores: np.ndarray, visible: np.ndarray, top_k: int) -> np.ndarray:
    """Per line, the ``top_k`` best-scoring visible entries; the stable sort
    keeps the earlier of tied entries, and hidden entries sort last."""
    if visible.shape != scores.shape:
        raise ShapeError(f"visibility mask of shape {visible.shape} for scores {scores.shape}")
    order = np.argsort(np.where(visible, -scores, np.inf), axis=-1, kind="stable")
    keep = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(keep, order[..., :top_k], True, axis=-1)
    return keep & visible


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(p) for every parameter ``p`` that reaches ``loss``.

    A parameter is a leaf that requires a gradient.  Each returned array is
    fresh, owned by the caller and shared with no other key; intermediate
    nodes get none, and a loss that needs no gradient returns ``{}``.  Each
    node's incoming gradients are summed in arrival order, left to right.
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

    # ``owned`` holds the keys whose flowing array no other key or node can
    # see, the only arrays backward adds into in place or hands out
    # unchanged: a new array a grad function made, or a sum backward made.
    # A grad function's input, or a view of it, can be another key's too
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
            if acc is None:
                flowing[pkey] = contrib
                if type(contrib) is np.ndarray and contrib.base is None and contrib is not g:
                    owned.add(pkey)
            elif pkey in owned:
                acc += contrib
            else:
                # 0-d sums come back as numpy scalars; keep an array to add into
                flowing[pkey] = np.asarray(acc + contrib)
                owned.add(pkey)
    return grads
