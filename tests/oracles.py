"""Independent brute-force oracles used only by the test suite.

Everything here is a straight-line numpy reimplementation working on raw
arrays.  This module must not import from the package under test: its
value is exactly its independence from the code it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_gradient(loss_fn, array: np.ndarray, entries=None, h: float = 1e-5) -> dict[int, float]:
    """Central finite differences of ``loss_fn()`` w.r.t. flat array entries."""
    flat = array.ravel()
    if entries is None:
        entries = range(flat.size)
    out = {}
    for i in entries:
        orig = flat[i]
        flat[i] = orig + h
        fp = loss_fn()
        flat[i] = orig - h
        fm = loss_fn()
        flat[i] = orig
        out[i] = (fp - fm) / (2 * h)
    return out


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# sliding-window orderings
# ---------------------------------------------------------------------------

def enumerate_orderings(positions: list[int], window: int) -> list[tuple[int, ...]]:
    """All mention orders reachable when each step must pick one of the
    ``window`` earliest unresolved positions."""
    if len(positions) > 9:
        raise ValueError("enumeration capped at 9 mentions")
    results: list[tuple[int, ...]] = []

    def walk(prefix: list[int], remaining: list[int]) -> None:
        if not remaining:
            results.append(tuple(prefix))
            return
        for pick in remaining[: min(window, len(remaining))]:
            walk(prefix + [pick], [p for p in remaining if p != pick])

    walk([], sorted(positions))
    return results


def count_orderings(n: int, window: int) -> int:
    """Same census as ``enumerate_orderings`` via pure count recursion."""
    if n == 0:
        return 1
    return min(window, n) * count_orderings(n - 1, window)


# ---------------------------------------------------------------------------
# reference worked-example reconstruction
# ---------------------------------------------------------------------------

def base_r1(flags: tuple[bool, ...]) -> Fraction:
    first = next((i + 1 for i, ok in enumerate(flags) if not ok), len(flags) + 1)
    return Fraction(-len(flags) + first)


def base_r3(flags: tuple[bool, ...]) -> Fraction:
    n = len(flags)
    return sum(
        (Fraction(-1) + Fraction(i + 1 - n, n) for i, ok in enumerate(flags) if not ok),
        Fraction(0),
    )


def transition_profile(flags: tuple[bool, ...]) -> tuple[int, int, int, int]:
    """(#TT, #TF, #FF, #FT) transitions with a correct virtual step 0."""
    counts = [0, 0, 0, 0]
    prev = True
    for ok in flags:
        idx = {(True, True): 0, (True, False): 1, (False, False): 2, (False, True): 3}[
            (prev, ok)
        ]
        counts[idx] += 1
        prev = ok
    return tuple(counts)


def solve_flag_reconstruction() -> dict[str, list[tuple[bool, ...]]]:
    """Search all length-7 flag patterns jointly consistent with the three
    reference sequences: R1 bases (-6, -3, -5), R3 bases (-24/7, -27/7,
    -23/7) and the second sequence's transition profile 3TT+1TF+2FF(+1FT)."""
    targets = {
        "s1": (Fraction(-6), Fraction(-24, 7), None),
        "s2": (Fraction(-3), Fraction(-27, 7), (3, 1, 2, 1)),
        "s3": (Fraction(-5), Fraction(-23, 7), None),
    }
    out: dict[str, list[tuple[bool, ...]]] = {k: [] for k in targets}
    for bits in itertools.product((True, False), repeat=7):
        r1, r3, prof = base_r1(bits), base_r3(bits), transition_profile(bits)
        for name, (t1, t3, tprof) in targets.items():
            if r1 == t1 and r3 == t3 and (tprof is None or prof == tprof):
                out[name].append(bits)
    return out


# ---------------------------------------------------------------------------
# masked softmax: straight-line formulas, one `where=` pass per step
# ---------------------------------------------------------------------------

def masked_row_softmax(v: np.ndarray, mask, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The softmax of each line of ``v`` over its ``mask``-ed entries, and
    its gradient for the upstream gradient ``g``: masked entries 0, a line
    with nothing unmasked all zeros, a NaN line NaN."""
    top = np.max(v, axis=-1, keepdims=True, where=mask, initial=-np.inf)
    e = np.exp(v - top, where=mask, out=np.zeros_like(v))
    total = e.sum(axis=-1, keepdims=True)
    y = np.divide(e, total, where=total != 0, out=np.zeros_like(v))
    return y, y * (g - (g * y).sum(axis=-1, keepdims=True))


def masked_log_softmax(v: np.ndarray, mask, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The log-softmax of each line of ``v`` over its ``mask``-ed entries,
    and its gradient for the upstream gradient ``g``: masked entries 0 with
    no gradient, a line with nothing unmasked all zeros."""
    top = np.max(v, axis=-1, keepdims=True, where=mask, initial=-np.inf)
    shifted = np.subtract(v, top, where=mask, out=np.zeros_like(v))
    total = np.exp(shifted, where=mask, out=np.zeros_like(v)).sum(axis=-1, keepdims=True)
    lse = np.log(total, where=total > 0, out=np.zeros_like(total))
    y = np.subtract(shifted, lse, where=mask, out=np.zeros_like(v))
    sm = np.exp(y, where=mask, out=np.zeros_like(v))
    g = np.where(mask, g, 0.0)
    return y, g - sm * g.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# policy distribution (straight-line recompute)
# ---------------------------------------------------------------------------

def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def policy_distribution(
    history: np.ndarray,      # (t+1, 2d)
    action_reps: np.ndarray,  # (A, 2d)
    relevance_diag: np.ndarray,
    scorer_diag: np.ndarray,
    top_k: int,
) -> np.ndarray:
    scores = np.array(
        [max(float(np.sum(d * relevance_diag * s)) for d in action_reps) for s in history]
    )
    if len(scores) > top_k:
        keep = np.sort(np.argsort(-scores, kind="stable")[:top_k])
    else:
        keep = np.arange(len(scores))
    weights = _softmax(scores[keep])
    logits = np.array(
        [
            sum(
                w * float(np.sum(d * scorer_diag * history[j]))
                for w, j in zip(weights, keep)
            )
            for d in action_reps
        ]
    )
    return _softmax(logits)


def multi_head_attention(
    x: np.ndarray,                       # (rows, model_dim)
    weights: list[np.ndarray],           # wq, bq, wk, bk, wv, bv, wo, bo
    heads: int,
    head_dim: int,
) -> np.ndarray:
    """Self-attention one head at a time, each head on its own column block
    of the queries, keys and values; the heads' outputs side by side."""
    wq, bq, wk, bk, wv, bv, wo, bo = weights
    q, k, v = x @ wq + bq, x @ wk + bk, x @ wv + bv
    outs = []
    for h in range(heads):
        block = slice(h * head_dim, (h + 1) * head_dim)
        scores = q[:, block] @ k[:, block].T / np.sqrt(head_dim)
        attn = np.stack([_softmax(row) for row in scores])
        outs.append(attn @ v[:, block])
    return np.hstack(outs) @ wo + bo


# ---------------------------------------------------------------------------
# attention pooling (linked-entity / neighborhood / context feature)
# ---------------------------------------------------------------------------

def pooled_feature(
    cand: np.ndarray,   # (n, d) current candidates
    pool: np.ndarray,   # (m, d) vectors to pool
    diag: np.ndarray,
    top_k: int,
) -> np.ndarray:
    if pool.shape[0] == 0:
        return np.zeros(cand.shape[1])
    scores = np.array(
        [max(float(np.sum(c * diag * p)) for c in cand) for p in pool]
    )
    if len(scores) > top_k:
        keep = np.sort(np.argsort(-scores, kind="stable")[:top_k])
    else:
        keep = np.arange(len(scores))
    weights = _softmax(scores[keep])
    return weights @ pool[keep]


def pooled_scores(
    cand: np.ndarray, pool: np.ndarray, diag: np.ndarray, top_k: int
) -> np.ndarray:
    f = pooled_feature(cand, pool, diag, top_k)
    return np.array([float(np.sum(c * diag * f)) for c in cand])


def selector_distribution(
    cand: np.ndarray,                   # (n, d) the mention's candidates
    columns: dict[str, np.ndarray],     # "prior", "type", "local": one value per candidate
    linked: np.ndarray,                 # (m, d) entities linked before the mention
    neighbors: np.ndarray,              # (k, d) their KG neighbours
    diags: tuple[np.ndarray, np.ndarray],   # linked and neighbourhood coherence
    top_k: int,
    features: tuple[str, ...],
    feature_norm: bool,
    layers: list[tuple[np.ndarray, np.ndarray]] | None,   # fusion (weight, bias); None: sum
) -> np.ndarray:
    """One mention's candidate distribution, recomputed feature by feature:
    each feature a column, optionally standardised over the candidates,
    fused by a relu network (or summed), then a softmax."""
    cols = dict(columns)
    cols["coherence"] = pooled_scores(cand, linked, diags[0], top_k)
    cols["neighborhood"] = pooled_scores(cand, neighbors, diags[1], top_k)
    feats = np.stack([np.asarray(cols[name], dtype=float) for name in features], axis=1)
    if feature_norm:
        centered = feats - feats.mean(axis=0)
        feats = centered / np.sqrt((centered * centered).mean(axis=0) + 1e-12)
    if layers is None:
        return _softmax(feats.sum(axis=1))
    x = feats
    for i, (w, b) in enumerate(layers):
        x = x @ w + b
        if i < len(layers) - 1:
            x = np.maximum(x, 0.0)
    return _softmax(x[:, 0])


def hard_attention_context(
    words: np.ndarray, cand: np.ndarray, diag: np.ndarray, top_r: int
) -> np.ndarray:
    """Word-level hard attention: max-over-candidate scores, keep top R."""
    scores = np.array(
        [max(float(np.sum(c * diag * w)) for c in cand) for w in words]
    )
    if len(scores) > top_r:
        keep = np.sort(np.argsort(-scores, kind="stable")[:top_r])
    else:
        keep = np.arange(len(scores))
    weights = _softmax(scores[keep])
    return weights @ words[keep]


def action_summary(context: np.ndarray, cand: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One action's (mention; entity) summary: the context feature scaled by
    the weights' sum, then the weighted sum of the candidate rows."""
    return np.concatenate([context * weights.sum(), weights @ cand])


# ---------------------------------------------------------------------------
# transformer input sequence
# ---------------------------------------------------------------------------

def transformer_input(
    words: list[np.ndarray],            # context word vectors, mention surface included
    mention_index: int,                 # the mention head's row in the sequence
    cand: np.ndarray,                   # (n, d) candidate entity vectors
    surfaces: list[list[np.ndarray]],   # each candidate's surface word vectors
    tables: dict[str, np.ndarray],      # cls_tok, sep_tok, entity_proj, *_embed
) -> tuple[np.ndarray, dict]:
    """``[CLS] ctx... [SEP] (cand [SEP])*`` assembled one row at a time.

    Returns the input matrix and its layout (``seq_len``, ``cls_index``,
    ``sep_indices``, ``mention_index``, ``candidate_indices``).
    """
    rows, type_ids, seg_ids, pos_ids = [tables["cls_tok"]], [0], [0], [0]
    for i, vec in enumerate(words):
        rows.append(vec)
        type_ids.append(0)
        seg_ids.append(0)
        pos_ids.append(1 + i)
    sep_indices = [len(rows)]
    rows.append(tables["sep_tok"])
    type_ids.append(1)
    seg_ids.append(1)
    pos_ids.append(sep_indices[0])
    n = len(cand)
    cand_indices = []
    for j in range(n):
        cand_indices.append(len(rows))
        projected = cand[j] @ tables["entity_proj"]
        if surfaces[j]:
            k = len(surfaces[j])
            mean_surface = np.full(k, 1.0 / k) @ np.stack(surfaces[j])
            rows.append((mean_surface + projected) * 0.5)
        else:
            rows.append(projected)
        type_ids.append(1)
        seg_ids.append(1 + j)
        pos_ids.append(mention_index)
        sep_indices.append(len(rows))
        pos_ids.append(len(rows))
        rows.append(tables["sep_tok"])
        type_ids.append(1)
        seg_ids.append(2 + j if j + 1 < n else 1 + j)
    x = np.stack(rows)
    for table, ids in (("type_embed", type_ids), ("segment_embed", seg_ids),
                       ("position_embed", pos_ids)):
        x = x + tables[table][ids]
    layout = {"seq_len": len(rows), "cls_index": 0, "sep_indices": tuple(sep_indices),
              "mention_index": mention_index, "candidate_indices": tuple(cand_indices)}
    return x, layout


def two_gather_word_gradient(
    n_words: int,
    context_words: list[int],          # every context word's table row, mention by mention
    context_grads: np.ndarray,         # (context words, d) each one's input row gradient
    surfaces: list[list[int]],         # each candidate's surface words' table rows
    token_grads: np.ndarray,           # (candidates, d) each candidate token row's gradient
) -> np.ndarray:
    """The word table's gradient as two gathers of the transformer input
    gave it: one of every context word, one of every surface word.

    A candidate's token row is (mean surface word + projection) * 0.5, so
    its surface words share half its gradient, in one product.  Each gather
    then scatters one dense table, repeats summed in order, and the two
    tables are added.
    """
    sizes = np.array([len(s) for s in surfaces])
    owner = np.repeat(np.arange(len(surfaces)), sizes)
    mean = (owner == np.arange(len(surfaces))[:, None]) / np.maximum(sizes, 1)[:, None]
    surface_grads = mean.T @ (token_grads * np.where(sizes, 0.5, 1.0)[:, None])
    tables = []
    for rows, grads in (([w for s in surfaces for w in s], surface_grads),
                        (context_words, context_grads)):
        table = np.zeros((n_words, grads.shape[1]))
        np.add.at(table, rows, grads)
        tables.append(table)
    return tables[0] + tables[1]


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                eps: float = 1e-6) -> np.ndarray:
    centered = x - x.mean(axis=1, keepdims=True)
    var = (centered * centered).mean(axis=1, keepdims=True)
    return centered / np.sqrt(var + eps) * gain + bias


def transformer_scores(
    x: np.ndarray,                      # (seq_len, d) one mention's input rows
    layout: dict,                       # as ``transformer_input`` returns it
    cand: np.ndarray,                   # (n, d) candidate entity vectors
    layers: list[list[np.ndarray]],     # per encoder layer: 8 attention arrays, then
                                        # norm1 gain, bias, norm2 gain, bias,
                                        # ffn w1, w2, b1, b2
    heads: int,
    head_dim: int,
    tables: dict[str, np.ndarray],      # summary_w, summary_b, match, pair_w1, pair_w2,
                                        # pair_b1, pair_b2
) -> np.ndarray:
    """One mention's candidate distribution, encoded alone: post-norm
    encoder layers (attention one head at a time), then the context and
    similarity heads fused per candidate by the two-layer pair net."""
    for w in layers:
        x = _layer_norm(x + multi_head_attention(x, w[:8], heads, head_dim), w[8], w[9])
        ffn = np.maximum(x @ w[12] + w[14], 0.0) @ w[13] + w[15]
        x = _layer_norm(x + ffn, w[10], w[11])
    o_cls = x[layout["cls_index"]]
    o_mention = x[layout["mention_index"]]
    o_cands = x[list(layout["candidate_indices"])]
    summary = np.maximum(o_cls @ tables["summary_w"] + tables["summary_b"], 0.0)
    context = _softmax(np.array([row @ (tables["match"] @ summary) for row in o_cands]))
    similarity = np.array([c @ o_mention for c in cand])
    logits = [float(np.maximum(np.array([c, s]) @ tables["pair_w1"] + tables["pair_b1"], 0.0)
                    @ tables["pair_w2"][:, 0] + tables["pair_b2"][0])
              for c, s in zip(context, similarity)]
    return _softmax(np.array(logits))
