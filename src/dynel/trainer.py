"""Joint training: REINFORCE over mention order, margin loss over entities.

One stepping loop, ``_Walk``, picks every episode's order: the policy picks
the next mention from each line's window, given the pairs already linked.
Training and linking differ only in where the next history row comes from.
A training episode teacher-forces the gold pair, while its correctness
flags record what the selector would have picked, so once its order is
sampled every step's distributions are fixed: one policy graph scores every
step's log-probability and one selector graph every step's candidates,
each step masked to the history before it.  Linking is greedy and writes
the predicted pair: documents link in lockstep, step t of up to
``LOCKSTEP_BATCH`` of them in one policy call and one selector call.  The
combined update descends

    margin  -  rl_weight * mean_episodes( sum_t R(t) * log pi(a_t) )

which realises the ascent rule on the ordering objective alongside the
supervised entity loss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EmbeddingStore
from .local_transformer import TransformerConfig, check_input_caps
from .model import (
    LOCAL_MODELS,
    EncodedDocument,
    ModelParams,
    build_model,
    concat_records,
    encode_document,
)
from .policy import ActionWindow, NonFiniteWindow, advance, episode_log_probs, select_action
from .rewards import REWARD_KINDS, EpisodeOutcome, TransitionRewards, reward_trace
from .selector import FEATURE_NAMES, FUSION_MODES, Linked, candidate_distribution

__all__ = [
    "TrainConfig",
    "Episode",
    "Links",
    "LOCKSTEP_BATCH",
    "link_lockstep",
    "link_documents",
    "micro_f1",
    "Adam",
    "rollout",
    "policy_objective",
    "train",
    "TrainResult",
]


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of one run.  Defaults are the documented paper profile;
    tests and desk experiments override sizes downward."""

    gamma: float = 0.9
    rl_weight: float = 1e-4            # weight of the ordering objective
    margin: float = 0.01
    lr: float = 2e-4
    lr_after: float = 1e-4
    val_acc_threshold: float = 0.9
    epochs: int = 300
    window: int | None = 4             # None = unrestricted (whole document)
    policy_top_k: int = 7
    selector_top_k: int = 7
    reward: str = "r1"                 # r1 | r2-1 | r2-2 | r3
    transition: tuple[float, float, float, float] = (0.0, -2.0, -1.0, 0.0)
    seed: int = 0
    episodes_per_doc: int = 2
    local_model: str = "attn"          # attn | transformer
    features: tuple[str, ...] = FEATURE_NAMES
    feature_norm: bool = True
    fusion: str = "ffn"
    fusion_hidden: int = 32
    top_words: int = 25
    drop_rate: float = 0.1
    # transformer sizes (paper profile)
    encoder_layers: int = 4
    attention_heads: int = 6
    head_dim: int = 50
    model_dim: int = 300
    encoder_ff_dim: int = 600
    head_hidden: int = 100
    max_seq_len: int = 512
    max_candidates: int = 8

    def __post_init__(self):
        # a NaN passes every range check below: each comparison is just false
        for key in ("rl_weight", "margin", "lr", "lr_after", "val_acc_threshold", "transition"):
            if not np.isfinite(getattr(self, key)).all():
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if self.rl_weight < 0:
            raise ValueError("rl_weight must be >= 0")
        if self.margin <= 0:
            raise ValueError("margin must be > 0")
        for rate in ("lr", "lr_after"):
            if getattr(self, rate) <= 0:
                raise ValueError(f"{rate} must be > 0, got {getattr(self, rate)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1 or None")
        if self.reward not in REWARD_KINDS:
            raise ValueError(f"reward must be one of {REWARD_KINDS}")
        if self.episodes_per_doc < 1:
            raise ValueError("episodes_per_doc must be >= 1")
        # what build_model refuses, refused before any corpus is read
        if self.local_model not in LOCAL_MODELS:
            raise ValueError(f"local_model must be one of {LOCAL_MODELS}, "
                             f"got {self.local_model!r}")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        if not self.features or not set(self.features) <= set(FEATURE_NAMES):
            raise ValueError(f"features must be a non-empty subset of {FEATURE_NAMES}, "
                             f"got {list(self.features)}")
        self.transition_rewards()   # refuses a count other than 4
        self.transformer_config()   # refuses a transformer size below 1
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must lie in [0, 1), got {self.drop_rate}")
        for cap in ("policy_top_k", "selector_top_k", "top_words", "fusion_hidden"):
            if getattr(self, cap) < 1:
                raise ValueError(f"{cap} must be >= 1, got {getattr(self, cap)}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["window"] = "L" if self.window is None else self.window
        d["features"] = list(self.features)
        d["transition"] = list(self.transition)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config a JSON object describes; a value of the wrong JSON type
        is refused with its key."""
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(set(d) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**{key: _json_field(key, value, defaults[key]) for key, value in d.items()})

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def transition_rewards(self) -> TransitionRewards:
        return TransitionRewards.from_values(self.transition)

    def transformer_config(self) -> TransformerConfig | None:
        """The transformer scorer's sizes, or ``None`` for the attn scorer."""
        if self.local_model != "transformer":
            return None
        return TransformerConfig(
            layers=self.encoder_layers, heads=self.attention_heads,
            head_dim=self.head_dim, model_dim=self.model_dim,
            ff_dim=self.encoder_ff_dim, hidden=self.head_hidden,
            max_seq_len=self.max_seq_len, max_candidates=self.max_candidates,
            drop_rate=self.drop_rate,
        )

    def build_model(self, store: EmbeddingStore, rng: np.random.Generator) -> ModelParams:
        """The model this config describes, initialised from ``rng``."""
        return build_model(
            store, rng, local_model=self.local_model, top_words=self.top_words,
            policy_top_k=self.policy_top_k, selector_top_k=self.selector_top_k,
            fusion_hidden=self.fusion_hidden, features=self.features,
            feature_norm=self.feature_norm, fusion=self.fusion,
            transformer_config=self.transformer_config(),
        )


def _fits(value, kind: type) -> bool:
    """JSON typing: a bool is no number, and an int is also a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _json_field(key: str, value, default):
    """``value`` read from JSON for the config field whose default is ``default``."""
    if key == "window" and value in (None, "L", "l"):
        return None
    if isinstance(default, tuple):
        kind = type(default[0])
        if isinstance(value, list) and all(_fits(v, kind) for v in value):
            return tuple(kind(v) for v in value)
        want = f"a list of {kind.__name__}"
    elif _fits(value, type(default)):
        return value
    else:
        want = "an int, \"L\" or null" if key == "window" else type(default).__name__
    raise ValueError(f"config key {key!r} must be {want}, got {value!r}")


@dataclass
class Episode:
    """One full pass over a document's mentions.

    ``log_probs`` holds ``log pi(a_t)`` of every step as one ``(steps,)``
    tensor for train rollouts, and is ``None`` for eval rollouts.
    ``window_probs[t]`` is the policy's distribution over step t's window,
    for every rollout whose order the policy chose.
    """

    doc_id: str
    order: tuple[int, ...]
    log_probs: Tensor | None
    flags: tuple[bool, ...]
    predicted: tuple[str, ...]
    predicted_prob: tuple[float, ...]
    history_entities: tuple[str, ...]
    rewards: tuple[float, ...]
    margin: Tensor | None = None
    margin_terms: int = 0
    window_probs: tuple[np.ndarray, ...] = ()


class _Walk:
    """The one stepping loop: lines that each link one mention per step.

    Line i steps its window ``windows[i]`` through ``advance``, taking the
    positions of ``orders[i]``, a permutation of the window's, or where that
    is ``None`` the ones picked by one ``select_action`` call per step over
    every such line, in ``mode`` with ``rng``.  Iterating, once, yields
    ``(step, active, positions)``, and the caller writes row ``step + 1`` of
    ``history[i]``, the pair active line i linked, before the next step; row
    0 is the init pair.  The walk, those rows included, runs under
    ``no_grad``.  ``windows``, ``orders`` and ``window_probs`` then hold each
    line's windows, positions and policy distributions, step by step.  A
    non-finite window distribution is refused naming its line.
    """

    def __init__(self, windows: Sequence[ActionWindow], orders: Sequence[Sequence[int] | None],
                 actions: Tensor, params: ModelParams, mode: str,
                 rng: np.random.Generator | None = None):
        for window, order in zip(windows, orders):
            if order is not None and sorted(order) != list(window.unresolved):
                raise ValueError("forced order must be a permutation of mention positions")
        self.current, self.fixed = list(windows), list(orders)
        self.select = (actions, params.policy, mode, rng)   # select_action's other arguments
        self.sizes = [len(window.unresolved) for window in windows]
        # row 0 is the init pair, row t+1 the pair linked at step t
        self.history = np.empty((len(windows), max(self.sizes) + 1, 2 * params.dim))
        self.history[:, 0] = params.policy.init_pair.data
        self.windows, self.orders, self.window_probs = ([[] for _ in windows] for _ in range(3))

    def __iter__(self) -> Iterator[tuple[int, list[int], list[int]]]:
        history, current, fixed, select = self.history, self.current, self.fixed, self.select
        windows, orders, window_probs = self.windows, self.orders, self.window_probs
        begin = 0
        with ad.no_grad():
            for end in sorted(set(self.sizes)):
                # which lines step, and which the policy steps, changes only as a line ends
                active = [i for i, n in enumerate(self.sizes) if n >= end]
                free = [i for i in active if fixed[i] is None]
                every = len(free) == len(current)
                rows = slice(None) if every else free   # every line free: a view, not a copy
                for step in range(begin, end):
                    if free:
                        try:
                            picked = zip(*select_action(
                                Tensor(history[rows, :step + 1]),
                                current if every else [current[i] for i in free], *select))
                        except NonFiniteWindow as err:   # name the walk's line, not the call's
                            raise NonFiniteWindow(free[err.line]) from err
                    positions = []
                    for i in active:
                        if fixed[i] is None:
                            pos, probs = next(picked)
                            window_probs[i].append(probs)
                        else:
                            pos = fixed[i][step]
                        windows[i].append(current[i].actions())
                        current[i] = advance(current[i], pos)
                        orders[i].append(pos)
                        positions.append(pos)
                    yield step, active, positions
                begin = end


def rollout(
    doc: Document,
    store: EmbeddingStore,
    params: ModelParams,
    config: TrainConfig,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    order: Sequence[int] | None = None,
    encoded: EncodedDocument | None = None,
    links: Links | None = None,
) -> Episode:
    """Roll one episode; ``order`` forces the mention sequence.

    Eval mode takes the document's links from ``link_lockstep``, handed in
    as ``links`` or else made in a batch of one, and records no graph.
    Train mode runs in two passes: the walk samples the order, or follows
    ``order``, which must then keep the window, on the gold history; then
    one policy graph scores every step's log-probability and one selector
    graph every step's candidates.

    ``encoded`` reuses an ``encode_document`` pass made in the same mode.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "eval":
        if links is None:
            if encoded is None:
                encoded = encode_document(doc, store, params)
            links = link_lockstep([encoded], store, params, config,
                                  None if order is None else [order])[0]
        return _episode(doc, links.order, links.predicted, links.predicted_prob,
                        links.predicted, config, log_probs=None,
                        window_probs=links.window_probs)

    if rng is None:
        raise ValueError("train mode needs an rng")
    if encoded is None:
        encoded = encode_document(doc, store, params, mode, rng)
    elif encoded.pairs is None:
        raise ValueError("a train rollout needs a train-mode encoding")

    n_mentions = len(doc.mentions)
    window_size = config.window if config.window is not None else n_mentions
    walk = _Walk([ActionWindow(window_size, tuple(range(n_mentions)))], [order],
                 encoded.actions, params, "sample", rng)
    history, pairs = walk.history[0], encoded.pairs.data
    for step, _, (pos,) in walk:
        history[step + 1] = pairs[pos]   # teacher forcing
    (chosen_order,), (windows,), (window_probs,) = walk.orders, walk.windows, walk.window_probs

    golds = tuple(encoded.mentions[pos].gold for pos in chosen_order)
    log_probs = episode_log_probs(windows, chosen_order, encoded.actions, encoded.pairs,
                                  params.policy)
    # every step's distribution in one graph: step t sees the golds before it
    linked = Linked.prefixes(golds[:-1], store, len(chosen_order))
    probs = candidate_distribution(encoded, chosen_order, linked, params.selector)
    predicted, predicted_prob = [], []
    for pos, line in zip(chosen_order, probs.data):
        candidates = encoded.mentions[pos].candidates
        pick = int(np.argmax(line[:len(candidates)]))
        predicted.append(candidates[pick].entity_id)
        predicted_prob.append(float(line[pick]))
    margin, margin_terms = _margin(probs, encoded, chosen_order, config.margin)
    return _episode(doc, chosen_order, predicted, predicted_prob, golds, config,
                    log_probs=log_probs, margin=margin, margin_terms=margin_terms,
                    window_probs=tuple(window_probs))


def _episode(doc: Document, order: Sequence[int], predicted: Sequence[str],
             predicted_prob: Sequence[float], history: Sequence[str], config: TrainConfig,
             **graphs) -> Episode:
    """The episode of these links, with its correctness flags and rewards."""
    flags = tuple(p == doc.mentions[pos].gold for p, pos in zip(predicted, order))
    rewards = reward_trace(
        config.reward, EpisodeOutcome(flags, gamma=config.gamma),
        lam=config.transition_rewards(),
        per_step_prob=tuple(predicted_prob),
    )
    return Episode(doc_id=doc.id, order=tuple(order), flags=flags, predicted=tuple(predicted),
                   predicted_prob=tuple(predicted_prob), history_entities=tuple(history),
                   rewards=rewards, **graphs)


# documents linked together: all 256 of an anchored-attn round at once
# linked 1.1x faster than 32 at a time, and its peak memory rose by 13 MB
LOCKSTEP_BATCH = 32


class Links(NamedTuple):
    """One document's greedy links, one entry per step."""

    order: tuple[int, ...]
    predicted: tuple[str, ...]
    predicted_prob: tuple[float, ...]
    window_probs: tuple[np.ndarray, ...]   # the policy's, at each step it chose


def link_lockstep(
    records: Sequence[EncodedDocument],
    store: EmbeddingStore,
    params: ModelParams,
    config: TrainConfig,
    orders: Sequence[Sequence[int] | None] | None = None,
) -> list[Links]:
    """Greedy links of up to ``LOCKSTEP_BATCH`` documents, each encoded in
    eval mode: the lines of one walk, each writing its predicted pair.

    Step t of every document that has a mention left is one
    ``candidate_distribution`` call after the walk's policy call.
    ``orders[i]``, unless ``None``, fixes document i's order, and its window
    is the whole document.  Each document is linked exactly as it is linked
    alone.  Records no graph, as the walk runs under ``no_grad``.  A
    non-finite window distribution is refused with a ``NonFiniteWindow``
    naming its record.
    """
    if len(records) > LOCKSTEP_BATCH:
        raise ValueError(f"at most {LOCKSTEP_BATCH} documents link in lockstep, "
                         f"got {len(records)}")
    sizes = [len(r.mentions) for r in records]
    orders = [None] * len(records) if orders is None else orders
    batch, starts = concat_records(records)
    dim = params.dim
    # a fixed order bypasses the window: its window is the whole document
    windows = [ActionWindow(n if config.window is None or order is not None else config.window,
                            tuple(range(start, start + n)))
               for n, start, order in zip(sizes, starts, orders)]
    walk = _Walk(windows, [None if order is None else [start + pos for pos in order]
                           for order, start in zip(orders, starts)],
                 batch.actions, params, "greedy")
    neighbors: list[set[str]] = [set() for _ in records]
    neighbor_rows = [np.zeros((0, dim)) for _ in records]   # in id order
    predicted, predicted_prob = [[] for _ in records], [[] for _ in records]

    for step, active, positions in walk:
        linked = Linked(entities=walk.history[active, 1:step + 1, dim:], entities_visible=None,
                        neighbors=[neighbor_rows[i] for i in active], neighbors_visible=None)
        probs = candidate_distribution(batch, positions, linked, params.selector).data

        for line, (i, pos) in enumerate(zip(active, positions)):
            candidates = batch.mentions[pos].candidates
            pick = int(np.argmax(probs[line, :len(candidates)]))
            entity = candidates[pick].entity_id
            predicted[i].append(entity)
            predicted_prob[i].append(float(probs[line, pick]))
            walk.history[i, step + 1, :dim] = batch.contexts.data[pos]
            walk.history[i, step + 1, dim:] = store.entity(entity)
            if not store.neighbors(entity) <= neighbors[i]:
                neighbors[i] |= store.neighbors(entity)
                neighbor_rows[i] = store.entities(sorted(neighbors[i]))
    return [Links(tuple(pos - start for pos in order), *map(tuple, line))
            for order, start, *line in zip(walk.orders, starts, predicted, predicted_prob,
                                           walk.window_probs)]


def link_documents(
    docs: Sequence[Document],
    store: EmbeddingStore,
    params: ModelParams,
    config: TrainConfig,
    order_for: Callable[[Document, EncodedDocument], Sequence[int] | None] | None = None,
) -> Iterator[tuple[Document, Links]]:
    """``(doc, links)`` for every document, in order, encoded and linked in
    lockstep ``LOCKSTEP_BATCH`` at a time.  ``order_for(doc, encoded)``
    gives a document's fixed order, or ``None`` to let the policy choose.
    A non-finite window distribution is refused naming its document."""
    for start in range(0, len(docs), LOCKSTEP_BATCH):
        chunk = docs[start:start + LOCKSTEP_BATCH]
        records = [encode_document(doc, store, params) for doc in chunk]
        orders = None if order_for is None else [order_for(d, r) for d, r in zip(chunk, records)]
        try:
            links = link_lockstep(records, store, params, config, orders)
        except NonFiniteWindow as err:
            raise RuntimeError(f"{err} at document {chunk[err.line].id}") from err
        yield from zip(chunk, links)


def _margin(probs: Tensor, encoded: EncodedDocument, order: Sequence[int],
            margin: float) -> tuple[Tensor | None, int]:
    """The hinge loss ``sum relu(p - p_gold + margin)`` over every step's
    real candidates, and the number of steps it charges; line t of
    ``probs`` is position ``order[t]``.  A step whose gold is not among its
    candidates is left out, and so is padding."""
    gold = encoded.gold[order]
    charged = encoded.valid[order] & (gold >= 0)[:, None]
    steps = int((gold >= 0).sum())
    if not steps:
        return None, 0
    onehot = np.arange(probs.shape[1]) == gold[:, None]
    gold_prob = ad.tsum(ad.mul(probs, Tensor(onehot)), axis=1, keepdims=True)
    hinge = ad.relu(ad.sub(probs, gold_prob) + margin)
    return ad.tsum(ad.mul(hinge, Tensor(charged))), steps


def _chain_sum(terms: Sequence[Tensor]) -> Tensor:
    """Left-to-right sum of one or more tensors."""
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return total


def policy_objective(episodes: Sequence[Episode]) -> Tensor:
    """Monte-Carlo ordering objective: mean over episodes of sum_t R(t) log pi."""
    if not episodes:
        raise ValueError("no episodes")
    terms = [ad.tsum(ad.mul(ep.log_probs, Tensor(ep.rewards)))
             for ep in episodes if ep.log_probs is not None]
    if not terms:
        return Tensor(0.0)
    return _chain_sum(terms) * (1.0 / len(episodes))


class Adam:
    """Adam over a fixed parameter list, with Kingma & Ba's default constants.

    Row-lazy and exact (Kingma & Ba 2015, *Adam*).  A row (an entry, for a
    vector) whose gradients have all been zero so far has m = v = 0, so its
    step is exactly 0, and it is skipped.  Once a row has had a nonzero
    gradient its m keeps decaying, so it is updated on every later step,
    even with a zero gradient; a scheme that skips such rows too, as
    TensorFlow's LazyAdam does, is not Adam.  A 10,000-word table of which
    one update touches a few hundred rows then costs those rows alone.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        # per parameter, the rows that have ever had a nonzero gradient
        self.touched = [np.zeros(p.data.shape[:1], dtype=bool) for p in self.params]
        self.t = 0

    def step(self, grads: dict[Tensor, np.ndarray],
             lr: float) -> dict[Tensor, slice | np.ndarray]:
        """One update in place from ``grads``, as ``autodiff.backward``
        returns them; a parameter without a gradient is left as it is, and
        its moments too.  Returns the rows it updated, per parameter: a
        slice for all of them, or their indices.  Every bit agrees with the
        dense textbook update (see ``_update``)."""
        self.t += 1
        c1, c2 = 1 - self.beta1**self.t, 1 - self.beta2**self.t
        changed: dict[Tensor, slice | np.ndarray] = {}
        for p, m, v, touched in zip(self.params, self.m, self.v, self.touched):
            g = grads.get(p)
            if g is None:
                continue
            if not touched.all():
                touched |= g.reshape(touched.size, -1).any(axis=1)
            if touched.all():
                self._update(p.data, m, v, g, lr, c1, c2)
                changed[p] = slice(None)
                continue
            rows = np.flatnonzero(touched)
            pr, mr, vr = p.data[rows], m[rows], v[rows]
            self._update(pr, mr, vr, g[rows], lr, c1, c2)
            p.data[rows], m[rows], v[rows] = pr, mr, vr
            changed[p] = rows
        return changed

    def _update(self, p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                lr: float, c1: float, c2: float) -> None:
        """``p``, ``m`` and ``v`` updated in place, with the operations in
        the order of the textbook ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + (1-b2)*g*g`` and ``p -= lr*mhat / (sqrt(vhat) + eps)``,
        so every bit agrees with it."""
        b1, b2 = self.beta1, self.beta2
        buf = np.multiply(g, 1 - b1, out=np.empty_like(m))
        m *= b1
        m += buf
        np.multiply(g, 1 - b2, out=buf)
        buf *= g
        v *= b2
        v += buf
        np.divide(v, c2, out=buf)
        np.sqrt(buf, out=buf)
        buf += self.eps
        step = np.divide(m, c1)
        step *= lr
        step /= buf
        p -= step


@dataclass
class TrainResult:
    params: ModelParams
    metrics: list[dict]
    best_val_accuracy: float | None   # None without validation documents
    config: TrainConfig


def micro_f1(episodes: Sequence[Episode]) -> float:
    """Correct links over links.  Every mention gets exactly one link, so
    micro-F1 reduces to this micro-accuracy."""
    total = sum(len(ep.flags) for ep in episodes)
    if not total:
        raise ValueError("cannot score an empty set of links")
    return sum(sum(ep.flags) for ep in episodes) / total


def _entropy(probs: np.ndarray) -> float:
    """Entropy in nats; a probability of exactly 0 adds nothing."""
    logs = np.log(probs, where=probs > 0, out=np.zeros_like(probs))
    return 0.0 - float(probs @ logs)


def _refuse_non_finite(what: str, arrays: dict[Tensor, np.ndarray],
                       names: dict[Tensor, str], where: str) -> None:
    """Raise at the first parameter, in model order, whose array in
    ``arrays`` holds a NaN or an infinity."""
    for p, name in names.items():
        if p in arrays and not np.isfinite(arrays[p]).all():
            raise RuntimeError(f"non-finite {what} of {name} {where}")


def evaluate(
    docs: Sequence[Document],
    store: EmbeddingStore,
    params: ModelParams,
    config: TrainConfig,
) -> list[Episode]:
    """Greedy predicted-history rollouts, linked in lockstep (no gradients
    recorded)."""
    with ad.no_grad():
        return [rollout(doc, store, params, config, mode="eval", links=links)
                for doc, links in link_documents(docs, store, params, config)]


def train(
    train_docs: Sequence[Document],
    val_docs: Sequence[Document],
    store: EmbeddingStore,
    config: TrainConfig,
    params: ModelParams | None = None,
) -> TrainResult:
    """Full training loop; returns the best-validation parameters."""
    if not train_docs:
        raise ValueError("no training documents")
    init_rng, data_rng = np.random.default_rng(config.seed).spawn(2)
    if params is None:
        params = config.build_model(store, init_rng)
    if params.transformer is not None:
        check_input_caps([*train_docs, *val_docs], params.transformer.config)
    optimizer = Adam(params.parameters())
    names = {t: name for name, t in params.named_parameters().items()}

    metrics: list[dict] = []
    best_acc: float | None = None
    best_arrays = params.snapshot() if val_docs else None   # read only with validation
    lr = config.lr
    lr_dropped = False

    for epoch in range(config.epochs):
        doc_order = data_rng.permutation(len(train_docs))
        epoch_loss = 0.0
        epoch_objective = 0.0
        skipped_margin_terms = 0   # steps whose gold is not among the candidates
        sampled_steps = multi_action_steps = 0
        entropy_sum = 0.0
        for di in doc_order:
            doc = train_docs[int(di)]
            where = f"at epoch {epoch}, document {doc.id}"
            encoded = encode_document(doc, store, params, "train", data_rng)
            try:
                episodes = [
                    rollout(doc, store, params, config, mode="train", rng=data_rng,
                            encoded=encoded)
                    for _ in range(config.episodes_per_doc)
                ]
            except NonFiniteWindow as err:
                raise RuntimeError(f"{err} {where}") from err
            skipped_margin_terms += sum(len(ep.order) - ep.margin_terms for ep in episodes)
            window_probs = [probs for ep in episodes for probs in ep.window_probs]
            sampled_steps += len(window_probs)
            multi_action_steps += sum(probs.size > 1 for probs in window_probs)
            entropy_sum += sum(map(_entropy, window_probs))
            margins = [ep.margin for ep in episodes if ep.margin is not None]
            loss = _chain_sum(margins) * (1.0 / len(margins)) if margins else Tensor(0.0)
            obj = policy_objective(episodes)
            loss = ad.add(loss, obj * (-config.rl_weight))
            if not np.isfinite(loss.data):
                raise RuntimeError(f"non-finite loss {where}")
            grads = ad.backward(loss)
            _refuse_non_finite("gradient", grads, names, where)
            changed = optimizer.step(grads, lr)
            _refuse_non_finite("value", {p: p.data[rows] for p, rows in changed.items()},
                               names, where)
            epoch_loss += float(loss.data)
            epoch_objective += float(obj.data)

        val_eps = evaluate(val_docs, store, params, config) if val_docs else []
        val_acc = micro_f1(val_eps) if val_eps else None
        if val_acc is not None and (best_acc is None or val_acc > best_acc):
            best_acc = val_acc
            best_arrays = params.snapshot()
        if not lr_dropped and val_acc is not None and val_acc > config.val_acc_threshold:
            lr = config.lr_after
            lr_dropped = True
        metrics.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / len(train_docs),
                "ordering_objective": epoch_objective / len(train_docs),
                "ordering_objective_abs": abs(epoch_objective) / len(train_docs),
                "skipped_margin_terms": skipped_margin_terms,
                "policy_entropy": entropy_sum / sampled_steps,
                "multi_action_share": multi_action_steps / sampled_steps,
                "val_accuracy": val_acc,
                "lr": lr,
                "seed": config.seed,
            }
        )

    if val_docs:
        params.restore(best_arrays)
    return TrainResult(params=params, metrics=metrics,
                       best_val_accuracy=best_acc, config=config)
