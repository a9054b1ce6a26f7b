"""Joint training: REINFORCE over mention order, margin loss over entities.

One sampled rollout produces everything an update needs.  During training
the history and linked-entity list are teacher-forced to gold while the
correctness flags record what the selector would actually have picked;
during evaluation predicted entities populate the history and action
selection is greedy.  The combined update descends

    margin  -  rl_weight * mean_episodes( sum_t R(t) * log pi(a_t) )

which realises the ascent rule on the ordering objective alongside the
supervised entity loss.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, EmbeddingStore
from .local_transformer import TransformerConfig, check_input_caps
from .model import EncodedMention, ModelParams, build_model, encode_document
from .policy import ActionWindow, LinkingState, advance, select_action
from .rewards import REWARD_KINDS, EpisodeOutcome, TransitionRewards, reward_trace
from .selector import candidate_distribution

__all__ = [
    "TrainConfig",
    "Episode",
    "micro_f1",
    "Adam",
    "rollout",
    "policy_objective",
    "train",
    "TrainResult",
]

log = logging.getLogger(__name__)


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
    features: tuple[str, ...] = ("coherence", "prior", "type", "neighborhood", "local")
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
        self.transition_rewards()   # refuses a count other than 4
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
    """One full pass over a document's mentions."""

    doc_id: str
    order: tuple[int, ...]
    log_probs: list[Tensor]
    flags: tuple[bool, ...]
    predicted: tuple[str, ...]
    predicted_prob: tuple[float, ...]
    history_entities: tuple[str, ...]
    rewards: tuple[float, ...]
    margin: Tensor | None = None
    margin_terms: int = 0


def rollout(
    doc: Document,
    store: EmbeddingStore,
    params: ModelParams,
    config: TrainConfig,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    order: Sequence[int] | None = None,
    score_order: bool = False,
    encoded: Sequence[EncodedMention] | None = None,
) -> Episode:
    """Roll one episode; ``order`` forces the mention sequence.

    Forced orders bypass the policy entirely unless ``score_order`` is set,
    in which case the policy distribution is still evaluated and the forced
    action's log-probability recorded (the order must then respect the
    window discipline).  Train mode samples actions and teacher-forces gold
    entities into the history; eval mode is greedy with predicted history.
    ``encoded`` reuses an ``encode_document`` pass made in the same mode.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    training = mode == "train"
    if training and rng is None:
        raise ValueError("train mode needs an rng")
    n_mentions = len(doc.mentions)
    if order is not None and sorted(order) != list(range(n_mentions)):
        raise ValueError("forced order must be a permutation of mention positions")

    if encoded is None:
        encoded = encode_document(doc, store, params, mode, rng)
    actions = tuple(r.action for r in encoded)

    window_size = config.window if config.window is not None else n_mentions
    window = ActionWindow(window_size, tuple(range(n_mentions)))
    state = LinkingState.initial(params.policy)

    chosen_order: list[int] = []
    log_probs: list[Tensor] = []
    flags: list[bool] = []
    predicted: list[str] = []
    predicted_prob: list[float] = []
    history_entities: list[str] = []
    margin_terms: list[Tensor] = []

    for step in range(n_mentions):
        if order is not None and not score_order:
            pos = order[step]
        else:
            pos, logp, _ = select_action(
                state, window, actions, params.policy,
                mode="sample" if training else "greedy", rng=rng,
                force=order[step] if order is not None else None,
            )
            log_probs.append(logp)
        record = encoded[pos]
        mention = record.mention
        chosen_order.append(pos)

        probs = candidate_distribution(record, tuple(history_entities), store,
                                       params.selector, training=training, rng=rng)
        pick = int(np.argmax(probs.data))
        pick_id = mention.candidates[pick].entity_id
        predicted.append(pick_id)
        predicted_prob.append(float(probs.data[pick]))
        flags.append(pick_id == mention.gold)

        if training:
            if record.gold_index is None:
                log.debug("mention %s: gold %r not in candidates; margin term skipped",
                          mention.id, mention.gold)
            else:
                gold_prob = ad.item(probs, record.gold_index)
                hinge = ad.relu(probs - gold_prob + config.margin)
                margin_terms.append(ad.tsum(hinge))

        linked_id = mention.gold if training else pick_id
        if training:
            assert linked_id == mention.gold  # teacher forcing invariant
        history_entities.append(linked_id)
        # bypassed orders skip the policy state and its window discipline
        if order is None or score_order:
            pair = ad.concat([record.context, Tensor(store.entity(linked_id))])
            state, window = advance(state, window, pos, pair)

    outcome = EpisodeOutcome(tuple(flags), gamma=config.gamma)
    rewards = reward_trace(
        config.reward, outcome,
        lam=config.transition_rewards(),
        per_step_prob=tuple(predicted_prob),
    )

    return Episode(
        doc_id=doc.id,
        order=tuple(chosen_order),
        log_probs=log_probs,
        flags=tuple(flags),
        predicted=tuple(predicted),
        predicted_prob=tuple(predicted_prob),
        history_entities=tuple(history_entities),
        rewards=rewards,
        margin=_chain_sum(margin_terms) if margin_terms else None,
        margin_terms=len(margin_terms),
    )


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
    terms = [_chain_sum([logp * r for r, logp in zip(ep.rewards, ep.log_probs)])
             for ep in episodes if ep.log_probs]
    if not terms:
        return Tensor(0.0)
    return _chain_sum(terms) * (1.0 / len(episodes))


class Adam:
    """Adam over a fixed parameter list (beta1 0.9, beta2 0.999, eps 1e-8)."""

    def __init__(self, params: Sequence[Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, grads: dict[Tensor, np.ndarray], lr: float) -> None:
        """One update in place from ``grads``, as ``autodiff.backward``
        returns them; a parameter without a gradient is left as it is, and
        its moments too.  The operations run in the order of the
        textbook ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``p -= lr*mhat / (sqrt(vhat) + eps)``, so every bit agrees with it."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = grads.get(p)
            if g is None:
                continue
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
            p.data -= step


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


def evaluate(
    docs: Sequence[Document],
    store: EmbeddingStore,
    params: ModelParams,
    config: TrainConfig,
) -> list[Episode]:
    """Greedy predicted-history rollouts (no gradients recorded)."""
    with ad.no_grad():
        return [rollout(doc, store, params, config, mode="eval") for doc in docs]


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

    metrics: list[dict] = []
    best_acc: float | None = None
    best_arrays = params.snapshot()
    lr = config.lr
    lr_dropped = False

    for epoch in range(config.epochs):
        doc_order = data_rng.permutation(len(train_docs))
        epoch_loss = 0.0
        epoch_objective = 0.0
        for di in doc_order:
            doc = train_docs[int(di)]
            encoded = encode_document(doc, store, params, "train", data_rng)
            episodes = [
                rollout(doc, store, params, config, mode="train", rng=data_rng,
                        encoded=encoded)
                for _ in range(config.episodes_per_doc)
            ]
            margins = [ep.margin for ep in episodes if ep.margin is not None]
            loss = _chain_sum(margins) * (1.0 / len(margins)) if margins else Tensor(0.0)
            obj = policy_objective(episodes)
            loss = ad.add(loss, obj * (-config.rl_weight))
            if not np.isfinite(loss.data):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, document {doc.id}"
                )
            optimizer.step(ad.backward(loss), lr)
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
                "val_accuracy": val_acc,
                "lr": lr,
                "seed": config.seed,
            }
        )

    if val_docs:
        params.restore(best_arrays)
    return TrainResult(params=params, metrics=metrics,
                       best_val_accuracy=best_acc, config=config)
