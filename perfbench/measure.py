"""One benchmark run of one workload: set-up, then cycles of training and linking.

A cycle is one training round and one linking round with each of the two
orderings.  Every round repeats the same work on the same inputs, so every
round must give the same parameters and the same links, bit for bit; a
round that does not counts its operations as failed.  The first cycle also
checks the links against the corpus gold and the method (see ``checks``).
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from dynel import autodiff, corpus, harness, local_transformer, model, trainer

import checks
from spans import Tracer, patched
from workloads import Workload, build


# Wall time of ``probe_s`` on a quiet 2-vCPU Xeon at 2.1 GHz (the machine the
# reference figures in the README come from).
PROBE_REFERENCE_S = 0.025


def _probe_work(rng: np.random.Generator) -> float:
    mats = [rng.normal(size=(4, 32)) for _ in range(8)]
    vec = rng.normal(size=32)
    grads = []
    for i in range(250):
        m = mats[i % 8]
        s = m @ vec
        e = np.exp(s - s.max())
        p = e / e.sum()
        vec = 0.5 * vec + 0.5 * (p @ m)
        grads.append((lambda g, p=p: g * p.sum(), {"step": i}))
    g = np.ones(32)
    for fn, _ in reversed(grads):
        g = fn(g)
    return float(g.sum())


def probe_s() -> float:
    """Wall time of a fixed mix of small numpy operations and Python calls,
    shaped like dynel's autodiff work but running none of dynel's code: a
    reading of how fast the machine is right now."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(10):
        _probe_work(rng)
    return time.perf_counter() - t0


@dataclass
class Phase:
    """Timed rounds of one kind, each with a probe reading just before and after."""

    wall_s: list[float] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)

    def reference_s(self, speed_corrected: bool = True) -> list[float]:
        """Each round's wall time in seconds of the machine at reference speed:
        divided by how much slower than ``PROBE_REFERENCE_S`` the probes
        around it ran."""
        if not speed_corrected:
            return list(self.wall_s)
        return [wall * 2 * PROBE_REFERENCE_S / (before + after)
                for wall, (before, after) in zip(self.wall_s, self.probes)]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup: Phase = field(default_factory=Phase)
    train: Phase = field(default_factory=Phase)
    dynamic: Phase = field(default_factory=Phase)
    offset: Phase = field(default_factory=Phase)
    steps: int = 0                    # training mention-steps per round
    mentions: int = 0                 # mentions linked per round
    notes: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def count(self, ops: int, faults: dict[str, Iterable[int]], what: str) -> None:
        """Record ``ops`` attempted operations; ``faults`` names each failed
        check with the indices of the operations it failed."""
        self.attempted += ops
        failed: set[int] = set()
        for check, indices in faults.items():
            indices = set(indices)
            if indices:
                failed |= indices
                self.problems.append(f"{what}: {check} ({len(indices)} of {ops})")
        self.failed += len(failed)

    def timed_s(self) -> float:
        """All timed work of the run, in reference seconds."""
        return sum(sum(p.reference_s()) for p in (self.setup, self.train, self.dynamic,
                                                   self.offset))

    def end_to_end(self, speed_corrected: bool = True) -> dict[str, tuple[float, str]]:
        """Median set-up time, and work per second summed over all rounds.

        The shared machine's speed swings by up to a factor of two over
        seconds to minutes, so by default every time is in seconds of the
        machine at reference speed (``Phase.reference_s``).
        """
        def rate(work: int, phase: Phase) -> float:
            times = phase.reference_s(speed_corrected)
            return work * len(times) / sum(times)

        return {
            "setup_s": (statistics.median(self.setup.reference_s(speed_corrected)), "s"),
            "train_mention_steps_per_s": (rate(self.steps, self.train), "mention-steps/s"),
            "eval_mentions_per_s": (rate(self.mentions, self.dynamic), "mentions/s"),
            "offset_eval_mentions_per_s": (rate(self.mentions, self.offset), "mentions/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }


def _links(episodes) -> list[tuple[tuple[int, str], ...]]:
    return [tuple(zip(ep.order, ep.predicted)) for ep in episodes]


def _params_digest(params: model.ModelParams) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(params.snapshot().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _link_captured(docs, store, params, config, strategy, seed):
    """``run_baseline`` with each document's episode kept, for the checks."""
    episodes = []
    rollout = harness.rollout

    def keep(*args, **kwargs):
        episodes.append(rollout(*args, **kwargs))
        return episodes[-1]

    with patched(harness, "rollout", keep):
        report = harness.run_baseline(docs, store, params, config, strategy, seed=seed)
    return report, episodes


def _timed(phase: Phase, span, work):
    """Run ``work()`` as one round of ``phase``, between two probe readings."""
    gc.collect()
    before = probe_s()
    with span:
        t0 = time.perf_counter()
        result = work()
        phase.wall_s.append(time.perf_counter() - t0)
    phase.probes.append((before, probe_s()))
    return result


def run(w: Workload, seed: int, corpus_dir: Path, ckpt: Path, seconds: float,
        setup_repeats: int, tracer: Tracer | None = None) -> Outcome:
    """Set up ``setup_repeats`` times, then run whole cycles until ``seconds``
    have passed (at least one)."""
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    out = Outcome()
    config = w.config(seed)

    def set_up():
        docs, store = corpus.load_corpus(corpus_dir)
        params = build(w, store, config)
        model.save_checkpoint(params, str(ckpt))
        model.load_checkpoint(build(w, store, config), str(ckpt))
        return docs, store, params

    for _ in range(setup_repeats):
        docs, store, params = _timed(out.setup, span("bench.setup"), set_up)
    train_docs, link_docs = docs[: w.train_docs], docs[w.train_docs:]
    initial = params.snapshot()
    out.steps = (sum(len(d.mentions) for d in train_docs)
                 * config.episodes_per_doc * config.epochs)
    out.mentions = sum(len(d.mentions) for d in link_docs)

    cycle = 0
    loop_start = time.perf_counter()
    while cycle == 0 or time.perf_counter() - loop_start < seconds:
        params.restore(initial)
        _timed(out.train, span("bench.train"),
               lambda: trainer.train(train_docs, [], store, config, params=params))
        digest = _params_digest(params)
        if cycle == 0:
            trained = digest
            reference = _first_cycle(w, seed, config, store, link_docs, params, ckpt, out)
            eval_params, dynamic_ref, offset_ref = reference
        out.count(len(train_docs) * config.epochs,
                  {"parameters differ from round 0":
                   [] if digest == trained else range(len(train_docs) * config.epochs)},
                  f"training round {cycle}")

        for strategy, ref, phase in (("dynamic", dynamic_ref, out.dynamic),
                                     ("offset", offset_ref, out.offset)):
            report = _timed(phase, span("bench.link"), lambda: harness.run_baseline(
                link_docs, store, eval_params, config, strategy, seed=seed))
            out.count(len(link_docs), {
                "orders differ from the checked round":
                    checks.differing(report.orders, ref.orders),
                "links differ from the checked round":
                    checks.differing(report.flags, ref.flags),
                "F1 differs from the checked round":
                    [] if report.micro_f1 == ref.micro_f1 else range(len(link_docs)),
            }, f"{strategy} linking round {cycle}")
        cycle += 1

    out.digest = hashlib.sha256(
        repr((trained, dynamic_ref.orders, dynamic_ref.flags,
              offset_ref.orders, offset_ref.flags)).encode()
    ).hexdigest()
    return out


def _first_cycle(w, seed, config, store, link_docs, params, ckpt, out):
    """Reload the trained model from a checkpoint and check its links.

    Returns the reloaded model and the checked dynamic and offset reports,
    which later rounds must repeat exactly.
    """
    model.save_checkpoint(params, str(ckpt))
    reloaded = build(w, store, config)
    model.load_checkpoint(reloaded, str(ckpt))

    memory, memory_eps = _link_captured(link_docs, store, params, config, "dynamic", seed)
    dynamic, dynamic_eps = _link_captured(link_docs, store, reloaded, config, "dynamic", seed)
    offset, offset_eps = _link_captured(link_docs, store, reloaded, config, "offset", seed)
    passes = {"in-memory dynamic": (memory, memory_eps), "dynamic": (dynamic, dynamic_eps),
              "offset": (offset, offset_eps)}
    faults = {name: {
        "F1 differs from the recount": checks.f1_faults(report.micro_f1, _links(eps), link_docs),
        "order breaks the window": checks.window_faults(report.orders, link_docs, config.window),
    } for name, (report, eps) in passes.items()}

    faults["offset"]["order is not the document order"] = checks.document_order_faults(
        offset.orders, link_docs)
    faults["dynamic"]["reloaded checkpoint links differently"] = (
        checks.differing(_links(dynamic_eps), _links(memory_eps))
        + checks.differing([ep.predicted_prob for ep in dynamic_eps],
                           [ep.predicted_prob for ep in memory_eps]))
    rate = checks.anchor_first_rate(dynamic.orders, w.anchor_pairs)
    offset_rate = checks.anchor_first_rate(offset.orders, w.anchor_pairs)
    out.notes.update(anchor_first_rate=rate, dynamic_f1=dynamic.micro_f1,
                     offset_f1=offset.micro_f1)
    learned = rate > 0.5 and offset_rate == 0 and dynamic.micro_f1 > offset.micro_f1
    if w.ordering_checks and not learned:
        faults["dynamic"][
            f"anchor-first rate {rate:.3f} (offset {offset_rate:.3f}), dynamic F1 "
            f"{dynamic.micro_f1:.4f} vs offset F1 {offset.micro_f1:.4f}"
        ] = range(len(link_docs))
    if reloaded.transformer is not None:
        with autodiff.no_grad():
            faults["dynamic"]["transformer distribution does not sum to 1"] = [
                i for i, doc in enumerate(link_docs[:4])
                if abs(float(local_transformer.local_scores_transformer(
                    doc.mentions[0], store, reloaded.transformer, mode="eval"
                ).data.sum()) - 1.0) > 1e-9
            ]
    for name, named in faults.items():
        out.count(len(link_docs), named, f"{name} links")
    return reloaded, dynamic, offset
