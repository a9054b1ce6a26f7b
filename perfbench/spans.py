"""Span tracing around the calls into dynel's layers, from outside the program.

Each public function in ``TARGETS`` is replaced, for the length of a
``Tracer.installed()`` block, by a wrapper that records a span: name,
start, end and the span open when it was called.  The wrapper goes in
under every name a dynel module holds the function by (``from .policy
import select_action`` gives ``dynel.trainer.select_action``), because the
calling module looks the function up there.  Spans stay in memory until
the run ends; ``layer_metrics`` reduces them to calls and self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

TARGETS = (
    ("corpus", "load_corpus"),
    ("model", "build_model"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("local_attn", "context_feature"),
    ("local_attn", "local_scores_attn"),
    ("local_transformer", "local_scores_transformer"),
    ("nn", "EncoderLayer.apply"),
    ("nn", "FeedForward.apply"),
    ("policy", "action_representation"),
    ("policy", "select_action"),
    ("policy", "advance"),
    ("selector", "candidate_distribution"),
    ("rewards", "reward_trace"),
    ("trainer", "rollout"),
    ("trainer", "policy_objective"),
    ("trainer", "Adam.step"),
    ("autodiff", "backward"),
    ("harness", "run_baseline"),
)
LAYER_SPANS = tuple(f"{module}.{name}" for module, name in TARGETS)
GRAPH_COUNT = "trace.graph_count"   # the tracer's own work inside a traced run


@contextmanager
def patched(owner, attr: str, replacement):
    """Set ``owner.attr`` to ``replacement`` for the block, then restore it."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def graph_size(loss) -> int:
    """Nodes ``autodiff.backward`` visits from ``loss``: those that need a gradient."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        node = todo.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.graph_nodes: list[int] = []  # one entry per backward call

    @contextmanager
    def span(self, name: str):
        rec = self._start(name)
        try:
            yield
        finally:
            self._end(rec)

    def _start(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        start, end = self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(rec)

        return traced

    def _wrap_backward(self, fn):
        traced = self._wrap("autodiff.backward", fn)

        @functools.wraps(fn)
        def counted(loss):
            if loss.requires_grad:
                with self.span(GRAPH_COUNT):
                    self.graph_nodes.append(graph_size(loss))
            return traced(loss)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every target under each name a loaded dynel module holds it by."""
        with ExitStack() as stack:
            for module_name, qualname in TARGETS:
                importlib.import_module(f"dynel.{module_name}")
            holders = [mod for mod_name, mod in sys.modules.items()
                       if mod_name == "dynel" or mod_name.startswith("dynel.")]
            for module_name, qualname in TARGETS:
                module = sys.modules[f"dynel.{module_name}"]
                name = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    wrapper = self._wrap(name, getattr(owner, attr))
                    stack.enter_context(patched(owner, attr, wrapper))
                    continue
                fn = getattr(module, qualname)
                wrapper = (self._wrap_backward(fn) if name == "autodiff.backward"
                           else self._wrap(name, fn))
                for mod in holders:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            stack.enter_context(patched(mod, attr, wrapper))
            yield self

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time (duration minus child spans) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        return calls, self_s

    def coverage(self, root: str) -> float:
        """Share of the ``root`` spans' time spent inside layer spans, leaving
        out the tracer's own graph counting."""
        roots = {i for i, s in enumerate(self.spans) if s[0] == root}
        covered = counting = total = 0.0
        for name, start, end, parent in self.spans:
            if parent in roots:
                if name == GRAPH_COUNT:
                    counting += end - start
                else:
                    covered += end - start
        for i in roots:
            total += self.spans[i][2] - self.spans[i][1]
        return covered / (total - counting)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every target's calls and self time, zero for targets never called."""
        calls, self_s = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_SPANS:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out["autodiff.graph_nodes_per_update"] = (
            sum(self.graph_nodes) / len(self.graph_nodes) if self.graph_nodes else 0.0,
            "count",
        )
        return out
