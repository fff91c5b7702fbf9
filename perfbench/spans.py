"""Spans around the program's public functions, and what they add up to.

The benchmark never edits the program: :func:`install` replaces a
function or method by a wrapper that records one span per call and calls
the original.  A span is ``(id, name, start, end, parent, request, count)``:
``parent`` is the id of the enclosing span on the same thread (``-1`` at
the top), ``request`` the request the call serves (``-1`` when it serves
a whole batch), and ``count`` the call's unit of work where one is
defined (pairs scored, candidates returned, items in a batch).  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from stats import median, tail

Span = Tuple[int, str, float, float, int, int, int]
NAME, START, END, PARENT, REQUEST, COUNT = 1, 2, 3, 4, 5, 6


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()
        self._request_of: Dict[int, int] = {}  # id(snippet) -> request

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # Request attribution -------------------------------------------------
    def new_request(self) -> int:
        """Open a request on this thread; later top-level spans on the
        thread belong to it until the next one opens."""
        request = next(self._requests)
        self._local.request = request
        return request

    def current_request(self) -> int:
        return getattr(self._local, "request", -1)

    def bind(self, snippet, request: int) -> None:
        """Remember which request a snippet object travels for."""
        self._request_of[id(snippet)] = request

    def request_of(self, snippet) -> int:
        return self._request_of.get(id(snippet), -1)

    # Recording -----------------------------------------------------------
    def wrap(self, name: str, fn: Callable, hooks: "Hooks") -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, inherited = stack[-1] if stack else (-1, tracer.current_request())
            request = hooks.request(tracer, args, kwargs) if hooks.request else None
            if request is None:
                request = inherited
            span_id = next(tracer._ids)
            stack.append((span_id, request))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            count = hooks.count(args, kwargs, result) if hooks.count else 0
            tracer.spans.append((span_id, name, start, end, parent, request, count))
            if hooks.after:
                hooks.after(tracer, request, args, kwargs, result)
            return result

        return traced


@dataclass(frozen=True)
class Hooks:
    """Per-target callbacks: which request a call serves, its unit of
    work, and bookkeeping after it returns."""

    request: Optional[Callable] = None
    count: Optional[Callable] = None
    after: Optional[Callable] = None


@dataclass(frozen=True)
class Target:
    module: str
    owner: Optional[str]  # class name, or None for a module-level function
    attr: str
    span: str
    hooks: Hooks = Hooks()


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _open_request(tracer, args, kwargs):
    return tracer.new_request()


def _bind_submitted(tracer, request, args, kwargs, result):
    tracer.bind(_arg(args, kwargs, 1, "snippet"), request)


def _snippet_request(tracer, args, kwargs):
    request = tracer.request_of(_arg(args, kwargs, 0, "snippet"))
    return None if request < 0 else request


#: Layer boundaries on the request path, named as the metrics name them.
REQUEST_TARGETS: Tuple[Target, ...] = (
    Target("repro.serving.wire", "LinkRequest", "from_json", "serving.wire",
           Hooks(request=_open_request)),
    # Responses are serialised after an await, so the request is unknown.
    Target("repro.serving.wire", "LinkResponse", "to_json", "serving.wire",
           Hooks(request=lambda tracer, args, kwargs: -1)),
    Target("repro.core.pipeline", "EDPipeline", "snippet_from_text", "text.ner"),
    Target("repro.serving.scheduler", "AsyncLinkingService", "submit",
           "serving.scheduler.submit", Hooks(after=_bind_submitted)),
    Target("repro.serving.service", "LinkingService", "link_batch",
           "serving.service.link_batch",
           Hooks(count=lambda a, k, r: len(_arg(a, k, 1, "snippets")))),
    Target("repro.serving.service", None, "build_query_graph", "core.query_graph",
           Hooks(request=_snippet_request)),
    Target("repro.core.pipeline", "EDPipeline", "candidate_ids", "core.candidates",
           Hooks(count=lambda a, k, r: len(r))),
    Target("repro.serving.service", None, "batch_graphs", "graph.batch"),
    Target("repro.core.model", "EDGNN", "compile", "core.model.encoder"),
    Target("repro.core.model", "EDGNN", "embed", "core.model.encoder",
           Hooks(count=lambda a, k, r: 1)),
    Target("repro.core.model", "EDGNN", "score_pairs", "core.model.score_pairs",
           Hooks(count=lambda a, k, r: len(_arg(a, k, 2, "query_ids")))),
)

#: Set-up boundaries: checkpoint load, service construction, KB embedding.
SETUP_TARGETS: Tuple[Target, ...] = (
    Target("repro.api.linker", "Linker", "load", "setup.load"),
    Target("repro.api.linker", "Linker", "serve", "setup.serve"),
    Target("repro.core.pipeline", "EDPipeline", "ref_embeddings", "setup.ref_embed"),
)


def install(tracer: Tracer, targets: Sequence[Target]) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    restore = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner = getattr(module, target.owner) if target.owner else module
        raw = owner.__dict__[target.attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(target.span, raw.__func__, target.hooks))
        else:
            wrapped = tracer.wrap(target.span, raw, target.hooks)
        setattr(owner, target.attr, wrapped)
        restore.append((owner, target.attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)

    return uninstall


# ---------------------------------------------------------------------------
# Arithmetic over spans
# ---------------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children are counted once)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span[0], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span[0]] = (end - start) - covered
    return out


def queue_waits_ms(spans: Sequence[Span]) -> List[float]:
    """Per request: from its ``submit`` to the start of the
    ``link_batch`` that first worked on it."""
    submitted = {s[REQUEST]: s[START] for s in spans if s[NAME] == "serving.scheduler.submit"}
    batch_start = {s[0]: s[START] for s in spans if s[NAME] == "serving.service.link_batch"}
    waits = {}
    for span in spans:
        if span[NAME] == "core.query_graph" and span[REQUEST] in submitted:
            started = batch_start.get(span[PARENT])
            if started is not None and span[REQUEST] not in waits:
                waits[span[REQUEST]] = (started - submitted[span[REQUEST]]) * 1000.0
    return list(waits.values())


def layer_metrics(spans: Sequence[Span], mentions: int, requests: int) -> Dict[str, float]:
    """The span-derived per-layer metrics, per mention unless named
    otherwise.  ``spans`` are the traced window's request-path spans."""
    mentions = max(mentions, 1)
    total = defaultdict(float)
    counts = defaultdict(int)
    calls = defaultdict(int)
    for span in spans:
        total[span[NAME]] += span[END] - span[START]
        counts[span[NAME]] += span[COUNT]
        calls[span[NAME]] += 1
    own = self_times(spans)
    batch_spans = [s for s in spans if s[NAME] == "serving.service.link_batch"]
    batch_self = sum(own[s[0]] for s in batch_spans)
    batch_total = total["serving.service.link_batch"]
    submitted = calls["serving.scheduler.submit"]
    waits = queue_waits_ms(spans)
    per_mention_ms = 1000.0 / mentions
    return {
        "core.query_graph_ms": total["core.query_graph"] * per_mention_ms,
        "core.model.encoder_ms": total["core.model.encoder"] * per_mention_ms,
        "core.model.encoder_calls": counts["core.model.encoder"] / mentions,
        "graph.batch_ms": (
            total["graph.batch"] * 1000.0 / calls["graph.batch"] if calls["graph.batch"] else 0.0
        ),
        "core.model.score_pairs_ms": total["core.model.score_pairs"] * per_mention_ms,
        "core.model.pairs": counts["core.model.score_pairs"] / mentions,
        "core.candidates_ms": total["core.candidates"] * per_mention_ms,
        "core.candidates.set_size_mean": (
            counts["core.candidates"] / calls["core.candidates"]
            if calls["core.candidates"] else 0.0
        ),
        "serving.service.self_ms": batch_self * per_mention_ms,
        "serving.service.uncovered_share": batch_self / batch_total if batch_total else 0.0,
        "serving.scheduler.queue_wait_p50_ms": median(waits) if waits else 0.0,
        "serving.scheduler.queue_wait_tail_ms": tail(waits)[0] if waits else 0.0,
        "serving.scheduler.batch_size_mean": (
            float(np.mean([s[COUNT] for s in batch_spans])) if submitted and batch_spans else 0.0
        ),
        "text.ner_ms": total["text.ner"] * per_mention_ms,
        "serving.wire_ms": total["serving.wire"] * 1000.0 / max(requests, 1),
    }


def setup_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Median duration of each set-up stage over the run's set-ups."""
    out = {}
    for name in ("setup.load", "setup.serve", "setup.ref_embed"):
        durations = [s[END] - s[START] for s in spans if s[NAME] == name]
        out[name + "_s"] = median(durations) if durations else 0.0
    return out


def in_window(spans: Sequence[Span], start: float, end: float) -> List[Span]:
    return [s for s in spans if start <= s[START] and s[END] <= end]
