"""The measured process of the offline workloads.

    python perfbench/offline.py --checkpoint CKPT --inputs INPUTS.json \\
        --seconds T --call-size N --warmup-calls W --trace 0|1 --out RESULT.json

Cold-loads the checkpoint and builds the default service several times
(``setup_s`` is their median), then drives ``LinkingService.link_batch``
with ``--call-size``-mention calls cycling through the pool: ``W``
untimed warm-up calls, then ``T`` timed seconds.  With ``--trace 1`` the
first half runs untraced and the second half under the request-path
wrappers, so the tracing overhead is measured in the same process.
Answers are checked by the caller, after this process exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import spans as spans_mod
from stats import median, rss_mb

SETUPS = 5


def _counters(service) -> dict:
    stats, generator = service.stats, service.pipeline.candidate_generator
    return {
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "index_hits": generator.index_hits,
        "fallbacks": generator.fallback_hits,
    }


def _drive(service, snippets, size: int, position: int, seconds: float, tracer=None):
    """Calls of ``size`` snippets, cycling from ``position``, until
    ``seconds`` have passed (at least one call).  Returns (calls, next
    position), each call as (pool start, wall seconds, predictions)."""
    calls = []
    begin = time.perf_counter()
    while not calls or time.perf_counter() - begin < seconds:
        batch = [snippets[(position + j) % len(snippets)] for j in range(size)]
        if tracer is not None:
            tracer.new_request()
        t0 = time.perf_counter()
        predictions = service.link_batch(batch)
        calls.append((position, time.perf_counter() - t0, predictions))
        position = (position + size) % len(snippets)
    return calls, position


def _encode(calls) -> list:
    return [
        {
            "start": start,
            "seconds": seconds,
            "ids": [p.ranked_entities for p in predictions],
            "scores": [p.scores for p in predictions],
        }
        for start, seconds, predictions in calls
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--call-size", type=int, required=True)
    parser.add_argument("--warmup-calls", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.api import Linker
    from repro.text.corpus import Snippet

    with open(args.inputs, encoding="utf-8") as fh:
        snippets = [Snippet.from_dict(s) for s in json.load(fh)["snippets"]]
    tracer = spans_mod.Tracer() if args.trace else None
    if tracer is not None:
        spans_mod.install(tracer, spans_mod.SETUP_TARGETS)

    setups, service = [], None
    for _ in range(SETUPS):
        if service is not None:
            service.close()
            service = None
        t0 = time.perf_counter()
        service = Linker.load(args.checkpoint).serve()
        setups.append(time.perf_counter() - t0)

    # Warm-up, so lazy set-up inside the first requests is not timed.
    warmup, position = [], 0
    for _ in range(args.warmup_calls):
        call, position = _drive(service, snippets, args.call_size, position, 0.0)
        warmup += call
    result = {"setup_s": setups, "warmup": _encode(warmup)}
    before = _counters(service)
    if tracer is None:
        calls, position = _drive(service, snippets, args.call_size, position, args.seconds)
        result["calls"] = _encode(calls)
    else:
        half = args.seconds / 2.0
        untraced, position = _drive(service, snippets, args.call_size, position, half)
        before = _counters(service)
        spans_mod.install(tracer, spans_mod.REQUEST_TARGETS)
        window_start = time.perf_counter()
        calls, position = _drive(service, snippets, args.call_size, position, half, tracer)
        window_end = time.perf_counter()
        mentions = sum(len(p) for _, _, p in calls)
        result["calls"] = _encode(untraced + calls)
        result["overhead_share"] = 1.0 - (
            mentions / sum(s for _, s, _ in calls)
        ) / (sum(len(p) for _, _, p in untraced) / sum(s for _, s, _ in untraced))
        result["layers"] = spans_mod.layer_metrics(
            spans_mod.in_window(tracer.spans, window_start, window_end),
            mentions=mentions,
            requests=len(calls),
        )
        result["setup_layers"] = spans_mod.setup_metrics(tracer.spans)
    after = _counters(service)
    result["counters"] = {k: after[k] - before[k] for k in after}
    result["rss_mb"] = rss_mb("self")
    service.close()
    result["setup_median_s"] = median(setups)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
