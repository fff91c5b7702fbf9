"""The online workload: a ``repro serve --http`` process of its own, driven
by an open-loop load generator.

The generator is one process with ``workload.connections`` keep-alive
connections.  Request i is due at ``t0 + offsets[i]``; at that moment it
is queued for the connections, and the first free one sends it, late
when every connection is busy.  Latency runs from the due time, so a stall also
counts against the requests queued behind it, and the lateness itself is
reported as ``loadgen.lag_tail_ms``.
"""

from __future__ import annotations

import http.client
import json
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Sequence

from stats import beyond, median, nearest_rank, rss_mb, share, tail

SETUPS = 3
READY_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0
_SERVING = re.compile(r"serving on http://([^:]+):(\d+)")

HERE = Path(__file__).resolve().parent


class Server:
    """One server process: launched, timed until ``/healthz`` answers,
    stopped with SIGINT like an operator would."""

    def __init__(self, cmd: List[str], env: dict, cwd: Path, log):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=log, text=True
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.started

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)

    def _await_port(self) -> int:
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                line = self._lines.get(timeout=0.05)
            except queue.Empty:
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server exited with {self.proc.returncode}")
                continue
            match = _SERVING.search(line)
            if match:
                return int(match.group(2))
        raise RuntimeError("server did not report its port")

    def _await_health(self) -> None:
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)["stats"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=STOP_TIMEOUT_S)


def post_all(port: int, bodies: Sequence[bytes], offsets: Sequence[float], connections: int):
    """Open loop: hand ``bodies[i]`` to the first free connection at
    ``offsets[i]`` seconds after start.  Returns per request (due, sent,
    done, status, body); times are ``time.perf_counter`` seconds."""
    results: list = [None] * len(bodies)
    due_queue: "queue.Queue" = queue.Queue()
    errors: list = []
    t0 = time.perf_counter() + 0.02

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                i = due_queue.get()
                if i is None:
                    return
                sent = time.perf_counter()
                conn.request("POST", "/link", body=bodies[i],
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                body = response.read()
                results[i] = (t0 + offsets[i], sent, time.perf_counter(), response.status, body)
        except Exception as exc:  # reported to the caller, which fails the run
            errors.append(exc)
            while due_queue.get() is not None:  # let the dispatcher finish
                pass
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for i, offset in enumerate(offsets):
        delay = t0 + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        due_queue.put(i)
    for _ in threads:
        due_queue.put(None)
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"load generator failed: {errors[0]!r}")
    return results


def _bodies(items: Sequence[dict]) -> List[bytes]:
    from repro.serving.wire import LinkItem, LinkRequest

    return [
        LinkRequest(items=(LinkItem(text=it["text"], mention=it["mention"]),)).to_json().encode()
        for it in items
    ]


def _answer(status: int, body: bytes):
    """(entity ids, scores) of a 200 answer, else None."""
    if status != 200:
        return None
    try:
        prediction = json.loads(body)["predictions"][0]
        return prediction["entity_ids"], prediction["scores"]
    except (ValueError, KeyError, IndexError, TypeError):
        return None


def _stats_delta(before: dict, after: dict) -> dict:
    admitted = sum(after["admitted"].values()) - sum(before["admitted"].values())
    shed = sum(after["shed"].values()) - sum(before["shed"].values())
    return {
        "cache_hits": after["cache_hits"] - before["cache_hits"],
        "cache_misses": after["cache_misses"] - before["cache_misses"],
        "index_hits": after["candidate_index_hits"] - before["candidate_index_hits"],
        "fallbacks": after["candidate_fallbacks"] - before["candidate_fallbacks"],
        "admitted": admitted,
        "shed": shed,
    }


def run_online(args, workload, checkpoint: Path, work: Path, inputs: dict, checker, env: dict):
    import spans as spans_mod

    serve = ["serve", "--checkpoint", str(checkpoint), "--http", "0"]
    log = open(work / "server.log", "w", encoding="utf-8")
    servers, spans_files = [], []
    try:
        for k in range(SETUPS):
            if args.trace:
                spans_files.append(work / f"spans-{k}.json")
                cmd = [sys.executable, str(HERE / "server.py"), "--spans", str(spans_files[-1]),
                       "--armed", str(work / "armed"), "--", *serve]
            else:
                cmd = [sys.executable, "-m", "repro", *serve]
            if servers:
                servers[-1].stop()
            servers.append(Server(cmd, env, HERE.parent, log))
        server = servers[-1]
        bodies = _bodies(inputs["items"])

        warm = post_all(server.port, [bodies[i] for i in inputs["warmup"]],
                        [0.0] * len(inputs["warmup"]), 1)
        for item, (_, _, _, status, body) in zip(inputs["warmup"], warm):
            answer = _answer(status, body)
            checker.check(item, *(answer or ([], [])))

        picks, offsets = inputs["picks"], inputs["offsets"]
        phases = [(0, len(picks))]
        if args.trace:
            split = sum(1 for o in offsets if o < args.seconds / 2.0)
            phases = [(0, split), (split, len(picks))]
        measured = []
        for n, (lo, hi) in enumerate(phases):
            if n == 1:
                server.proc.send_signal(signal.SIGUSR1)
                while not (work / "armed").exists():
                    time.sleep(0.01)
            before = server.stats()
            base = offsets[lo]
            results = post_all(server.port, [bodies[picks[i]] for i in range(lo, hi)],
                               [offsets[i] - base for i in range(lo, hi)], workload.connections)
            measured.append((lo, results, _stats_delta(before, server.stats())))
        rss = rss_mb(server.proc.pid)
    finally:
        for s in servers:
            s.stop()
        log.close()

    def summarise(lo, results):
        latencies, lags, good, top1 = [], [], 0, 0
        for k, (due, sent, done, status, body) in enumerate(results):
            item = picks[lo + k]
            answer = _answer(status, body) or ([], [])
            good += checker.check(item, *answer)
            top1 += checker.top1(item, answer[0])
            latencies.append((done - due) * 1000.0)
            lags.append((sent - due) * 1000.0)
        span_s = max(r[2] for r in results) - min(r[0] for r in results)
        return latencies, lags, good, top1, span_s

    phase_stats = [summarise(lo, results) for lo, results, _ in measured]
    latencies = [x for phase in phase_stats for x in phase[0]]
    lags = [x for phase in phase_stats for x in phase[1]]
    good, top1, span_s = (sum(phase[i] for phase in phase_stats) for i in (2, 3, 4))
    counters = measured[-1][2]
    items = picks[phases[-1][0]:phases[-1][1]]
    properties = {
        "index_hit_share": sum(inputs["index_hit"][i] for i in items) / len(items),
        "cache_hit_share": share(
            counters["cache_hits"], counters["cache_hits"] + counters["cache_misses"]
        ),
        "candidates_mean": sum(inputs["candidates"][i] for i in items) / len(items),
    }
    tail_ms = nearest_rank(latencies, workload.tail_percentile)
    end_to_end = {
        "setup_s": median([s.setup_s for s in servers]),
        "throughput_mps": good / span_s,
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail_ms,
        "rss_mb": rss,
        "top1_accuracy": top1 / len(latencies),
    }
    layers = None
    if args.trace:
        untraced, traced = phase_stats[0][0], phase_stats[1][0]
        all_spans = []
        for path in spans_files:
            with open(path, encoding="utf-8") as fh:
                all_spans.append([tuple(s) for s in json.load(fh)])
        request_spans = [s for s in all_spans[-1] if not s[spans_mod.NAME].startswith("setup.")]
        traced_results = measured[1][1]
        layers = spans_mod.layer_metrics(
            request_spans, mentions=len(traced_results), requests=len(traced_results)
        )
        layers.update(spans_mod.setup_metrics([s for f in all_spans for s in f]))
        layers.update({
            "core.candidates.fallback_share": share(
                counters["fallbacks"], counters["index_hits"] + counters["fallbacks"]
            ),
            "serving.cache.hit_share": properties["cache_hit_share"],
            "serving.admission.shed_share": share(
                counters["shed"], counters["admitted"] + counters["shed"]
            ),
            "loadgen.lag_tail_ms": tail(phase_stats[1][1])[0],
            "trace.overhead_share": median(traced) / median(untraced) - 1.0,
        })
    info = {"latency_tail_percentile": workload.tail_percentile,
            "latency_tail_beyond": beyond(latencies, workload.tail_percentile),
            "requests": len(latencies),
            "loadgen_lag_tail_ms": tail(lags)[0]}
    return end_to_end, layers, properties, info
