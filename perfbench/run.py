"""The serving benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload offline_hits --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Preparation runs in processes
of its own (``prep.py``): training a checkpoint (once per program
version), then generating the inputs and their reference answers from
the seed.  The program is measured in a fresh process (``offline.py``, or
a ``repro serve --http`` server driven by ``online.py``), every answer is
checked against the reference, and the last line printed is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The run exits 1 when an answer is wrong, and
non-zero without a result line when it cannot complete.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from stats import beyond, median, nearest_rank, share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Generous per-step cap; a healthy run takes well under a minute.
STEP_TIMEOUT_S = 150

#: Relative score tolerance: float32 epsilon (1.2e-7) times a 64-term
#: accumulation-order margin, rounded up.
SCORE_TOLERANCE = 1e-5

#: One BLAS/OpenMP thread in every process the benchmark starts.  On a
#: host with two shared cores, OpenBLAS's default pool (one thread per
#: core) spins on a core a neighbour may hold, so a call's time tracks the
#: host's load more than the program: single-threaded runs were both
#: faster and steadier (README.md, "Bounds and run-to-run spread").
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _step(*args: str) -> None:
    """Run one benchmark script in a fresh interpreter."""
    subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_env(), check=True, timeout=STEP_TIMEOUT_S,
        stdout=sys.stderr,
    )


def _checkpoint(workload) -> Path:
    """The workload's trained checkpoint, trained on first use.

    Training is deterministic and serving cost does not depend on the
    weights, so every run of one program version can share it.  The key
    covers the program's source and the training recipe, so an edited
    program retrains; training runs in a process of its own, and the
    result is published with an atomic rename.
    """
    from workloads import model_choice

    digest = hashlib.sha1(repr((workload.scale, model_choice(workload))).encode())
    for path in sorted(SRC.rglob("*.py")) + [HERE / "prep.py", HERE / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    target = HERE / ".cache" / f"ckpt-{digest.hexdigest()[:16]}"
    if not target.is_dir():
        staging = HERE / ".cache" / f"staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.parent.mkdir(parents=True, exist_ok=True)
        try:
            _step(str(HERE / "prep.py"), "train", "--workload", workload.name,
                  "--out", str(staging))
            try:
                os.rename(staging, target)
            except OSError:
                if not target.is_dir():  # else another run published it first
                    raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return target


class Checker:
    """Compares served rankings with the reference, and scores top-1
    accuracy against the gold link.

    Entity ids must match exactly, in order.  Scores may differ in the
    last float32 bits, because a micro-batch sums in another order than
    the one-mention reference path; :data:`SCORE_TOLERANCE` bounds that.
    """

    def __init__(self, inputs: dict):
        from repro.text.corpus import mint_cui

        self._cui = mint_cui
        self.reference = inputs["reference"]
        self.gold = inputs["gold"]
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, item: int, ids, scores) -> bool:
        self.attempted += 1
        ref = self.reference[item]
        if list(ids) == ref["ids"] and len(scores) == len(ref["scores"]) and all(
            abs(s - r) <= SCORE_TOLERANCE * max(1.0, abs(r)) for s, r in zip(scores, ref["scores"])
        ):
            return True
        self.failed += 1
        if len(self.mismatches) < 5:
            self.mismatches.append({"item": item, "served": list(ids), "reference": ref["ids"]})
        return False

    def top1(self, item: int, ids) -> bool:
        return bool(ids) and self._cui(int(ids[0])) == self.gold[item]


def _offline(args, workload, checkpoint: Path, work: Path, inputs: dict, checker: Checker):
    out = work / "offline.json"
    _step(
        str(HERE / "offline.py"), "--checkpoint", str(checkpoint),
        "--inputs", str(work / "inputs.json"), "--seconds", str(args.seconds),
        "--call-size", str(workload.call_size), "--warmup-calls", str(workload.warmup_calls),
        "--trace", str(args.trace), "--out", str(out),
    )
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    pool = len(inputs["reference"])
    for call in result["warmup"]:
        for j, (ids, scores) in enumerate(zip(call["ids"], call["scores"])):
            checker.check((call["start"] + j) % pool, ids, scores)
    good = top1 = mentions = 0
    seconds, samples_ms = 0.0, []
    for call in result["calls"]:
        for j, (ids, scores) in enumerate(zip(call["ids"], call["scores"])):
            item = (call["start"] + j) % pool
            good += checker.check(item, ids, scores)
            top1 += checker.top1(item, ids)
        mentions += len(call["ids"])
        seconds += call["seconds"]
        # A batch caller waits for the whole call: the call is the sample.
        samples_ms.append(call["seconds"] * 1000.0)
    c = result["counters"]
    properties = {
        "index_hit_share": share(c["index_hits"], c["index_hits"] + c["fallbacks"]),
        "cache_hit_share": share(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "candidates_mean": _mean_candidates(inputs, [
            (call["start"] + j) % pool for call in result["calls"] for j in range(len(call["ids"]))
        ]),
    }
    tail_ms = nearest_rank(samples_ms, workload.tail_percentile)
    end_to_end = {
        "setup_s": result["setup_median_s"],
        "throughput_mps": good / seconds,
        "latency_p50_ms": median(samples_ms),
        "latency_tail_ms": tail_ms,
        "rss_mb": result["rss_mb"],
        "top1_accuracy": top1 / mentions,
    }
    layers = None
    if args.trace:
        layers = dict(result["layers"])
        layers.update(result["setup_layers"])
        layers.update({
            "core.candidates.fallback_share": 1.0 - properties["index_hit_share"],
            "serving.cache.hit_share": properties["cache_hit_share"],
            "serving.admission.shed_share": 0.0,
            "loadgen.lag_tail_ms": 0.0,
            "trace.overhead_share": result["overhead_share"],
        })
    info = {
        "latency_tail_percentile": workload.tail_percentile,
        "latency_tail_beyond": beyond(samples_ms, workload.tail_percentile),
        "mentions": mentions, "calls": len(result["calls"]),
    }
    return end_to_end, layers, properties, info


def _mean_candidates(inputs: dict, items) -> float:
    sizes = inputs["candidates"]
    items = list(items)
    return sum(sizes[i] for i in items) / max(len(items), 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source ({SRC / 'repro'}) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        checkpoint = _checkpoint(workload)
        _step(str(HERE / "prep.py"), "inputs", "--workload", workload.name,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--checkpoint", str(checkpoint), "--out", str(work / "inputs.json"))
        with open(work / "inputs.json", encoding="utf-8") as fh:
            inputs = json.load(fh)
        checker = Checker(inputs)
        if workload.mode == "offline":
            end_to_end, layers, properties, info = _offline(
                args, workload, checkpoint, work, inputs, checker
            )
        else:
            from online import run_online

            end_to_end, layers, properties, info = run_online(
                args, workload, checkpoint, work, inputs, checker, _env()
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_share = share(checker.failed, checker.attempted)
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "error_share": error_share, "top1_accuracy": end_to_end.pop("top1_accuracy"),
        "properties": properties, **info,
        "mismatches": checker.mismatches,
        "wall_s": time.perf_counter() - started,
    }))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    values = layers if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
