"""HTTP quickstart: serve a Linker over the network front door and talk
to it with the stdlib client.

Trains a small ED-GNN, starts the asyncio HTTP server on an ephemeral
port straight from the facade (``linker.serve(http_port=0)``), and
drives every endpoint through :class:`repro.serving.LinkerClient`:
single link, batch link, streaming NDJSON bulk job, JSON stats and the
Prometheus text exposition.  Responses carry the typed wire schema of
:mod:`repro.serving.wire` — ``WirePrediction.to_prediction()`` is the
exact server-side :class:`repro.core.pipeline.Prediction`.  A final
leg turns on admission control and sheds a burst: a server with a tiny
queue answers the overflow with structured 429s + ``Retry-After``,
surfaced by the client as :class:`LinkerOverloadedError`.

The same server is reachable from the CLI and plain curl:

    repro train --dataset NCBI --out CKPT
    repro serve --checkpoint CKPT --http 8080 \
        --shed-policy wait --max-queue 64      # overload protection
    curl -s localhost:8080/healthz
    curl -s -XPOST localhost:8080/link -d \
        '{"schema_version": 1, "items": [{"text": "..."}], "top_k": 3}'
    curl -s localhost:8080/stats -H 'Accept: text/plain'   # Prometheus

Run:  PYTHONPATH=src python examples/http_quickstart.py
"""

from repro.api import Linker, LinkerConfig
from repro.core import ModelConfig, TrainConfig
from repro.datasets import load_dataset
from repro.serving import LinkerClient, LinkerOverloadedError


def main() -> None:
    # 1. Train a small linker (any checkpoint works the same way).
    config = LinkerConfig(
        model=ModelConfig(variant="graphsage", num_layers=2, seed=0),
        train=TrainConfig(epochs=20, patience=10, seed=0),
    )
    dataset = load_dataset("NCBI", scale=0.3)
    linker = Linker.from_config(config, dataset.kb)
    result = linker.fit(dataset.train, dataset.val, dataset.test)
    print(f"trained: test F1 {result.test.f1:.3f}")

    # 2. One call starts the network front door: an asyncio HTTP server
    #    over the work-conserving async service.  Port 0 binds an
    #    ephemeral port; the real one is read back from `server.port`.
    server = linker.serve(http_port=0)
    print(f"serving on http://{server.host}:{server.port}")

    try:
        with LinkerClient(port=server.port) as client:
            print("healthz:", client.healthz())

            # 3. Single link: raw text through the server-side NER.
            text = dataset.test[0].text
            prediction = client.link(text=text, top_k=3)
            print(f"\n  {text!r}")
            for name, score in zip(prediction.entity_names, prediction.scores):
                print(f"    {name!r}  (score {score:.3f})")

            # 4. Batch link: full snippets, one POST, responses in order.
            batch = client.link_batch(dataset.test[:8], top_k=1)
            print(f"\nbatched {len(batch)} mentions over one request")

            # 5. Streaming bulk job: results arrive incrementally as the
            #    server's micro-batches complete.
            streamed = sum(1 for _ in client.link_stream(dataset.test[:16]))
            print(f"streamed {streamed} predictions")

            # 6. Telemetry: ServiceStats as JSON, or Prometheus text for
            #    a scraper.
            stats = client.stats()
            print(
                f"\nstats: {stats['mentions']} mentions, "
                f"{stats['batches']} micro-batches, "
                f"hit rate {stats['cache_hit_rate']:.2f}"
            )
            prometheus = client.stats(prometheus=True)
            print("prometheus sample:", prometheus.splitlines()[2])
    finally:
        # 7. close() drains: new requests get 503 while in-flight work
        #    completes, then the async service shuts down.
        server.close()
    print("server drained and closed")

    # 8. Overload protection: the same front door with admission control
    #    on.  A deliberately tiny queue makes the shed deterministic: a
    #    burst of three items overflows the normal-priority depth budget
    #    (a batch is admitted all or nothing), the whole request is
    #    answered 429 with a Retry-After hint, and the counters land in
    #    /stats and the Prometheus rendering.  In
    #    production you would size max_queue realistically (or use
    #    shed_policy="wait" to shed on estimated queue wait) and wrap
    #    bursty callers in repro.serving.retry_overloaded.
    server = linker.serve(
        http_port=0,
        admission={"shed_policy": "depth", "max_queue": 2},
    )
    try:
        with LinkerClient(port=server.port) as client:
            try:
                client.link_batch(dataset.test[:3])
            except LinkerOverloadedError as exc:
                print(
                    f"\nburst shed: HTTP {exc.status}, server says retry "
                    f"in {exc.retry_after_s:.0f}s"
                )
            stats = client.stats()
            print(f"admitted {stats['admitted']}  shed {stats['shed']}")
    finally:
        server.close()
    print("overloaded server drained and closed")


if __name__ == "__main__":
    main()
