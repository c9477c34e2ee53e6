#!/usr/bin/env python3
"""End-to-end observability: traces, metrics and the per-stage profile.

The script tours ``repro.obs``, the zero-dependency observability layer:

1. ``Observability()`` bundles a metrics registry (counters, gauges,
   log-scale histograms) with a structured tracer; instrumenting a gateway
   and an execution pipeline is two method calls, and an uninstrumented
   deployment runs the same hooks on a shared dormant handle that records
   nothing;
2. a replicated issuance profile is served over real TCP; the traced client
   stamps a trace context onto each wire envelope (one optional field, both
   codec lanes -- old peers simply ignore it) and the server's
   ``gateway.handle`` span adopts it, so one trace id spans the socket;
3. the profiled stages -- gateway decode, issuance, mempool admission,
   block build, pre-warm, execute, WAL commit fsync -- fill histograms as a
   workload runs through the full client -> TS -> contract loop;
4. the ``metrics`` gateway op ships the whole snapshot back over the same
   wire, which is what ``python -m repro.obs.dump tcp://host:port`` renders.

Run with:  python examples/observability_quickstart.py
"""

import tempfile

from repro.api import ServiceGateway, build_service, connect, serve
from repro.chain import Blockchain
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet
from repro.obs import Observability
from repro.obs.dump import render_text
from repro.pipeline import ExecutionPipeline, SmacsLoadGenerator
from repro.storage import DurableStore

TS_URL = "https://ts.obs.example"


def main() -> None:
    # --- 1. a traced server: replicated issuance behind an instrumented gateway
    server_obs = Observability()
    service = build_service("replicated", replica_count=3, seed=7)
    gateway = ServiceGateway(observability=server_obs)
    gateway.register(TS_URL, service)

    chain = Blockchain()
    owner = chain.create_account("owner", seed="obs-owner")
    clients = [chain.create_account(f"c{i}", seed=f"obs-client-{i}") for i in range(4)]

    with serve(gateway) as server, tempfile.TemporaryDirectory() as workdir:
        print(f"traced gateway listening on {server.url}")
        endpoint = connect(server.url, route=TS_URL)
        endpoint.observability = client_obs = Observability()
        try:
            recorder = OwnerWallet(owner, endpoint).deploy_protected(
                ProtectedRecorder, one_time_bitmap_bits=4096, ts_url=TS_URL
            ).return_value

            # --- 2. an instrumented pipeline + durable store ------------------
            pipeline = ExecutionPipeline(chain)
            store = DurableStore(workdir, "sqlite")
            store.attach(pipeline)
            server_obs.instrument_pipeline(pipeline)

            # --- 3. fire a short workload through the whole loop --------------
            generator = SmacsLoadGenerator(endpoint, recorder, clients)
            txs = generator.from_arrivals([5, 8, 3, 6])
            pipeline.ingest(txs)
            results = pipeline.drain()
            store.close()
            executed = sum(r.executed for r in results)
            print(f"executed {executed} transactions in {len(results)} blocks "
                  f"({chain.read(recorder, 'entries')} recorder entries)\n")

            # One trace id crossed the wire per client call:
            client_span = client_obs.tracer.finished_spans()[-1]
            server_span = next(
                s for s in reversed(server_obs.tracer.finished_spans())
                if s.name == "gateway.handle"
            )
            print(f"client span {client_span.name!r} trace={client_span.trace_id}")
            print(f"server span {server_span.name!r} trace={server_span.trace_id} "
                  f"(parent={server_span.parent_id})\n")

            # --- 4. fetch the snapshot through the metrics wire op ------------
            snapshot = endpoint.metrics()
        finally:
            endpoint.close()

    print(render_text(snapshot))
    slowest = max(
        (row for row in snapshot["stages"].values() if row["p50_ms"] is not None),
        key=lambda row: row["p50_ms"],
    )
    stage = next(k for k, v in snapshot["stages"].items() if v is slowest)
    print(f"\nslowest stage by p50: {stage} ({slowest['p50_ms']:.3f} ms)")


if __name__ == "__main__":
    main()
