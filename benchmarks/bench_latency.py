"""Open-loop issuance latency over the real TCP wire (§VI SLO view).

Every throughput harness in this directory is closed-loop: the next request
waits for the previous answer, so queueing delay is invisible.  This harness
is the complement -- an *open-loop* arrival train (fixed rate, arrivals do
not wait, :mod:`repro.pipeline.openloop`) driven through real sockets: a
replicated ``build_service`` stack behind a :class:`~repro.api.ServiceGateway`,
served by the asyncio :class:`~repro.api.GatewayServer` and reached through
:func:`~repro.api.connect`-ed, pooled ``TcpTransport`` clients (one per
worker, so the wire concurrency is real too).

It reports what a wallet actually feels:

* **issuance** (service) latency -- the submit round-trip, framing + codec +
  gateway dispatch + replicated issuance;
* **end-to-end** latency -- completion minus *scheduled* arrival, so
  queueing shows up when the offered rate outruns the service;
* error / success rate, per-``ErrorCode`` counts, achieved vs offered rate.

``regression_gate.py latency`` gates the committed baseline on the latency
percentiles (lower-is-better) and the success rate (higher-is-better).

Set ``SMACS_LAT_RATE`` / ``SMACS_LAT_ARRIVALS`` / ``SMACS_LAT_WORKERS`` to
scale locally.  CI runs the full default workload: the committed baseline
measures this exact arrival train -- do not add quick-mode knobs to the
bench-smoke lane without refreshing the baseline to match.
"""

from __future__ import annotations

from benchmarks.conftest import env_int, report
from repro.api import ServiceGateway, build_service, codec, connect, serve
from repro.chain.address import to_address
from repro.core.token_request import TokenRequest
from repro.obs import Observability
from repro.pipeline import run_open_loop

RATE_PER_S = env_int("SMACS_LAT_RATE", 200)
ARRIVALS = env_int("SMACS_LAT_ARRIVALS", 400)
WORKERS = env_int("SMACS_LAT_WORKERS", 8)

ROUTE = "https://ts.latency.example"
CONTRACT = to_address(0x5AC5)
CLIENT = to_address(0xC11E47)

#: Smoke floor, not the SLO -- the regression gate owns the latency numbers.
#: An open-loop run that loses requests is broken regardless of hardware.
MIN_SUCCESS_RATE = 0.999


def _make_request(index: int) -> TokenRequest:
    # One-time method tokens: every arrival exercises the §V-B counter, and
    # index uniqueness across the whole run doubles as a correctness probe.
    return TokenRequest.method_token(CONTRACT, CLIENT, "submit", one_time=True)


def _envelope_sizes() -> "dict[str, int]":
    """Context: the same submit envelope in both codec lanes."""
    body = {"requests": [codec.encode_token_request(_make_request(0))]}
    sizes = {}
    for lane in codec.CODECS:
        sizes[f"{lane}_request_bytes"] = len(
            codec.encode_request_envelope("submit", ROUTE, body, codec=lane)
        )
    return sizes


def test_open_loop_latency_over_tcp(benchmark):
    service = build_service("replicated", replica_count=3, seed=41)
    # Metrics only (tracer off): the server-side stage histograms give the
    # artifact a gateway_decode/issuance breakdown without per-request spans
    # perturbing the latency percentiles under measurement.
    obs = Observability(tracing=False)
    gateway = ServiceGateway(observability=obs)
    gateway.register(ROUTE, service)
    measured = {}

    def run():
        with serve(gateway) as server:
            clients = [connect(server.url) for _ in range(WORKERS)]
            try:
                measured["report"] = run_open_loop(
                    clients,
                    _make_request,
                    rate_per_second=RATE_PER_S,
                    arrivals=ARRIVALS,
                    workers=WORKERS,
                )
            finally:
                for client in clients:
                    client.close()
            measured["server"] = server.stats()

    benchmark.pedantic(run, rounds=1, iterations=1)

    outcome = measured["report"]
    server_stats = measured["server"]
    assert outcome.arrivals == ARRIVALS
    assert outcome.success_rate >= MIN_SUCCESS_RATE, outcome.errors_by_code
    assert server_stats["frames_served"] >= ARRIVALS

    sizes = _envelope_sizes()
    data = {
        "rate_per_s": RATE_PER_S,
        "workers": WORKERS,
        **outcome.to_data(),
        **sizes,
        # Nested (never gated): where the server side spends the round-trip.
        # The flat keys above stay byte-compatible with the committed baseline.
        "stages": obs.stage_breakdown(),
    }
    report(
        "latency",
        [
            "Open-loop issuance latency over TCP (replicated profile)",
            f"  offered       {RATE_PER_S}/s x {ARRIVALS} arrivals, "
            f"{WORKERS} workers (one pooled TcpTransport each)",
            f"  achieved      {outcome.achieved_rate_per_s:.1f}/s, "
            f"success rate {outcome.success_rate:.4f}",
            f"  issuance      p50 {outcome.service.p50_ms:.2f} ms   "
            f"p99 {outcome.service.p99_ms:.2f} ms   "
            f"p999 {outcome.service.p999_ms:.2f} ms",
            f"  end-to-end    p50 {outcome.end_to_end.p50_ms:.2f} ms   "
            f"p99 {outcome.end_to_end.p99_ms:.2f} ms   "
            f"p999 {outcome.end_to_end.p999_ms:.2f} ms",
            f"  frames        {server_stats['frames_served']} served, "
            f"{server_stats['bytes_received']} B in / "
            f"{server_stats['bytes_sent']} B out",
            f"  envelope      submit request: {sizes['json_request_bytes']} B json, "
            f"{sizes['binary_request_bytes']} B binary",
        ],
        data,
    )
