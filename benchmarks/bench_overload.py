"""Overload behaviour of the admission-controlled gateway (resilience SLOs).

``bench_latency.py`` measures the wire when the offered load fits; this
harness measures what happens when it does not.  The same TCP stack --
``build_service`` behind a :class:`~repro.api.ServiceGateway`, served by the
asyncio :class:`~repro.api.GatewayServer`, reached through pooled
``TcpTransport`` clients -- is driven open-loop at 1x, 2x and 4x of a
*pinned* capacity, with an :class:`~repro.api.AdmissionController` shedding
at the gateway edge.

Capacity is pinned, not measured: a pacing middleware sleeps a fixed
``SERVICE_TIME_S`` per submit inside the gateway's (serialised) dispatch, so
the service saturates at ~``1 / SERVICE_TIME_S`` requests/s on any machine
and the interesting numbers are machine-independent *ratios*:

* **goodput ratio** -- successful issuances/s at 4x vs 1x.  Without
  admission control, overload collapses goodput (every request queues until
  clients time out); with it, the controller keeps accepting at capacity
  and answers the rest with ``OVERLOADED`` + ``retry_after_s`` in
  microseconds.  The gate demands the 4x goodput stays >= 0.7x of 1x.
* **accepted p99 ratio** -- the submit round-trip p99 of *accepted*
  requests at 4x vs 1x.  Shedding keeps the virtual queue under the
  controller's delay budget, so accepted requests must not feel the
  overload; the gate demands <= 3x.  (Folding the microsecond shed
  answers into one percentile would fake an improvement -- the accepted
  and shed populations are summarised separately, see
  :mod:`repro.pipeline.openloop`.)

``regression_gate.py overload`` gates the committed baseline on the same
ratios.  Set ``SMACS_OVR_ARRIVALS`` / ``SMACS_OVR_WORKERS`` to scale
locally; CI runs the full default workload.
"""

from __future__ import annotations

import time
from typing import Any

from benchmarks.conftest import env_int, report
from repro.api import (
    AdmissionController,
    IssuerMiddleware,
    ServiceGateway,
    build_service,
    connect,
    serve,
)
from repro.chain.address import to_address
from repro.core.token_request import TokenRequest
from repro.pipeline import OpenLoopReport, run_open_loop

#: pinned per-submit service time inside the gateway dispatch -- the whole
#: point: the sleep dominates the real issuance work (~3 ms replicated
#: one-time issuance on reference hardware), so capacity lands near
#: ``1 / SERVICE_TIME_S`` on any machine.
SERVICE_TIME_S = 0.008
CAPACITY_PER_S = 1.0 / SERVICE_TIME_S  # ~125/s nominal, ~90-110/s real

#: offered base rate: comfortably under capacity on any machine.
BASE_RATE_PER_S = env_int("SMACS_OVR_RATE", 70)
BASE_ARRIVALS = env_int("SMACS_OVR_ARRIVALS", 210)  # ~3 s per multiplier
#: client workers scale with the multiplier: overload must come from *more
#: concurrent demand*, not from one fixed worker pool quietly self-pacing.
WORKERS = env_int("SMACS_OVR_WORKERS", 8)
MULTIPLIERS = (1, 2, 4)

#: the controller's queueing-delay budget: twice the service time, so an
#: accepted request never waits more than ~2 service slots at the edge.
TARGET_DELAY_S = 2 * SERVICE_TIME_S

#: machine-independent acceptance floors (the ISSUE-level SLOs); the
#: regression gate pins the committed baseline more tightly.
MIN_GOODPUT_RATIO_4X = 0.7
MAX_ACCEPTED_P99_RATIO_4X = 3.0

ROUTE = "https://ts.overload.example"
CONTRACT = to_address(0x5AC5)
CLIENT = to_address(0xC11E47)


class _PacedIssuer(IssuerMiddleware):
    """Pin the per-submit service time so capacity is hardware-independent.

    The sleep runs inside the gateway dispatch on the server's one dispatch
    thread, which serialises submits -- exactly the saturation model the
    admission controller's in-flight estimate assumes.
    """

    layer = "paced"

    def submit(self, requests: Any) -> list[Any]:
        time.sleep(SERVICE_TIME_S)
        return self.inner.submit(requests)


def _make_request(index: int) -> TokenRequest:
    return TokenRequest.method_token(CONTRACT, CLIENT, "submit", one_time=True)


def _run_at(multiplier: int) -> "tuple[OpenLoopReport, dict[str, Any]]":
    """One fresh stack, driven at ``multiplier`` x the base rate."""
    service = _PacedIssuer(build_service("replicated", replica_count=3, seed=47))
    admission = AdmissionController(
        target_delay_s=TARGET_DELAY_S, initial_service_s=SERVICE_TIME_S
    )
    gateway = ServiceGateway(admission=admission)
    gateway.register(ROUTE, service)
    workers = WORKERS * multiplier
    # The server's one dispatch thread keeps capacity at one paced submit at
    # a time while the read loop keeps decoding, so the admission edge sees
    # arrivals as they land instead of at drain pace.
    with serve(gateway) as server:
        clients = [connect(server.url) for _ in range(workers)]
        try:
            outcome = run_open_loop(
                clients,
                _make_request,
                rate_per_second=BASE_RATE_PER_S * multiplier,
                arrivals=BASE_ARRIVALS * multiplier,
                workers=workers,
            )
        finally:
            for client in clients:
                client.close()
    return outcome, admission.stats()


def test_overload_sheds_and_protects_goodput(benchmark):
    measured: "dict[int, tuple[OpenLoopReport, dict[str, Any]]]" = {}

    def run():
        for multiplier in MULTIPLIERS:
            measured[multiplier] = _run_at(multiplier)

    benchmark.pedantic(run, rounds=1, iterations=1)

    base, base_admission = measured[1]
    peak, peak_admission = measured[4]

    # At 1x (0.8x capacity) the controller must be essentially invisible.
    assert base.error_rate <= 0.05, base.errors_by_code
    # At 4x it must shed -- an un-shed 4x run means the pinned capacity or
    # the controller is broken and every latency below is meaningless.
    assert peak.failed > 0, "4x overload produced no shedding"
    assert peak.errors_by_code.get("OVERLOADED", 0) > 0, peak.errors_by_code

    goodput_ratio = peak.achieved_rate_per_s / base.achieved_rate_per_s
    assert goodput_ratio >= MIN_GOODPUT_RATIO_4X, (
        f"goodput collapsed under 4x overload: {base.achieved_rate_per_s:.1f}/s -> "
        f"{peak.achieved_rate_per_s:.1f}/s (ratio {goodput_ratio:.2f})"
    )

    base_p99 = base.accepted_service.p99_ms
    peak_p99 = peak.accepted_service.p99_ms
    assert base_p99 is not None and peak_p99 is not None
    accepted_p99_ratio = peak_p99 / base_p99
    assert accepted_p99_ratio <= MAX_ACCEPTED_P99_RATIO_4X, (
        f"accepted p99 blew up under 4x overload: {base_p99:.2f} ms -> "
        f"{peak_p99:.2f} ms (ratio {accepted_p99_ratio:.2f})"
    )

    data: dict[str, Any] = {
        "base_rate_per_s": BASE_RATE_PER_S,
        "base_arrivals": BASE_ARRIVALS,
        "workers": WORKERS,
        "service_time_ms": SERVICE_TIME_S * 1000.0,
        "target_delay_ms": TARGET_DELAY_S * 1000.0,
        "goodput_ratio_4x": round(goodput_ratio, 4),
        "accepted_p99_ratio_4x": round(accepted_p99_ratio, 4),
    }
    lines = [
        "Overload behaviour (admission-controlled gateway over TCP)",
        f"  pinned capacity   ~{CAPACITY_PER_S:.0f}/s "
        f"({SERVICE_TIME_S * 1000:.1f} ms/submit), "
        f"delay budget {TARGET_DELAY_S * 1000:.1f} ms",
    ]
    for multiplier in MULTIPLIERS:
        outcome, admission = measured[multiplier]
        tag = f"{multiplier}x"
        data[f"offered_{tag}_per_s"] = outcome.offered_rate_per_s
        data[f"goodput_{tag}_per_s"] = round(outcome.achieved_rate_per_s, 3)
        data[f"shed_rate_{tag}"] = round(outcome.error_rate, 6)
        data[f"overloaded_{tag}"] = outcome.errors_by_code.get("OVERLOADED", 0)
        data.update(
            {f"{k}_{tag}": v for k, v in outcome.accepted_service.to_data("accepted").items()}
        )
        data.update({f"{k}_{tag}": v for k, v in outcome.shed.to_data("shed").items()})
        accepted = outcome.accepted_service
        lines.append(
            f"  {tag:>2} offered {outcome.offered_rate_per_s:7.0f}/s   "
            f"goodput {outcome.achieved_rate_per_s:6.1f}/s   "
            f"shed {outcome.error_rate:6.1%}   "
            f"accepted p99 {accepted.p99_ms:6.2f} ms   "
            f"shed p99 {outcome.shed.p99_ms if outcome.shed.p99_ms is not None else 0.0:6.2f} ms"
        )
    lines.append(
        f"  gates             goodput ratio {goodput_ratio:.2f} "
        f"(floor {MIN_GOODPUT_RATIO_4X}), accepted p99 ratio "
        f"{accepted_p99_ratio:.2f} (ceiling {MAX_ACCEPTED_P99_RATIO_4X})"
    )
    report("overload", lines, data)
