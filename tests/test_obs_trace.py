"""Tracer nesting + trace-context propagation across the real TCP wire.

The wire cells are the interop proof the observability tentpole needs: the
trace context is ONE optional envelope field in both codec lanes, the codec
version is unchanged, and every mixed pairing of traced/untraced peers keeps
working -- an old server ignores the field, an old client simply never sends
it.
"""

from __future__ import annotations

import pytest

from repro.api import (
    InProcessTransport,
    ServiceGateway,
    build_service,
    codec,
    connect,
    serve,
    unwrap,
)
from repro.core.acr import RuleSet
from repro.core.token_request import TokenRequest
from repro.crypto.keys import KeyPair
from repro.obs import DORMANT, Observability, TraceContext, Tracer

ROUTE = "https://ts.obs.example"


def _fake_clock():
    state = {"t": 0.0}

    def now() -> float:
        state["t"] += 0.5
        return state["t"]

    return now


def _request() -> TokenRequest:
    return TokenRequest.method_token(b"\xaa" * 20, b"\xbb" * 20, "submit")


def _gateway(obs: Observability = DORMANT) -> ServiceGateway:
    service = build_service(
        "serial", keypair=KeyPair.from_seed("obs-ts"), rules=RuleSet()
    )
    gateway = ServiceGateway(observability=obs)
    gateway.register(ROUTE, service)
    return gateway


# --- tracer unit behaviour ----------------------------------------------------------


def test_spans_nest_on_the_thread_local_stack():
    tracer = Tracer(now=_fake_clock())
    with tracer.span("outer") as outer:
        assert tracer.current() is outer
        with tracer.span("inner", stage="build") as inner:
            assert inner.trace_id == outer.trace_id
            assert inner.parent_id == outer.span_id
            assert inner.tags == {"stage": "build"}
    assert tracer.current() is None
    finished = tracer.finished_spans()
    assert [span.name for span in finished] == ["inner", "outer"]
    assert all(span.duration is not None and span.duration > 0 for span in finished)
    assert tracer.trace(outer.trace_id) == finished


def test_disabled_tracer_is_a_no_op():
    tracer = Tracer(enabled=False)
    with tracer.span("anything") as span:
        assert span is None
    assert tracer.start("x") is None
    assert tracer.finished_spans() == []
    assert tracer.finished_total == 0


def test_span_error_tagging():
    tracer = Tracer(now=_fake_clock())
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("nope")
    [span] = tracer.finished_spans()
    assert span.tags["error"] == "RuntimeError"
    assert span.end is not None


def test_remote_context_roots_the_server_side_span():
    tracer = Tracer(now=_fake_clock())
    remote = TraceContext(trace_id="t-abc", span_id="s-123")
    with tracer.span("gateway.handle", context=remote) as span:
        assert span.trace_id == "t-abc"
        assert span.parent_id == "s-123"


def test_trace_context_wire_forms_are_lenient():
    context = TraceContext("tid", "sid")
    assert context.to_wire() == {"id": "tid", "span": "sid"}
    assert TraceContext.from_wire(context.to_wire()) == context
    for junk in (None, "x", 7, {}, {"id": "only"}, {"id": 1, "span": 2}, {"id": "", "span": "s"}):
        assert TraceContext.from_wire(junk) is None


# --- envelope field, both lanes -----------------------------------------------------


@pytest.mark.parametrize("lane", codec.CODECS)
def test_trace_field_rides_the_envelope_and_decodes(lane):
    trace = TraceContext("t1", "s1").to_wire()
    raw = codec.encode_request_envelope("submit", ROUTE, {}, codec=lane, trace=trace)
    request = codec.decode_request_full(raw)
    assert request[:3] == ("submit", ROUTE, {})
    assert request.trace == trace
    assert request.codec == lane


@pytest.mark.parametrize("lane", codec.CODECS)
def test_untraced_envelope_bytes_are_unchanged(lane):
    # trace=None must be byte-identical to not passing the parameter at all:
    # the codec version is untouched and old captures stay valid.
    assert codec.encode_request_envelope("stats", ROUTE, {}, codec=lane) == (
        codec.encode_request_envelope("stats", ROUTE, {}, codec=lane, trace=None)
    )
    request = codec.decode_request_full(
        codec.encode_request_envelope("stats", ROUTE, {}, codec=lane)
    )
    assert request.trace is None


# --- round trips over real TCP ------------------------------------------------------


@pytest.mark.parametrize("lane", codec.CODECS)
def test_trace_context_survives_tcp_round_trip(lane):
    """Traced client -> traced server: one trace id spans the wire."""
    server_obs = Observability()
    gateway = _gateway(server_obs)
    with serve(gateway) as server:
        client = connect(server.url, route=ROUTE, wire_codec=lane)
        client.observability = client_obs = Observability()
        try:
            token = unwrap(client.submit([_request()]))[0]
            assert token is not None
        finally:
            client.close()

    [client_span] = [
        s for s in client_obs.tracer.finished_spans() if s.name == "client.submit"
    ]
    server_spans = server_obs.tracer.finished_spans()
    handles = [s for s in server_spans if s.name == "gateway.handle"]
    assert handles, "server never opened a gateway.handle span"
    [handle] = handles
    # The server span adopted the client's trace id and parent span id: the
    # context crossed the wire intact.
    assert handle.trace_id == client_span.trace_id
    assert handle.parent_id == client_span.span_id
    assert handle.tags["op"] == "submit"
    # Stage timers on the server side also populated the registry.
    stages = server_obs.stage_breakdown()
    assert stages["gateway_decode"]["count"] >= 1
    assert stages["issuance"]["count"] >= 1


@pytest.mark.parametrize("lane", codec.CODECS)
def test_traced_client_against_untraced_server(lane):
    """Old servers ignore the trace field: requests succeed unchanged."""
    gateway = _gateway()  # the dormant default handle
    with serve(gateway) as server:
        client = connect(server.url, route=ROUTE, wire_codec=lane)
        client.observability = client_obs = Observability()
        try:
            token = unwrap(client.submit([_request()]))[0]
            assert token is not None
        finally:
            client.close()
    # The client still traced its side of the call.
    assert any(
        s.name == "client.submit" for s in client_obs.tracer.finished_spans()
    )


@pytest.mark.parametrize("lane", codec.CODECS)
def test_untraced_client_against_traced_server(lane):
    """Old clients never send the field: the traced server roots its own span."""
    server_obs = Observability()
    gateway = _gateway(server_obs)
    with serve(gateway) as server:
        client = connect(server.url, route=ROUTE, wire_codec=lane)
        try:
            token = unwrap(client.submit([_request()]))[0]
            assert token is not None
        finally:
            client.close()
    [handle] = [
        s for s in server_obs.tracer.finished_spans() if s.name == "gateway.handle"
    ]
    assert handle.parent_id is None  # no remote context: a fresh root span


def test_malformed_trace_field_never_fails_the_request():
    """A garbage trace value loses its telemetry, not the request."""
    server_obs = Observability()
    gateway = _gateway(server_obs)
    raw = codec.encode_request_envelope(
        "submit",
        ROUTE,
        {"requests": [codec.encode_token_request(_request())]},
        trace={"bogus": True},
    )
    response = codec.decode_response_envelope(InProcessTransport(gateway).send(raw))
    assert response["results"][0]["token"] is not None
    [handle] = [
        s for s in server_obs.tracer.finished_spans() if s.name == "gateway.handle"
    ]
    assert handle.parent_id is None  # degraded to a root span


def test_metrics_route_over_tcp_reports_the_snapshot():
    server_obs = Observability()
    gateway = _gateway(server_obs)
    with serve(gateway) as server:
        client = connect(server.url, route=ROUTE)
        try:
            client.submit([_request()])
            snapshot = client.metrics()
        finally:
            client.close()
    assert snapshot["enabled"] is True
    assert snapshot["metrics"]["histograms"]["stage.issuance"]["count"] == 1
    assert snapshot["stages"]["gateway_decode"]["count"] >= 1


def test_metrics_route_without_observability_reports_disabled():
    gateway = _gateway()
    client = gateway.client_for(ROUTE)
    assert client.metrics() == {"enabled": False}
