"""Service discovery across every issuer stack + the repro.api surface snapshot.

The §VII-B registry was only exercised with a bare ``TokenService``; these
tests register and resolve every :class:`~repro.api.protocol.TokenIssuer`
shape -- factory-built stacks, middleware-wrapped services and wire-level
gateway clients -- and the API-stability snapshot pins the public symbols of
:mod:`repro.api` so the surface only grows deliberately.
"""

from __future__ import annotations

import pytest

import repro.api
from repro.api import ServiceGateway, build_service, conforms
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import ClientWallet, OwnerWallet, TokenType
from repro.core.acr import RuleSet
from repro.core.discovery import ServiceDiscovery
from repro.core.wallet import NoTokenServiceKnown
from repro.crypto.keys import KeyPair


@pytest.fixture
def discovery(chain):
    return ServiceDiscovery(chain)


def _deploy_for(owner, issuer, url):
    receipt = OwnerWallet(owner, issuer).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=1024, ts_url=url
    )
    assert receipt.success, receipt.error
    return receipt.return_value


@pytest.mark.parametrize("profile", ["serial", "replicated"])
def test_discovery_resolves_every_issuer_profile(chain, owner, alice, discovery, profile):
    url = f"https://{profile}.ts.example.org"
    issuer = build_service(
        profile,
        keypair=KeyPair.from_seed(f"disc-{profile}"),
        rules=RuleSet(),
        clock=chain.clock,
    )
    assert conforms(issuer)
    discovery.publish(url, issuer)
    contract = _deploy_for(owner, issuer, url)

    assert discovery.url_for(contract.this) == url
    assert discovery.resolve(contract.this) is issuer

    wallet = ClientWallet(alice, discovery=discovery)
    receipt = wallet.call_with_token(
        contract, "submit", amount=1, token_type=TokenType.METHOD, one_time=True
    )
    assert receipt.success, receipt.error
    assert chain.read(contract, "entries") == 1


def test_discovery_resolves_gateway_clients(chain, owner, alice, discovery):
    """A contract's published URL doubles as the gateway route: discovery
    hands back a wire-level client and the wallet cannot tell the difference."""
    url = "https://gw.ts.example.org"
    issuer = build_service(
        "serial",
        keypair=KeyPair.from_seed("disc-gateway"),
        rules=RuleSet(),
        clock=chain.clock,
    )
    gateway = ServiceGateway()
    gateway.register(url, issuer)
    client = gateway.client_for(url)
    discovery.publish(url, client)

    contract = _deploy_for(owner, issuer, url)
    resolved = discovery.resolve(contract.this)
    assert resolved is client
    assert conforms(resolved)
    assert resolved.address == issuer.address

    wallet = ClientWallet(alice, discovery=discovery)
    receipt = wallet.call_with_token(contract, "submit", amount=2,
                                     token_type=TokenType.METHOD)
    assert receipt.success, receipt.error


def test_discovery_misses_stay_explicit(chain, owner, alice, discovery, token_service):
    contract = _deploy_for(owner, token_service, "https://unpublished.example")
    assert discovery.url_for(contract.this) == "https://unpublished.example"
    assert discovery.resolve(contract.this) is None  # URL published, no issuer
    unlabelled = OwnerWallet(owner, token_service).deploy_protected(
        ProtectedRecorder
    ).return_value
    assert discovery.url_for(unlabelled.this) is None

    wallet = ClientWallet(alice, discovery=discovery)
    with pytest.raises(NoTokenServiceKnown) as excinfo:
        wallet.request_token(contract, TokenType.SUPER)
    assert excinfo.value.code is repro.api.ErrorCode.UNKNOWN_ROUTE


def test_dialer_hook_resolves_remote_urls_and_caches(chain, owner, token_service):
    """A directory miss consults the dialer once; the result is cached.

    The stock dialer is :func:`repro.api.transport.dial` (exercised over real
    sockets in ``test_api_transport.py``); here a fake keeps the layering
    unit-testable without opening a port.
    """
    url = "tcp://ts.remote.example:8821"
    contract = _deploy_for(owner, token_service, url)
    dialled = []

    def fake_dial(target):
        dialled.append(target)
        return token_service if target.startswith("tcp://") else None

    discovery = ServiceDiscovery(chain, dialer=fake_dial)
    assert discovery.resolve(contract.this) is token_service
    assert discovery.resolve(contract.this) is token_service
    assert dialled == [url]  # second resolve hit the directory cache
    assert discovery.known_urls() == [url]

    # A dialer that declines (returns None) leaves the miss explicit.
    declined = _deploy_for(owner, token_service, "https://not-ours.example")
    assert discovery.resolve(declined.this) is None
    # Local directory entries always win over the dialer.
    local = ServiceDiscovery(chain, dialer=lambda target: pytest.fail("dialled"))
    local.publish(url, token_service)
    assert local.resolve(contract.this) is token_service


def test_known_urls_sorted(chain, discovery, token_service):
    for url in ("https://b.example", "https://a.example"):
        discovery.publish(url, token_service)
    assert discovery.known_urls() == ["https://a.example", "https://b.example"]


# --- API-stability snapshot ---------------------------------------------------------

#: The public surface of repro.api.  Growing it is fine -- update the
#: snapshot deliberately; renaming or removing a symbol is a breaking change.
API_SURFACE_SNAPSHOT = [
    "AdmissionController",
    "Audit",
    "Backoff",
    "CODECS",
    "CODEC_BINARY",
    "CODEC_JSON",
    "CircuitBreaker",
    "CounterTimeout",
    "DEFAULT_RETRY_CODES",
    "ErrorCode",
    "GatewayClient",
    "GatewayServer",
    "InProcessTransport",
    "IssuerMiddleware",
    "Metrics",
    "NoReplicaAvailable",
    "PROFILES",
    "RETRYABLE_CODES",
    "RateLimiter",
    "RetryFailover",
    "ServiceGateway",
    "SmacsError",
    "TcpTransport",
    "TokenBucket",
    "TokenDenied",
    "TokenIssuer",
    "Transport",
    "WIRE_VERSION",
    "build_service",
    "classify",
    "conforms",
    "connect",
    "dial",
    "issue_one",
    "serve",
    "try_issue_one",
    "unwrap",
]


def test_api_public_surface_matches_snapshot():
    assert sorted(repro.api.__all__) == API_SURFACE_SNAPSHOT
    for name in repro.api.__all__:
        assert getattr(repro.api, name, None) is not None, name


#: The public surface of repro.obs -- the observability subsystem.  Pinned
#: like repro.api: additions update the snapshot, removals are breaking.
OBS_SURFACE_SNAPSHOT = [
    "Counter",
    "DORMANT",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "STAGES",
    "Span",
    "TraceContext",
    "Tracer",
]


def test_obs_public_surface_matches_snapshot():
    import repro.obs

    assert sorted(repro.obs.__all__) == OBS_SURFACE_SNAPSHOT
    for name in repro.obs.__all__:
        assert getattr(repro.obs, name, None) is not None, name
    # Layering: the observability package must stay importable without the
    # api/pipeline/storage layers (they depend on it, never the reverse).
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, repro.obs; "
        "banned = [m for m in sys.modules if m.startswith(('repro.api', "
        "'repro.pipeline', 'repro.storage'))]; "
        "sys.exit(1 if banned else 0)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": str(src)}
    )
    assert result.returncode == 0, "repro.obs pulled in a higher layer"


def test_api_error_codes_are_stable():
    """The wire-visible error codes are part of the public contract."""
    assert {code.value for code in repro.api.ErrorCode} == {
        "DENIED",
        "COUNTER_TIMEOUT",
        "NO_REPLICA",
        "EXPIRED_RULESET",
        "MALFORMED_REQUEST",
        "UNKNOWN_ROUTE",
        "RATE_LIMITED",
        "UNSUPPORTED",
        "UNAVAILABLE",
        "DEADLINE_EXCEEDED",
        "OVERLOADED",
        "INTERNAL",
    }
    # str-valued enum: codes serialise as their own names.
    for code in repro.api.ErrorCode:
        assert code.value == code.name


def test_legacy_exceptions_are_taxonomy_subtypes():
    """`except CounterTimeout` / `except TokenDenied` keep working AND the
    same objects carry stable codes through results and the wire."""
    from repro.api import (
        CounterTimeout,
        ErrorCode,
        NoReplicaAvailable,
        SmacsError,
        TokenDenied,
    )
    from repro.core.acr import AccessDecision

    assert issubclass(CounterTimeout, SmacsError)
    assert issubclass(CounterTimeout, RuntimeError)  # legacy handlers
    assert CounterTimeout("no quorum").code is ErrorCode.COUNTER_TIMEOUT
    assert CounterTimeout("no quorum").retryable
    assert issubclass(NoReplicaAvailable, SmacsError)
    assert NoReplicaAvailable("down").code is ErrorCode.NO_REPLICA
    denied = TokenDenied(AccessDecision.deny("nope"))
    assert denied.code is ErrorCode.DENIED and not denied.retryable
