"""One factory for every issuance stack.

``build_service(profile=...)`` assembles the serial and replicated Token
Service deployments from the same parts: a concrete base service plus the
composable middleware of :mod:`repro.api.middleware`.  What used to
require choosing (and hard-coupling to) a concrete class is now a profile
string; everything the factory returns satisfies
:class:`~repro.api.protocol.TokenIssuer`, so consumers swap profiles without
touching call sites.

Layer order (innermost first): base service -> RetryFailover (replicated
profile: the §VII-B fail-over, one try per replica) -> RateLimiter -> Audit
-> Metrics.
"""

from __future__ import annotations

from repro.chain.clock import SimulatedClock
from repro.core.acr import RuleSet
from repro.core.replication import ReplicatedTokenService
from repro.core.token_service import DEFAULT_TOKEN_LIFETIME, TokenService
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache

from repro.api.middleware import Audit, Metrics, RateLimiter, RetryFailover
from repro.api.protocol import TokenIssuer

#: the deployment shapes the factory knows how to assemble
PROFILES = ("serial", "replicated")


def build_service(
    profile: str = "serial",
    *,
    keypair: "KeyPair | None" = None,
    rules: "RuleSet | None" = None,
    clock: "SimulatedClock | None" = None,
    token_lifetime: int = DEFAULT_TOKEN_LIFETIME,
    label: "str | None" = None,
    # replicated profile
    replica_count: int = 3,
    seed: int = 7,
    # cross-cutting layers
    signature_cache: "SignatureCache | None" = None,
    rate_limit: "tuple[float, int] | None" = None,
    audit: bool = False,
    metrics: bool = False,
) -> TokenIssuer:
    """Assemble an issuance stack for the requested deployment profile.

    ``signature_cache`` is handed to the base service, whose issuance path
    primes it inline.  ``rate_limit`` is ``(rate_per_second, burst)``;
    ``audit`` and ``metrics`` stack the corresponding layers (metrics
    outermost, so it observes rate-limited results too).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown service profile {profile!r}; pick one of {PROFILES}")
    clock = clock if clock is not None else SimulatedClock()
    keypair = keypair if keypair is not None else KeyPair.generate()
    rules = rules if rules is not None else RuleSet()

    issuer: TokenIssuer
    if profile == "serial":
        issuer = TokenService(
            keypair=keypair,
            rules=rules,
            clock=clock,
            token_lifetime=token_lifetime,
            signature_cache=signature_cache,
            label=label if label is not None else "token-service",
        )
    else:
        # The base makes one attempt per submission on the next replica;
        # RetryFailover re-submits what failed, so each retry rotates and a
        # full outage tries every replica exactly once.
        issuer = ReplicatedTokenService(
            replica_count=replica_count,
            keypair=keypair,
            rules=rules,
            clock=clock,
            token_lifetime=token_lifetime,
            seed=seed,
            signature_cache=signature_cache,
        )
        issuer = RetryFailover(issuer, attempts=replica_count - 1)

    if rate_limit is not None:
        rate_per_second, burst = rate_limit
        issuer = RateLimiter(issuer, rate_per_second, burst, clock=clock)
    if audit:
        issuer = Audit(issuer)
    if metrics:
        issuer = Metrics(issuer)
    return issuer


__all__ = ["PROFILES", "build_service"]
