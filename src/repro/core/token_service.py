"""The Token Service (TS).

The TS is the off-chain half of SMACS (§III, §IV-B): it holds the signing key
``skTS``, the Access Control Rules, and an optional set of runtime
verification tools.  Clients submit token requests through the front end; the
access-granting module checks the request against the rules (and the
validation module runs any configured tools); compliant requests receive a
token signed over the datagram that the contract will later reconstruct.

The in-process implementation substitutes the paper's Node.js web server.
The front end models the per-connection overhead of an HTTPS request
(session setup, TLS, JSON parsing) as a fixed amount of *real* work per
submission -- a client-signature check -- so that batch submissions amortise
it and the throughput curve of Fig. 9 keeps its shape.

Rule storage can be persisted to a JSON file (the ``node-localStorage``
substitute), and the one-time counter can be delegated to a replicated
counter (see :mod:`repro.core.replication`) for high availability (§VII-B).
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.chain.address import Address, address_hex
from repro.chain.clock import SimulatedClock
from repro.core.acr import AccessDecision, RuleSet
from repro.core.errors import ErrorCode, SmacsError, classify
from repro.core.token import Token, TokenType, ONE_TIME_UNSET, signing_datagram
from repro.core.token_request import TokenRequest
from repro.crypto.keccak import keccak256, keccak256_many
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache

DEFAULT_TOKEN_LIFETIME = 3600  # one hour, the lifetime used in §VI-A
AUDIT_LOG_ENTRIES = 1024  # newest issuance/denial records a service keeps


class TokenDenied(SmacsError):
    """Raised (or reported) when a token request violates the ACRs."""

    code = ErrorCode.DENIED

    def __init__(self, decision: AccessDecision):
        super().__init__(decision.reason)
        self.decision = decision


@dataclass
class IssuanceResult:
    """Outcome of one token request processed through the front end.

    The batch path of the :class:`~repro.api.protocol.TokenIssuer` protocol
    never raises mid-batch: a failed request yields a result whose ``token``
    is ``None`` and whose ``error`` carries the classified
    :class:`~repro.core.errors.SmacsError` (``error.code`` is the stable
    taxonomy code; single-request conveniences re-raise exactly that object).
    """

    request: TokenRequest
    token: Token | None
    decision: AccessDecision
    error: SmacsError | None = None

    @property
    def issued(self) -> bool:
        return self.token is not None

    @property
    def code(self) -> "ErrorCode | None":
        """The stable error code of a failed result (None when issued)."""
        if self.token is not None:
            return None
        if self.error is not None:
            return self.error.code
        return ErrorCode.DENIED

    def raise_if_failed(self) -> Token:
        """Return the token, or raise the carried error (single-request path)."""
        if self.token is not None:
            return self.token
        if self.error is not None:
            raise self.error
        raise TokenDenied(self.decision)

    @classmethod
    def failure(cls, request: TokenRequest, error: SmacsError) -> "IssuanceResult":
        decision = (
            error.decision
            if isinstance(error, TokenDenied)
            else AccessDecision.deny(f"{error.code.value}: {error.message}")
        )
        return cls(request, None, decision, error=error)


class _LocalCounter:
    """Single-instance one-time counter (the default, non-replicated case)."""

    def __init__(self, start: int = 0):
        self._value = start

    def take(self, count: int) -> range:
        """Reserve the next ``count`` consecutive indexes."""
        first = self._value
        self._value += count
        return range(first, first + count)

    @property
    def value(self) -> int:
        return self._value

    def restore(self, value: int) -> None:
        self._value = value


class TokenService:
    """A single Token Service instance bound to one SMACS-enabled contract owner."""

    def __init__(
        self,
        keypair: KeyPair | None = None,
        rules: RuleSet | None = None,
        clock: SimulatedClock | None = None,
        token_lifetime: int = DEFAULT_TOKEN_LIFETIME,
        counter: Any | None = None,
        storage_path: "str | os.PathLike[str] | None" = None,
        label: str = "token-service",
        signature_cache: "SignatureCache | None" = None,
    ):
        self.keypair = keypair if keypair is not None else KeyPair.generate()
        self.rules = rules if rules is not None else RuleSet()
        self.clock = clock if clock is not None else SimulatedClock()
        self.token_lifetime = token_lifetime
        self.counter = counter if counter is not None else _LocalCounter()
        # Optional memo for the deterministic token signature (see
        # repro.crypto.sigcache).  Left off by default so the single-service
        # Fig. 9 numbers keep measuring the raw signing cost; the batched
        # pipeline turns it on.
        self.signature_cache = signature_cache
        self.storage_path = os.fspath(storage_path) if storage_path else None
        self.label = label
        self.issued_count = 0
        self.denied_count = 0
        self._audit_log: deque[tuple[int, str, str]] = deque(maxlen=AUDIT_LOG_ENTRIES)
        if self.storage_path and os.path.exists(self.storage_path):
            self._load_state()

    # -- identity -------------------------------------------------------------------

    @property
    def address(self) -> Address:
        """The address corresponding to ``pkTS`` (preloaded into contracts)."""
        return self.keypair.address

    @property
    def address_hex(self) -> str:
        return address_hex(self.address)

    # -- access granting module --------------------------------------------------------

    def check_rules(self, request: TokenRequest) -> AccessDecision:
        """Evaluate the request against the rules of its token type."""
        return self.rules.evaluate(request)

    def _reusable_tokens(self, requests: Sequence[TokenRequest], expire: int) -> list[Token]:
        """Tokens without the one-time property, through the memo path.

        With a cache this is the per-request chain (token memo, then
        ``digest_for``, then ``signature_for``) with the envelope's misses
        hashed and signed together: the same tokens, and the cache's books
        are the loop's.  (One corner differs in LRU order only: an entry the
        envelope's own stores evict before the envelope needs it -- a cache
        smaller than the envelope -- is rebuilt alone, so its digest and
        signature lookups come after the others'.)
        """
        cache = self.signature_cache
        if cache is None:
            return self._tokens(requests, expire)
        # A replayed request within the same lifetime window reproduces a
        # byte-identical token (signing is deterministic), so the whole
        # datagram/digest/sign chain collapses to one LRU lookup.
        keys = [("token", self.keypair.address, expire, request.encode()) for request in requests]
        request_of = dict(zip(keys, requests))
        return cache.memoize_many(
            keys, lambda missing: self._tokens([request_of[key] for key in missing], expire)
        )

    def _tokens(
        self,
        requests: Sequence[TokenRequest],
        expire: int,
        indexes: "Sequence[int] | None" = None,
    ) -> list[Token]:
        """Datagrams, digests, one batch signature, cache priming (Fig. 3).

        ``indexes`` are the one-time indexes of the requests; ``None`` builds
        reusable tokens (the index field unset).
        """
        one_time = indexes is not None
        if indexes is None:
            indexes = [ONE_TIME_UNSET] * len(requests)
        datagrams = [
            _datagram(request, expire, index) for request, index in zip(requests, indexes)
        ]
        cache = self.signature_cache
        if cache is None:
            signatures = self.keypair.sign_batch(keccak256_many(datagrams))
        elif one_time:
            # One-time datagrams are unique by construction (fresh index), so
            # memoizing the *signing* step would only evict reusable entries
            # -- but the digest and the known recovery result are exactly
            # what the execution pipeline's pre-checks and the verifier's
            # ``ecrecover`` will ask for, so prime those.
            digests = cache.digests_for(datagrams)
            signatures = self.keypair.sign_batch(digests)
            for digest, signature in zip(digests, signatures):
                cache.prime_recovery(digest, signature, self.keypair.address)
        else:
            # The deterministic signature of a reusable datagram is worth
            # memoizing (signatures_for primes the recovery side as well).
            signatures = cache.signatures_for(self.keypair, cache.digests_for(datagrams))
        return [
            Token(request.token_type, expire, index, signature)
            for request, index, signature in zip(requests, indexes, signatures)
        ]

    def _issue(self, requests: Sequence[TokenRequest]) -> list[IssuanceResult]:
        """The staged issuance path behind :meth:`submit` (no session overhead).

        Rules run for every request; the *allowed* reusable requests then
        share their memo misses' hashing and one batch signature, and the
        allowed one-time requests share one ``counter.take(n)`` (one Raft
        commit on a replicated counter, indexes consecutive in request order)
        and another.  Counters and the audit log read as if the requests had
        been served one by one: denials and reusable tokens in request order,
        then the one-time tokens.  No exception escapes per request: a denied
        or malformed request fails alone and consumes no index, and a failed
        ``take`` (a counter timeout) fails exactly the one-time requests;
        only genuine programming errors (``ErrorCode.INTERNAL``) still
        propagate.
        """
        results: "list[IssuanceResult | None]" = [None] * len(requests)
        expire = self.clock.now() + self.token_lifetime
        one_time: list[int] = []
        in_order: list[tuple[int, TokenRequest, AccessDecision]] = []  # denied or reusable
        for position, request in enumerate(requests):
            try:
                decision = self.check_rules(request)
            except Exception as exc:
                results[position] = _failure(request, exc)
                continue
            if decision.allowed and request.one_time:
                one_time.append(position)
            else:
                in_order.append((position, request, decision))
        reusable = [request for _, request, decision in in_order if decision.allowed]
        tokens = iter(self._reusable_tokens(reusable, expire) if reusable else ())
        for position, request, decision in in_order:
            if decision.allowed:
                results[position] = self._issued(request, next(tokens))
            else:
                self.denied_count += 1
                self._audit(request, f"denied: {decision.reason}")
                results[position] = IssuanceResult.failure(request, TokenDenied(decision))
        if one_time:
            allowed = [requests[position] for position in one_time]
            try:
                indexes = self.counter.take(len(allowed))
            except Exception as exc:
                for position, request in zip(one_time, allowed):
                    results[position] = _failure(request, exc)
            else:
                for position, request, token in zip(
                    one_time, allowed, self._tokens(allowed, expire, indexes)
                ):
                    results[position] = self._issued(request, token)
        if self.storage_path and any(result.issued for result in results):
            self._save_state()
        return results

    def _issued(self, request: TokenRequest, token: Token) -> IssuanceResult:
        self.issued_count += 1
        self._audit(request, "issued")
        return IssuanceResult(request, token, AccessDecision.allow("issued"))

    # -- front end (web interface substitute) ---------------------------------------------

    def submit(self, requests: "TokenRequest | Sequence[TokenRequest]") -> list[IssuanceResult]:
        """Process one submission through the front end (the protocol batch path).

        A submission carries one or more requests -- a single request is a
        batch of one.  What an envelope pays once: the per-connection
        overhead (modelled as an authentication-grade hash + signature
        verification of the session payload), the one-time counter round and
        the signing inversions (see :meth:`_issue`), which is what makes
        batched submissions faster per request (Fig. 9).  Per-request failures
        -- denials, counter timeouts, malformed requests -- are carried inside
        the matching :class:`IssuanceResult` rather than raised, so one bad
        request never aborts the rest of the batch.
        """
        if isinstance(requests, TokenRequest):
            requests = [requests]
        self.front_end_session_overhead(requests)
        return self._issue(requests)

    def front_end_session_overhead(self, requests: Sequence[TokenRequest]) -> None:
        """Fixed per-connection work: session authentication and request framing.

        The work is real (a signature over the framed payload is created and
        verified) so throughput measurements capture it honestly rather than
        through artificial sleeps.  Public because batching front ends
        (:class:`~repro.core.batch_service.BatchTokenService`) pay it once per
        batch on behalf of their worker shards.
        """
        payload = b"".join(request.encode() for request in requests[:16]) or b"empty"
        digest = keccak256(b"session" + payload)
        session_signature = self.keypair.sign(digest)
        self.keypair.verify(digest, session_signature)

    # -- owner management -------------------------------------------------------------------

    def update_rules(self, mutate: Callable[[RuleSet], None]) -> None:
        """Apply an owner-supplied mutation to the rule set (dynamic ACR update)."""
        mutate(self.rules)
        if self.storage_path:
            self._save_state()

    def replace_rules(self, rules: RuleSet) -> None:
        self.rules = rules
        if self.storage_path:
            self._save_state()

    def set_token_lifetime(self, seconds: int) -> None:
        if seconds <= 0:
            raise ValueError("token lifetime must be positive")
        self.token_lifetime = seconds

    def stats(self) -> dict[str, Any]:
        """Issuance counters (the protocol's uniform introspection surface)."""
        return {
            "service": self.label,
            "profile": "serial",
            "issued": self.issued_count,
            "denied": self.denied_count,
            "counter": getattr(self.counter, "value", None),
            "signature_cache": (
                self.signature_cache.stats() if self.signature_cache is not None else None
            ),
        }

    def audit_log(self) -> list[tuple[int, str, str]]:
        """The newest :data:`AUDIT_LOG_ENTRIES` (timestamp, request description,
        outcome) entries, oldest first."""
        return list(self._audit_log)

    def _audit(self, request: TokenRequest, outcome: str) -> None:
        self._audit_log.append((self.clock.now(), request.describe(), outcome))

    # -- persistence (node-localStorage substitute) ----------------------------------------------

    def _save_state(self) -> None:
        state = {
            "label": self.label,
            "token_lifetime": self.token_lifetime,
            "counter": getattr(self.counter, "value", 0),
            "issued_count": self.issued_count,
            "denied_count": self.denied_count,
            "rules": self.rules.to_config(),
            "ts_address": self.address_hex,
        }
        with open(self.storage_path, "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=2, sort_keys=True)

    def _load_state(self) -> None:
        with open(self.storage_path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        self.token_lifetime = state.get("token_lifetime", self.token_lifetime)
        self.issued_count = state.get("issued_count", 0)
        self.denied_count = state.get("denied_count", 0)
        if hasattr(self.counter, "restore"):
            self.counter.restore(state.get("counter", 0))
        if state.get("rules"):
            self.rules = RuleSet.from_config(state["rules"])


def _datagram(request: TokenRequest, expire: int, index: int) -> bytes:
    """The datagram the Token Service signs for ``request`` (Fig. 3)."""
    return signing_datagram(
        request.token_type,
        expire,
        index,
        request.client,
        request.contract,
        method=request.method,
        arguments=request.arguments if request.token_type is TokenType.ARGUMENT else None,
    )


def _failure(request: TokenRequest, exc: Exception) -> IssuanceResult:
    """An error-carrying result; ``INTERNAL`` (a programming error) re-raises."""
    error = classify(exc)
    if error.code is ErrorCode.INTERNAL:
        raise exc
    return IssuanceResult.failure(request, error)


def build_fig6_ruleset(
    sender_whitelist: Iterable[Address],
    method_blacklists: dict[str, Iterable[Address]] | None = None,
    argument_whitelists: dict[str, Iterable[Any]] | None = None,
) -> RuleSet:
    """Convenience constructor for the whitelist/blacklist structure of Fig. 6."""
    config: dict[str, Any] = {
        "sender": {"whitelist": ["0x" + a.hex() for a in sender_whitelist]},
        "method": {
            name: {"blacklist": ["0x" + a.hex() for a in addrs]}
            for name, addrs in (method_blacklists or {}).items()
        },
        "argument": {
            arg: {"whitelist": list(values)}
            for arg, values in (argument_whitelists or {}).items()
        },
    }
    return RuleSet.from_config(config)
