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
submission -- three operations: an authentication-grade hash of the framed
payload, a signature over it, and a verification of that signature standing
in for the client's -- so that batch submissions amortise it and the
throughput curve of Fig. 9 keeps its shape.
:meth:`TokenService.front_end_session_overhead` is that cost model, kept as
the definition; :meth:`TokenService.submit` performs the same three
operations on the same bytes but *staged*: the session message is one more
lane of the hash call that digests the envelope's datagrams and its digest
one more scalar of the batch signature that signs them, because neither
depends on anything but the submission's bytes.  Only the verification needs
the signature, so it is the one session kernel left on its own -- and it
fails closed: a submission whose session signature does not verify issues
nothing.  Per submission the model is intact (one hash, one signature, one
verification, whatever the batch size); what changed is that a lone
submission no longer runs five kernels in a row where only two of the edges
were data dependencies.

Rule storage can be persisted to a JSON file (the ``node-localStorage``
substitute), and the one-time counter can be delegated to a replicated
counter (see :mod:`repro.core.replication`) for high availability (§VII-B).
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.chain.address import Address, address_hex
from repro.chain.clock import SimulatedClock
from repro.core.acr import AccessDecision, RuleSet
from repro.core.errors import ErrorCode, SmacsError, classify
from repro.core.token import Token, TokenType, ONE_TIME_UNSET, signing_datagram
from repro.core.token_request import TokenRequest
from repro.crypto.ecdsa import Signature
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
        self.set_token_lifetime(token_lifetime)
        self.counter = counter if counter is not None else _LocalCounter()
        # Optional memo for the deterministic token signature (see
        # repro.crypto.sigcache).  Left off by default so the single-service
        # Fig. 9 numbers keep measuring the raw signing cost; a deployment
        # that serves replays hands one in.
        self.signature_cache = signature_cache
        self.storage_path = os.fspath(storage_path) if storage_path else None
        self.label = label
        self.issued_count = 0
        self.denied_count = 0
        self._audit_log: deque[tuple[int, str, str]] = deque(maxlen=AUDIT_LOG_ENTRIES)
        self._submit_lock = threading.Lock()  # one submission at a time (see submit)
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

    def _tokens(
        self,
        reusable: Sequence[TokenRequest],
        one_time: Sequence[TokenRequest],
        indexes: Sequence[int],
        expire: int,
        session: "bytes | None",
    ) -> "tuple[list[Token], list[Token]]":
        """``(reusable tokens, one-time tokens)`` through the token memo.

        With a cache the reusable tokens keep the books of the per-request
        chain -- token memo, then ``digests_for``, then ``signatures_for`` --
        while the memo's misses are built in the one pass that also builds
        the one-time tokens (:meth:`_build`).  (One corner differs in LRU
        order only: an entry the envelope's own stores evict before the
        envelope needs it -- a cache smaller than the envelope -- is rebuilt
        alone, so its digest and signature lookups come after the others',
        the one-time tokens' included.)
        """
        cache = self.signature_cache
        if cache is None:
            tokens = self._build(reusable, one_time, indexes, expire, session)
            return tokens[:len(reusable)], tokens[len(reusable):]
        # A replayed request within the same lifetime window reproduces a
        # byte-identical token (signing is deterministic), so the whole
        # datagram/digest/sign chain collapses to one LRU lookup.
        keys = [("token", self.keypair.address, expire, request.encode()) for request in reusable]
        request_of = dict(zip(keys, reusable))
        unbuilt = cache.unmemoized(keys)
        tokens = self._build(
            [request_of[key] for key in unbuilt], one_time, indexes, expire, session
        )
        built = dict(zip(unbuilt, tokens))

        def misses(missing: "list[tuple]") -> list[Token]:
            # What was just built -- or, for an entry evicted since, alone.
            return [
                built[key] if key in built
                else self._build([request_of[key]], (), (), expire, None)[0]
                for key in missing
            ]

        return cache.memoize_many(keys, misses), tokens[len(unbuilt):]

    def _build(
        self,
        reusable: Sequence[TokenRequest],
        one_time: Sequence[TokenRequest],
        indexes: Sequence[int],
        expire: int,
        session: "bytes | None",
    ) -> list[Token]:
        """Tokens for ``reusable`` (the index field unset), then for
        ``one_time[i]`` at ``indexes[i]``: datagrams, one hash call, one batch
        signature, cache priming (Fig. 3).

        The ``session`` message, when this pass carries the submission's,
        rides both kernels and is checked before any signature reaches a
        token or the cache (:class:`_SessionSigner`).
        """
        items = [(request, ONE_TIME_UNSET) for request in reusable] + list(zip(one_time, indexes))
        datagrams = [_datagram(request, expire, index) for request, index in items]
        riders = [] if session is None else [session]
        cache = self.signature_cache
        keypair = self.keypair
        digests = (
            keccak256_many(datagrams + riders)
            if cache is None
            else cache.digests_for(datagrams, riders)
        )
        signer = keypair if session is None else _SessionSigner(keypair, digests[-1])
        if cache is None:
            signatures = signer.sign_batch(digests)
        else:
            # The deterministic signature of a reusable datagram is worth
            # memoizing (signatures_for primes the recovery side as well).
            # One-time datagrams are unique by construction (fresh index), so
            # memoizing their signatures would only evict reusable entries:
            # they ride -- but the digest and the known recovery result are
            # exactly what the execution pipeline's pre-checks and the
            # verifier's ``ecrecover`` will ask for, so prime those.
            memoized = len(reusable)
            signatures = cache.signatures_for(signer, digests[:memoized], digests[memoized:])
            for digest, signature in zip(digests[memoized:len(items)], signatures[memoized:]):
                cache.prime_recovery(digest, signature, keypair.address)
        return [
            Token(request.token_type, expire, index, signature)
            for (request, index), signature in zip(items, signatures)
        ]

    def _issue(
        self, requests: Sequence[TokenRequest], session: "bytes | None" = None
    ) -> list[IssuanceResult]:
        """The staged issuance pass behind :meth:`submit`.

        Rules run for every request; the allowed one-time requests then share
        one ``counter.take(n)`` (one Raft commit on a replicated counter,
        indexes consecutive in request order), and everything that has to be
        hashed and signed -- the reusable memo misses, the one-time tokens
        and the ``session`` message when the caller hands one over -- shares
        one hash call and one batch signature (:meth:`_tokens`).  Counters
        and the audit log read as if the requests had been served one by one:
        denials and reusable tokens in request order, then the one-time
        tokens.  No exception escapes per request: a denied or malformed
        request fails alone and consumes no index, and a failed ``take`` (a
        counter timeout) fails exactly the one-time requests; only genuine
        programming errors (``ErrorCode.INTERNAL``) still propagate -- among
        them a session signature that does not verify, which ends the
        submission after ``take``: its index range is burned, no token is
        built and nothing it signed reaches the cache.
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
        allowed = [requests[position] for position in one_time]
        indexes: Sequence[int] = ()
        refused: "Exception | None" = None
        if allowed:
            try:
                indexes = self.counter.take(len(allowed))
            except Exception as exc:
                refused = exc  # reported below, where the loop would have met it
        reusable = [request for _, request, decision in in_order if decision.allowed]
        reusable_tokens, one_time_tokens = self._tokens(
            reusable, allowed, indexes, expire, session
        )
        tokens = iter(reusable_tokens)
        for position, request, decision in in_order:
            if decision.allowed:
                results[position] = self._issued(request, next(tokens))
            else:
                self.denied_count += 1
                self._audit(request, f"denied: {decision.reason}")
                results[position] = IssuanceResult.failure(request, TokenDenied(decision))
        for position, request, token in zip(one_time, allowed, one_time_tokens):
            results[position] = self._issued(request, token)
        if refused is not None:
            for position, request in zip(one_time, allowed):
                results[position] = _failure(request, refused)
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
        batch of one.  By definition it is :meth:`front_end_session_overhead`
        followed by the requests served one by one -- same tokens, results,
        counters, audit log and cache books -- and it runs as one staged pass
        (:meth:`_issue`) in which the session's hash and signature are not a
        prelude but two more lanes of the envelope's own hash call and batch
        signature.  What an envelope still pays once, and a request never:
        the per-connection overhead (an authentication-grade hash, a
        signature and a verification of the session payload -- the same three
        operations on the same bytes, so Fig. 9's per-session cost model
        holds; only *when* two of them run has changed), the one-time counter
        round and the signing inversions, which is what makes batched
        submissions faster per request (Fig. 9).  Per-request failures --
        denials, counter timeouts, malformed requests -- are carried inside
        the matching :class:`IssuanceResult` rather than raised, so one bad
        request never aborts the rest of the batch.  A session signature that
        does not verify is not per-request: it raises ``INTERNAL`` and no
        token leaves the service.

        Submissions are serialized: the staged pass reads and advances the
        one-time counter, the issuance counters and the audit log in several
        steps, so two threads inside it could hand out one index twice.  The
        wire path is single-writer already (one dispatch thread) and pays one
        uncontended acquire; in-process callers on several threads queue here.
        """
        if isinstance(requests, TokenRequest):
            requests = [requests]
        with self._submit_lock:
            return self._issue(requests, session_message(requests))

    def front_end_session_overhead(self, requests: Sequence[TokenRequest]) -> None:
        """Fixed per-connection work: session authentication and request framing.

        The work is real (a signature over the framed payload is created and
        verified) so throughput measurements capture it honestly rather than
        through artificial sleeps.  Public as the *definition* of what a
        submission pays: :meth:`submit` performs these three operations on
        these bytes, staged into the envelope's own kernels, and is tested
        against this method followed by the per-request loop.  Fails closed:
        a signature the service's public key does not verify raises
        ``INTERNAL``.
        """
        payload = b"".join(request.encode() for request in requests[:16]) or b"empty"
        digest = keccak256(b"session" + payload)
        session_signature = self.keypair.sign(digest)
        _check_session(self.keypair, digest, session_signature)

    # -- owner management -------------------------------------------------------------------

    def update_rules(self, mutate: Callable[[RuleSet], None]) -> None:
        """Apply an owner-supplied mutation to the rule set (dynamic ACR update)."""
        mutate(self.rules)
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
        """Checkpoint atomically: a sibling temporary file is written and
        fsync'd, then renamed over the checkpoint, so a write that fails
        part-way leaves the previous checkpoint whole."""
        state = {
            "label": self.label,
            "token_lifetime": self.token_lifetime,
            "counter": getattr(self.counter, "value", 0),
            "issued_count": self.issued_count,
            "denied_count": self.denied_count,
            "rules": self.rules.to_config(),
            "ts_address": self.address_hex,
        }
        temporary = self.storage_path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, self.storage_path)

    def _load_state(self) -> None:
        with open(self.storage_path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        self.set_token_lifetime(state.get("token_lifetime", self.token_lifetime))
        self.issued_count = state.get("issued_count", 0)
        self.denied_count = state.get("denied_count", 0)
        if hasattr(self.counter, "restore"):
            self.counter.restore(state.get("counter", 0))
        if state.get("rules"):
            self.rules = RuleSet.from_config(state["rules"])


def session_message(requests: Sequence[TokenRequest]) -> bytes:
    """The framed session payload a submission of ``requests`` authenticates."""
    return b"session" + (b"".join(request.encode() for request in requests[:16]) or b"empty")


def _check_session(keypair: KeyPair, digest: bytes, signature: Signature) -> None:
    """The front end's verification, failing closed.

    The check stands in for a client's signature, so it is a real
    verification against the public half; a service whose halves do not
    match would otherwise authenticate every session and issue tokens no
    contract accepts.
    """
    if not keypair.verify(digest, signature):
        raise SmacsError(
            "session signature does not verify under the service's public key",
            ErrorCode.INTERNAL,
        )


class _SessionSigner:
    """``keypair`` as :meth:`TokenService._build` signs with it when the
    session rides: a batch whose last digest is the session's is released
    only if that signature verifies -- before a signature reaches a token,
    and inside the cache's ``sign_batch`` call, so before the cache stores
    one either."""

    def __init__(self, keypair: KeyPair, session_digest: bytes):
        self.keypair = keypair
        self.address = keypair.address
        self.session_digest = session_digest

    def sign_batch(self, digests: "list[bytes]") -> "list[Signature]":
        signatures = self.keypair.sign_batch(digests)
        if digests[-1] == self.session_digest:  # not a rebuilt entry signed alone
            _check_session(self.keypair, self.session_digest, signatures[-1])
        return signatures


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
