"""A shared LRU cache for the expensive ECDSA operations on the hot path.

Both halves of the SMACS pipeline are dominated by secp256k1 point math:

* the Token Service signs one digest per issued token (and one per front-end
  session), and
* the contract-side verifier recovers the signer address from every token
  signature via the ``ecrecover`` precompile.

Signing is RFC-6979 deterministic (:mod:`repro.crypto.ecdsa`), so a
``(signer, digest) -> signature`` memo returns byte-identical signatures, and
address recovery is a pure function of ``(digest, signature)``.  Caching both
is therefore semantically invisible -- it never changes an accept/reject
decision, only skips redundant curve operations when the same token (or the
same request payload) is seen again, as happens constantly under replayed
workloads and batched issuance.

A third memo remembers *who* signed rather than *what* was signed:
:meth:`SignatureCache.signed_by` keeps ``address -> public key`` for senders
whose transaction signature already recovered to their address once.  A
transaction signature is new every time, so nothing about it can be cached
-- but its claimed sender repeats, and "does this signature recover to key
Q" is, for a known Q, a fixed-base computation
(:func:`repro.crypto.ecdsa.recovers_to`: no square root, a quarter of the
doublings).  This memo is invisible for a stronger reason than the other
two: the question asked of a known key *is* ``recover(digest, signature) ==
Q`` by definition, on every input, so the answer is the one a fresh recovery
would give; only a signature that did recover to the address can teach the
memo a key, so a forger never plants one.

Alg. 1 asks the same kind of question of a token: not *who* signed it, only
whether the contract's trusted Token Service did.
:meth:`SignatureCache.recovery_matches` is that question, memoized: answered
by the ``signed_by`` ladder (the trusted key always returns, so from its third
token on every check is the fixed-base one) and stored beside the recoveries
-- a match as the address itself, exactly the entry a full recovery would
have left, a refusal as a *not this address* verdict.  A refusal names who
did not sign, never who did: it answers only the question it was computed
for, and :meth:`SignatureCache.peek_recovery` reads it as unknown.

The batch memos (:meth:`SignatureCache.digests_for`,
:meth:`SignatureCache.signatures_for`, :meth:`SignatureCache.memoize_many`)
each keep the books of a loop of single lookups -- same values, same hit/miss
counters, same LRU order -- with the misses computed by one kernel call.  The
first two also take *riders*: messages hashed, or digests signed, in that
same kernel call because the caller needs them now and they cost next to
nothing beside the misses, but which are not the cache's business -- a rider
is never looked up, stored or counted, and its value is simply handed back.
The Token Service's session message rides an envelope's datagrams that way
(its digest must not evict a datagram's), and so do one-time digests on the
signing side (unique by construction, so memoizing them would only evict
reusable entries).

Gas accounting is unaffected: the on-chain verifier still charges the full
``ecrecover`` precompile cost on every call (the cache models a node-level
optimisation, not a protocol change).

Each execution engine (:class:`repro.chain.evm.ExecutionEngine`, one per
node) builds its own cache, and a chain's fork shares its parent's; nothing
lives at module scope, so what one node decides never depends on what another
node in the same process saw.  A
:class:`~repro.core.token_service.TokenService` handed the node's instance
warms its verifier path as it issues.
"""

from collections import OrderedDict
from typing import Callable, NamedTuple, Sequence

from repro.crypto.ecdsa import Signature, SignatureError, recover, recovers_to
from repro.crypto.keccak import keccak256, keccak256_many
from repro.crypto.keys import PublicKey
from repro.crypto.secp256k1 import Point, PreparedPoint, prepare_point


class _NotSignedBy(NamedTuple):
    """Cached refusal: the signature does not recover to ``address`` (it may
    recover to anyone else, or to nobody)."""

    address: bytes


#: Known keys (senders, and the trusted signers tokens are checked against)
#: kept per cache, least recently seen evicted first: the paper's own Fig. 6
#: sender whitelist.  A full memo of prepared keys is
#: ~10.2 KB x 1,024 = 10.4 MB; the ledger's 64 accounts take 0.7 MB.  A
#: population that outgrows it falls back to one plain recovery per
#: transaction -- the cost without the memo -- plus a dict insert.
KNOWN_KEY_CAPACITY = 1024


class SignatureCache:
    """LRU memo for signature recovery and deterministic signing.

    ``maxsize`` bounds each of the internal lookup maps independently; the
    eviction policy is least-recently-used.  The known-sender memo behind
    :meth:`signed_by` is bounded by :data:`KNOWN_KEY_CAPACITY` instead.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize <= 0:
            raise ValueError("cache size must be positive")
        self.maxsize = maxsize
        self._recovered: "OrderedDict[tuple, object]" = OrderedDict()
        self._signatures: "OrderedDict[tuple, Signature]" = OrderedDict()
        self._digests: "OrderedDict[bytes, bytes]" = OrderedDict()
        self._derived: "OrderedDict[tuple, object]" = OrderedDict()
        #: sender or trusted-signer address -> its key: the bare point after
        #: one sight, the prepared table from the second on
        #: (``KNOWN_KEY_CAPACITY`` entries)
        self._keys: "OrderedDict[bytes, Point | PreparedPoint]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.key_checks = 0
        self.key_builds = 0

    # -- internal LRU plumbing ------------------------------------------------

    def _lookup(self, table: OrderedDict, key: tuple):
        try:
            value = table[key]
        except KeyError:
            self.misses += 1
            return None, False
        table.move_to_end(key)
        self.hits += 1
        return value, True

    def _store(self, table: OrderedDict, key: tuple, value) -> None:
        table[key] = value
        if len(table) > self.maxsize:
            table.popitem(last=False)

    @staticmethod
    def _absent(table: OrderedDict, keys: Sequence) -> list:
        """The distinct ``keys`` the table does not hold, in order (no lookup
        is counted, no LRU position moves)."""
        return list(dict.fromkeys(key for key in keys if key not in table))

    def _memo_many(
        self,
        table: OrderedDict,
        keys: Sequence,
        compute: "Callable[[list], Sequence]",
        riders: Sequence = (),
    ) -> "tuple[list, list[int]]":
        """Look every key up, computing and storing on a miss, the misses'
        values computed *together*: ``(values + rider values, positions
        that missed)``.

        ``compute(keys)`` is called once, ahead, for the distinct keys the
        table does not hold; the lookups and stores then run element by
        element exactly as a loop of single memo calls would, so hit/miss
        counters, LRU order and evictions are the loop's -- an in-batch
        repeat scores the hit its second lookup would have.  Only an entry
        this very batch evicted is computed alone, as the loop would have.

        ``riders`` go through that one ``compute`` call behind the misses and
        their values come back behind the keys' -- nothing else: a rider is
        never looked up, stored or counted, so the books cannot tell it rode.
        If ``compute`` raises, nothing has been stored.
        """
        fresh = self._absent(table, keys)
        ahead = list(compute(fresh + list(riders))) if fresh or riders else []
        computed = dict(zip(fresh, ahead))
        ridden = ahead[len(fresh):]
        values, missed = [], []
        for position, key in enumerate(keys):
            value, found = self._lookup(table, key)
            if not found:
                value = computed[key] if key in computed else compute([key])[0]
                self._store(table, key, value)
                missed.append(position)
            values.append(value)
        return values + ridden, missed

    # -- recovery (the verifier path) -----------------------------------------

    @staticmethod
    def _recover_key(digest: bytes, signature: Signature) -> tuple:
        return (digest, signature.r, signature.s, signature.v)

    def prime_recovery(self, digest: bytes, signature: Signature, signer: bytes) -> None:
        """Record a known ``recover(digest, signature) == signer`` fact.

        The issuance path calls this right after signing: a freshly produced
        recoverable signature recovers to its signer by construction, so the
        entry can be inserted without any curve math.  Later ``ecrecover``
        calls for the same token (mempool pre-checks, the block executor's
        pre-warm pass, the in-EVM verifier) then hit the cache -- this is what
        lets issuance warm the whole execution pipeline.
        """
        self._store(self._recovered, self._recover_key(digest, signature), signer)

    def _recovery_entry(self, key: tuple, address: bytes):
        """The recovery table's entry for a caller asking about ``address``
        -- ``None`` when it holds nothing, or only a refusal about some other
        address, which answers nothing."""
        value = self._recovered.get(key)
        if isinstance(value, _NotSignedBy) and value.address != address:
            return None
        return value

    def peek_recovery(self, digest: bytes, signature: Signature) -> "bytes | None":
        """Cached recovery result without computing on a miss (and without
        touching hit/miss counters).  ``None`` means unknown *or* a cached
        refusal (which names no signer) -- cheap-screening callers treat
        both as "defer to the full check"."""
        value = self._recovered.get(self._recover_key(digest, signature))
        return value if isinstance(value, bytes) else None

    def recovery_matches(self, digest: bytes, signature: Signature, address: bytes) -> bool:
        """Memoized ``recover_address(digest, signature) == address``,
        unrecoverable = False: Alg. 1's question of a token signature.

        A miss is answered by :meth:`signed_by` -- a full recovery only until
        the node has met ``address``'s key twice -- and stored: a match as
        ``address`` (what :meth:`prime_recovery` stores for a token the node
        watched being signed), a refusal as a verdict about ``address`` alone.
        ``misses`` still counts the times curve math ran.
        """
        key = self._recover_key(digest, signature)
        value = self._recovery_entry(key, address)
        if value is not None:
            self._recovered.move_to_end(key)
            self.hits += 1
            return value == address
        self.misses += 1
        matched = self.signed_by(digest, signature, address)
        self._store(self._recovered, key, address if matched else _NotSignedBy(address))
        return matched

    def peek_recovery_matches(
        self, digest: bytes, signature: Signature, address: bytes
    ) -> "bool | None":
        """The cached answer to :meth:`recovery_matches`, ``None`` when there
        is none (no counter moves, nothing is computed)."""
        value = self._recovery_entry(self._recover_key(digest, signature), address)
        return None if value is None else value == address

    # -- known senders (the admission path) ------------------------------------

    def signed_by(self, digest: bytes, signature: Signature, address: bytes) -> bool:
        """``recover_address(digest, signature) == address``, unrecoverable = False.

        First sight of ``address``: exactly that -- one plain recovery -- and
        the recovered key is remembered only if it matched.  Second sight:
        the key has come back, so its split-exponent table is built (about
        0.6 of a recovery, once) and the signature checked against it.
        Every later sight: the check alone, about half a recovery.  A refusal
        by the check is final -- a forged signature under a known sender's
        name costs less than it does under an unknown one, and teaches
        nothing.  Not a lookup of a cached answer, so ``hits`` / ``misses``
        and ``len()`` do not move.
        """
        keys = self._keys
        key = keys.get(address)
        if key is None:
            try:
                point = recover(digest, signature)
            except SignatureError:
                return False
            if PublicKey(point).address() != address:
                return False
            keys[address] = point
            if len(keys) > KNOWN_KEY_CAPACITY:
                keys.popitem(last=False)
            return True
        keys.move_to_end(address)
        if isinstance(key, Point):
            key = keys[address] = prepare_point(key)
            self.key_builds += 1
        self.key_checks += 1
        return recovers_to(digest, signature, key)

    # -- signing (the issuance path) ------------------------------------------

    def signatures_for(
        self, keypair, digests: "Sequence[bytes]", riders: "Sequence[bytes]" = ()
    ) -> "list[Signature]":
        """Memoized ``keypair.sign(d)`` for each of ``digests``, the misses
        signed by one ``keypair.sign_batch`` (books as a loop's:
        :meth:`_memo_many`).  Sound because signing is RFC-6979
        deterministic: a cached signature is byte-identical to a fresh one.
        Keyed by the signer address, and each signed miss primes the recovery
        side (:meth:`prime_recovery`).

        ``riders`` are digests signed in that same block and never memoized:
        their signatures follow the ``digests``' in the result.  A
        ``sign_batch`` that raises leaves the cache as it was.
        """
        signer = keypair.address
        signatures, missed = self._memo_many(
            self._signatures,
            [(signer, digest) for digest in digests],
            lambda keys: keypair.sign_batch([digest for _, digest in keys]),
            [(signer, digest) for digest in riders],
        )
        for position in missed:
            self.prime_recovery(digests[position], signatures[position], signer)
        return signatures

    def digest_for(self, datagram: bytes) -> bytes:
        """Memoized ``keccak256(datagram)`` -- the token ``signing_digest``.

        A two-block datagram digest (~0.30 ms) costs more than the ECDSA
        sign it feeds (~0.19 ms), so replayed datagrams should pay it once.
        """
        value, found = self._lookup(self._digests, datagram)
        if found:
            return value
        digest = keccak256(datagram)
        self._store(self._digests, datagram, digest)
        return digest

    def digests_for(
        self, datagrams: "Sequence[bytes]", riders: "Sequence[bytes]" = ()
    ) -> list[bytes]:
        """``[digest_for(d) for d in datagrams]``, the misses hashed by one
        :func:`~repro.crypto.keccak.keccak256_many` (books as the loop's:
        :meth:`_memo_many`).

        ``riders`` are messages hashed in that same call and never memoized:
        their digests follow the ``datagrams``' in the result.
        """
        return self._memo_many(self._digests, datagrams, keccak256_many, riders)[0]

    def memoize_many(
        self, keys: "Sequence[tuple]", factory: "Callable[[list[tuple]], Sequence]"
    ) -> list:
        """Generic LRU memo for derived issuance artefacts: the value held for
        each of ``keys``, the misses built by one ``factory(keys)`` call
        (books as a loop's: :meth:`_memo_many`).

        The Token Service keys fully-built non-one-time tokens by ``(signer,
        expire, request bytes)``: a replayed request inside the same lifetime
        window reproduces a byte-identical token, so the whole
        datagram/digest/sign chain collapses to one lookup."""
        return self._memo_many(self._derived, keys, factory)[0]

    def unmemoized(self, keys: "Sequence[tuple]") -> "list[tuple]":
        """The distinct ``keys`` :meth:`memoize_many` would hand its factory
        now, in order: a look ahead for a caller that builds them as part of a
        larger stage.  Touches no counter and no LRU position."""
        return self._absent(self._derived, keys)

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return (
            len(self._recovered)
            + len(self._signatures)
            + len(self._digests)
            + len(self._derived)
        )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "recovered_entries": len(self._recovered),
            "signature_entries": len(self._signatures),
            "digest_entries": len(self._digests),
            "derived_entries": len(self._derived),
            "known_keys": len(self._keys),
            "key_checks": self.key_checks,
            "key_builds": self.key_builds,
        }
