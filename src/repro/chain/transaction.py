"""Transactions: signed data packages originated from externally owned accounts.

A transaction either transfers value to an account or calls a method of a
deployed contract (or both).  It is signed with the sender's secp256k1 key
over the keccak-256 hash of its canonically encoded fields (the simulator's
RLP: :mod:`repro.chain.canonical`); the chain validates the signature and
the per-sender nonce before execution, which is the built-in Ethereum
replay protection the paper relies on in §VII-A(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.chain import abi
from repro.chain.address import Address, address_hex
from repro.chain.canonical import CodecError, encode_value
from repro.crypto.ecdsa import Signature, SignatureError
from repro.crypto.keccak import (
    PACKED_CROSSOVER,
    keccak256,
    keccak256_many,
    keccak256_shared_prefix,
)
from repro.crypto.keys import recover_address

DEFAULT_GAS_LIMIT = 8_000_000

#: Numeric fields are signed as unsigned ints of 64 bits (a value 128): a
#: negative value would move balance from the recipient to the sender.
_FIELD_BOUNDS = {"n": 1 << 64, "v": 1 << 128, "g": 1 << 64, "p": 1 << 64}

#: What computing a signing payload raises when there is none: an uncarried
#: type, a lone surrogate, a ``to_bytes`` needing arguments, runaway nesting.
UNENCODABLE = (ValueError, TypeError, RecursionError)


def check_unsigned_fields(fields: "dict[str, Any]") -> "dict[str, Any]":
    """``fields`` itself if every number is an int within :data:`_FIELD_BOUNDS`
    and every keyword named by a ``str``, else ``CodecError``: signing and WAL
    decoding both check here, so whatever signs also reads back."""
    for name, bound in _FIELD_BOUNDS.items():
        if type(fields[name]) is not int or not 0 <= fields[name] < bound:
            raise CodecError(f"transaction field {name!r} is not an int in [0, {bound})")
    if any(type(key) is not str for key in fields["k"]):
        raise CodecError("transaction keyword arguments must be named by str")
    return fields


def _canonical_arg(value: Any) -> Any:
    """A call argument as the signature covers it: a token or bundle object
    is its wire bytes and a list is a tuple, so the live object and what a
    WAL round trip gives back sign and hash alike."""
    to_bytes = getattr(value, "to_bytes", None)
    if callable(to_bytes) and not isinstance(value, (int, float)):
        return to_bytes()
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_arg(item) for item in value)
    return value


@dataclass(slots=True)
class Transaction:
    """A (possibly signed) transaction.

    ``method``/``args``/``kwargs`` express a contract call at the Python
    level; ``calldata`` is the ABI-style encoding used for gas accounting and
    for ``msg.data``/``msg.sig`` semantics.  A plain value transfer leaves
    ``method`` as ``None``.  The signature covers every other field, the
    arguments typed (:meth:`signing_payload`): ``"abc"`` and ``b"abc"``, or
    ``True`` and ``1``, share ABI calldata but are different calls.
    """

    sender: Address
    to: Address | None
    nonce: int
    method: str | None = None
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    value: int = 0
    gas_limit: int = DEFAULT_GAS_LIMIT
    gas_price: int = 1
    signature: Signature | None = None
    # The digest memo: two 32-byte values, never sponge state.
    _hash: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _signing_digest: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.args, list):
            self.args = tuple(self.args)

    @property
    def calldata(self) -> bytes:
        """ABI-style calldata for the call (empty for plain transfers)."""
        if self.method is None:
            return b""
        return abi.encode_call(self.method, self.args, self.kwargs)

    @property
    def is_contract_call(self) -> bool:
        return self.method is not None

    def unsigned_fields(self) -> dict[str, Any]:
        """Every field the signature covers, as the canonical codec carries
        it; a WAL record is this plus ``"x"``, the signature."""
        return {
            "s": self.sender,
            "t": self.to,
            "n": self.nonce,
            "m": self.method,
            "a": tuple(_canonical_arg(arg) for arg in self.args),
            "k": {key: _canonical_arg(val) for key, val in self.kwargs.items()},
            "v": self.value,
            "g": self.gas_limit,
            "p": self.gas_price,
        }

    def signing_payload(self) -> bytes:
        """The bytes the signature covers: :meth:`unsigned_fields`, checked and
        canonically encoded (else one of :data:`UNENCODABLE`)."""
        return encode_value(check_unsigned_fields(self.unsigned_fields()))

    def hash(self) -> bytes:
        """The transaction hash (over the signing payload plus signature).

        Memoized after the first computation: a transaction is hashed several
        times on its way through the node (mempool dedup, its receipt, the
        enclosing block header), and the fields it covers are frozen once the
        transaction is signed.  :meth:`sign_with` invalidates the memo.
        """
        if self._hash is None:
            sig_bytes = self.signature.to_bytes() if self.signature else b""
            self._hash = keccak256(self.signing_payload() + sig_bytes)
        return self._hash

    def signing_digest(self) -> bytes:
        """The digest the sender signed: ``keccak256(signing_payload())``.

        A node needs this *and* :meth:`hash` for every transaction it admits,
        and the two messages share the whole payload -- so when neither is
        known yet, both come out of one pass over it (see
        :func:`~repro.crypto.keccak.keccak256_shared_prefix`).  Memoized and
        invalidated together with the hash.
        """
        if self._signing_digest is None:
            payload = self.signing_payload()
            if self._hash is None and self.signature is not None:
                self._signing_digest, self._hash = keccak256_shared_prefix(
                    payload, self.signature.to_bytes()
                )
            else:
                self._signing_digest = keccak256(payload)
        return self._signing_digest

    def sign_with(self, keypair: "Any") -> "Transaction":
        """Sign in place using a :class:`repro.crypto.keys.KeyPair`-like object.

        Clears the digest memo and leaves it empty: whoever receives the
        transaction hashes the fields it actually received.
        """
        self.signature = keypair.sign(keccak256(self.signing_payload()))
        self._hash = self._signing_digest = None
        return self

    def verify_signature(self) -> bool:
        """Check that the signature recovers the declared sender address;
        ``False`` too for a transaction with no signing payload."""
        if self.signature is None:
            return False
        try:
            return recover_address(self.signing_digest(), self.signature) == self.sender
        except (SignatureError, *UNENCODABLE):
            return False

    def describe(self) -> str:
        """Human-readable one-line description (used by example scripts)."""
        target = address_hex(self.to) if self.to else "<create>"
        call = f".{self.method}()" if self.method else ""
        return f"tx nonce={self.nonce} from {address_hex(self.sender)} to {target}{call}"


def prime_digests(transactions: "Sequence[Transaction]") -> None:
    """Fill the digest memo of a batch's signed, not-yet-hashed transactions.

    A node that holds N transactions at once (``Mempool.admit_many``) hashes
    all their signing payloads and payload-plus-signature messages in one
    :func:`~repro.crypto.keccak.keccak256_many` call instead of N
    :meth:`Transaction.signing_digest` passes.  The values are the ones the
    per-transaction path memoizes; below the packed crossover nothing is
    primed and that path (one shared-prefix pass each) runs as before.  A
    transaction with no payload is left unprimed, for that path to refuse.
    """
    candidates = [
        tx
        for tx in transactions
        if tx.signature is not None and tx._hash is None and tx._signing_digest is None
    ]
    if len(candidates) < PACKED_CROSSOVER:
        return
    cold, payloads = [], []
    for tx in candidates:
        try:
            payloads.append(tx.signing_payload())
        except UNENCODABLE:
            continue
        cold.append(tx)
    signed = [payload + tx.signature.to_bytes() for payload, tx in zip(payloads, cold)]
    digests = keccak256_many(payloads + signed)
    for position, tx in enumerate(cold):
        tx._signing_digest = digests[position]
        tx._hash = digests[len(cold) + position]
