"""SMACS tokens (Fig. 3) and the signed datagram construction.

A token is an 86-byte object::

    type (1B) || expire (4B) || index (16B) || signature (65B)

* ``type`` -- SUPER, METHOD or ARGUMENT (§IV-A);
* ``expire`` -- unix-time expiration set by the Token Service;
* ``index`` -- the one-time counter value; ``ONE_TIME_UNSET`` (encoded as the
  all-ones 16-byte value, i.e. -1) when the one-time property is not set;
* ``signature`` -- the TS's recoverable ECDSA signature over the datagram

    type || expire || index || sAddr || cAddr [ || methodId [ || argData ] ]

which cryptographically binds the token to the requesting client address, the
target contract, the method identifier (method/argument tokens) and the exact
call arguments (argument tokens).  The contract-side verification of Alg. 1
reconstructs the same datagram from ``tx.origin``, ``address(this)``,
``msg.sig`` and the call arguments, so a token cannot be replayed in any
other context (the substitution-attack resistance of §VII-A).

Deviation from the paper, documented: for argument tokens the paper appends
the raw ``msg.data``.  Since the token itself travels inside the calldata,
binding the *full* calldata would be circular; this implementation binds the
ABI-encoded non-token arguments (name/value pairs sorted by name), which is
what the datagram needs to guarantee the same property.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any, Mapping

from repro.chain import abi
from repro.chain.address import Address
from repro.crypto.ecdsa import Signature
from repro.crypto.keccak import keccak256

# Sentinel index meaning "the one-time property is NOT set".
ONE_TIME_UNSET = -1

_INDEX_BYTES = 16
_EXPIRE_BYTES = 4
TOKEN_SIZE = 1 + _EXPIRE_BYTES + _INDEX_BYTES + 65  # = 86 bytes (Fig. 3)
#: bound of the token decode memo (about 0.6 MB when full): a token is read at
#: admission, by ``pre_warm`` and by Alg. 1 within a block or two, and a block
#: holds 64 transactions, so this keeps many blocks' worth
DECODE_MEMO_SIZE = 1024


class TokenType(enum.IntEnum):
    """The three token types with decreasing permission scope (§IV-A)."""

    SUPER = 1
    ARGUMENT = 2
    METHOD = 3

    @classmethod
    def from_byte(cls, value: int) -> "TokenType":
        try:
            return cls(value)
        except ValueError as exc:
            raise MalformedToken(f"unknown token type byte {value}") from exc


class MalformedToken(ValueError):
    """Raised when token bytes cannot be decoded."""


def encode_index(index: int) -> bytes:
    """Encode the 16-byte index field (two's complement for the -1 sentinel)."""
    return (index & ((1 << (8 * _INDEX_BYTES)) - 1)).to_bytes(_INDEX_BYTES, "big")


def decode_index(raw: bytes) -> int:
    value = int.from_bytes(raw, "big")
    if value >> (8 * _INDEX_BYTES - 1):  # negative in two's complement
        value -= 1 << (8 * _INDEX_BYTES)
    return value


def encode_argument_data(arguments: Mapping[str, Any]) -> bytes:
    """Canonical encoding of the argument name/value pairs bound by a token."""
    return abi.encode_arguments((), dict(arguments))


def signing_datagram(
    token_type: TokenType,
    expire: int,
    index: int,
    client: Address,
    contract: Address,
    method: str | None = None,
    arguments: Mapping[str, Any] | None = None,
) -> bytes:
    """Build the datagram whose keccak-256 hash the Token Service signs.

    The same function is used by the TS (from the token request) and by the
    contract-side verifier (from the transaction context), which is exactly
    what makes the cryptographic binding work.
    """
    data = (
        bytes([int(token_type)])
        + expire.to_bytes(_EXPIRE_BYTES, "big")
        + encode_index(index)
        + client
        + contract
    )
    if token_type in (TokenType.METHOD, TokenType.ARGUMENT):
        if method is None:
            raise ValueError(f"{token_type.name} token requires a method identifier")
        data += abi.method_selector(method)
    if token_type is TokenType.ARGUMENT:
        data += encode_argument_data(arguments or {})
    return data


def signing_digest(*args: Any, **kwargs: Any) -> bytes:
    """keccak-256 of :func:`signing_datagram` (what actually gets signed)."""
    return keccak256(signing_datagram(*args, **kwargs))


@dataclass(frozen=True, slots=True)
class Token:
    """A decoded SMACS token."""

    token_type: TokenType
    expire: int
    index: int
    signature: Signature

    @property
    def is_one_time(self) -> bool:
        """The one-time property is set when the index is non-negative."""
        return self.index >= 0

    def is_expired(self, now: int) -> bool:
        return now > self.expire

    # -- wire format (Fig. 3) ---------------------------------------------------

    def to_bytes(self) -> bytes:
        raw = (
            bytes([int(self.token_type)])
            + self.expire.to_bytes(_EXPIRE_BYTES, "big")
            + encode_index(self.index)
            + self.signature.to_bytes()
        )
        assert len(raw) == TOKEN_SIZE
        return raw

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Token":
        # Only immutable bytes can key the memo; anything else decodes afresh.
        return _decoded(raw) if type(raw) is bytes else _decoded.__wrapped__(raw)

    # -- convenience ---------------------------------------------------------------

    def digest_for(
        self,
        client: Address,
        contract: Address,
        method: str | None = None,
        arguments: Mapping[str, Any] | None = None,
    ) -> bytes:
        """The digest this token's signature should verify against."""
        return signing_digest(
            self.token_type,
            self.expire,
            self.index,
            client,
            contract,
            method=method,
            arguments=arguments,
        )


@functools.lru_cache(maxsize=DECODE_MEMO_SIZE)
def _decoded(raw: bytes) -> Token:
    """Bytes -> token memo: a pure function of immutable bytes.

    The same token is read at admission, by ``pre_warm`` and by Alg. 1; the
    decoded value is frozen, so all three share one.  Malformed input raises
    and leaves no entry behind.
    """
    if len(raw) != TOKEN_SIZE:
        raise MalformedToken(
            f"token must be {TOKEN_SIZE} bytes (Fig. 3), got {len(raw)}"
        )
    token_type = TokenType.from_byte(raw[0])
    expire = int.from_bytes(raw[1:1 + _EXPIRE_BYTES], "big")
    index = decode_index(raw[1 + _EXPIRE_BYTES:1 + _EXPIRE_BYTES + _INDEX_BYTES])
    try:
        signature = Signature.from_bytes(raw[-65:])
    except ValueError as exc:
        raise MalformedToken(f"invalid signature field: {exc}") from exc
    return Token(token_type, expire, index, signature)
