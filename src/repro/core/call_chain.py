"""Tokens for call chains (§IV-D).

A transaction that triggers a chain of SMACS-enabled contracts must carry one
token per protected contract.  The client embeds an array of the form::

    SCA : tkA || SCB : tkB || SCC : tkC

Each contract extracts the entry associated with its own address, verifies it
(Alg. 1), and passes the whole array along with its outgoing message calls so
downstream contracts can do the same.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.chain.address import Address, address_hex
from repro.core.token import TOKEN_SIZE, Token

_ENTRY_SIZE = 20 + TOKEN_SIZE  # address || token


class TokenBundle:
    """An ordered mapping from contract address to its token bytes."""

    def __init__(self, entries: Mapping[Address, bytes] | None = None):
        self._entries: dict[Address, bytes] = {}
        for address, token_bytes in (entries or {}).items():
            self.add(address, token_bytes)

    # -- construction -----------------------------------------------------------

    def add(self, contract: Address, token: "bytes | Token") -> "TokenBundle":
        raw = token.to_bytes() if isinstance(token, Token) else bytes(token)
        if len(raw) != TOKEN_SIZE:
            raise ValueError(f"token entry must be {TOKEN_SIZE} bytes, got {len(raw)}")
        if len(contract) != 20:
            raise ValueError("contract address must be 20 bytes")
        self._entries[contract] = raw
        return self

    # -- access -------------------------------------------------------------------

    def token_for(self, contract: Address) -> bytes | None:
        """The raw token bytes for ``contract`` or None when absent."""
        return self._entries.get(contract)

    def __contains__(self, contract: Address) -> bool:
        return contract in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Address]:
        return iter(self._entries)

    def addresses(self) -> list[Address]:
        return list(self._entries)

    # -- wire format -----------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise as the concatenated ``addr || token`` array of §IV-D."""
        return b"".join(addr + raw for addr, raw in self._entries.items())

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TokenBundle":
        """Decode the wire array, rejecting malformed layouts.

        A truncated (or otherwise misaligned) array cannot be split into
        whole ``addr || token`` entries and is rejected; so is an array that
        lists the same contract twice -- on the wire that is ambiguous about
        which token the contract should verify, and accepting the later entry
        would let an attacker shadow the legitimate one.
        """
        if len(raw) % _ENTRY_SIZE:
            raise ValueError(
                f"token array length {len(raw)} is not a multiple of {_ENTRY_SIZE}"
            )
        bundle = cls()
        for offset in range(0, len(raw), _ENTRY_SIZE):
            address = raw[offset:offset + 20]
            token = raw[offset + 20:offset + _ENTRY_SIZE]
            if address in bundle:
                raise ValueError(
                    f"token array lists contract 0x{address.hex()} more than once"
                )
            bundle.add(address, token)
        return bundle

    def describe(self) -> str:
        return " || ".join(
            f"{address_hex(addr)[:10]}…:tk({raw[0]})" for addr, raw in self._entries.items()
        )


def token_entries(argument: Any, target: Address) -> dict[Address, bytes]:
    """Raw token bytes by contract for a call's ``token=`` argument.

    The one reading of that argument for everything that only looks at it
    (admission, pre-warm, recovery, Alg. 1's extraction): a single token -- a
    :class:`Token` or its 86 bytes -- belongs to ``target``, the called
    contract; a :class:`TokenBundle` or its wire array carries one entry per
    contract in the chain.  Empty when the argument is none of these (absent,
    another type, an array that does not split into whole entries).
    """
    if isinstance(argument, Token):
        return {target: argument.to_bytes()}
    if isinstance(argument, (bytes, bytearray)):
        argument = bytes(argument)
        if len(argument) == TOKEN_SIZE:
            return {target: argument}
        try:
            argument = TokenBundle.from_bytes(argument)
        except ValueError:
            return {}
    if isinstance(argument, TokenBundle):
        return dict(argument._entries)
    return {}


def tokens_carried(tx: Any) -> dict[Address, bytes]:
    """:func:`token_entries` of a transaction (only a contract call carries any)."""
    return token_entries(tx.kwargs.get("token"), tx.to) if tx.is_contract_call else {}


def normalise_token_argument(value: "bytes | Token | TokenBundle | None") -> TokenBundle | bytes | None:
    """Normalise the ``token=`` argument accepted by SMACS-protected methods.

    Accepts a single token (bytes or :class:`Token`), a :class:`TokenBundle`
    for call chains, or None; returns either raw single-token bytes, a bundle,
    or None.
    """
    if value is None:
        return None
    if isinstance(value, TokenBundle):
        return value
    if isinstance(value, Token):
        return value.to_bytes()
    if isinstance(value, (bytes, bytearray)):
        raw = bytes(value)
        if len(raw) == TOKEN_SIZE:
            return raw
        return TokenBundle.from_bytes(raw)
    raise TypeError(f"unsupported token argument of type {type(value).__name__}")
