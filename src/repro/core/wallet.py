"""Client and owner wallets (the web3.js substitute).

The :class:`ClientWallet` integrates the SMACS token-request step into the
transaction-sending flow (§IV-B says this "can be easily integrated into
mainstream wallets, such that it is executed seamlessly for users"):

* it discovers the Token Service for a SMACS-enabled contract (through the
  :mod:`repro.core.discovery` registry or an explicit mapping),
* requests a token of the right type for the intended call,
* embeds the token (or a call-chain bundle) into the transaction, and
* submits the transaction.

The :class:`OwnerWallet` adds the owner-side operations: deploying a
SMACS-enabled contract preloaded with the TS address, and managing rules.

Both wallets are written against the :class:`~repro.api.protocol.TokenIssuer`
protocol, not a concrete service class: a serial ``TokenService``, a
``ReplicatedTokenService``, any middleware stack
from :func:`repro.api.factory.build_service` or a wire-level
:class:`~repro.api.gateway.GatewayClient` all plug in unchanged.  Token
acquisition goes through the protocol's batch path (``submit``), with the
single request expressed as a one-element batch.
"""

from __future__ import annotations

from typing import Any, Mapping, TYPE_CHECKING

from repro.chain.account import ExternallyOwnedAccount
from repro.chain.address import Address
from repro.chain.chain import Blockchain
from repro.chain.contract import Contract
from repro.chain.evm import Receipt
from repro.core.call_chain import TokenBundle
from repro.core.errors import ErrorCode, SmacsError
from repro.core.token import Token, TokenType
from repro.core.token_request import TokenRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.protocol import TokenIssuer


class NoTokenServiceKnown(SmacsError):
    """The wallet cannot find a Token Service for the targeted contract."""

    code = ErrorCode.UNKNOWN_ROUTE


class ClientWallet:
    """Client-side software: request tokens, embed them, send transactions."""

    def __init__(
        self,
        account: ExternallyOwnedAccount,
        token_services: "Mapping[Address, TokenIssuer] | None" = None,
        discovery: "Any | None" = None,
    ):
        self.account = account
        self._services: "dict[Address, TokenIssuer]" = dict(token_services or {})
        self.discovery = discovery

    # -- plumbing ------------------------------------------------------------------

    @property
    def chain(self) -> Blockchain:
        return self.account.chain

    @property
    def address(self) -> Address:
        return self.account.address

    def register_service(self, contract: "Address | Contract", service: "TokenIssuer") -> None:
        self._services[getattr(contract, "this", contract)] = service

    def service_for(self, contract: "Address | Contract") -> "TokenIssuer":
        address = getattr(contract, "this", contract)
        if address in self._services:
            return self._services[address]
        if self.discovery is not None:
            service = self.discovery.resolve(address)
            if service is not None:
                self._services[address] = service
                return service
        raise NoTokenServiceKnown(
            f"no Token Service known for contract 0x{address.hex()}"
        )

    # -- token acquisition -------------------------------------------------------------

    def request_token(
        self,
        contract: "Address | Contract",
        token_type: TokenType = TokenType.SUPER,
        method: str | None = None,
        arguments: Mapping[str, Any] | None = None,
        one_time: bool = False,
    ) -> Token:
        """Apply for a token of the given type from the contract's TS.

        Super-token requests carry no methodId or arguments (Tab. I), so any
        passed here are dropped; method-token requests drop the arguments.
        """
        address = getattr(contract, "this", contract)
        if token_type is TokenType.SUPER:
            method, arguments = None, None
        elif token_type is TokenType.METHOD:
            arguments = None
        request = TokenRequest(
            token_type=token_type,
            contract=address,
            client=self.address,
            method=method,
            arguments=dict(arguments or {}),
            one_time=one_time,
        )
        service = self.service_for(address)
        # The protocol batch path, single request as a one-element batch;
        # the carried SmacsError (TokenDenied, COUNTER_TIMEOUT, ...) is
        # re-raised here, where the client is a single caller again.
        return service.submit([request])[0].raise_if_failed()

    def acquire_bundle(self, plan: list[dict[str, Any]]) -> TokenBundle:
        """Obtain tokens for every contract in a call chain (§IV-D).

        ``plan`` is a list of dicts with keys ``contract`` and optionally
        ``token_type``, ``method``, ``arguments``, ``one_time``.
        """
        bundle = TokenBundle()
        for step in plan:
            contract = step["contract"]
            token = self.request_token(
                contract,
                token_type=step.get("token_type", TokenType.METHOD),
                method=step.get("method"),
                arguments=step.get("arguments"),
                one_time=step.get("one_time", False),
            )
            bundle.add(getattr(contract, "this", contract), token)
        return bundle

    # -- transaction sending -----------------------------------------------------------------

    def call_with_token(
        self,
        contract: "Address | Contract",
        method: str,
        *args: Any,
        token_type: TokenType = TokenType.METHOD,
        one_time: bool = False,
        value: int = 0,
        **kwargs: Any,
    ) -> Receipt:
        """One-stop call: request a matching token and send the transaction.

        For argument tokens the binding covers exactly the keyword arguments
        passed here, so callers should pass method arguments by name.
        """
        arguments = dict(kwargs)
        if token_type is TokenType.ARGUMENT and args:
            raise ValueError(
                "argument-token calls must pass method arguments by keyword "
                "so the wallet can bind them into the token request"
            )
        token = self.request_token(
            contract,
            token_type=token_type,
            method=method if token_type is not TokenType.SUPER else None,
            arguments=arguments if token_type is TokenType.ARGUMENT else None,
            one_time=one_time,
        )
        return self.account.transact(
            contract, method, *args, value=value, token=token.to_bytes(), **kwargs
        )

    def call_with_bundle(
        self,
        contract: "Address | Contract",
        method: str,
        bundle: TokenBundle,
        *args: Any,
        value: int = 0,
        **kwargs: Any,
    ) -> Receipt:
        """Send a call-chain transaction carrying a multi-contract token bundle."""
        return self.account.transact(
            contract, method, *args, value=value, token=bundle, **kwargs
        )


class OwnerWallet:
    """Owner-side software: deploy SMACS-enabled contracts and manage the TS."""

    def __init__(self, account: ExternallyOwnedAccount, service: "TokenIssuer"):
        self.account = account
        self.service = service

    @property
    def chain(self) -> Blockchain:
        return self.account.chain

    def deploy_protected(
        self,
        contract_class: type,
        *args: Any,
        one_time_bitmap_bits: int = 0,
        ts_url: str | None = None,
        gas_limit: int = 30_000_000,
        **kwargs: Any,
    ) -> Receipt:
        """Deploy a SMACS-enabled contract preloaded with the TS address.

        The contract class's ``constructor`` must accept ``ts_address`` (and
        optionally ``one_time_bitmap_bits`` / ``ts_url``) as leading keyword
        arguments, which is the convention all contracts in
        :mod:`repro.contracts` follow.
        """
        kwargs.setdefault("ts_address", self.service.address)
        if one_time_bitmap_bits:
            kwargs.setdefault("one_time_bitmap_bits", one_time_bitmap_bits)
        if ts_url is not None:
            kwargs.setdefault("ts_url", ts_url)
        return self.account.deploy(contract_class, *args, gas_limit=gas_limit, **kwargs)

    def update_rules(self, mutate: Any) -> None:
        """Dynamically update the ACRs of the owner's Token Service."""
        self.service.update_rules(mutate)
