"""SMACS core: the paper's primary contribution.

The package implements the full SMACS workflow:

1. An **owner** generates a key pair, deploys a SMACS-enabled contract with
   the Token Service (TS) address preloaded, and provisions a
   :class:`~repro.core.token_service.TokenService` with Access Control Rules.
2. A **client** submits a :class:`~repro.core.token_request.TokenRequest`;
   the TS checks it against its rules (and optional runtime-verification
   tools) and issues a signed :class:`~repro.core.token.Token`.
3. The client embeds the token into a transaction; the SMACS-enabled contract
   performs the lightweight on-chain verification of Alg. 1 (expiry, one-time
   bitmap, signature binding to ``tx.origin`` / ``address(this)`` /
   ``msg.sig`` / the call arguments) before executing the method body.
"""

from repro.core.token import Token, TokenType, ONE_TIME_UNSET
from repro.core.token_request import TokenRequest
from repro.core.acr import (
    AccessDecision,
    ArgumentRule,
    BlacklistRule,
    PredicateRule,
    RuleSet,
    RuntimeVerificationRule,
    WhitelistRule,
)
from repro.core.errors import ErrorCode, SmacsError
from repro.core.token_service import IssuanceResult, TokenService, TokenDenied
from repro.core.smacs_contract import SMACSContract, smacs_protected
from repro.core.call_chain import TokenBundle
from repro.core.wallet import ClientWallet, OwnerWallet
from repro.core.transformer import make_smacs_enabled
from repro.core.cost import gas_to_usd, gas_to_ether, usd

__all__ = [
    "Token",
    "TokenType",
    "TokenRequest",
    "TokenBundle",
    "TokenService",
    "TokenDenied",
    "SmacsError",
    "ErrorCode",
    "IssuanceResult",
    "ONE_TIME_UNSET",
    "SMACSContract",
    "smacs_protected",
    "AccessDecision",
    "RuleSet",
    "WhitelistRule",
    "BlacklistRule",
    "ArgumentRule",
    "PredicateRule",
    "RuntimeVerificationRule",
    "ClientWallet",
    "OwnerWallet",
    "make_smacs_enabled",
    "gas_to_usd",
    "gas_to_ether",
    "usd",
]
