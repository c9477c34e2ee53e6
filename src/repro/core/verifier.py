"""Contract-side token verification (Alg. 1).

This is the on-chain half of SMACS: a small, gas-metered library that a
SMACS-enabled contract runs before executing any public/external method body.
The verification steps are:

1. extract the token for this contract from the transaction (single token or
   a call-chain token array, §IV-D);
2. reject expired tokens (``now() > tk.expire``);
3. reconstruct the signed datagram from the transaction context
   (``tx.origin``, ``address(this)``, ``msg.sig``, the call arguments) and
   check the Token Service signature with ``ecrecover``;
4. for one-time tokens, check-and-mark the index in the stored bitmap
   (Alg. 2) -- performed *after* the signature check so that forged tokens
   cannot burn indexes.

Gas is charged in named categories (``verify``, ``bitmap``, ``parse``) so the
benchmark harnesses can reproduce the cost split of Tab. II and Tab. III.
"""

from __future__ import annotations

from typing import Any, Mapping, TYPE_CHECKING

from repro.chain import gas, precompiles
from repro.chain.errors import Revert
from repro.core import token as token_mod
from repro.core.call_chain import token_entries
from repro.core.token import MalformedToken, Token, TokenType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chain.transaction import Transaction
    from repro.core.smacs_contract import SMACSContract

#: storage slot holding the Token Service address the contract trusts
TS_ADDRESS_SLOT = "smacs/ts_address"


def extract_token(contract: "SMACSContract", token_argument: Any) -> bytes | None:
    """Locate this contract's token in the transaction's token argument.

    Charges the calibrated array-parsing cost when the argument is a
    call-chain bundle (the "Parse" row of Tab. III).
    """
    entries = token_entries(token_argument, contract.this)
    _charge_array_parse(contract, len(entries))
    return entries.get(contract.this)


def _charge_array_parse(contract: "SMACSContract", entries: int) -> None:
    """Charge the Tab. III "Parse" cost for slicing a multi-token array.

    A single-token transaction carries no array, so it pays nothing (the
    paper's table shows a dash for one token).
    """
    if entries > 1:
        contract.charge_gas(
            gas.CALIBRATED_TOKEN_ARRAY_PARSE_PER_TOKEN * (entries - 1),
            category="parse",
        )


def verify_token(
    contract: "SMACSContract",
    token_argument: Any,
    bound_arguments: Mapping[str, Any] | None = None,
) -> bool:
    """Run Alg. 1 for the current call frame of ``contract``.

    ``bound_arguments`` are the method's call arguments by name (excluding
    the token itself); they are only used when the token is an argument token.
    Returns True/False exactly like the paper's algorithm; the SMACS contract
    wrapper turns False into a revert.
    """
    env = contract.env
    meter = env.meter

    with gas.charging_category(meter, "verify"):
        raw = extract_token(contract, token_argument)
        if raw is None:
            return False

        # Step 1: parse the 86-byte token out of calldata.
        meter.charge(gas.CALIBRATED_TOKEN_PARSE_PER_BYTE * token_mod.TOKEN_SIZE)
        try:
            token = Token.from_bytes(raw)
        except MalformedToken:
            return False

        # Step 2: expiry.
        if env.ctx.block.timestamp > token.expire:
            return False

        # Step 3: reconstruct the signed datagram from the transaction context
        # and verify the Token Service signature.
        datagram = token_mod.signing_datagram(
            token.token_type,
            token.expire,
            token.index,
            env.ctx.origin,
            contract.this,
            method=_method_binding(contract, token),
            arguments=bound_arguments if token.token_type is TokenType.ARGUMENT else None,
        )
        meter.charge(gas.CALIBRATED_DATA_PACK_PER_BYTE * len(datagram))
        meter.charge(gas.CALIBRATED_VERIFY_STATIC)
        if token.token_type is TokenType.METHOD:
            meter.charge(gas.CALIBRATED_METHOD_EXTRA)
        elif token.token_type is TokenType.ARGUMENT:
            meter.charge(gas.CALIBRATED_METHOD_EXTRA)
            meter.charge(gas.CALIBRATED_ARGUMENT_EXTRA)

        # keccak gas is charged as usual; the digest itself goes through the
        # node-level signature cache (primed at issuance / by the mempool) so
        # a warm pipeline skips the pure-Python hash, exactly like the
        # precompile's memo below skips the curve math.
        meter.charge(gas.keccak_cost(len(datagram)))
        digest = env.evm.signature_cache.digest_for(datagram)
        # Alg. 1 compares the recovered signer with the trusted TS address
        # and uses it for nothing else, so the precompile is asked for the
        # comparison.  The address is read ahead of the call; the charges
        # keep the contract's order: precompile, then the SLOAD.
        expected = env.evm.state.storage_get(contract.this, TS_ADDRESS_SLOT, None)
        signed = precompiles.ecrecover_matches(env, digest, token.signature, expected)
        meter.charge(gas.SLOAD)  # load the trusted TS address
        if not signed:
            return False

    # Step 4: the one-time property (charged to the "bitmap" category).
    if token.is_one_time:
        with gas.charging_category(meter, "bitmap"):
            if not contract._bitmap_mark_used(token.index):
                return False

    return True


def _method_binding(contract: "SMACSContract", token: Token) -> str | None:
    """The method identifier to bind for method/argument tokens.

    Uses the current frame's method selector source: the name of the method
    being executed (the selector of which equals ``msg.sig``).
    """
    if token.token_type is TokenType.SUPER:
        return None
    method_name = getattr(contract, "_smacs_current_method", None)
    if method_name is None:
        raise Revert("SMACS verification outside a protected method")
    return method_name


def reconstruct_datagram(
    tx: "Transaction", contract: "SMACSContract", token: Token
) -> "bytes | None":
    """The datagram Alg. 1 will rebuild for ``token`` carried by ``tx``.

    The gas-free mirror of :func:`verify_token`'s step 3, for the node's
    admission screen and pre-warm: ``tx.origin`` is the transaction sender,
    the contract address comes from the target, method/argument tokens bind
    the called method's name, and argument tokens additionally bind the call
    arguments by name (positional arguments are resolved against the method
    signature).  Returns None when the arguments cannot be bound -- such a
    call reverts before verification anyway.
    """
    method_name = tx.method if token.token_type is not TokenType.SUPER else None
    arguments = None
    if token.token_type is TokenType.ARGUMENT:
        handler = getattr(contract, tx.method or "", None)
        bind = getattr(handler, "_smacs_bind", None)
        if bind is None:
            return None
        try:
            arguments = bind(
                contract, tx.args, {k: v for k, v in tx.kwargs.items() if k != "token"}
            )
        except TypeError:
            return None
    try:
        return token_mod.signing_datagram(
            token.token_type,
            token.expire,
            token.index,
            tx.sender,
            getattr(contract, "this", tx.to),
            method=method_name,
            arguments=arguments,
        )
    except ValueError:
        return None
