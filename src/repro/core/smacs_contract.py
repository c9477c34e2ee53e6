"""SMACS-enabled contracts.

:class:`SMACSContract` is the base class for contracts protected by SMACS.
It stores the trusted Token Service address, owns the on-chain one-time-token
bitmap (Alg. 2 of :mod:`repro.core.bitmap`, run over the contract's
gas-metered storage), and provides the :func:`smacs_protected` decorator that
turns an ordinary method into one that verifies a token (Alg. 1) before
running its body -- the transformation shown in Fig. 4 of the paper.

Developer API::

    class MyContract(SMACSContract):
        def constructor(self, ts_address):
            self.init_smacs(ts_address, one_time_bitmap_bits=1024)
            ...

        @external
        @smacs_protected
        def do_something(self, amount):
            ...

Clients call ``do_something(amount, token=<token bytes or TokenBundle>)``.
Inside a protected method, :meth:`SMACSContract.forward_tokens` returns the
current token bundle so that call-chain contracts can pass it downstream
(§IV-D).
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable

from repro.chain import abi
from repro.chain.address import Address
from repro.chain.contract import Contract
from repro.core import bitmap, verifier
from repro.core.bitmap import (
    BITMAP_SIZE_SLOT,
    BITMAP_START_PTR_SLOT,
    BITMAP_START_SLOT,
    BITMAP_WORD_SLOT,
)
from repro.core.call_chain import TokenBundle, normalise_token_argument
from repro.core.verifier import TS_ADDRESS_SLOT

# Calibrated cost of the in-EVM bit manipulation of one bitmap update
# (shifting/masking inside a 256-bit word, Solidity-level bookkeeping).
_BITMAP_LOGIC_GAS = 7_500

#: storage slot where the TS discovery URL is published (§VII-B service discovery)
TS_URL_SLOT = "smacs/ts_url"
#: storage slot holding the contract owner address
OWNER_SLOT = "smacs/owner"


def smacs_protected(method: Callable) -> Callable:
    """Require a valid SMACS token before executing the method body.

    The wrapper accepts an extra keyword argument ``token`` (a single token,
    raw token bytes, or a :class:`TokenBundle` for call chains), runs the
    Alg. 1 verification, and reverts the call when verification fails.

    Verification only runs when the method is the *entry point* of the
    current call frame (a transaction or an incoming message call).  Internal
    calls from other methods of the same contract skip it, which is exactly
    the effect of the method-splitting transformation of Fig. 4.
    """
    selector = abi.method_selector(method.__name__)
    bind = _binder(method)

    @functools.wraps(method)
    def wrapper(self: "SMACSContract", *args: Any, token: Any = None, **kwargs: Any) -> Any:
        if self.env.msg.sig != selector:
            # Internal call from within the contract: the enclosing entry
            # point already verified its own token (Fig. 4 split semantics).
            return method(self, *args, **kwargs)

        if self.env.evm.smacs_simulation_mode:
            # Off-chain simulation by a Token Service validation tool: the
            # question is what the call would do once authorised, so the
            # token check is assumed to pass.
            return method(self, *args, **kwargs)

        try:
            normalised = normalise_token_argument(token)
        except TypeError:
            # A token of no supported type is no token: Alg. 1 refuses it
            # and the call reverts, consuming gas and nonce.
            normalised = None
        bound_arguments = bind(self, args, kwargs)

        previous_method = getattr(self, "_smacs_current_method", None)
        previous_bundle = getattr(self, "_smacs_current_bundle", None)
        self._smacs_current_method = method.__name__
        self._smacs_current_bundle = (
            normalised if isinstance(normalised, TokenBundle) else None
        )
        try:
            self.require(
                verifier.verify_token(self, normalised, bound_arguments),
                f"SMACS: access to '{method.__name__}' denied",
            )
            return method(self, *args, **kwargs)
        finally:
            self._smacs_current_method = previous_method
            self._smacs_current_bundle = previous_bundle

    wrapper._smacs_protected = True  # type: ignore[attr-defined]
    wrapper._smacs_wrapped = method  # type: ignore[attr-defined]
    wrapper._smacs_bind = bind  # type: ignore[attr-defined]
    return wrapper


def _binder(method: Callable) -> Callable[..., dict[str, Any]]:
    """``bind(self, args, kwargs)``: a call's arguments by name, without ``self``.

    Exactly ``inspect.signature(method).bind_partial(self, *args, **kwargs)``'s
    arguments minus ``self``, in signature order, raising the same
    ``TypeError``; the signature is read once, and the common call shape --
    keywords only, each naming a parameter -- binds without it.
    """
    signature = inspect.signature(method)
    names = tuple(
        name
        for name, parameter in signature.parameters.items()
        if name != "self"
        and parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
    )
    keywords = frozenset(names)
    bind_partial = signature.bind_partial

    def bind(self: Any, args: tuple, kwargs: dict[str, Any]) -> dict[str, Any]:
        if not args and keywords.issuperset(kwargs):
            return {name: kwargs[name] for name in names if name in kwargs}
        bound = bind_partial(self, *args, **kwargs).arguments
        return {name: value for name, value in bound.items() if name != "self"}

    return bind


class SMACSContract(Contract):
    """Base class for contracts protected by the SMACS framework."""

    # -- deployment-time initialisation ----------------------------------------

    def init_smacs(
        self,
        ts_address: Address,
        one_time_bitmap_bits: int = 0,
        ts_url: str | None = None,
    ) -> None:
        """Preload the Token Service address and allocate the one-time bitmap.

        Must be called from the contract's ``constructor``.  The bitmap size
        should be ``token_lifetime × max_tx_per_second`` bits (§IV-C); pass 0
        when the contract never accepts one-time tokens.
        """
        if len(ts_address) != 20:
            raise ValueError("the Token Service address must be 20 bytes")
        self.storage[TS_ADDRESS_SLOT] = ts_address
        self.storage[OWNER_SLOT] = self.msg.sender
        if ts_url is not None:
            self.storage[TS_URL_SLOT] = ts_url
        if one_time_bitmap_bits:
            self._init_bitmap(one_time_bitmap_bits)

    def _init_bitmap(self, bits: int) -> None:
        if bits <= 0:
            raise ValueError("bitmap size must be positive")
        words = bitmap.bitmap_storage_slots(bits)
        self.storage[BITMAP_SIZE_SLOT] = bits
        self.storage[BITMAP_START_SLOT] = 0
        self.storage[BITMAP_START_PTR_SLOT] = 0
        # Pre-allocate the word slots: the calibrated one-time deployment cost
        # of Tab. IV, charged to the "bitmap" category.  Each zeroed word is
        # one undo record in the deployment frame's journal checkpoint, so a
        # reverted deployment rolls the whole window back in O(words).
        self.storage.allocate(words, category="bitmap")
        state = self.env.evm.state
        this = self.this
        for word_index in range(words):
            state.storage_set(this, BITMAP_WORD_SLOT.format(word_index), 0)

    # -- owner / discovery metadata ------------------------------------------------

    @property
    def owner(self) -> Address:
        return self.storage.peek(OWNER_SLOT)

    def token_service_address(self) -> Address:
        return self.storage.peek(TS_ADDRESS_SLOT)

    def token_service_url(self) -> str | None:
        return self.storage.peek(TS_URL_SLOT, None)

    # -- call-chain support --------------------------------------------------------

    def forward_tokens(self) -> TokenBundle | None:
        """The token bundle carried by the current call, for downstream calls."""
        return getattr(self, "_smacs_current_bundle", None)

    # -- on-chain bitmap (Alg. 2 over contract storage) ------------------------------

    def _bitmap_mark_used(self, index: int) -> bool:
        """Check-and-mark a one-time token index against the stored bitmap.

        Returns False when the contract has no bitmap (one-time tokens are
        then not accepted), when the index was already used, or when the
        index was missed by a window slide.
        """
        size = self.storage.get(BITMAP_SIZE_SLOT, 0)
        if not size:
            return False
        self.charge_gas(_BITMAP_LOGIC_GAS)
        return bitmap.mark_used(self.storage, size, index)

    # -- off-chain inspection helpers (no gas) -----------------------------------------

    def bitmap_state(self) -> dict[str, int]:
        """Read the bitmap bookkeeping without charging gas (tests/monitoring)."""
        size = self.storage.peek(BITMAP_SIZE_SLOT, 0)
        start = self.storage.peek(BITMAP_START_SLOT, 0)
        start_ptr = self.storage.peek(BITMAP_START_PTR_SLOT, 0)
        return {
            "size": size,
            "start": start,
            "start_ptr": start_ptr,
            "end": start + size - 1 if size else 0,
        }

    def bitmap_storage_slots(self) -> int:
        """Number of 256-bit words allocated for the bitmap."""
        return bitmap.bitmap_storage_slots(self.storage.peek(BITMAP_SIZE_SLOT, 0))
