"""The contract programming model (a Python stand-in for Solidity).

Contracts are Python classes deriving from :class:`Contract`.  Methods are
tagged with the Solidity visibility decorators :func:`external`,
:func:`public`, :func:`internal` and :func:`private`; only external and
public methods are reachable through transactions or message calls, exactly
as in Solidity (§II-B of the paper).  Persistent data must be kept in
``self.storage`` -- a gas-metered view over the world state -- so that
reverts and chain reorgs restore contract state faithfully.

Inside a method the usual Solidity globals are available:

* ``self.msg.sender``, ``self.msg.value``, ``self.msg.sig``, ``self.msg.data``
* ``self.tx_origin`` (``tx.origin``)
* ``self.block.number``, ``self.block.timestamp``
* ``self.this`` (``address(this)``)

Helpers mirror common Solidity constructs: ``self.require``, ``self.emit``,
``self.call_contract`` (external call), ``self.call_value`` (low-level
``addr.call.value(x)()`` returning a bool), ``self.transfer``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, TYPE_CHECKING

from repro.chain import gas
from repro.chain.address import Address, address_hex
from repro.chain.errors import Revert

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chain.evm import Env

EXTERNAL = "external"
PUBLIC = "public"
INTERNAL = "internal"
PRIVATE = "private"

# Visibilities reachable via transactions / message calls.
DISPATCHABLE = frozenset({EXTERNAL, PUBLIC})


def _visibility_decorator(visibility: str) -> Callable[[Callable], Callable]:
    def decorator(func: Callable) -> Callable:
        func._visibility = visibility  # type: ignore[attr-defined]
        func._is_contract_method = True  # type: ignore[attr-defined]
        return func

    return decorator


external = _visibility_decorator(EXTERNAL)
public = _visibility_decorator(PUBLIC)
internal = _visibility_decorator(INTERNAL)
private = _visibility_decorator(PRIVATE)


def payable(func: Callable) -> Callable:
    """Mark a method as able to receive value with the call."""
    func._payable = True  # type: ignore[attr-defined]
    return func


def method_visibility(func: Callable) -> str:
    """The declared visibility of a contract method (default: public)."""
    return getattr(func, "_visibility", PUBLIC)


def is_payable(func: Callable) -> bool:
    return getattr(func, "_payable", False)


class StorageView:
    """Gas-metered dictionary-like view over one contract's storage.

    Reads charge ``SLOAD``; writes charge ``SSTORE_SET`` or ``SSTORE_UPDATE``
    depending on whether the slot was previously occupied, and clearing a slot
    records a refund, mirroring the EVM storage cost model that dominates the
    paper's cost tables.
    """

    def __init__(self, contract: "Contract"):
        self._contract = contract

    # Internal helpers -------------------------------------------------------

    @property
    def _env(self) -> "Env":
        return self._contract.env

    @property
    def _address(self) -> Address:
        return self._contract.this

    # Dictionary-style interface ---------------------------------------------

    def get(self, slot: Any, default: Any = 0) -> Any:
        # Hot path: resolve the env chain once; tracer bookkeeping costs one
        # attribute read when no tracer is attached.
        env = self._contract.env
        env.meter.charge(gas.SLOAD)
        address = self._contract.this
        tracer = env.evm.tracer
        if tracer is not None:
            tracer.record_storage_read(address, slot)
        return env.evm.state.storage_get(address, slot, default)

    def __getitem__(self, slot: Any) -> Any:
        return self.get(slot)

    def peek(self, slot: Any, default: Any = 0) -> Any:
        """Read without charging gas (off-chain inspection only).

        Works both inside an execution frame and from plain Python code after
        deployment (the way a block explorer would read storage).
        """
        contract = self._contract
        if contract._env_stack:
            state = contract.env.evm.state
        elif contract._bound_evm is not None:
            state = contract._bound_evm.state
        else:
            raise RuntimeError("contract has not been deployed")
        return state.storage_get(contract.this, slot, default)

    def set(self, slot: Any, value: Any) -> None:
        env = self._contract.env
        address = self._contract.this
        state = env.evm.state
        existed = state.storage_contains(address, slot)
        # Pre-Istanbul (Solidity v0.4.24 era) storage pricing: any write to an
        # occupied slot costs SSTORE_UPDATE, even when the value is unchanged.
        if existed:
            env.meter.charge(gas.SSTORE_UPDATE)
        else:
            env.meter.charge(gas.SSTORE_SET)
        tracer = env.evm.tracer
        if tracer is not None:
            tracer.record_storage_write(address, slot, value)
        state.storage_set(address, slot, value)

    def __setitem__(self, slot: Any, value: Any) -> None:
        self.set(slot, value)

    def __contains__(self, slot: Any) -> bool:
        env = self._contract.env
        env.meter.charge(gas.SLOAD)
        address = self._contract.this
        tracer = env.evm.tracer
        if tracer is not None:
            tracer.record_storage_read(address, slot)
        return env.evm.state.storage_contains(address, slot)

    def delete(self, slot: Any) -> None:
        env = self._contract.env
        address = self._contract.this
        state = env.evm.state
        if state.storage_contains(address, slot):
            env.meter.charge(gas.SSTORE_UPDATE)
            env.meter.add_refund(gas.SSTORE_CLEAR_REFUND)
            tracer = env.evm.tracer
            if tracer is not None:
                tracer.record_storage_write(address, slot, None)
            state.storage_delete(address, slot)

    def increment(self, slot: Any, delta: int = 1) -> int:
        """Read-modify-write helper; returns the new value."""
        value = self.get(slot, 0) + delta
        self.set(slot, value)
        return value

    def allocate(self, slots: int, category: str | None = None) -> None:
        """Pre-allocate ``slots`` zero-initialised storage slots.

        Used by the one-time-token bitmap at deployment time; charged with the
        calibrated per-slot allocation cost from the gas schedule (Tab. IV).
        """
        self._env.meter.charge(
            slots * gas.CALIBRATED_BITMAP_SLOT_ALLOCATION, category=category
        )

    def keys(self) -> Iterator[Any]:
        return iter(self._env.evm.state.storage_of(self._address).keys())

    def slot_count(self) -> int:
        return self._env.evm.state.storage_slot_count(self._address)


class Contract:
    """Base class for all contracts deployed on the simulated chain."""

    def __init__(self) -> None:
        # The execution engine sets the address and engine at deployment
        # and pushes / pops one environment per frame it runs.
        self._address: Address | None = None
        self._bound_evm: Any = None
        self._env_stack: list["Env"] = []
        self._storage_view = StorageView(self)

    # -- Solidity-style globals -------------------------------------------------

    @property
    def env(self) -> "Env":
        if not self._env_stack:
            raise RuntimeError(
                "contract is not executing; storage and msg are only available "
                "inside a transaction or message call"
            )
        return self._env_stack[-1]

    @property
    def this(self) -> Address:
        if self._address is None:
            raise RuntimeError("contract has not been deployed")
        return self._address

    @property
    def address_hex(self) -> str:
        return address_hex(self.this)

    @property
    def msg(self) -> "Any":
        return self.env.msg

    @property
    def tx_origin(self) -> Address:
        return self.env.ctx.origin

    @property
    def block(self) -> "Any":
        return self.env.ctx.block

    @property
    def storage(self) -> StorageView:
        return self._storage_view

    @property
    def balance(self) -> int:
        return self.env.evm.state.balance_of(self.this)

    # -- Solidity-style helpers ---------------------------------------------------

    def require(self, condition: bool, message: str = "requirement failed") -> None:
        """Solidity ``require``: revert the current frame when false."""
        if not condition:
            raise Revert(message)

    def revert(self, message: str = "reverted") -> None:
        raise Revert(message)

    def charge_gas(self, amount: int, category: str | None = None) -> None:
        """Charge additional computation gas (explicit metering hook)."""
        self.env.meter.charge(amount, category=category)

    def emit(self, event_name: str, **fields: Any) -> None:
        """Emit an event log entry (charged like a single-topic LOG)."""
        data_size = sum(len(str(v)) for v in fields.values())
        self.env.meter.charge(
            gas.LOG_BASE + gas.LOG_PER_TOPIC + gas.LOG_PER_BYTE * data_size
        )
        self.env.evm.emit_log(self.this, event_name, fields)

    def keccak(self, data: bytes) -> bytes:
        """keccak256 with the corresponding gas charge."""
        self.env.meter.charge(gas.keccak_cost(len(data)))
        from repro.crypto.keccak import keccak256

        return keccak256(data)

    # -- external interaction ---------------------------------------------------------

    def call_contract(
        self,
        target: "Address | Contract",
        method: str,
        *args: Any,
        value: int = 0,
        **kwargs: Any,
    ) -> Any:
        """Perform an external message call to another contract.

        Reverts bubble up (like a Solidity high-level call).
        """
        address = target.this if isinstance(target, Contract) else target
        return self.env.evm.message_call(
            parent_env=self.env,
            sender=self.this,
            target=address,
            method=method,
            args=args,
            kwargs=kwargs,
            value=value,
        )

    def call_value(self, target: Address, amount: int, method: str | None = None) -> bool:
        """Low-level ``target.call.value(amount)(...)``.

        Transfers ``amount`` wei and invokes ``method`` (or the target's
        fallback function when ``method`` is None).  Returns ``False`` instead
        of raising when the inner frame reverts -- precisely the behaviour the
        vulnerable ``Bank`` contract relies on.
        """
        return self.env.evm.low_level_call(
            parent_env=self.env,
            sender=self.this,
            target=target,
            method=method,
            value=amount,
        )

    def transfer(self, target: Address, amount: int) -> None:
        """Solidity ``transfer``: value move that reverts on failure."""
        ok = self.call_value(target, amount)
        self.require(ok, "transfer failed")

    # -- default fallback ---------------------------------------------------------------

    def fallback(self) -> None:
        """Called when the contract receives a plain value transfer.

        The default accepts the funds and does nothing, like an empty payable
        fallback function.  Override to customise (e.g. the Attacker contract).
        """
