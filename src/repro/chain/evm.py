"""The execution engine: transaction execution, message calls, gas, traces.

This is the simulator's stand-in for the Ethereum Virtual Machine.  It owns
the world state and the registry of deployed contract objects, builds the
per-frame execution environment (``msg`` / ``tx`` / ``block`` context
objects), enforces Solidity method visibility and payability, meters gas,
rolls back state on reverts, and records a call/storage trace that the
runtime-verification tools (Hydra heads, ECFChecker) consume.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chain import abi, gas
from repro.chain.address import Address, contract_address
from repro.chain.contract import (
    Contract,
    DISPATCHABLE,
    is_payable,
    method_visibility,
)
from repro.chain.errors import (
    CallDepthExceeded,
    ExecutionError,
    InsufficientFunds,
    OutOfGas,
    Revert,
    UnknownContract,
    UnknownMethod,
    VisibilityError,
)
from repro.chain.events import LogEntry
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.crypto.sigcache import DEFAULT_SIGNATURE_CACHE, SignatureCache


@dataclass(slots=True)
class MessageContext:
    """Solidity ``msg`` for one call frame."""

    sender: Address
    value: int
    data: bytes
    sig: bytes

    @property
    def data_size(self) -> int:
        return len(self.data)


@dataclass
class BlockContext:
    """Solidity ``block`` for the block currently being executed."""

    number: int
    timestamp: int


@dataclass(slots=True)
class Env:
    """The full execution environment visible to a contract frame."""

    evm: "ExecutionEngine"
    msg: MessageContext
    tx_origin: Address
    gas_price: int
    block: BlockContext
    meter: gas.GasMeter
    this_address: Address
    depth: int = 0


@dataclass(slots=True)
class Receipt:
    """The result of executing one transaction."""

    tx_hash: bytes
    success: bool
    gas_used: int
    block_number: int
    return_value: Any = None
    error: str | None = None
    logs: list[LogEntry] = field(default_factory=list)
    gas_breakdown: dict[str, int] = field(default_factory=dict)
    contract_address: Address | None = None
    #: the call tree, when the chain mined with ``trace_transactions``
    trace: "CallTracer | None" = field(default=None, repr=False, compare=False)

    def breakdown(self, category: str) -> int:
        """Gas attributed to a named category (``verify``, ``bitmap``, ...)."""
        return self.gas_breakdown.get(category, 0)

    @property
    def misc_gas(self) -> int:
        """Gas not attributed to any SMACS-specific category."""
        special = sum(
            amount for name, amount in self.gas_breakdown.items() if name != "misc"
        )
        return self.gas_used - special


# --- Call tracing -----------------------------------------------------------


@dataclass(slots=True)
class CallRecord:
    """One message call observed during execution."""

    index: int
    depth: int
    sender: Address
    target: Address
    method: str | None
    args: tuple[Any, ...]
    value: int
    parent: int | None = None
    reverted: bool = False


@dataclass(slots=True)
class StorageAccess:
    """A storage read or write observed during execution."""

    depth: int
    frame: int
    address: Address
    slot: Any
    is_write: bool
    value: Any = None


class CallTracer:
    """Records the dynamic call tree and storage accesses of a transaction.

    The ECFChecker reproduction analyses these traces to detect executions
    that are not effectively callback-free (re-entrancy), and the Hydra heads
    use them to compare observable behaviour across implementations.
    """

    def __init__(self) -> None:
        self.calls: list[CallRecord] = []
        self.storage_accesses: list[StorageAccess] = []
        self._depth = 0
        self._frame_stack: list[int] = []
        self._pending_frame: int | None = None

    def record_call(
        self,
        sender: Address,
        target: Address,
        method: str | None,
        args: tuple[Any, ...],
        value: int,
    ) -> CallRecord:
        record = CallRecord(
            index=len(self.calls),
            depth=self._depth,
            sender=sender,
            target=target,
            method=method,
            args=args,
            value=value,
            parent=self._frame_stack[-1] if self._frame_stack else None,
        )
        self.calls.append(record)
        self._pending_frame = record.index
        return record

    def enter_frame(self) -> None:
        self._depth += 1
        if self._pending_frame is not None:
            self._frame_stack.append(self._pending_frame)
            self._pending_frame = None

    def exit_frame(self) -> None:
        self._depth -= 1
        if self._frame_stack:
            self._frame_stack.pop()

    @property
    def current_frame(self) -> int | None:
        return self._frame_stack[-1] if self._frame_stack else None

    def record_storage_read(self, address: Address, slot: Any) -> None:
        self.storage_accesses.append(
            StorageAccess(self._depth, self.current_frame if self.current_frame is not None else -1,
                          address, slot, is_write=False)
        )

    def record_storage_write(self, address: Address, slot: Any, value: Any) -> None:
        self.storage_accesses.append(
            StorageAccess(self._depth, self.current_frame if self.current_frame is not None else -1,
                          address, slot, is_write=True, value=value)
        )

    # -- analysis helpers ---------------------------------------------------------

    def ancestors_of(self, frame_index: int) -> list[int]:
        """Frame indexes of the ancestors of ``frame_index`` (nearest first)."""
        chain: list[int] = []
        parent = self.calls[frame_index].parent
        while parent is not None:
            chain.append(parent)
            parent = self.calls[parent].parent
        return chain

    def accesses_of_frame(self, frame_index: int) -> list[StorageAccess]:
        """Storage accesses performed directly by one frame (not descendants)."""
        return [acc for acc in self.storage_accesses if acc.frame == frame_index]

    def reentrant_frames(self) -> list[tuple[int, int]]:
        """(ancestor_frame, inner_frame) pairs where the same contract re-enters."""
        pairs: list[tuple[int, int]] = []
        for record in self.calls:
            for ancestor in self.ancestors_of(record.index):
                if self.calls[ancestor].target == record.target:
                    pairs.append((ancestor, record.index))
        return pairs

    def reentrant_targets(self) -> set[Address]:
        """Addresses that appear more than once on an active call path."""
        return {self.calls[inner].target for _, inner in self.reentrant_frames()}


# --- Per-class method dispatch tables -----------------------------------------

#: ``contract class -> {method name: (visibility, payable)}`` for every
#: tagged contract method.  The scan (``dir()`` + ``getattr`` over the whole
#: class) runs once per class instead of once per deployment/call; keyed by
#: the *exact* class (weakly, so throwaway test classes can be collected), so
#: a subclass never inherits a stale table from its base.
_DISPATCH_TABLES: "weakref.WeakKeyDictionary[type, dict[str, tuple[str, bool]]]" = (
    weakref.WeakKeyDictionary()
)


def _dispatch_table(cls: type) -> dict[str, tuple[str, bool]]:
    table = _DISPATCH_TABLES.get(cls)
    if table is None:
        # Underscore-prefixed names are scanned too: a tagged ``@internal``
        # helper must still dispatch to VisibilityError, not UnknownMethod.
        table = {}
        for name in dir(cls):
            attr = getattr(cls, name, None)
            if callable(attr) and getattr(attr, "_is_contract_method", False):
                table[name] = (method_visibility(attr), is_payable(attr))
        _DISPATCH_TABLES[cls] = table
    return table


# --- The execution engine -----------------------------------------------------


class ExecutionEngine:
    """Executes transactions and message calls against the world state."""

    def __init__(
        self,
        state: WorldState | None = None,
        signature_cache: SignatureCache | None = None,
    ):
        self.state = state if state is not None else WorldState()
        # Node-level memo for ``ecrecover`` results, shared with the Token
        # Service issuance path by default (see repro.crypto.sigcache).  Gas
        # metering is unaffected; pass a private instance to isolate
        # cache-hit measurements.
        self.signature_cache = (
            signature_cache if signature_cache is not None else DEFAULT_SIGNATURE_CACHE
        )
        self.contracts: dict[Address, Contract] = {}
        # Who deployed each contract (public chain data, used e.g. by the
        # ECFChecker rule to find contracts controlled by a token requester).
        self.contract_creators: dict[Address, Address] = {}
        self.tracer: CallTracer | None = None
        # When True, SMACS-protected methods skip token verification.  Only the
        # Token Service's isolated simulation testnets set this: a runtime
        # verification rule asks "what would happen if this call were
        # authorised?", so the simulated call must reach the method body.
        self.smacs_simulation_mode = False
        self._pending_logs: list[LogEntry] = []

    # -- registry ---------------------------------------------------------------

    def register_contract(self, address: Address, contract: Contract) -> None:
        self.contracts[address] = contract
        contract._bound_evm = self
        self.state.set_is_contract(address)

    def contract_at(self, address: Address) -> Contract:
        contract = self.contracts.get(address)
        if contract is None:
            raise UnknownContract(f"no contract deployed at 0x{address.hex()}")
        return contract

    def is_contract(self, address: Address) -> bool:
        return address in self.contracts

    def emit_log(self, address: Address, name: str, fields: dict[str, Any]) -> None:
        self._pending_logs.append(LogEntry(address=address, name=name, fields=fields))

    # -- transaction execution -----------------------------------------------------

    def execute_transaction(
        self,
        tx: Transaction,
        block: BlockContext,
        deploy_factory: Callable[[], Contract] | None = None,
        tracer: CallTracer | None = None,
    ) -> Receipt:
        """Execute a validated transaction and return its receipt.

        ``deploy_factory`` is provided by the chain for contract-creation
        transactions: it builds the (not yet registered) contract instance.
        """
        meter = gas.GasMeter(gas_limit=tx.gas_limit)
        self._pending_logs = []
        self.tracer = tracer

        balance = self.state.balance_of(tx.sender)
        if balance < tx.value:
            raise InsufficientFunds(
                f"sender balance {balance} cannot cover value {tx.value}"
            )

        snapshot = self.state.snapshot()
        self.state.increment_nonce(tx.sender)

        receipt = Receipt(
            tx_hash=tx.hash(),
            success=True,
            gas_used=0,
            block_number=block.number,
        )

        try:
            calldata = tx.calldata
            meter.charge(gas.TX_BASE)
            meter.charge(gas.calldata_cost(calldata))

            if tx.to is None:
                contract, address = self._execute_deployment(
                    tx, block, meter, deploy_factory, calldata
                )
                receipt.contract_address = address
                receipt.return_value = contract
            else:
                receipt.return_value = self._execute_top_level_call(
                    tx, block, meter, calldata
                )
        except Revert as exc:
            self.state.revert_to(snapshot)
            self.state.increment_nonce(tx.sender)  # nonce consumed despite revert
            receipt.success = False
            receipt.error = f"revert: {exc}"
            self._pending_logs = []
        except OutOfGas as exc:
            self.state.revert_to(snapshot)
            self.state.increment_nonce(tx.sender)
            meter.gas_used = meter.gas_limit
            receipt.success = False
            receipt.error = f"out of gas: {exc}"
            self._pending_logs = []
        except (ExecutionError, ValueError) as exc:
            self.state.revert_to(snapshot)
            self.state.increment_nonce(tx.sender)
            receipt.success = False
            receipt.error = f"{type(exc).__name__}: {exc}"
            self._pending_logs = []
        except TypeError:
            # A programming error (e.g. a mutable storage value) is loud, not
            # a failed receipt; undo the transaction's writes and nonce first.
            self.state.revert_to(snapshot)
            self._pending_logs = []
            self.tracer = None
            raise
        else:
            self.state.commit(snapshot)

        receipt.gas_used = meter.finalize()
        receipt.gas_breakdown = dict(meter.breakdown)
        receipt.logs = list(self._pending_logs)
        self.tracer = None
        return receipt

    def _execute_deployment(
        self,
        tx: Transaction,
        block: BlockContext,
        meter: gas.GasMeter,
        deploy_factory: Callable[[], Contract] | None,
        calldata: bytes,
    ) -> tuple[Contract, Address]:
        if deploy_factory is None:
            raise ExecutionError("deployment transaction without a contract factory")
        meter.charge(gas.TX_CREATE)

        contract = deploy_factory()
        address = contract_address(tx.sender, self.state.nonce_of(tx.sender))
        contract._bind(address)
        self.register_contract(address, contract)
        self.contract_creators[address] = tx.sender

        if tx.value:
            self.state.sub_balance(tx.sender, tx.value)
            self.state.add_balance(address, tx.value)

        env = Env(
            evm=self,
            msg=MessageContext(sender=tx.sender, value=tx.value, data=calldata,
                               sig=b"\x00" * 4),
            tx_origin=tx.sender,
            gas_price=tx.gas_price,
            block=block,
            meter=meter,
            this_address=address,
            depth=0,
        )
        contract._push_env(env)
        try:
            constructor = getattr(contract, "constructor", None)
            if constructor is not None:
                constructor(*tx.args, **tx.kwargs)
            # Charge code-deposit proportional to the "code size" proxy: the
            # number of dispatchable methods on the contract class.
            code_size = 256 + 64 * len(self._dispatchable_methods(contract))
            self.state.set_code_size(address, code_size)
            meter.charge(code_size * gas.CODE_DEPOSIT_PER_BYTE)
        finally:
            contract._pop_env()
        return contract, address

    def _execute_top_level_call(
        self, tx: Transaction, block: BlockContext, meter: gas.GasMeter, calldata: bytes
    ) -> Any:
        if tx.value:
            self.state.sub_balance(tx.sender, tx.value)
            self.state.add_balance(tx.to, tx.value)

        if not tx.is_contract_call:
            # Plain value transfer; trigger the fallback of contract targets.
            if self.is_contract(tx.to):
                return self._invoke(
                    target=tx.to,
                    method=None,
                    args=(),
                    kwargs={},
                    sender=tx.sender,
                    origin=tx.sender,
                    value=tx.value,
                    data=b"",
                    gas_price=tx.gas_price,
                    block=block,
                    meter=meter,
                    depth=0,
                )
            return None

        return self._invoke(
            target=tx.to,
            method=tx.method,
            args=tx.args,
            kwargs=tx.kwargs,
            sender=tx.sender,
            origin=tx.sender,
            value=tx.value,
            data=calldata,
            gas_price=tx.gas_price,
            block=block,
            meter=meter,
            depth=0,
        )

    # -- message calls ---------------------------------------------------------------

    def message_call(
        self,
        parent_env: Env,
        sender: Address,
        target: Address,
        method: str,
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        value: int = 0,
    ) -> Any:
        """High-level external call from contract code (reverts propagate)."""
        parent_env.meter.charge(gas.CALL_BASE)
        if value:
            parent_env.meter.charge(gas.CALL_VALUE_TRANSFER)
            self.state.sub_balance(sender, value)
            self.state.add_balance(target, value)
        calldata = abi.encode_call(method, args, kwargs)
        parent_env.meter.charge(gas.calldata_cost(calldata) // 4)
        return self._invoke(
            target=target,
            method=method,
            args=args,
            kwargs=kwargs,
            sender=sender,
            origin=parent_env.tx_origin,
            value=value,
            data=calldata,
            gas_price=parent_env.gas_price,
            block=parent_env.block,
            meter=parent_env.meter,
            depth=parent_env.depth + 1,
        )

    def low_level_call(
        self,
        parent_env: Env,
        sender: Address,
        target: Address,
        method: str | None,
        value: int = 0,
    ) -> bool:
        """Low-level ``call.value()``: returns False on inner revert."""
        parent_env.meter.charge(gas.CALL_BASE)
        if value:
            parent_env.meter.charge(gas.CALL_VALUE_TRANSFER)
        snapshot = self.state.snapshot()
        try:
            if value:
                self.state.sub_balance(sender, value)
                self.state.add_balance(target, value)
            if self.is_contract(target):
                self._invoke(
                    target=target,
                    method=method,
                    args=(),
                    kwargs={},
                    sender=sender,
                    origin=parent_env.tx_origin,
                    value=value,
                    data=b"",
                    gas_price=parent_env.gas_price,
                    block=parent_env.block,
                    meter=parent_env.meter,
                    depth=parent_env.depth + 1,
                )
        except (Revert, VisibilityError, UnknownMethod, ValueError):
            self.state.revert_to(snapshot)
            return False
        self.state.commit(snapshot)
        return True

    # -- core dispatch ---------------------------------------------------------------

    def _dispatchable_methods(self, contract: Contract) -> list[str]:
        # Underscore-prefixed names are excluded from the code-size proxy
        # (matching the original scan), even when their visibility would
        # otherwise make them reachable.
        return [
            name
            for name, (visibility, _) in _dispatch_table(type(contract)).items()
            if visibility in DISPATCHABLE and not name.startswith("_")
        ]

    def _invoke(
        self,
        target: Address,
        method: str | None,
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        sender: Address,
        origin: Address,
        value: int,
        data: bytes,
        gas_price: int,
        block: BlockContext,
        meter: gas.GasMeter,
        depth: int,
    ) -> Any:
        if depth > gas.MAX_CALL_DEPTH:
            raise CallDepthExceeded(f"call depth {depth} exceeds limit")

        contract = self.contract_at(target)

        if method is None:
            handler = contract.fallback
            sig = b"\x00" * 4
        else:
            info = _dispatch_table(type(contract)).get(method)
            if info is None:
                raise UnknownMethod(
                    f"{type(contract).__name__} has no callable method '{method}'"
                )
            visibility, payable_flag = info
            if visibility not in DISPATCHABLE:
                raise VisibilityError(
                    f"method '{method}' is {visibility} and cannot be called "
                    "via a transaction or message call"
                )
            if value and not payable_flag:
                raise Revert(f"method '{method}' is not payable")
            handler = getattr(contract, method)
            sig = abi.method_selector(method)

        env = Env(
            evm=self,
            msg=MessageContext(sender=sender, value=value, data=data, sig=sig),
            tx_origin=origin,
            gas_price=gas_price,
            block=block,
            meter=meter,
            this_address=target,
            depth=depth,
        )

        record = None
        if self.tracer is not None:
            record = self.tracer.record_call(sender, target, method, args, value)
            self.tracer.enter_frame()

        snapshot = self.state.snapshot()
        contract._push_env(env)
        try:
            result = handler(*args, **kwargs)
        except Revert:
            self.state.revert_to(snapshot)
            if record is not None:
                record.reverted = True
            raise
        else:
            self.state.commit(snapshot)
            return result
        finally:
            contract._pop_env()
            if self.tracer is not None:
                self.tracer.exit_frame()

    # -- read-only convenience ----------------------------------------------------------

    def static_read(self, target: Address, method: str, *args: Any, **kwargs: Any) -> Any:
        """Execute a method without charging gas or persisting state changes.

        This is a node-local inspection helper (closer to reading storage via
        a block explorer than to a consensus-path call): it bypasses SMACS
        token verification so owners, tests and examples can inspect view
        methods of protected contracts without minting tokens.
        """
        contract = self.contract_at(target)
        handler = getattr(contract, method, None)
        if handler is None:
            raise UnknownMethod(f"no method '{method}'")
        meter = gas.GasMeter(gas_limit=10**12)
        previous_simulation_mode = self.smacs_simulation_mode
        self.smacs_simulation_mode = True
        env = Env(
            evm=self,
            msg=MessageContext(sender=b"\x00" * 20, value=0,
                               data=abi.encode_call(method, args, kwargs),
                               sig=abi.method_selector(method)),
            tx_origin=b"\x00" * 20,
            gas_price=0,
            block=BlockContext(number=0, timestamp=0),
            meter=meter,
            this_address=target,
            depth=0,
        )
        snapshot = self.state.snapshot()
        contract._push_env(env)
        try:
            return handler(*args, **kwargs)
        finally:
            contract._pop_env()
            self.smacs_simulation_mode = previous_simulation_mode
            self.state.revert_to(snapshot)
