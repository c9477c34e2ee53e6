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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.chain import abi, gas
from repro.chain.address import ZERO_ADDRESS, Address, contract_address
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
    MutableStorageValue,
    OutOfGas,
    Revert,
    UnknownContract,
    UnknownMethod,
    VisibilityError,
)
from repro.chain.events import LogEntry
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.crypto.sigcache import SignatureCache


@dataclass(slots=True)
class MessageContext:
    """Solidity ``msg`` for one call frame."""

    sender: Address
    value: int
    data: bytes
    sig: bytes


@dataclass
class BlockContext:
    """Solidity ``block`` for the block currently being executed."""

    number: int
    timestamp: int


@dataclass(frozen=True, slots=True)
class TransactionContext:
    """What every frame of one transaction shares (``tx`` and ``block``)."""

    origin: Address
    gas_price: int
    block: BlockContext
    meter: gas.GasMeter


#: ``msg.sig`` of a frame that names no method (fallback, constructor)
_NO_SELECTOR = b"\x00" * 4


@dataclass(slots=True)
class Env:
    """The full execution environment visible to a contract frame."""

    evm: "ExecutionEngine"
    msg: MessageContext
    ctx: TransactionContext
    meter: gas.GasMeter  # ``ctx.meter``, read on every charge
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
    #: the call tree of a simulation (:meth:`ExecutionEngine.simulate`)
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

    def __init__(self, state: WorldState | None = None):
        self.state = state if state is not None else WorldState()
        # The node's one memo for token digests and Alg. 1 verdicts (see
        # repro.crypto.sigcache): the mempool and block executor read it
        # here, and a Token Service handed it warms it as it issues.  Gas
        # metering is unaffected.
        self.signature_cache = SignatureCache()
        self.contracts: dict[Address, Contract] = {}
        # Who deployed each contract (public chain data, used e.g. by the
        # ECFChecker rule to find contracts controlled by a token requester).
        self.contract_creators: dict[Address, Address] = {}
        self.tracer: CallTracer | None = None
        # When True, SMACS-protected methods skip token verification.  Only
        # ``_rolled_back`` sets it, for a simulation or a static read: a
        # runtime-verification rule asks "what would happen if this call were
        # authorised?", so the simulated call must reach the method body.
        self.smacs_simulation_mode = False
        self._pending_logs: list[LogEntry] = []

    # -- registry ---------------------------------------------------------------

    def contract_at(self, address: Address) -> Contract:
        contract = self.contracts.get(address)
        if contract is None:
            raise UnknownContract(f"no contract deployed at 0x{address.hex()}")
        return contract

    def is_contract(self, address: Address) -> bool:
        return address in self.contracts

    def truncate_registry(self, count: int) -> None:
        """Forget every contract registered after the first ``count``."""
        for address in list(self.contracts)[count:]:
            del self.contracts[address]
            self.contract_creators.pop(address, None)

    def emit_log(self, address: Address, name: str, fields: dict[str, Any]) -> None:
        self._pending_logs.append(LogEntry(address=address, name=name, fields=fields))

    # -- transaction execution -----------------------------------------------------

    def execute_transaction(
        self,
        tx: Transaction,
        block: BlockContext,
        deploy_factory: Callable[[], Contract] | None = None,
    ) -> Receipt:
        """Execute a validated transaction and return its receipt.

        ``deploy_factory`` is provided by the chain for contract-creation
        transactions: it builds the (not yet registered) contract instance.
        The top-level frame's checkpoint undoes a failed call; the nonce is
        consumed after it, whatever the outcome.  A mutable storage value is
        a programming error and leaves, with the frame undone and the nonce
        untouched.
        """
        balance = self.state.balance_of(tx.sender)
        if balance < tx.value:
            raise InsufficientFunds(f"sender balance {balance} cannot cover value {tx.value}")
        receipt = self._receipt(tx, tx.hash(), block, deploy_factory)
        self.state.increment_nonce(tx.sender)
        return receipt

    def simulate(
        self,
        block: BlockContext,
        sender: Address,
        target: Address,
        method: str,
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
        value: int = 0,
    ) -> Receipt:
        """Run a call as a transaction the node rolls back, and return its receipt.

        The receipt is the one :meth:`execute_transaction` would write (gas,
        logs, error text), plus the call tree in ``receipt.trace``.  The
        sender is impersonated -- it needs no key and is credited the value
        it sends -- and SMACS token checks are off: a runtime-verification
        rule asks what the call would do once authorised (§IV-E(b)).  Every
        write is undone on the journal, so a simulation costs O(state it
        wrote), not O(state).
        """
        tx = Transaction(sender, target, self.state.nonce_of(sender), method,
                         tuple(args), dict(kwargs or {}), value)
        tracer = CallTracer()
        with self._rolled_back(tracer):
            if value:
                self.state.add_balance(sender, value)
            receipt = self._receipt(tx, b"", block)
        receipt.trace = tracer
        return receipt

    def _receipt(
        self,
        tx: Transaction,
        tx_hash: bytes,
        block: BlockContext,
        deploy_factory: Callable[[], Contract] | None = None,
    ) -> Receipt:
        """Run ``tx``'s call and map its outcome to a receipt.

        The one place an outcome becomes a receipt, for mined transactions
        and simulations alike: a revert, running out of gas (which bills the
        whole limit), an unknown contract or arguments that do not fit the
        method fail the receipt; only a mutable storage value leaves.
        """
        meter = gas.GasMeter(gas_limit=tx.gas_limit)
        ctx = TransactionContext(tx.sender, tx.gas_price, block, meter)
        self._pending_logs = []
        receipt = Receipt(tx_hash, success=True, gas_used=0, block_number=block.number)
        try:
            calldata = tx.calldata
            meter.charge(gas.TX_BASE)
            meter.charge(gas.calldata_cost(calldata))
            if tx.to is None:
                receipt.return_value = self._deploy(ctx, tx, deploy_factory, calldata)
                receipt.contract_address = receipt.return_value.this
            else:
                receipt.return_value = self._run_frame(
                    ctx, tx.sender, tx.to, tx.method, tx.args, tx.kwargs,
                    tx.value, calldata, 0,
                )
        except (ExecutionError, ValueError, TypeError) as exc:
            self._pending_logs = []
            if isinstance(exc, MutableStorageValue):
                raise
            receipt.success = False
            if isinstance(exc, Revert):
                receipt.error = f"revert: {exc}"
            elif isinstance(exc, OutOfGas):
                receipt.error = f"out of gas: {exc}"
                meter.gas_used = meter.gas_limit
            else:
                receipt.error = f"{type(exc).__name__}: {exc}"
        receipt.gas_used = meter.finalize()
        receipt.gas_breakdown = dict(meter.breakdown)
        receipt.logs = list(self._pending_logs)
        return receipt

    def _deploy(
        self,
        ctx: TransactionContext,
        tx: Transaction,
        deploy_factory: Callable[[], Contract] | None,
        calldata: bytes,
    ) -> Contract:
        """Create a contract; a failed constructor leaves none behind."""
        if deploy_factory is None:
            raise ExecutionError("deployment transaction without a contract factory")
        ctx.meter.charge(gas.TX_CREATE)

        contract = deploy_factory()
        # Derived from the nonce the sender holds once this transaction
        # has consumed it.
        address = contract_address(tx.sender, self.state.nonce_of(tx.sender) + 1)
        contract._address, contract._bound_evm = address, self
        registered = len(self.contracts)
        self.contracts[address] = contract
        self.contract_creators[address] = tx.sender

        def construct(*args: Any, **kwargs: Any) -> None:
            self.state.set_is_contract(address)
            constructor = getattr(contract, "constructor", None)
            if constructor is not None:
                constructor(*args, **kwargs)
            # Charge code-deposit proportional to the "code size" proxy: the
            # number of dispatchable methods on the contract class.
            code_size = 256 + 64 * len(self._dispatchable_methods(contract))
            self.state.set_code_size(address, code_size)
            ctx.meter.charge(code_size * gas.CODE_DEPOSIT_PER_BYTE)

        try:
            self._run_frame(
                ctx, tx.sender, address, None, tx.args, tx.kwargs, tx.value,
                calldata, 0, handler=construct,
            )
        except BaseException:
            self.truncate_registry(registered)
            raise
        return contract

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
        meter = parent_env.meter
        meter.charge(gas.CALL_BASE)
        if value:
            meter.charge(gas.CALL_VALUE_TRANSFER)
        calldata = abi.encode_call(method, args, kwargs)
        meter.charge(gas.calldata_cost(calldata) // 4)
        return self._run_frame(
            parent_env.ctx, sender, target, method, args, kwargs, value,
            calldata, parent_env.depth + 1,
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
        if not self.is_contract(target):
            method = None  # an account without code runs nothing
        try:
            self._run_frame(
                parent_env.ctx, sender, target, method, (), {}, value, b"",
                parent_env.depth + 1,
            )
        except (Revert, VisibilityError, UnknownMethod, ValueError):
            return False
        return True

    # -- the frame runner ------------------------------------------------------------

    def _dispatchable_methods(self, contract: Contract) -> list[str]:
        # Underscore-prefixed names are excluded from the code-size proxy
        # (matching the original scan), even when their visibility would
        # otherwise make them reachable.
        return [
            name
            for name, (visibility, _) in _dispatch_table(type(contract)).items()
            if visibility in DISPATCHABLE and not name.startswith("_")
        ]

    def _run_frame(
        self,
        ctx: TransactionContext,
        sender: Address,
        target: Address,
        method: str | None,
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        value: int,
        data: bytes,
        depth: int,
        handler: Callable[..., Any] | None = None,
    ) -> Any:
        """Run one call frame and return its result.

        Every frame runs here: top-level calls, message calls, low-level
        calls, constructors (as ``handler``) and static reads.  The frame's
        value transfer and writes sit under one journal checkpoint, committed
        on return and reverted on any exception.  A method-less call to an
        account without code is a plain transfer and opens no checkpoint.
        """
        if depth > gas.MAX_CALL_DEPTH:
            raise CallDepthExceeded(f"call depth {depth} exceeds limit")

        state = self.state
        contract = self.contracts.get(target)
        if contract is None:
            if method is not None:
                raise UnknownContract(f"no contract deployed at 0x{target.hex()}")
            if value:
                state.sub_balance(sender, value)
                state.add_balance(target, value)
            return None

        if handler is None:
            if method is None:
                handler = contract.fallback
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

        sig = _NO_SELECTOR if method is None else abi.method_selector(method)
        env = Env(self, MessageContext(sender, value, data, sig), ctx, ctx.meter, target, depth)
        tracer = self.tracer
        record = None
        if tracer is not None:
            record = tracer.record_call(sender, target, method, args, value)
            tracer.enter_frame()

        checkpoint = state.snapshot()
        envs = contract._env_stack
        envs.append(env)
        try:
            if value:
                state.sub_balance(sender, value)
                state.add_balance(target, value)
            result = handler(*args, **kwargs)
        except BaseException:
            state.revert_to(checkpoint)
            if record is not None:
                record.reverted = True
            raise
        finally:
            envs.pop()
            if tracer is not None:
                tracer.exit_frame()
        state.commit(checkpoint)
        return result

    # -- off the record ----------------------------------------------------------------

    @contextmanager
    def _rolled_back(self, tracer: CallTracer | None = None) -> Iterator[None]:
        """SMACS checks off and ``tracer`` attached for the body, whose every
        write is then undone: the one scope of simulations and static reads."""
        previous = self.smacs_simulation_mode, self.tracer
        self.smacs_simulation_mode, self.tracer = True, tracer
        checkpoint = self.state.snapshot()
        try:
            yield
        finally:
            self.smacs_simulation_mode, self.tracer = previous
            self.state.revert_to(checkpoint)

    def static_read(self, target: Address, method: str, *args: Any, **kwargs: Any) -> Any:
        """Execute a method without charging gas or persisting state changes.

        This is a node-local inspection helper (closer to reading storage via
        a block explorer than to a consensus-path call): it bypasses method
        visibility and SMACS token verification so owners, tests and examples
        can inspect view methods of protected contracts without minting
        tokens, and it raises what the method raises.
        """
        handler = getattr(self.contract_at(target), method, None)
        if handler is None:
            raise UnknownMethod(f"no method '{method}'")
        ctx = TransactionContext(
            ZERO_ADDRESS, 0, BlockContext(number=0, timestamp=0), gas.GasMeter(gas_limit=10**12)
        )
        with self._rolled_back():
            return self._run_frame(
                ctx, ZERO_ADDRESS, target, method, args, kwargs, 0,
                abi.encode_call(method, args, kwargs), 0, handler=handler,
            )
