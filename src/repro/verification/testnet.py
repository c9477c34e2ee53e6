"""The local testnet harness used by runtime-verification rules.

The Token Service never touches the production chain when validating a token
request: it simulates the candidate call "in an isolated off-chain
environment" (§IV-E(b)).  :class:`LocalTestnet` provides exactly that -- a
private chain (either freshly provisioned with twin contracts, or forked from
the live chain so the simulation sees the current on-chain state), plus a
``simulate`` primitive that executes a call with full tracing and *no*
persistent effects, much like an instrumented ``eth_call`` on a geth dev node
with minimised latency (§VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chain import gas
from repro.chain.abi import encode_call, method_selector
from repro.chain.address import Address
from repro.chain.chain import Blockchain
from repro.chain.errors import ChainError, ExecutionError
from repro.chain.evm import BlockContext, CallTracer, TransactionContext
from repro.chain.events import LogEntry


@dataclass
class SimulationResult:
    """The observable outcome of one simulated call."""

    success: bool
    return_value: Any = None
    error: str | None = None
    gas_used: int = 0
    logs: list[LogEntry] = field(default_factory=list)
    trace: CallTracer | None = None

    def observable_outcome(self) -> tuple[bool, Any, tuple[tuple[str, tuple], ...]]:
        """A comparable summary (used by Hydra head-uniformity checks)."""
        log_view = tuple(
            (log.name, tuple(sorted(log.fields.items(), key=lambda kv: kv[0])))
            for log in self.logs
        )
        return (self.success, self.return_value, log_view)


class LocalTestnet:
    """An isolated chain for off-chain simulation of candidate calls."""

    def __init__(self, chain: Blockchain | None = None, fork_of: Blockchain | None = None):
        if chain is not None and fork_of is not None:
            raise ValueError("pass either a dedicated chain or a chain to fork, not both")
        if fork_of is not None:
            self.chain = fork_of.fork()
            self._forked_from = fork_of
        else:
            self.chain = chain if chain is not None else Blockchain()
            self._forked_from = None

    # -- provisioning -----------------------------------------------------------------

    def refresh_fork(self) -> None:
        """Re-fork from the live chain so the simulation sees fresh state."""
        if self._forked_from is None:
            raise RuntimeError("this testnet was not created as a fork")
        self.chain = self._forked_from.fork()

    def deploy_twin(self, deployer_label: str, contract_class: type, *args: Any,
                    **kwargs: Any) -> Any:
        """Deploy a twin contract on the private testnet and return it."""
        deployer = self.chain.create_account(deployer_label)
        receipt = deployer.deploy(contract_class, *args, **kwargs)
        if not receipt.success:
            raise ChainError(f"twin deployment failed: {receipt.error}")
        return receipt.return_value

    def fund(self, address: Address, amount: int) -> None:
        """Testnet faucet: credit an account balance directly."""
        self.chain.state.add_balance(address, amount)

    # -- simulation -----------------------------------------------------------------------

    def simulate(
        self,
        sender: Address,
        contract: "Address | Any",
        method: str,
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
        value: int = 0,
        gas_limit: int = 10_000_000,
    ) -> SimulationResult:
        """Execute a call with tracing and roll every state change back.

        The sender does not need to hold a key: the testnet impersonates it,
        the way an unlocked dev-node account or ``eth_call`` would.

        The surrounding snapshot/revert pair rides the world state's undo
        journal, so a simulation costs O(state it wrote) to roll back --
        the per-candidate-call latency the paper's runtime verification
        budget (§VI-B) cares about.  Only :meth:`refresh_fork` (a
        block-level ``deep_copy``) still pays O(total state).
        """
        kwargs = dict(kwargs or {})
        evm = self.chain.evm
        state = evm.state
        snapshot = state.snapshot()
        tracer = CallTracer()
        previous_tracer = evm.tracer
        previous_simulation_mode = evm.smacs_simulation_mode
        evm.tracer = tracer
        evm.smacs_simulation_mode = True
        evm._pending_logs = []
        meter = gas.GasMeter(gas_limit=gas_limit)
        block = BlockContext(number=self.chain.height + 1, timestamp=self.chain.timestamp)
        ctx = TransactionContext(origin=sender, gas_price=1, block=block, meter=meter)
        target = getattr(contract, "this", contract)
        result = SimulationResult(success=True, trace=tracer)
        try:
            if value:
                state.add_balance(sender, value)  # faucet the simulated value
            calldata = encode_call(method, args, kwargs)
            meter.charge(gas.TX_BASE)
            meter.charge(gas.calldata_cost(calldata))
            result.return_value = evm._run_frame(
                ctx, sender, target, method, args, kwargs, value, calldata, 0
            )
        except (ExecutionError, ValueError) as exc:
            result.success = False
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            result.gas_used = meter.gas_used
            result.logs = list(evm._pending_logs)
            evm._pending_logs = []
            evm.tracer = previous_tracer
            evm.smacs_simulation_mode = previous_simulation_mode
            state.revert_to(snapshot)
        return result

    # -- convenience -----------------------------------------------------------------------

    def selector_of(self, method: str) -> bytes:
        return method_selector(method)
