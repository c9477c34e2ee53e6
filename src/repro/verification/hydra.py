"""Hydra-style N-of-N-version uniformity as a SMACS rule (§V-A).

The Hydra framework runs N independently written *heads* of the same
contract logic and aborts when their outputs diverge.  On-chain, that costs a
factor of roughly N in gas; integrated into SMACS the heads run on the Token
Service's own private chain instead, so divergent payloads simply never get a
token and the chain never pays for the redundancy.

:class:`HydraCoordinator` deploys the heads on a private
:class:`~repro.chain.chain.Blockchain`, simulates a candidate call against
every head (:meth:`~repro.chain.chain.Blockchain.simulate`) and compares the
observable outcomes of the receipts (success flag, return value, emitted
events).  :class:`HydraUniformityRule` adapts the coordinator to the Token
Service rule protocol: an argument-token request is granted only when all
heads agree on the call described by the request -- a call that fails the
same way on every head (a non-positive amount, arguments ``add`` does not
take) is uniform, and the chain refuses it later.

The module also ships three example heads of a small accumulator contract
(one of which can be deployed in a "buggy" 16-bit variant) so tests, examples
and benchmarks have a concrete head set to work with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.chain.address import Address
from repro.chain.chain import Blockchain
from repro.chain.contract import Contract, external, public
from repro.chain.errors import ChainError
from repro.chain.evm import Receipt
from repro.core.acr import AccessDecision
from repro.core.token import TokenType
from repro.core.token_request import TokenRequest


# --- Example heads: the same intended logic, written three times --------------


class AccumulatorHeadA(Contract):
    """Head A: straightforward accumulator with an owner-settable limit."""

    def constructor(self, limit: int = 2**256 - 1) -> None:
        self.storage["limit"] = limit
        self.storage["total"] = 0

    @external
    def add(self, amount: int) -> int:
        self.require(amount > 0, "amount must be positive")
        total = self.storage.get("total", 0) + amount
        self.require(total <= self.storage.get("limit"), "limit exceeded")
        self.storage["total"] = total
        self.emit("Added", amount=amount, total=total)
        return total

    @public
    def total(self) -> int:
        return self.storage.get("total", 0)


class AccumulatorHeadB(Contract):
    """Head B: same logic, different implementation structure."""

    def constructor(self, limit: int = 2**256 - 1) -> None:
        self.storage["limit"] = limit
        self.storage["total"] = 0

    @external
    def add(self, amount: int) -> int:
        self.require(amount >= 1, "amount must be positive")
        previous = self.storage.get("total", 0)
        self.require(previous + amount <= self.storage.get("limit"), "limit exceeded")
        self.storage["total"] = previous + amount
        self.emit("Added", amount=amount, total=previous + amount)
        return previous + amount

    @public
    def total(self) -> int:
        return self.storage.get("total", 0)


class AccumulatorHeadC(Contract):
    """Head C: accumulates through a helper; optionally deployed "buggy".

    The buggy variant truncates the running total to 16 bits -- the kind of
    language/compiler-specific divergence Hydra is designed to catch.
    """

    def constructor(self, limit: int = 2**256 - 1, buggy: bool = False) -> None:
        self.storage["limit"] = limit
        self.storage["total"] = 0
        self.storage["buggy"] = bool(buggy)

    @external
    def add(self, amount: int) -> int:
        self.require(amount > 0, "amount must be positive")
        total = self._accumulate(amount)
        self.require(total <= self.storage.get("limit"), "limit exceeded")
        self.emit("Added", amount=amount, total=total)
        return total

    def _accumulate(self, amount: int) -> int:
        total = self.storage.get("total", 0) + amount
        if self.storage.get("buggy"):
            total &= 0xFFFF
        self.storage["total"] = total
        return total

    @public
    def total(self) -> int:
        return self.storage.get("total", 0)


DEFAULT_HEAD_CLASSES: tuple[type, ...] = (
    AccumulatorHeadA,
    AccumulatorHeadB,
    AccumulatorHeadC,
)


# --- The coordinator ------------------------------------------------------------


@dataclass
class HeadOutcome:
    """What one head did with the candidate call."""

    head: str
    receipt: Receipt

    def comparable(self) -> tuple:
        """Success, return value and emitted events: what Hydra compares."""
        logs = tuple(
            (log.name, tuple(sorted(log.fields.items(), key=lambda kv: kv[0])))
            for log in self.receipt.logs
        )
        return (self.receipt.success, self.receipt.return_value, logs)


@dataclass
class UniformityReport:
    """The coordinator's verdict for one candidate call."""

    uniform: bool
    outcomes: list[HeadOutcome] = field(default_factory=list)

    def divergent_heads(self) -> list[str]:
        if not self.outcomes:
            return []
        reference = self.outcomes[0].comparable()
        return [o.head for o in self.outcomes if o.comparable() != reference]


class HydraCoordinator:
    """Runs a candidate call on every head and checks output uniformity."""

    def __init__(
        self,
        head_classes: Sequence[type] = DEFAULT_HEAD_CLASSES,
        constructor_args: Sequence[dict[str, Any]] | None = None,
    ):
        if len(head_classes) < 2:
            raise ValueError("Hydra needs at least two heads")
        self.chain = Blockchain()
        self.heads: list[tuple[str, Contract]] = []
        args_per_head = list(constructor_args or [{}] * len(head_classes))
        if len(args_per_head) != len(head_classes):
            raise ValueError("constructor_args must match the number of heads")
        deployer = self.chain.create_account("hydra")
        for head_class, ctor_kwargs in zip(head_classes, args_per_head):
            receipt = deployer.deploy(head_class, **ctor_kwargs)
            if not receipt.success:
                raise ChainError(f"head deployment failed: {receipt.error}")
            self.heads.append((head_class.__name__, receipt.return_value))
        self.checks_performed = 0

    @property
    def head_count(self) -> int:
        return len(self.heads)

    def execute(
        self, sender: Address, method: str, arguments: dict[str, Any] | None = None
    ) -> UniformityReport:
        """Run the call on every head and compare the observable outcomes."""
        outcomes = [
            HeadOutcome(name, self.chain.simulate(sender, head, method, kwargs=arguments))
            for name, head in self.heads
        ]
        self.checks_performed += 1
        reference = outcomes[0].comparable()
        uniform = all(outcome.comparable() == reference for outcome in outcomes)
        return UniformityReport(uniform=uniform, outcomes=outcomes)


class HydraUniformityRule:
    """Token Service rule: issue a token only when all Hydra heads agree."""

    def __init__(self, coordinator: HydraCoordinator, protected_contract: "Address | Any" = None):
        self.coordinator = coordinator
        self.protected = (
            getattr(protected_contract, "this", protected_contract)
            if protected_contract is not None
            else None
        )
        self.last_report: UniformityReport | None = None

    def check(self, request: TokenRequest) -> AccessDecision:
        if self.protected is not None and request.contract != self.protected:
            return AccessDecision.allow("Hydra rule does not apply to this contract")
        if request.token_type is not TokenType.ARGUMENT or request.method is None:
            return AccessDecision.deny(
                "Hydra-protected methods require argument tokens so the heads "
                "can be executed with the exact payload"
            )
        report = self.coordinator.execute(
            sender=request.client,
            method=request.method,
            arguments=dict(request.arguments),
        )
        self.last_report = report
        if report.uniform:
            return AccessDecision.allow("all Hydra heads agree on the outcome")
        return AccessDecision.deny(
            f"Hydra heads diverged: {', '.join(report.divergent_heads())}"
        )
