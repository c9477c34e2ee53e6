"""An ECFChecker-style detector of non-effectively-callback-free executions.

Grossman et al.'s ECFChecker flags executions of an object (contract) that
are *not* effectively callback-free: the callbacks interleave with the
object's own state accesses in a way that cannot be reordered into a
callback-free execution.  The re-entrancy pattern behind TheDAO (and the
``Bank`` contract of Fig. 7) is the canonical instance.

This reproduction analyses the dynamic call/storage trace produced by the
simulator:

* an execution is suspicious when some contract ``C`` is re-entered -- i.e. a
  frame targeting ``C`` appears below another active frame targeting ``C``;
* the re-entrancy is a violation when the inner frame's storage accesses on
  ``C`` conflict with the outer frame's (a write in one intersecting a read
  or write in the other), which is exactly what makes the execution
  non-serialisable into a callback-free one.

:class:`ECFTokenRule` packages the checker as a Token Service rule (§V-B):
before issuing a token for a protected contract, the rule simulates the
requested call on a fork of the live chain
(:meth:`~repro.chain.chain.Blockchain.simulate`) and reads the call tree off
the receipt.  Because re-entrancy is only reachable when the *immediate
caller* is a contract with a malicious fallback,
the rule simulates the call not only from the requesting client address but
also from every contract that client has deployed (public chain data), and
denies the token when any simulation exhibits a violation.  This instantiation
detail is documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.chain.address import Address, address_hex
from repro.chain.chain import Blockchain
from repro.chain.evm import CallTracer, Receipt
from repro.core.acr import AccessDecision
from repro.core.token_request import TokenRequest


@dataclass(frozen=True)
class ECFViolation:
    """One detected non-ECF interleaving."""

    contract: Address
    outer_frame: int
    inner_frame: int
    conflicting_slots: tuple[Any, ...]

    def describe(self) -> str:
        return (
            f"re-entrancy into {address_hex(self.contract)} "
            f"(frame {self.inner_frame} inside frame {self.outer_frame}) touching "
            f"{len(self.conflicting_slots)} conflicting storage slot(s)"
        )


@dataclass
class ECFReport:
    """The checker's verdict for one simulated execution."""

    is_ecf: bool
    violations: list[ECFViolation] = field(default_factory=list)
    receipt: Receipt | None = None


class ECFChecker:
    """Analyse execution traces for effectively-callback-free violations."""

    def analyse_trace(self, trace: CallTracer) -> list[ECFViolation]:
        violations: list[ECFViolation] = []
        for outer_index, inner_index in trace.reentrant_frames():
            contract = trace.calls[inner_index].target
            outer_reads, outer_writes = self._slots_touched(trace, outer_index, contract)
            inner_reads, inner_writes = self._slots_touched(trace, inner_index, contract)
            conflicts = (
                (inner_writes & (outer_reads | outer_writes))
                | (inner_reads & outer_writes)
            )
            if conflicts:
                violations.append(
                    ECFViolation(
                        contract=contract,
                        outer_frame=outer_index,
                        inner_frame=inner_index,
                        conflicting_slots=tuple(sorted(conflicts, key=repr)),
                    )
                )
        return violations

    def check_simulation(self, receipt: Receipt) -> ECFReport:
        """Judge a simulated call by the trace on its receipt."""
        if receipt.trace is None:
            return ECFReport(is_ecf=True, receipt=receipt)
        violations = self.analyse_trace(receipt.trace)
        return ECFReport(is_ecf=not violations, violations=violations, receipt=receipt)

    @staticmethod
    def _slots_touched(
        trace: CallTracer, frame_index: int, contract: Address
    ) -> tuple[set, set]:
        reads: set = set()
        writes: set = set()
        for access in trace.accesses_of_frame(frame_index):
            if access.address != contract:
                continue
            if access.is_write:
                writes.add(access.slot)
            else:
                reads.add(access.slot)
        return reads, writes


class ECFTokenRule:
    """The Token Service rule of §V-B, backed by :class:`ECFChecker`.

    ``target_contract`` limits the rule to requests for the protected
    contract; requests for other contracts are allowed through unchanged.
    """

    def __init__(
        self,
        chain: Blockchain,
        target_contract: "Address | Any",
        checker: ECFChecker | None = None,
        extra_senders: Iterable[Address] = (),
    ):
        self.chain = chain
        self.target = getattr(target_contract, "this", target_contract)
        self.checker = checker or ECFChecker()
        self.extra_senders = list(extra_senders)
        self.checks_performed = 0
        self.last_report: ECFReport | None = None

    # -- Token Service rule protocol ------------------------------------------------

    def check(self, request: TokenRequest) -> AccessDecision:
        if request.contract != self.target:
            return AccessDecision.allow("ECF rule does not apply to this contract")
        if request.method is None:
            # Super tokens grant every method; be conservative and simulate the
            # most dangerous known entry points is impossible generically, so
            # require a scoped token for ECF-protected contracts.
            return AccessDecision.deny(
                "ECF-protected contracts only accept method/argument tokens"
            )

        fork = self.chain.fork()
        for sender in self._candidate_senders(request):
            receipt = fork.simulate(sender, self.target, request.method, kwargs=request.arguments)
            report = self.checker.check_simulation(receipt)
            self.checks_performed += 1
            self.last_report = report
            if not report.is_ecf:
                return AccessDecision.deny(
                    "ECFChecker: " + "; ".join(v.describe() for v in report.violations)
                )
        return AccessDecision.allow("ECFChecker observed a callback-free execution")

    def _candidate_senders(self, request: TokenRequest) -> list[Address]:
        """The client itself plus every contract it is known to have deployed."""
        senders = [request.client]
        senders.extend(
            contract
            for contract, creator in self.chain.evm.contract_creators.items()
            if creator == request.client
        )
        senders.extend(self.extra_senders)
        # Deduplicate, preserving order.
        seen: set[Address] = set()
        unique: list[Address] = []
        for sender in senders:
            if sender not in seen:
                seen.add(sender)
                unique.append(sender)
        return unique
