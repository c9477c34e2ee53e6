"""Event logs emitted by contracts (Solidity ``emit``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chain.address import Address


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One emitted event."""

    address: Address
    name: str
    fields: dict[str, Any] = field(default_factory=dict)

    def matches(self, name: str, **expected: Any) -> bool:
        """True when the event has the given name and field values."""
        if self.name != name:
            return False
        return all(self.fields.get(key) == value for key, value in expected.items())
