"""A deterministic discrete-event network simulator.

Raft nodes exchange messages through this network.  Delivery delays are drawn
from a seeded RNG so every test run is reproducible; links can be partitioned
or made lossy to exercise the failure cases the availability discussion cares
about (leader crash, minority partition, message loss).

Time is virtual: the simulation advances by processing the earliest scheduled
event, and node timers are just scheduled events.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(slots=True)
class _Event:
    action: Callable[[], None]
    cancelled: bool = False


class Timer:
    """Handle to a scheduled callback, allowing cancellation."""

    def __init__(self, event: _Event):
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def active(self) -> bool:
        return not self._event.cancelled


class SimulatedNetwork:
    """Discrete-event scheduler plus message fabric for a node cluster."""

    def __init__(
        self,
        seed: int = 0,
        min_delay: float = 0.001,
        max_delay: float = 0.010,
        drop_rate: float = 0.0,
    ):
        self.random = random.Random(seed)
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.drop_rate = drop_rate
        self.now = 0.0
        # Heap of (time, sequence, event): the sequence is unique, so two
        # entries are ordered by C tuple comparison of a float and an int and
        # the event itself is never compared.
        self._queue: list[tuple[float, int, _Event]] = []
        self._sequence = itertools.count()
        self._handlers: dict[str, Callable[[str, Any], None]] = {}
        self._down: set[str] = set()
        self._partitions: list[set[str]] = []
        self.delivered_messages = 0
        self.dropped_messages = 0

    # -- node management ---------------------------------------------------------

    def register(self, node_id: str, handler: Callable[[str, Any], None]) -> None:
        """Register a node's message handler (called as ``handler(sender, msg)``)."""
        self._handlers[node_id] = handler

    def node_ids(self) -> list[str]:
        return sorted(self._handlers)

    def take_down(self, node_id: str) -> None:
        """Crash a node: it neither receives nor sends until brought back."""
        self._down.add(node_id)

    def bring_up(self, node_id: str) -> None:
        self._down.discard(node_id)

    def is_down(self, node_id: str) -> bool:
        return node_id in self._down

    def partition(self, *groups: "set[str] | list[str]") -> None:
        """Split the cluster into isolated groups (nodes not listed are isolated)."""
        self._partitions = [set(group) for group in groups]

    def heal_partition(self) -> None:
        self._partitions = []

    def _connected(self, src: str, dst: str) -> bool:
        if src in self._down or dst in self._down:
            return False
        if not self._partitions:
            return True
        for group in self._partitions:
            if src in group and dst in group:
                return True
        return False

    # -- scheduling -----------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> Timer:
        """Run ``action`` after ``delay`` simulated seconds."""
        event = _Event(action)
        heapq.heappush(self._queue, (self.now + max(delay, 0.0), next(self._sequence), event))
        return Timer(event)

    def send(self, src: str, dst: str, message: Any) -> None:
        """Send a message; it is silently dropped across partitions/failures."""
        if self.drop_rate and self.random.random() < self.drop_rate:
            self.dropped_messages += 1
            return
        delay = self.random.uniform(self.min_delay, self.max_delay)

        def deliver() -> None:
            if not self._connected(src, dst):
                self.dropped_messages += 1
                return
            handler = self._handlers.get(dst)
            if handler is None:
                self.dropped_messages += 1
                return
            self.delivered_messages += 1
            handler(src, message)

        self.schedule(delay, deliver)

    def broadcast(self, src: str, message: Any) -> None:
        for node_id in self._handlers:
            if node_id != src:
                self.send(src, node_id, message)

    # -- simulation loop ----------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        while self._queue:
            time, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = time
            event.action()
            return True
        return False

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        deadline = self.now + duration
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        self.now = max(self.now, deadline)

    def run_until(
        self, condition: Callable[[], bool], timeout: float = 30.0, step_limit: int = 500_000
    ) -> bool:
        """Run until ``condition()`` holds; returns False on timeout."""
        deadline = self.now + timeout
        steps = 0
        while not condition():
            if not self._queue or self.now > deadline or steps >= step_limit:
                return condition()
            self.step()
            steps += 1
        return True
