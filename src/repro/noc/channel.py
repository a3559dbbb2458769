"""Latency-modelling channels.

A channel is a simple delay line: payloads sent at cycle ``t`` become
available at the receiver at cycle ``t + latency``.  The same class is used
for flit channels (router-to-router, endpoint-to-router, router-to-
endpoint) and for the credit channels running in the opposite direction of
every flit channel.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.utils.validation import check_non_negative


class Channel:
    """A fixed-latency, in-order delay line.

    Parameters
    ----------
    latency:
        Delay in cycles between sending and receiving a payload.  A latency
        of zero is rounded up to one cycle so that no payload can traverse
        a channel and be processed by the receiver within the same cycle.
    name:
        Optional human-readable identifier (used in error messages and
        debugging output).
    """

    __slots__ = ("_latency", "_queue", "name")

    def __init__(self, latency: int, name: str = "") -> None:
        check_non_negative("latency", latency)
        self._latency = max(1, int(latency))
        self._queue: deque[tuple[int, Any]] = deque()
        self.name = name

    @property
    def latency(self) -> int:
        """Effective channel latency in cycles (at least one)."""
        return self._latency

    @property
    def in_flight(self) -> int:
        """Number of payloads currently traversing the channel."""
        return len(self._queue)

    def send(self, payload: Any, now: int) -> None:
        """Enqueue ``payload``; it becomes receivable at ``now + latency``."""
        self._queue.append((now + self._latency, payload))

    def receive(self, now: int) -> list[Any]:
        """Pop every payload whose delivery time has been reached."""
        delivered: list[Any] = []
        queue = self._queue
        while queue and queue[0][0] <= now:
            delivered.append(queue.popleft()[1])
        return delivered

    def pending(self) -> tuple[tuple[int, Any], ...]:
        """Snapshot of the in-flight ``(arrival_cycle, payload)`` pairs."""
        return tuple(self._queue)

    def payloads(self) -> tuple[Any, ...]:
        """Snapshot of the in-flight payloads (oldest first)."""
        return tuple(payload for _, payload in self._queue)

    def clear(self) -> None:
        """Drop every in-flight payload (used by :meth:`Network.reset`)."""
        self._queue.clear()

    def load(self, items) -> None:
        """Append pre-timed ``(arrival_cycle, payload)`` pairs to the queue.

        The seam of the batched vectorized engine: during a batched run the
        engine dispatches deliveries from its own event buckets instead of
        the channel queues, and hands any still-undelivered payloads back
        through this method when the point finishes — so post-run
        introspection (`pending`, `payloads`, flit conservation) reports
        exactly what an object-stepped run would.  ``items`` must already
        be in FIFO arrival order.
        """
        self._queue.extend(items)

    def peek_next_arrival(self) -> int | None:
        """Delivery cycle of the oldest in-flight payload (``None`` if empty)."""
        if not self._queue:
            return None
        return self._queue[0][0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.name or 'unnamed'}, latency={self._latency}, "
            f"in_flight={len(self._queue)})"
        )
