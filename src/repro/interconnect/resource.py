"""Busy-until resource: the contention primitive.

Models a pipelined but serially occupied device (bus, network interface,
protocol controller).  ``acquire(now, occupancy)`` returns the queueing
delay the requester experiences and advances the device's free time.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError


class BusyResource:
    """A device that serves one transaction at a time.

    The model deliberately tolerates slightly out-of-order arrival times
    (the engine advances per-processor clocks independently): an arrival
    earlier than a previously recorded one simply queues behind it, which
    is a conservative approximation.
    """

    __slots__ = ("name", "free_at", "busy_cycles", "transactions")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.free_at = 0
        self.busy_cycles = 0
        self.transactions = 0

    def acquire(self, now: int, occupancy: int) -> int:
        """Occupy the resource at ``now`` for ``occupancy`` cycles.

        Returns the queueing delay (0 when the resource was idle).
        """
        if occupancy < 0:
            raise ConfigurationError("occupancy must be non-negative")
        start = now if now > self.free_at else self.free_at
        wait = start - now
        self.free_at = start + occupancy
        self.busy_cycles += occupancy
        self.transactions += 1
        return wait

    def peek_wait(self, now: int) -> int:
        """Queueing delay a transaction arriving at ``now`` would see."""
        return self.free_at - now if self.free_at > now else 0
