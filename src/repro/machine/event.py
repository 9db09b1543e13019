"""Discrete-event simulation core for the timed machine model.

The paper's simulation is untimed; its future-work list asks for "a
more sophisticated simulation [that] will better explore the problems
of execution time and network contention" (§9).  The :mod:`repro.machine`
package is that simulation; this module supplies the event queue.

An event is data, not a callback: the heap holds tuples
``(time, seq, kind, a, b)`` and :meth:`EventQueue.run` hands each one
to ``handlers[kind](a, b)``.  Nothing is allocated per event beyond the
tuple itself.  ``seq`` is a global scheduling counter, so events at the
same time fire in scheduling order and runs are fully deterministic;
the tuple never compares past ``seq``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Sequence

__all__ = ["EventQueue"]

Handler = Callable[[Any, Any], None]


class EventQueue:
    """A deterministic time-ordered queue of tuple-coded events."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Any, Any]] = []
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0

    def schedule(self, time: float, kind: int, a: Any = None, b: Any = None) -> None:
        """Schedule event ``(kind, a, b)`` at absolute ``time`` (>= now)."""
        if time < self.now - 1e-12:
            raise ValueError(
                f"cannot schedule into the past (now={self.now}, time={time})"
            )
        heapq.heappush(self._heap, (time, self._seq, kind, a, b))
        self._seq += 1

    def schedule_after(
        self, delay: float, kind: int, a: Any = None, b: Any = None
    ) -> None:
        if delay < 0:
            raise ValueError("delay must be nonnegative")
        self.schedule(self.now + delay, kind, a, b)

    def run(self, handlers: Sequence[Handler], max_events: int | None = None) -> float:
        """Dispatch events until the queue drains; returns final time.

        Each event ``(time, seq, kind, a, b)`` advances :attr:`now` to
        ``time`` and calls ``handlers[kind](a, b)``, which may schedule
        further events.  More than ``max_events`` events is an error.
        """
        heap = self._heap
        pop = heapq.heappop
        budget = max_events if max_events is not None else float("inf")
        processed = 0
        while heap and processed < budget:
            time, _, kind, a, b = pop(heap)
            self.now = time
            handlers[kind](a, b)
            processed += 1
        self.events_processed += processed
        if heap:
            raise RuntimeError(
                f"event budget exhausted with {len(heap)} events pending"
            )
        return self.now

    @property
    def pending(self) -> int:
        return len(self._heap)
