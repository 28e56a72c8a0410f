"""A heapq reference scheduler: the dispatch-order oracle for the engine.

:class:`HeapSimulator` keeps :class:`~repro.netsim.engine.Simulator`'s
public surface but holds its pending set in one binary heap of
``(time, seq, event)`` tuples and fires one event at a time — no timer
wheel, no pure buckets, no arena, no batch dispatch. Its order is
``(time, seq)`` by construction, which is the order the engine
promises, so any divergence between the two is an engine bug.

``use_heap_simulator(monkeypatch)`` makes every ``Topology`` built
afterwards run on it, so whole networks can be compared too.
"""

from __future__ import annotations

import heapq
from time import perf_counter

from repro.errors import SimulationError
from repro.netsim import topology
from repro.netsim.engine import Event, Simulator


class HeapSimulator(Simulator):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._heap: list[tuple[float, int, Event]] = []

    def schedule(self, delay, action, name=""):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, action, name)

    def schedule_at(self, time, action, name=""):
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (time={time}, now={self._now})"
            )
        self._seq += 1
        event = Event(time, self._seq, action, name, False, self, True)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._live += 1
        return event

    def schedule_bulk(self, items, name=""):
        if items and min(time for time, _ in items) < self._now:
            raise SimulationError("cannot schedule in the past")
        for time, action in items:
            self.schedule_at(time, action, name)
        return len(items)

    def _note_cancelled(self) -> None:
        self._live -= 1

    def _head(self):
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2]._in_queue = False
        return heap[0][2] if heap else None

    def peek_time(self):
        head = self._head()
        return None if head is None else head.time

    def peek_times(self, k):
        return sorted(time for time, _, event in self._heap if not event.cancelled)[:k]

    def step(self) -> bool:
        return self.run(max_events=1) == 1

    def run(self, until=None, max_events=None, inclusive=True) -> int:
        ran = 0
        while max_events is None or ran < max_events:
            event = self._head()
            if event is None or until is not None and (
                event.time > until or (not inclusive and event.time >= until)
            ):
                break
            heapq.heappop(self._heap)
            event._in_queue = False
            self._live -= 1
            self._now = event.time
            self.events_processed += 1
            started = perf_counter()
            event.action()
            for listener in self._dispatch_listeners:
                listener(self, event, perf_counter() - started)
            ran += 1
        if until is not None and self._now < until:
            self._now = until
        return ran


def use_heap_simulator(monkeypatch) -> None:
    """Build every later ``Topology`` on a :class:`HeapSimulator`."""
    monkeypatch.setattr(topology, "Simulator", HeapSimulator)
