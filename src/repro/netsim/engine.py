"""Discrete-event simulation engine.

A deterministic, single-threaded event loop. Events are ordered by
``(time, sequence)`` where ``sequence`` is a monotonically increasing
insertion counter, so simultaneous events fire in schedule order and
every run with the same seed and schedule is bit-for-bit reproducible.

One engine backs the loop: a :class:`TimerWheel`. Near-future events
land in per-slot buckets by O(1) append and each slot is sorted once
when the cursor reaches it; far-future events overflow into a small
heap and cascade into the wheel as their slot comes within the
horizon. Bulk-scheduled work is kept as the caller's own tuples in
*pure* buckets that batch-dispatch without an ``Event`` ever existing;
the events that do exist are plain allocations. Dispatch order is
exactly ``(time, seq)``;
``tests/properties/test_scheduler_equivalence.py`` pins it against a
small heapq reference scheduler kept under ``tests/``.

Seeding contract
----------------

All stochastic behaviour in the substrate draws from ``Simulator.rng``
(a private :class:`random.Random`), never from the global ``random``
module, so a run is a pure function of its seed and its schedule. The
generator is either seeded from the ``seed`` argument or injected
directly via ``rng=`` (the two are mutually exclusive). Derived
components that need their own reproducible stream — one per partition
worker in :mod:`repro.netsim.parallel`, for example — must split the
master seed with :func:`derive_seed` rather than re-using it or
reaching for global randomness; ``derive_seed`` is stable across
processes and Python versions (unlike ``hash``), which is what makes a
sharded run reproducible from the one master seed.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from time import perf_counter
from typing import Callable, Optional

from repro.errors import SimulationError

#: Below this queue size, compaction is never worth the heapify cost.
_COMPACT_MIN_QUEUE = 64

def derive_seed(seed: int, *names: object) -> int:
    """Derive a child seed from ``seed`` and a namespace path.

    Stable across processes and Python versions (sha256, not ``hash``),
    so partition workers spawned with ``multiprocessing`` agree with an
    in-process rerun. Distinct paths give independent 64-bit streams:
    ``derive_seed(seed, "worker", rank)``.
    """
    digest = hashlib.sha256(
        ("|".join([str(seed), *map(str, names)])).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


#: Total-order key for slot sorts. ``attrgetter`` builds the
#: ``(time, seq)`` tuple in C, so sorts avoid the Python
#: ``Event.__lt__``.
_EVENT_KEY = attrgetter("time", "seq")

#: Time key for bulk-item scans (e.g. the atomic past-time prescan).
_ITEM_TIME = itemgetter(0)


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)`` so dispatch is deterministic. Cancelled events are skipped when they come due; the
    owning simulator additionally compacts its queue when cancelled
    events pile up (see :meth:`Simulator._note_cancelled`).
    """

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    #: The simulator whose queue holds this event (None once popped or
    #: for hand-built events), so cancellation can keep live/cancelled
    #: bookkeeping exact.
    owner: Optional["Simulator"] = field(compare=False, default=None, repr=False)
    _in_queue: bool = field(compare=False, default=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it comes due."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None and self._in_queue:
            self.owner._note_cancelled()


#: Sentinel returned by ``TimerWheel.advance(..., allow_pure=True)``
#: when the slot it just opened is *pure* — held as lazy bulk tuples,
#: not Events. Only the fast dispatch loop asks for it (to attempt a
#: batch drain before paying materialization); every other caller gets
#: pure slots resolved transparently.
_PURE_SLOT = Event(0.0, -1, lambda: None, "__pure_slot__")


class TimerWheel:
    """A single-level timer wheel with an overflow heap.

    The wheel covers ``num_slots × granularity`` seconds of simulated
    future (the *horizon*). An event within the horizon is appended to
    the bucket for its slot — O(1), no comparisons. When the cursor
    reaches a slot, its bucket is sorted once by ``(time, seq)`` and
    becomes the *open slot*, consumed front to back. Events beyond the
    horizon go to a plain heap of ``(time, seq, event)`` tuples (tuple
    comparison stays in C) and *cascade* into buckets as the cursor
    approaches their slot, so an event is only ever promoted once.

    Dispatch order is exactly ``(time, seq)`` order: slots partition time monotonically, each slot is sorted, and
    a late insert into the already-open slot is placed by bisection
    after the consumed prefix — its time is ``>= now``, so it can never
    sort before an already-dispatched entry.

    **Pure buckets.** ``schedule_bulk`` stores in-horizon entries as references to the caller's raw
    ``(time, action)`` tuples instead of :class:`Event` objects; a
    bucket holding only such tuples is *pure* and carries side metadata
    ``[name, base_seq, tally]`` in ``_bucket_meta[index]`` (the tally —
    ``{action: [count, t_last]}`` — is built during the bulk scan, so
    the batch dispatcher consumes a pure slot in O(distinct actions)
    without touching the entries again). Pure entries are unreachable
    outside the engine (bulk scheduling returns a count), hence
    uncancellable. Every other insert path first *materializes* a pure
    bucket back into Events, so the two representations never mix in
    one bucket.
    """

    __slots__ = (
        "sim",
        "granularity",
        "num_slots",
        "_scale",
        "_buckets",
        "_bucket_entries",
        "_overflow",
        "_cursor",
        "_open",
        "_open_pos",
        "_open_pure",
        "_open_meta",
        "_bucket_meta",
        "slots_scanned",
        "cascades",
        "wheel_inserts",
        "overflow_inserts",
    )

    def __init__(
        self,
        sim: "Simulator",
        granularity: float = 0.001,
        num_slots: int = 8192,
    ) -> None:
        if granularity <= 0:
            raise SimulationError(
                f"wheel granularity must be positive, got {granularity}"
            )
        if num_slots < 2:
            raise SimulationError(f"wheel needs >= 2 slots, got {num_slots}")
        self.sim = sim
        self.granularity = granularity
        self.num_slots = num_slots
        self._scale = 1.0 / granularity
        self._buckets: list[list[Event]] = [[] for _ in range(num_slots)]
        self._bucket_entries = 0
        self._overflow: list[tuple[float, int, Event]] = []
        self._cursor = 0
        self._open: list = []
        self._open_pos = 0
        #: True while the open slot is *pure* — still held as lazy bulk
        #: tuples. Resolved (materialized into sorted Events) before any
        #: per-event consumption; the batch dispatcher engages first.
        self._open_pure = False
        #: Metadata of the pure open slot: ``[name, base_seq, tally]``
        #: moved out of ``_bucket_meta`` when the slot opened.
        self._open_meta: Optional[list] = None
        #: Per-bucket purity marker: non-None ⇔ the bucket holds only
        #: lazy ``(time, action)`` bulk tuples, and the entry is their
        #: ``[name, base_seq, tally]`` metadata. ``base_seq`` is the seq
        #: of the bucket's first entry (entries are seq-consecutive in
        #: list order); ``tally`` maps action -> ``[count, t_last]`` and
        #: is built during the bulk scan so batch dispatch never has to
        #: walk the entries. Every empty-to-non-empty bucket transition
        #: writes this slot (bulk fill sets metadata, everything else
        #: leaves it None by materializing first).
        self._bucket_meta: list = [None] * num_slots
        self.slots_scanned = 0
        self.cascades = 0
        self.wheel_inserts = 0
        self.overflow_inserts = 0

    def __len__(self) -> int:
        """Total entries held (live + not-yet-skipped cancelled)."""
        return (
            len(self._open) - self._open_pos
            + self._bucket_entries
            + len(self._overflow)
        )

    def insert(self, event: Event) -> None:
        slot = int(event.time * self._scale)
        cursor = self._cursor
        if slot <= cursor:
            # Lands in (or before) the open slot. Its time is >= now,
            # so bisecting after the consumed prefix preserves order.
            if self._open_pure:
                self._resolve_open()
            insort(self._open, event, lo=self._open_pos, key=_EVENT_KEY)
            self.wheel_inserts += 1
        elif slot < cursor + self.num_slots:
            index = slot % self.num_slots
            if self._bucket_meta[index] is not None:
                self._materialize_bucket(index)
            self._buckets[index].append(event)
            self._bucket_entries += 1
            self.wheel_inserts += 1
        else:
            heapq.heappush(self._overflow, (event.time, event.seq, event))
            self.overflow_inserts += 1

    def _cascade(self) -> None:
        """Promote overflow events whose slot entered the horizon."""
        overflow = self._overflow
        if not overflow:
            return
        cursor = self._cursor
        limit = cursor + self.num_slots
        scale = self._scale
        while overflow and int(overflow[0][0] * scale) < limit:
            event = heapq.heappop(overflow)[2]
            self.cascades += 1
            slot = int(event.time * scale)
            if slot <= cursor:
                if self._open_pure:
                    self._resolve_open()
                insort(self._open, event, lo=self._open_pos, key=_EVENT_KEY)
            else:
                index = slot % self.num_slots
                if self._bucket_meta[index] is not None:
                    self._materialize_bucket(index)
                self._buckets[index].append(event)
                self._bucket_entries += 1

    def _materialize(self, entries: list, meta: list) -> list[Event]:
        """Turn lazy ``(time, action)`` bulk tuples into real Events,
        assigning the seqs reserved for them: ``meta[1] + i`` for the
        entry at position ``i``. Order is preserved; callers sort if
        they need to."""
        sim = self.sim
        name = meta[0]
        base = meta[1]
        return [
            Event(time, seq, action, name, False, sim, True)
            for seq, (time, action) in enumerate(entries, base)
        ]

    def _resolve_open(self) -> None:
        """Materialize a pure open slot into sorted Events (the batch
        dispatcher declined, or a caller needs per-event access)."""
        events = self._materialize(self._open, self._open_meta)
        events.sort(key=_EVENT_KEY)
        self._open = events
        self._open_pure = False
        self._open_meta = None

    def _materialize_bucket(self, index: int) -> None:
        """Materialize a pure bucket in place (unsorted — the slot sort
        at open handles ordering) so an Event can be appended to it."""
        meta = self._bucket_meta[index]
        self._bucket_meta[index] = None
        self._buckets[index] = self._materialize(self._buckets[index], meta)

    def advance(
        self, limit_slot: Optional[int] = None, allow_pure: bool = False
    ) -> Optional[Event]:
        """Position at the next live event and return it, or None.

        The event is *not* removed: callers that dispatch it must pair
        this with :meth:`consume` (``peek``-style callers simply don't).
        Cancelled events encountered on the way are dropped with the
        simulator's cancellation bookkeeping kept exact.

        ``limit_slot`` bounds cursor movement: the scan stops (returning
        None) rather than move past that slot. ``run(until=...)`` passes
        the slot containing ``until`` so a far-future overflow event
        cannot drag the cursor beyond the run window — if it did, every
        event scheduled afterwards (all with earlier times) would land
        in the open slot's bisect-insert path instead of an O(1) bucket
        append, silently degrading the wheel into a sorted list. Events
        at or before ``until`` always sit at or before its slot, so the
        bound never hides a due event.

        With ``allow_pure=True`` (the fast dispatch loop), opening a
        pure bucket returns the ``_PURE_SLOT`` sentinel instead of
        materializing it — the caller must either batch-drain the slot
        or call :meth:`advance` again (which resolves it). All other
        callers get pure slots resolved transparently.
        """
        sim = self.sim
        if self._open_pure:
            if allow_pure:
                return _PURE_SLOT
            self._resolve_open()
        while True:
            open_ = self._open
            pos = self._open_pos
            size = len(open_)
            while pos < size:
                event = open_[pos]
                if not event.cancelled:
                    self._open_pos = pos
                    return event
                event._in_queue = False
                sim._cancelled -= 1
                pos += 1
            if size:
                # Slot fully consumed: every entry was dispatched or
                # cancel-skipped.
                del open_[:]
            self._open_pos = 0
            # Open slot exhausted — move the cursor. When every bucket
            # is empty, jump straight to the overflow head's slot
            # instead of scanning potentially millions of empty slots.
            if self._bucket_entries:
                target = self._cursor + 1
            elif self._overflow:
                head_slot = int(self._overflow[0][0] * self._scale)
                target = max(self._cursor + 1, head_slot)
            else:
                return None
            if limit_slot is not None and target > limit_slot:
                return None
            self._cursor = target
            self.slots_scanned += 1
            self._cascade()
            index = self._cursor % self.num_slots
            bucket = self._buckets[index]
            if bucket:
                self._bucket_entries -= len(bucket)
                self._buckets[index] = []
                meta = self._bucket_meta[index]
                if meta is not None:
                    self._bucket_meta[index] = None
                    self._open = bucket
                    self._open_pos = 0
                    self._open_pure = True
                    self._open_meta = meta
                    if allow_pure:
                        return _PURE_SLOT
                    self._resolve_open()
                    continue
                bucket.sort(key=_EVENT_KEY)
                self._open = bucket

    def consume(self) -> None:
        """Remove the event the last :meth:`advance` returned."""
        self._open_pos += 1

    def peek_times(self, k: int) -> list[float]:
        """Times of the next up-to-``k`` pending events, ascending.

        :meth:`advance` positions the cursor on the first live event
        (resolving a pure open slot and skipping cancelled entries);
        the remainder of the open slot is already time-sorted. Forward
        buckets are scanned in slot order — pure buckets hold raw
        ``(time, action)`` tuples, materialized ones hold Events with
        possible cancellations — and because slots partition time
        monotonically the scan stops at the first slot boundary with k
        candidates collected. The overflow heap only matters if the
        in-horizon buckets run dry first: post-cascade, every overflow
        time is at or past the wheel horizon, hence after every bucket
        time.
        """
        first = self.advance()
        if first is None:
            return []
        out = [first.time]
        for event in self._open[self._open_pos + 1 :]:
            if len(out) >= k:
                return out[:k]
            if not event.cancelled:
                out.append(event.time)
        metas = self._bucket_meta
        for slot in range(self._cursor + 1, self._cursor + self.num_slots):
            if len(out) >= k:
                return out[:k]
            index = slot % self.num_slots
            bucket = self._buckets[index]
            if not bucket:
                continue
            if metas[index] is not None:
                times = [entry[0] for entry in bucket]
            else:
                times = [e.time for e in bucket if not e.cancelled]
            times.sort()
            out.extend(times)
        if len(out) < k and self._overflow:
            out.extend(
                heapq.nsmallest(
                    k - len(out),
                    (
                        entry[0]
                        for entry in self._overflow
                        if not entry[2].cancelled
                    ),
                )
            )
        return out[:k]

    def compact(self) -> None:
        """Drop cancelled entries everywhere. Pure storage is skipped
        outright: lazy bulk tuples are unreachable, so none can be
        cancelled."""
        if not self._open_pure:
            live_open = []
            for event in self._open[self._open_pos :]:
                if event.cancelled:
                    event._in_queue = False
                else:
                    live_open.append(event)
            self._open = live_open
            self._open_pos = 0
        self._bucket_entries = 0
        metas = self._bucket_meta
        for index, bucket in enumerate(self._buckets):
            if not bucket:
                continue
            if metas[index] is not None:
                self._bucket_entries += len(bucket)
                continue
            live = []
            for event in bucket:
                if event.cancelled:
                    event._in_queue = False
                else:
                    live.append(event)
            self._buckets[index] = live
            self._bucket_entries += len(live)
        live_overflow = []
        for entry in self._overflow:
            if entry[2].cancelled:
                entry[2]._in_queue = False
            else:
                live_overflow.append(entry)
        heapq.heapify(live_overflow)
        self._overflow = live_overflow

    def stats(self) -> dict:
        total_inserts = self.wheel_inserts + self.overflow_inserts
        return {
            "granularity": self.granularity,
            "num_slots": self.num_slots,
            "slots_scanned": self.slots_scanned,
            "cascades": self.cascades,
            "wheel_inserts": self.wheel_inserts,
            "overflow_inserts": self.overflow_inserts,
            "wheel_insert_share": (
                self.wheel_inserts / total_inserts if total_inserts else 0.0
            ),
        }


class PhaseProfiler:
    """Wall-clock phase accounting for a simulator's ``run()`` windows.

    Attach with ``sim.profiler = PhaseProfiler()``; ``run()`` then takes
    a profiled loop that times every event action (*dispatch*) and
    attributes the rest of the loop — slot scans, bucket sorts,
    cascades, cancellation skips — to scheduler *advance*.
    The parallel worker layers two more phases on top of these
    (*sync_wait* for coordinator-pipe blocking and *idle* for the
    remainder) to reach a full breakdown of worker wall time; see
    :meth:`repro.netsim.parallel.sync.SyncStats.phase_breakdown`.

    Two phases live *outside* the ``run()`` loop and are accumulated at
    their call sites instead:

    * ``alloc_seconds`` — event construction/recycling wall time in
      ``schedule_at``/``schedule_bulk`` calls made *between* run
      windows (bulk workload builds, the parallel worker's import
      injection). Scheduling done from inside a dispatched action stays
      charged to *dispatch* — it is part of that event's work — so the
      phases never double-count.
    * ``accounting_seconds`` — metrics flush/snapshot wall time
      (registry collection, telemetry export), accumulated by the
      observability layer at snapshot boundaries.

    The unprofiled fast paths are untouched: with ``profiler`` left
    ``None`` the engine dispatches through the same inlined loops as
    before, so profiling is strictly opt-in.
    """

    __slots__ = (
        "dispatch_seconds",
        "advance_seconds",
        "alloc_seconds",
        "accounting_seconds",
        "events",
        "windows",
    )

    def __init__(self) -> None:
        self.dispatch_seconds = 0.0
        self.advance_seconds = 0.0
        self.alloc_seconds = 0.0
        self.accounting_seconds = 0.0
        self.events = 0
        self.windows = 0

    def add(self, dispatch: float, advance: float, events: int) -> None:
        self.dispatch_seconds += dispatch
        self.advance_seconds += advance
        self.events += events
        self.windows += 1

    def as_dict(self) -> dict:
        return {
            "dispatch_seconds": self.dispatch_seconds,
            "advance_seconds": self.advance_seconds,
            "alloc_seconds": self.alloc_seconds,
            "accounting_seconds": self.accounting_seconds,
            "events": self.events,
            "windows": self.windows,
        }


class Simulator:
    """A seeded discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator's private :class:`random.Random`. All
        stochastic substrate behaviour (link loss, jitter, workload
        generators that accept a simulator) draws from this generator,
        which makes whole-system runs reproducible (see the module
        docstring's seeding contract).
    rng:
        An explicit :class:`random.Random` to use instead of seeding a
        fresh one — the injection point for callers that manage their
        own derived streams (partition workers pass
        ``random.Random(derive_seed(seed, "worker", rank))``). Mutually
        exclusive with a non-default ``seed``.
    wheel_granularity / wheel_slots:
        Wheel tuning: slot width in simulated seconds and slot count.
        The product is the wheel horizon; events beyond it sit in the
        overflow heap until they cascade.
    """

    def __init__(
        self,
        seed: int = 0,
        wheel_granularity: float = 0.001,
        wheel_slots: int = 8192,
        rng: Optional[random.Random] = None,
    ) -> None:
        if rng is not None and seed != 0:
            raise SimulationError("pass either seed or rng, not both")
        #: Batch slot dispatch tallies.
        self.batched_events = 0
        self.batched_slots = 0
        self._now = 0.0
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        self._running = False
        self.rng = rng if rng is not None else random.Random(seed)
        self.events_processed = 0
        self._wheel = TimerWheel(
            self, granularity=wheel_granularity, num_slots=wheel_slots
        )
        #: Observability hooks called as ``fn(sim, event, wall_seconds)``
        #: after each event executes (see :mod:`repro.obs.hooks`). The
        #: dispatch loop takes the zero-overhead path when empty.
        self._dispatch_listeners: list[Callable[["Simulator", Event, float], None]] = []
        #: Opt-in phase accounting; assign a :class:`PhaseProfiler` to
        #: route ``run()`` through the profiled loop.
        self.profiler: Optional[PhaseProfiler] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def reseed(self, seed: int) -> None:
        """Replace the RNG with a freshly seeded one. Used by partition
        workers to switch to their derived per-worker stream after the
        (seed-consuming) topology build, so build-time draws stay
        identical across workers while run-time draws are independent."""
        self.rng = random.Random(seed)

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        event = Event(self._now + delay, self._seq, action, name, False, self, True)
        # Inlined TimerWheel.insert() bucket-append common case — one
        # less call per event on the bulk-scheduling path.
        wheel = self._wheel
        slot = int(event.time * wheel._scale)
        cursor = wheel._cursor
        if cursor < slot < cursor + wheel.num_slots:
            index = slot % wheel.num_slots
            if wheel._bucket_meta[index] is not None:
                wheel._materialize_bucket(index)
            wheel._buckets[index].append(event)
            wheel._bucket_entries += 1
            wheel.wheel_inserts += 1
        else:
            wheel.insert(event)
        self._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute simulated time ``time``.

        Implemented directly rather than via :meth:`schedule` — bulk
        workload generators (the bench harness schedules 10^6 events up
        front) sit on this path, so it skips the extra call frame and
        delay round-trip.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (time={time}, now={self._now})"
            )
        profiler = self.profiler
        started = (
            perf_counter() if profiler is not None and not self._running else 0.0
        )
        self._seq += 1
        event = Event(time, self._seq, action, name, False, self, True)
        # Inlined TimerWheel.insert() bucket-append common case — see
        # schedule().
        wheel = self._wheel
        slot = int(time * wheel._scale)
        cursor = wheel._cursor
        if cursor < slot < cursor + wheel.num_slots:
            index = slot % wheel.num_slots
            if wheel._bucket_meta[index] is not None:
                wheel._materialize_bucket(index)
            wheel._buckets[index].append(event)
            wheel._bucket_entries += 1
            wheel.wheel_inserts += 1
        else:
            wheel.insert(event)
        self._live += 1
        if started:
            profiler.alloc_seconds += perf_counter() - started
        return event

    def schedule_bulk(
        self,
        items: list[tuple[float, Callable[[], None]]],
        name: str = "",
    ) -> int:
        """Schedule many ``(time, action)`` pairs in one call.

        The workload-generator fast path: one call amortises the
        per-event frame, sequencing, and validation costs of
        :meth:`schedule_at` across the whole batch. Dispatch order —
        including ties, which keep input order — is exactly that of a
        sequential loop of ``schedule_at(time, action)`` calls over
        ``items``. (Sequence numbers are assigned per wheel bucket
        rather than globally in input order, but within every bucket
        they ascend in input order and equal times always share a
        bucket, so the observable ``(time, seq)`` dispatch order is
        identical.)

        In-horizon entries are not materialized at all: each pure
        bucket holds references to the caller's ``(time, action)``
        tuples, and a side tally built during this single input-order
        scan lets the batch dispatcher consume the whole slot in
        O(distinct actions) without a single Event object ever existing
        (see ``_batch_slot``; slots it declines are materialized into
        Events on demand). Out-of-horizon entries become Events at
        once.

        Returns the number of events scheduled.
        """
        n = len(items)
        if n == 0:
            return 0
        profiler = self.profiler
        started = (
            perf_counter() if profiler is not None and not self._running else 0.0
        )
        now = self._now
        # Atomic validation: one C-level scan up front, so a past-time
        # item rejects the whole batch with nothing scheduled.
        if min(items, key=_ITEM_TIME)[0] < now:
            raise SimulationError(
                f"cannot schedule in the past "
                f"(time={min(items, key=_ITEM_TIME)[0]}, now={now})"
            )
        wheel = self._wheel
        buckets = wheel._buckets
        metas = wheel._bucket_meta
        num_slots = wheel.num_slots
        scale = wheel._scale
        cursor = wheel._cursor
        limit = cursor + num_slots
        overflow = 0
        # One input-order scan (the items are iterated in allocation
        # order — perfect locality) does ALL the per-item work.
        # In-horizon items land in pure buckets as references to the
        # caller's own tuples (no allocation at all) while the
        # per-bucket action tally is folded on the fly; dispatch then
        # never revisits them. base_seq stays None until the post-scan
        # assignment, which doubles as the this-call marker.
        touched: list[int] = []
        fb_seq = self._seq  # fallback events take seqs (seq, seq+nf]
        for item in items:
            time = item[0]
            slot = int(time * scale)
            if cursor < slot < limit:
                index = slot % num_slots
                meta = metas[index]
                if meta is not None:
                    if meta[1] is None:
                        # Pure bucket this call opened: append the
                        # caller's tuple itself, fold the tally.
                        buckets[index].append(item)
                        tally = meta[2]
                        try:
                            entry = tally[item[1]]
                        except KeyError:
                            tally[item[1]] = [1, time]
                        else:
                            entry[0] += 1
                            if time > entry[1]:
                                entry[1] = time
                    else:
                        # Stale pure bucket (earlier bulk call, seqs
                        # already fixed): join it materialized.
                        wheel._materialize_bucket(index)
                        fb_seq += 1
                        buckets[index].append(
                            Event(time, fb_seq, item[1], name, False, self, True)
                        )
                else:
                    bucket = buckets[index]
                    if bucket:
                        # Bucket already holds Events — join it as one
                        # (representations never mix).
                        fb_seq += 1
                        bucket.append(
                            Event(time, fb_seq, item[1], name, False, self, True)
                        )
                    else:
                        metas[index] = [name, None, {item[1]: [1, time]}]
                        touched.append(index)
                        bucket.append(item)
            else:
                fb_seq += 1
                wheel.insert(Event(time, fb_seq, item[1], name, False, self, True))
                overflow += 1
        # Reserve seq ranges for the pure buckets: consecutive from the
        # first free seq after the fallbacks, one run per bucket in
        # touch order. Ranges never interleave with the fallback seqs,
        # within-bucket order is input order, and ties never straddle
        # buckets (equal times share a slot) — so (time, seq) dispatch
        # order matches a sequential schedule_at loop exactly.
        base = fb_seq + 1
        for index in touched:
            metas[index][1] = base
            base += len(buckets[index])
        appended = n - overflow
        wheel._bucket_entries += appended
        wheel.wheel_inserts += appended
        self._seq += n
        self._live += n
        if started:
            profiler.alloc_seconds += perf_counter() - started
        return n

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        event = self._wheel.advance()
        return None if event is None else event.time

    def peek_times(self, k: int) -> list[float]:
        """Times of the next up-to-``k`` pending events, ascending,
        without dispatching anything. The sharded runner's grant
        ladders are built from these: one :meth:`TimerWheel.advance`
        for the exact head, then an in-order scan of the open slot and
        forward buckets — slots partition time monotonically, so the
        scan stops as soon as k candidates are in hand at a slot
        boundary."""
        if k <= 0:
            return []
        if k == 1:
            head = self.peek_time()
            return [] if head is None else [head]
        return self._wheel.peek_times(k)

    def _note_cancelled(self) -> None:
        """Bookkeeping for an in-queue cancellation: keep ``pending()``
        O(1) and compact the wheel once cancelled events outnumber live
        ones (otherwise long-lived runs that churn timers leak)."""
        self._live -= 1
        self._cancelled += 1
        wheel = self._wheel
        if len(wheel) >= _COMPACT_MIN_QUEUE and self._cancelled * 2 > len(wheel):
            wheel.compact()
            self._cancelled = 0

    def step(self) -> bool:
        """Run the single next event. Returns False if none remain."""
        event = self._wheel.advance()
        if event is None:
            return False
        self._wheel.consume()
        event._in_queue = False
        self._live -= 1
        self._now = event.time
        self.events_processed += 1
        if self._dispatch_listeners:
            started = perf_counter()
            event.action()
            wall = perf_counter() - started
            for listener in self._dispatch_listeners:
                listener(self, event, wall)
        else:
            event.action()
        return True

    def add_dispatch_listener(
        self, listener: Callable[["Simulator", Event, float], None]
    ) -> None:
        """Register ``listener(sim, event, wall_seconds)`` to run after
        every dispatched event (metrics/profiling hook)."""
        self._dispatch_listeners.append(listener)

    def remove_dispatch_listener(
        self, listener: Callable[["Simulator", Event, float], None]
    ) -> None:
        self._dispatch_listeners.remove(listener)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> int:
        """Run events until the queue drains, ``until`` passes, or
        ``max_events`` have fired. Returns the number of events run.

        ``until`` is inclusive by default: an event scheduled exactly at
        ``until`` runs, and the clock is advanced to ``until`` afterwards
        even if no event lands exactly there.

        ``inclusive=False`` makes ``until`` an *exclusive* horizon:
        events strictly before it run, events at exactly ``until`` stay
        queued, and the clock still advances to ``until``. This is the
        conservative-synchronization hook: a partition worker granted
        LBTS horizon ``H`` may safely dispatch everything below ``H``
        (cross-partition traffic arrives at ``>= H`` by the lookahead
        argument) but must not touch ``H`` itself, where an in-flight
        remote packet could still land.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            if self.profiler is not None:
                ran = self._run_profiled(until, max_events, inclusive)
            else:
                ran = self._run_wheel(until, max_events, inclusive)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return ran

    def _batch_slot(
        self,
        until: Optional[float],
        max_events: Optional[int],
        inclusive: bool,
    ) -> int:
        """Drain a freshly-opened *pure* wheel slot in one grouped call.

        Called by ``_run_wheel`` immediately after ``advance()`` opens a
        pure slot (lazy bulk tuples: unreachable, hence uncancellable).
        The slot carries the per-action tally ``{action: [count,
        t_last]}`` that ``schedule_bulk`` folded while filling the
        bucket, so this method never touches the entries themselves —
        its cost is O(distinct actions), not O(events). Actions resolve
        to their batch groups (``action.batch_group`` — see
        :class:`repro.core.blocks.BlockChannelGroup`), and each group is
        asked whether it can absorb the whole batch under the worst-case
        all-drops-first ordering. Admission is all-or-nothing and the
        scan is side-effect-free; on refusal the slot stays pure and the
        caller's next ``advance()`` materializes it for per-event
        fallback dispatch.

        On commit the slot is consumed wholesale: the clock jumps to the
        slot's maximum entry time, each group applies its aggregate
        delta once, and the tuples are simply dropped — no Event object
        ever existed for them. Aggregation is order-independent (pure
        arithmetic over commuting ±1 ops), so the slot needs no sort
        either. Equivalence with per-event dispatch is proven in
        ``tests/properties/test_scheduler_equivalence.py``.

        Returns the number of events consumed (0 = fall back).
        """
        if max_events is not None or self._dispatch_listeners:
            return 0
        wheel = self._wheel
        tally = wheel._open_meta[2]
        # Fold per-action tallies into per-group aggregates:
        # [delta_sum, drop_sum, n_ops, t_max].
        groups: dict = {}
        for action, (count, t_last) in tally.items():
            group = getattr(action, "batch_group", None)
            if group is None:
                return 0
            delta = action.batch_delta
            entry = groups.get(group)
            if entry is None:
                groups[group] = entry = [0, 0, 0, 0.0]
            entry[0] += delta * count
            if delta < 0:
                entry[1] -= delta * count
            entry[2] += count
            if t_last > entry[3]:
                entry[3] = t_last
        last_time = max(entry[3] for entry in groups.values())
        if until is not None and (
            last_time > until or (not inclusive and last_time >= until)
        ):
            return 0
        for group, entry in groups.items():
            if not group.can_batch(entry[1]):
                return 0
        # Commit: nothing above mutated state, so from here on every
        # group is known to accept.
        n = len(wheel._open)
        self._now = last_time
        self._live -= n
        self.events_processed += n
        self.batched_events += n
        self.batched_slots += 1
        for group, entry in groups.items():
            group.run_batch(entry[0], entry[2], entry[3])
        wheel._open = []
        wheel._open_pos = 0
        wheel._open_pure = False
        wheel._open_meta = None
        return n

    def _run_wheel(
        self, until: Optional[float], max_events: Optional[int], inclusive: bool = True
    ) -> int:
        # Fully inlined dispatch loop. The common case — a live event
        # already positioned in the open slot — runs with no method
        # calls besides the action itself; advance() only fires on slot
        # boundaries, cancellations, and cascades.
        ran = 0
        wheel = self._wheel
        advance = wheel.advance
        limit_slot = None if until is None else int(until * wheel._scale)
        while True:
            if max_events is not None and ran >= max_events:
                break
            open_ = wheel._open
            pos = wheel._open_pos
            if pos < len(open_):
                event = open_[pos]
                if event.cancelled:
                    event = advance(limit_slot, True)
                    if event is None:
                        break
                    if event is _PURE_SLOT:
                        batched = self._batch_slot(until, max_events, inclusive)
                        if batched:
                            ran += batched
                            continue
                        # Refused: materialize + sort, then re-peek.
                        event = advance(limit_slot)
                        if event is None:
                            break
            else:
                event = advance(limit_slot, True)
                if event is None:
                    break
                if event is _PURE_SLOT:
                    # advance() just opened a pure slot: try to drain it
                    # in one grouped dispatch; on refusal the follow-up
                    # advance() materializes it for per-event dispatch.
                    batched = self._batch_slot(until, max_events, inclusive)
                    if batched:
                        ran += batched
                        continue
                    event = advance(limit_slot)
                    if event is None:
                        break
            if until is not None and (
                event.time > until or (not inclusive and event.time >= until)
            ):
                break
            wheel._open_pos += 1  # consume(): advance left the cursor here
            event._in_queue = False
            # Dispatch, inlined:
            self._live -= 1
            self._now = event.time
            self.events_processed += 1
            if self._dispatch_listeners:
                started = perf_counter()
                event.action()
                wall = perf_counter() - started
                for listener in self._dispatch_listeners:
                    listener(self, event, wall)
            else:
                event.action()
            ran += 1
        return ran

    def _run_profiled(
        self, until: Optional[float], max_events: Optional[int], inclusive: bool = True
    ) -> int:
        # Dispatch loop with phase timing: every action is timed
        # individually (dispatch wall) and the rest of the loop —
        # advance/cascade/sort — is charged to scheduler advance.
        # Dispatch order is identical to the fast loop (same (time,
        # seq) discipline); only wall-clock observation is added.
        profiler = self.profiler
        listeners = self._dispatch_listeners
        wheel = self._wheel
        limit_slot = None if until is None else int(until * wheel._scale)
        ran = 0
        dispatch_wall = 0.0
        loop_started = perf_counter()
        while True:
            if max_events is not None and ran >= max_events:
                break
            event = wheel.advance(limit_slot)
            if event is None:
                break
            if until is not None and (
                event.time > until or (not inclusive and event.time >= until)
            ):
                break
            wheel.consume()
            event._in_queue = False
            self._live -= 1
            self._now = event.time
            self.events_processed += 1
            started = perf_counter()
            event.action()
            wall = perf_counter() - started
            dispatch_wall += wall
            for listener in listeners:
                listener(self, event, wall)
            ran += 1
        total = perf_counter() - loop_started
        profiler.add(
            dispatch=dispatch_wall,
            advance=max(0.0, total - dispatch_wall),
            events=ran,
        )
        return ran

    def pending(self) -> int:
        """Number of live (non-cancelled) events in the queue. O(1):
        maintained incrementally by schedule/cancel/step."""
        return self._live

    def scheduler_stats(self) -> dict:
        """Counters describing scheduler behaviour (for perf reports
        and the obs gauges)."""
        stats = self._wheel.stats()
        stats["scheduler"] = "wheel"
        stats["pending"] = self._live
        stats["batched_events"] = self.batched_events
        stats["batched_slots"] = self.batched_slots
        return stats


class PeriodicTask:
    """A repeating task bound to a simulator.

    Used for protocol timers (IGMP/ECMP periodic queries, keepalives).
    The task reschedules itself after each firing until stopped. The
    first firing happens ``interval`` seconds after :meth:`start`
    (optionally jittered to avoid global synchronization, per RFC-style
    timer advice).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        action: Callable[[], None],
        name: str = "",
        jitter: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._action = action
        self._name = name
        self._jitter = jitter
        self._event: Optional[Event] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self) -> None:
        if not self._stopped:
            return
        self._stopped = False
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self) -> None:
        delay = self._interval
        if self._jitter:
            delay += self._sim.rng.uniform(-self._jitter, self._jitter)
            delay = max(delay, 1e-9)
        self._event = self._sim.schedule(delay, self._fire, name=self._name)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._action()
        if not self._stopped:
            self._schedule_next()


def call_repeatedly(
    sim: Simulator,
    interval: float,
    action: Callable[[], None],
    name: str = "",
    jitter: float = 0.0,
) -> PeriodicTask:
    """Convenience: create and start a :class:`PeriodicTask`."""
    task = PeriodicTask(sim, interval, action, name=name, jitter=jitter)
    task.start()
    return task
