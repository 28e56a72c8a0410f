"""Wiring: attach the registry and tracer to a running system.

Three layers get instrumented without touching their call sites:

* the :class:`~repro.netsim.engine.Simulator` — a dispatch listener
  counts and wall-clock-times every event by name and keeps a
  queue-depth gauge, so protocol timers and hot loops are profiled for
  free;
* every :class:`~repro.netsim.node.Node` — per-node tx/rx/drop packet
  and byte counters;
* every :class:`~repro.netsim.link.Link` — transmit/loss counters,
  pulled from the link's own attributes at collect time.

Per-event paths never call :meth:`MetricFamily.labels`: the dispatch
listener and :class:`NodeMetrics` resolve a child the first time they
see a label tuple and keep it in a memo dict, and link counts are read
by one collector (:class:`LinkCounters`) only when the registry is
collected.

:class:`Observability` bundles one registry and one tracer; pass it to
``ExpressNetwork(..., obs=obs)`` or ``GroupNetwork(..., obs=obs)`` (or
call :func:`attach_topology` directly) and every layer reports into the
same place, which is what makes EXPRESS-vs-PIM/DVMRP comparisons read
off a single snapshot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.registry import WALL_BUCKETS, MetricsRegistry
from repro.obs.tracing import Tracer, shard_id_base

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.engine import Event, Simulator
    from repro.netsim.link import Link
    from repro.netsim.topology import Topology
    from repro.obs.convergence import ConvergenceMonitor

#: Packet-header key under which a :class:`~repro.obs.tracing.SpanContext`
#: rides along with every instrumented control message.
SPAN_HEADER = "spanctx"


class Observability:
    """One registry + one tracer, shared by every instrumented layer.

    ``shard`` (a partition rank) namespaces the tracer's id counter via
    :func:`~repro.obs.tracing.shard_id_base`, so span/trace ids minted
    by different partition workers never collide and per-worker span
    dumps stitch back into cross-shard trees when merged.
    """

    def __init__(self, shard: Optional[int] = None) -> None:
        self.shard = shard
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            id_base=shard_id_base(shard) if shard is not None else 0
        )
        #: Optional :class:`~repro.obs.convergence.ConvergenceMonitor`;
        #: instrumented protocol layers call :meth:`state_changed` on
        #: every durable state mutation and the monitor timestamps it.
        self.convergence: Optional["ConvergenceMonitor"] = None
        self._bound_sims: set[int] = set()
        #: The link collector, created by the first :func:`attach_topology`.
        self.link_counters: Optional[LinkCounters] = None

    def bind_simulator(self, sim: "Simulator") -> None:
        """Point the tracer clock at ``sim.now`` and install the
        dispatch listener (idempotent per simulator)."""
        self.tracer.clock = lambda: sim.now
        if id(sim) not in self._bound_sims:
            self._bound_sims.add(id(sim))
            instrument_simulator(sim, self.registry)

    def state_changed(self, count: int = 1) -> None:
        """Protocol hook: ``count`` durable state mutations happened
        (membership change, count update, upstream re-home). Batch-slot
        dispatch passes the number of folded per-event ops so the
        convergence monitor's change tally stays identical to per-event
        dispatch. No-op unless a convergence monitor is attached."""
        if self.convergence is not None:
            self.convergence.touch(count)


class NodeMetrics:
    """Per-node packet/byte counters, bound once per node.

    Children are resolved once per ``(direction, proto)`` pair, the
    first time the node sees it; every later packet is two integer adds.
    """

    __slots__ = ("node", "_packets", "_bytes", "_children")

    def __init__(self, registry: MetricsRegistry, node: str) -> None:
        self.node = node
        self._packets = registry.counter(
            "node_packets_total",
            "Packets seen at a node by direction and protocol",
            ("node", "direction", "proto"),
        )
        self._bytes = registry.counter(
            "node_bytes_total",
            "Bytes seen at a node by direction and protocol",
            ("node", "direction", "proto"),
        )
        self._children: dict[tuple[str, str], tuple] = {}

    def packet(self, direction: str, proto: str, size: int) -> None:
        children = self._children.get((direction, proto))
        if children is None:
            labels = {"node": self.node, "direction": direction, "proto": proto}
            children = self._children[(direction, proto)] = (
                self._packets.labels(**labels),
                self._bytes.labels(**labels),
            )
        children[0].value += 1
        children[1].value += size


#: (family, help, Link attribute) for every pulled link counter.
LINK_FAMILIES = (
    ("link_packets_total", "Packets entering a link", "tx_packets"),
    ("link_lost_packets_total", "Packets lost in transit on a link", "lost_packets"),
    (
        "link_ecmp_wire_packets_total",
        "ECMP control packets entering a link (batch frame counts as one)",
        "ecmp_wire_packets",
    ),
    (
        "link_ecmp_wire_bytes_total",
        "ECMP control bytes entering a link, post-coalescing",
        "ecmp_wire_bytes",
    ),
)


class LinkCounters:
    """The registry collector for every attached link.

    A link already counts what crosses it (``tx_packets`` and friends);
    at collect time this collector adds what each attribute gained since
    the previous collect (or since the link was attached) to the
    ``link_*_total`` series, so a late attach reports counts since
    attach and a second collect changes nothing.
    """

    __slots__ = ("_families", "_links")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._families = tuple(
            registry.counter(name, help, ("link",))
            for name, help, _ in LINK_FAMILIES
        )
        #: link -> (its children, attribute values already reported)
        self._links: dict["Link", tuple[list, list[int]]] = {}
        registry.register_collector(self.collect)

    def attach(self, link: "Link") -> None:
        """Start reporting ``link`` (idempotent)."""
        if link not in self._links:
            name = f"{link.node_a.name}--{link.node_b.name}"
            self._links[link] = (
                [family.labels(link=name) for family in self._families],
                [getattr(link, attr) for _, _, attr in LINK_FAMILIES],
            )

    def collect(self) -> None:
        for link, (children, seen) in self._links.items():
            for index, (_, _, attr) in enumerate(LINK_FAMILIES):
                now = getattr(link, attr)
                children[index].value += now - seen[index]
                seen[index] = now


def instrument_simulator(sim: "Simulator", registry: MetricsRegistry) -> None:
    """Attach event-dispatch metrics to a simulator: per-event-name
    counts and wall-clock timing histograms, a live queue-depth gauge,
    and the simulated-clock gauge."""
    events_total = registry.counter(
        "sim_events_total", "Events dispatched by the engine", ("name",)
    )
    event_wall = registry.histogram(
        "sim_event_wall_seconds",
        "Wall-clock seconds spent executing one event",
        ("name",),
        buckets=WALL_BUCKETS,
    )
    queue_depth = registry.gauge(
        "sim_queue_depth", "Live (non-cancelled) events in the scheduler queue"
    )
    sim_clock = registry.gauge("sim_time_seconds", "Current simulated time")
    scheduler_stat = registry.gauge(
        "sim_scheduler_stat",
        "Scheduler internals (timer wheel slots_scanned/cascades/insert "
        "split, batch dispatch), labelled by stat name",
        ("scheduler", "stat"),
    )

    # event name -> (count child, wall-time child), resolved on first sight.
    children: dict[Optional[str], tuple] = {}

    def listener(simulator: "Simulator", event: "Event", wall: float) -> None:
        pair = children.get(event.name)
        if pair is None:
            name = event.name or "(anonymous)"
            pair = children[event.name] = (
                events_total.labels(name=name),
                event_wall.labels(name=name),
            )
        pair[0].value += 1
        pair[1].observe(wall)

    sim.add_dispatch_listener(listener)

    def collect() -> None:
        queue_depth.set(sim.pending())
        sim_clock.set(sim.now)
        stats = sim.scheduler_stats()
        which = stats.pop("scheduler")
        for stat, value in stats.items():
            if isinstance(value, (int, float)):
                scheduler_stat.labels(scheduler=which, stat=stat).set(value)

    registry.register_collector(collect)


class SyncMetrics:
    """Per-partition conservative-sync counters for the parallel runner.

    All families share the ``parallel_`` prefix so equivalence
    comparisons can exclude them wholesale: sync traffic exists only in
    sharded runs and legitimately has no single-process counterpart.
    Every series is labelled by this one partition, so children are
    resolved here, once.
    """

    def __init__(self, registry: MetricsRegistry, partition: int) -> None:
        self.partition = str(partition)

        def counter(name: str, help: str):
            return registry.counter(name, help, ("partition",)).labels(
                partition=self.partition
            )

        self._null_messages = counter(
            "parallel_null_messages_total",
            "Null-message/LBTS announcements sent by a partition worker",
        )
        self._lbts_stalls = counter(
            "parallel_lbts_stalls_total",
            "Sync rounds where a worker had a runnable event past the "
            "global LBTS horizon and had to wait",
        )
        self._proxy_bytes = counter(
            "parallel_proxy_bytes_total",
            "Serialized packet bytes exported across cut links",
        )
        self._proxy_packets = counter(
            "parallel_proxy_packets_total",
            "Packets exported across cut links",
        )
        self._import_bytes = counter(
            "parallel_proxy_import_bytes_total",
            "Serialized packet bytes imported across cut links (fleet "
            "totals must balance the export counters)",
        )
        self._import_packets = counter(
            "parallel_proxy_import_packets_total",
            "Packets imported across cut links",
        )
        self._rounds = counter(
            "parallel_sync_rounds_total",
            "Conservative-sync rounds (grants served) by a partition worker",
        )
        self._windows = counter(
            "parallel_sync_windows_total",
            "Exclusive-horizon simulator windows drained by a partition "
            "worker (> rounds under multi-window demand grants)",
        )
        frames = registry.counter(
            "parallel_sync_frames_total",
            "Protocol frames a partition worker exchanged with the "
            "coordinator, by direction",
            ("partition", "direction"),
        )
        self._frames_sent = frames.labels(
            partition=self.partition, direction="sent"
        )
        self._frames_received = frames.labels(
            partition=self.partition, direction="received"
        )
        self._phase_seconds = registry.gauge(
            "parallel_phase_seconds",
            "Wall seconds a worker spent per phase "
            "(dispatch/cascade/sync_wait/idle) — the repartitioning signal",
            ("partition", "phase"),
        )
        self._events_per_sec = registry.gauge(
            "parallel_events_per_second",
            "Events dispatched per wall second by a partition worker",
            ("partition",),
        ).labels(partition=self.partition)
        self._null_ratio = registry.gauge(
            "parallel_null_message_ratio",
            "Fraction of a worker's reports that were pure clock "
            "announcements (no exports, no dispatched work)",
            ("partition",),
        ).labels(partition=self.partition)

    def null_message(self) -> None:
        self._null_messages.inc()

    def lbts_stall(self) -> None:
        self._lbts_stalls.inc()

    def proxy_export(self, size: int) -> None:
        self._proxy_packets.inc()
        self._proxy_bytes.inc(size)

    def proxy_import(self, size: int) -> None:
        self._import_packets.inc()
        self._import_bytes.inc(size)

    def sync_round(self, windows: int = 1) -> None:
        self._rounds.inc()
        self._windows.inc(windows)

    def set_phases(self, stats: "SyncStats") -> None:  # noqa: F821
        """Publish a worker's phase accounting as gauges, and the frame
        counters accumulated in the sync stats (called when the worker
        finalizes its telemetry)."""
        for phase, seconds in stats.phase_seconds().items():
            self._phase_seconds.labels(
                partition=self.partition, phase=phase
            ).set(seconds)
        self._events_per_sec.set(stats.events_per_second())
        self._null_ratio.set(stats.null_message_ratio)
        self._frames_sent.value = stats.frames_sent
        self._frames_received.value = stats.frames_received


def attach_topology(topo: "Topology", obs: Observability) -> Observability:
    """Instrument an entire topology: the simulator, every node, every
    link. Nodes/links added afterwards are not retro-instrumented; call
    again after wiring if needed (re-attachment is idempotent). Link
    counters report what crossed the link since it was attached."""
    obs.bind_simulator(topo.sim)
    for node in topo.nodes.values():
        if node.metrics is None or node.metrics.node != node.name:
            node.metrics = NodeMetrics(obs.registry, node.name)
    if obs.link_counters is None:
        obs.link_counters = LinkCounters(obs.registry)
    for link in topo.links:
        obs.link_counters.attach(link)
    return obs
