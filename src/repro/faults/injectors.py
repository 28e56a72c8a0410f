"""Arm a :class:`~repro.faults.plan.FaultPlan` against a live network.

The injector translates each typed fault event into real simulator
events: crashes take every attached link down and wipe the agent's
soft state through :meth:`EcmpAgent.lose_state`; restarts reboot the
agent empty and bring the links back, so the resync storm flows through
the genuine ECMP protocol (keepalive rediscovery,
``_neighbor_recovered`` count re-announcement, hysteresis re-homing) —
nothing is shortcut. Adversarial kinds drive the same public API an
attacker on the wire could reach: forged-key ``newSubscription`` calls
and raw inflated ``Count`` reports.

An empty plan arms *nothing*: zero simulator events, zero RNG draws —
a fault-instrumented run with no faults is bit-identical to a plain
run (pinned by ``tests/properties/test_fault_equivalence.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import Count
from repro.core.keys import KEY_BYTES, ChannelKey
from repro.errors import ChannelError, FaultError
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.wire import WireMutator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import ExpressNetwork
    from repro.faults.monitor import FaultMonitor
    from repro.netsim.link import Link


class FaultInjector:
    """Applies a plan's events to an :class:`ExpressNetwork`.

    Construct, then :meth:`arm` once before (or during) the run. Fired
    faults are logged in :attr:`fired` as ``(time, kind, target)`` and
    reported to the optional :class:`FaultMonitor` so SLO scoring knows
    when the last fault landed.
    """

    def __init__(
        self,
        net: "ExpressNetwork",
        plan: FaultPlan,
        monitor: Optional["FaultMonitor"] = None,
    ) -> None:
        self.net = net
        self.plan = plan
        self.monitor = monitor
        self.armed = False
        #: ``(sim_time, kind, target)`` of every fault actually fired.
        self.fired: list[tuple[float, str, str]] = []
        #: node -> links this injector took down at crash time (only
        #: these come back up at restart, so a crash composed with an
        #: unrelated partition does not heal the partition).
        self._downed: dict[str, list["Link"]] = {}
        #: Live wire mutators by link, for monitor reporting.
        self.mutators: list[WireMutator] = []
        #: Adversarial-load accounting.
        self.attack_stats = {
            "join_attempts": 0,
            "join_errors": 0,
            "inflated_counts": 0,
        }

    # -- plan arming -------------------------------------------------------

    def arm(self) -> None:
        """Validate the plan and schedule every event. Idempotence is
        not attempted — arming twice is an error."""
        if self.armed:
            raise FaultError("fault plan already armed")
        self.armed = True
        self.plan.validate()
        sim = self.net.sim
        for index, event in self.plan.sorted_events():
            if event.at < sim.now:
                raise FaultError(
                    f"fault at t={event.at} is in the past (now={sim.now})"
                )
            sim.schedule_at(
                event.at,
                lambda index=index, event=event: self._fire(index, event),
                name=f"fault:{event.kind}",
            )

    def _fire(self, index: int, event: FaultEvent) -> None:
        handler = getattr(self, f"_fire_{event.kind}")
        handler(index, event)
        self.fired.append((self.net.sim.now, event.kind, event.target))
        if self.monitor is not None:
            self.monitor.note_fault(self.net.sim.now, event)

    # -- node faults -------------------------------------------------------

    def _links_of(self, name: str) -> list["Link"]:
        node = self.net.topo.node(name)
        return [
            iface.link for iface in node.interfaces if iface.link is not None
        ]

    def _fire_crash(self, index: int, event: FaultEvent) -> None:
        name = event.target
        agent = self.net.ecmp_agents.get(name)
        if agent is None:
            raise FaultError(f"unknown crash target {name!r}")
        downed = []
        for link in self._links_of(name):
            if link.up:
                link.set_up(False)
                downed.append(link)
        self._downed[name] = downed
        agent.lose_state()

    def _fire_restart(self, index: int, event: FaultEvent) -> None:
        name = event.target
        agent = self.net.ecmp_agents.get(name)
        if agent is None:
            raise FaultError(f"unknown restart target {name!r}")
        # Reboot first, then raise the links: the up-notifications
        # trigger the neighbors' resync storms and the recompute that
        # re-homes trees back through this router, and the freshly
        # started agent must be listening when they land.
        agent.start()
        for link in self._downed.pop(name, []):
            link.set_up(True)

    # -- link faults -------------------------------------------------------

    def _link_for(self, event: FaultEvent) -> "Link":
        a, b = event.link_endpoints
        link = self.net.topo.link_between(a, b)
        if link is None:
            raise FaultError(f"no link between {a!r} and {b!r}")
        return link

    def _fire_partition(self, index: int, event: FaultEvent) -> None:
        self._link_for(event).fail()

    def _fire_heal(self, index: int, event: FaultEvent) -> None:
        self._link_for(event).recover()

    def _fire_latency_spike(self, index: int, event: FaultEvent) -> None:
        link = self._link_for(event)
        original = link.delay
        link.delay = original * event.params["factor"]

        def restore() -> None:
            link.delay = original

        self.net.sim.schedule(event.duration, restore, name="fault:latency-restore")

    def _fire_wire_mutate(self, index: int, event: FaultEvent) -> None:
        link = self._link_for(event)
        now = self.net.sim.now
        mutator = WireMutator(
            self.plan.rng_for(index, event),
            drop=event.params["drop"],
            duplicate=event.params["duplicate"],
            reorder=event.params["reorder"],
            reorder_delay=event.params["reorder_delay"],
            start=now,
            end=now + event.duration,
        )
        mutator.install(link)
        self.mutators.append(mutator)
        self.net.sim.schedule(
            event.duration,
            lambda: mutator.remove(link),
            name="fault:wire-restore",
        )

    # -- adversarial load --------------------------------------------------

    def _fire_join_flood(self, index: int, event: FaultEvent) -> None:
        attacker = event.target
        agent = self.net.ecmp_agents.get(attacker)
        if agent is None:
            raise FaultError(f"unknown join_flood attacker {attacker!r}")
        channel = event.params["channel"]
        rng = self.plan.rng_for(index, event)
        interval = event.params["interval"]

        def attempt() -> None:
            forged = ChannelKey(
                bytes(rng.randrange(256) for _ in range(KEY_BYTES))
            )
            self.attack_stats["join_attempts"] += 1
            try:
                agent.new_subscription(channel, key=forged)
            except ChannelError:
                self.attack_stats["join_errors"] += 1

        sim = self.net.sim
        for i in range(event.params["attempts"]):
            sim.schedule(i * interval, attempt, name="fault:join-flood")

    def _fire_count_inflate(self, index: int, event: FaultEvent) -> None:
        attacker = event.target
        agent = self.net.ecmp_agents.get(attacker)
        if agent is None:
            raise FaultError(f"unknown count_inflate attacker {attacker!r}")
        channel = event.params["channel"]
        count = event.params["count"]
        interval = event.params["interval"]

        def victim() -> str:
            state = agent.channels.get(channel)
            if state is not None and state.upstream is not None:
                return state.upstream
            links = self._links_of(attacker)
            if not links:
                raise FaultError(f"{attacker!r} has no neighbors to attack")
            return links[0].other_end(self.net.topo.node(attacker)).name

        def inflate() -> None:
            # A raw subscriber-count report claiming ``count`` members
            # behind this host: the soft-state design accepts it
            # last-writer-wins, so the *measurement* is how far it
            # propagates and how fast the next honest refresh or
            # expiry corrects it.
            self.attack_stats["inflated_counts"] += 1
            agent._send_message(
                Count(channel, SUBSCRIBER_ID, count), victim()
            )

        sim = self.net.sim
        for i in range(event.params["repeats"]):
            sim.schedule(i * interval, inflate, name="fault:count-inflate")

    def mutation_stats(self) -> dict[str, int]:
        totals = {"passed": 0, "dropped": 0, "duplicated": 0, "reordered": 0}
        for mutator in self.mutators:
            for key, value in mutator.stats.items():
                totals[key] += value
        return totals


def crash_parallel_worker(transport, rank: int, join_timeout: float = 5.0):
    """Kill one worker process of a parallel run mid-flight.

    Works on any transport that exposes ``procs`` (the pipe transport
    does). The coordinator's next receive or send must surface a
    :class:`~repro.netsim.parallel.transport.TransportError` rather
    than hang or leak a raw ``OSError``: the dead child's end of the
    pipe reads as EOF and refuses writes; the worker-crash tests pin
    that contract. Returns the terminated process object.
    """
    procs = getattr(transport, "procs", None)
    if not procs:
        raise FaultError("transport has no worker processes to crash")
    if not 0 <= rank < len(procs):
        raise FaultError(f"no worker rank {rank} (have {len(procs)})")
    proc = procs[rank]
    proc.terminate()
    proc.join(join_timeout)
    return proc
