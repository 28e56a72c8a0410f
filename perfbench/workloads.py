"""The four benchmark workloads, driven through the library's public API.

Each workload has three parts:

* ``generate(seed)`` turns the seed into plain data (times, indices,
  channel ranks, and derived seeds for the topology builder and the
  fault plan). The program never sees the seed itself, only these
  inputs, and a different seed changes the schedule but not its size.
* ``Workload.setup()`` builds a network and hands it the inputs; the
  benchmark times it as set-up.
* The timed window is ``Workload.begin()`` followed by
  ``net.run(until=...)`` over each end in ``Workload.slice_ends()``;
  the benchmark times every slice on its own. ``Workload.finish()``
  then settles (untimed), checks the outputs and reads the simulated
  counters, which must repeat exactly for one seed.

Every workload runs on the library's defaults: no scheduler, native,
columnar, refresh-ring, codec, transport or sync-mode selection is
passed, so retiring an implementation shows up in the figures without
an edit here. The one protocol constant two workloads lower,
``EcmpAgent.UDP_QUERY_INTERVAL``, is restored when each trial ends.
"""

from __future__ import annotations

import bisect
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import Count, encode_message
from repro.core.ecmp.protocol import IP_OVERHEAD, PROTO_ECMP, EcmpAgent, NeighborMode
from repro.core.keys import make_key
from repro.core.network import ExpressNetwork
from repro.faults import FaultInjector, FaultMonitor, FaultPlan
from repro.netsim.engine import derive_seed
from repro.netsim.packet import Packet
from repro.netsim.topology import TopologyBuilder
from repro.obs.hooks import Observability


@dataclass
class Outcome:
    """What one trial of a workload did, as the benchmark reports it."""

    #: Work done in the timed window, in the workload's own unit.
    ops: float
    #: Operations checked, and how many of them came out wrong.
    attempted: int
    failed: int
    #: ``(check name, passed, detail)`` for every output check.
    checks: list = field(default_factory=list)
    #: Simulated counters that must repeat exactly for one seed.
    counters: dict = field(default_factory=dict)


def net_counters(net: ExpressNetwork) -> dict:
    """Library counters the per-layer metrics are derived from."""
    totals = net.control_stats_total()
    return {
        "events": net.sim.events_processed,
        "batched_events": net.sim.scheduler_stats().get("batched_events", 0),
        "fib_lookups": sum(fib.lookups for fib in net.fibs.values()),
        "fib_hits": sum(fib.lookup_cache_hits for fib in net.fibs.values()),
        "msgs_tx": totals.get("msgs_tx", 0),
        "wire_sends": totals.get("wire_sends", 0),
        "wire_recvs": totals.get("wire_recvs", 0),
        "bytes_on_wire": totals.get("bytes_on_wire", 0),
        "undecodable": totals.get("undecodable_messages", 0),
        "refresh_examined": totals.get("refresh_records_examined", 0),
    }


@contextmanager
def udp_query_interval(seconds: float):
    """Lower the UDP-mode refresh interval for one trial, then restore it."""
    saved = EcmpAgent.UDP_QUERY_INTERVAL
    EcmpAgent.UDP_QUERY_INTERVAL = seconds
    try:
        yield
    finally:
        EcmpAgent.UDP_QUERY_INTERVAL = saved


def _check(checks: list, name: str, wrong: int, detail: str) -> int:
    checks.append((name, wrong == 0, detail))
    return wrong


class Workload:
    """One trial: ``setup`` (timed as set-up), the timed window, ``finish``."""

    #: What one unit of ``ops`` is, and the rate's name in the report.
    op_name = ""
    rate_name = ""
    #: Lowered ``EcmpAgent.UDP_QUERY_INTERVAL``, or None for the default.
    udp_interval = None
    #: Simulated seconds per timed slice.
    slice_s = 1.0

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self.net = None
        #: Simulated start and end of the timed window.
        self.start = self.end = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Start the timed window: work the program must be handed inside it."""

    def slice_ends(self) -> list[float]:
        """Simulated times the timed window is run up to, slice by slice."""
        count = max(1, round((self.end - self.start) / self.slice_s))
        return [self.start + (self.end - self.start) * k / count for k in range(1, count + 1)]

    def finish(self) -> Outcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# superbowl_join (§5.2)
# ----------------------------------------------------------------------

SB_MEMBERS = 100_000
SB_LEAVES = SB_MEMBERS // 8
SB_PACKETS = 20
SB_BLOCKS = 12  # the edge routers of isp(4,3,1)


def generate_superbowl(seed: int) -> dict:
    """Member ops as ``(time offset, block index, +1 join / -1 leave)``.

    Joins spread over 4 simulated seconds, leaves over the next 0.8 s;
    the list is shuffled so the engine receives inserts in random time
    order, as independent viewers would issue them.
    """
    rng = random.Random(derive_seed(seed, "superbowl_join"))
    ops = [
        (0.1 + 4.0 * i / SB_MEMBERS, rng.randrange(SB_BLOCKS), 1)
        for i in range(SB_MEMBERS)
    ]
    # Each leave takes a member of a block that joined enough of them.
    joined = [0] * SB_BLOCKS
    for _, block, _ in ops:
        joined[block] += 1
    left = [0] * SB_BLOCKS
    for i in range(SB_LEAVES):
        block = rng.randrange(SB_BLOCKS)
        while left[block] >= joined[block]:
            block = (block + 1) % SB_BLOCKS
        left[block] += 1
        ops.append((4.2 + 0.8 * i / SB_LEAVES, block, -1))
    rng.shuffle(ops)
    return {
        "topology_seed": derive_seed(seed, "superbowl_join", "topology"),
        "ops": ops,
        "members": [j - l for j, l in zip(joined, left)],
    }


class SuperbowlJoin(Workload):
    op_name = "member op"
    rate_name = "member_ops_per_s"
    slice_s = 0.2

    def setup(self) -> None:
        topo = TopologyBuilder.isp(
            n_transit=4, stubs_per_transit=3, hosts_per_stub=1,
            seed=self.inputs["topology_seed"],
        )
        net = self.net = ExpressNetwork(topo)
        self.source = net.source(sorted(net.host_names)[0])
        self.channel = self.source.allocate_channel()
        edges = sorted(name for name in topo.nodes if name.startswith("e"))
        self.blocks = [net.subscriber_block(name) for name in edges]
        net.run(until=0.01)
        base = net.sim.now
        ops = [
            (b.join_op(self.channel), b.leave_op(self.channel)) for b in self.blocks
        ]
        self.work = [
            (base + at, ops[block][0] if delta > 0 else ops[block][1])
            for at, block, delta in self.inputs["ops"]
        ]
        self.base = base

    def begin(self) -> None:
        sim = self.net.sim
        sim.schedule_bulk(self.work, name="bench-op")
        send = partial(self.source.send, self.channel)
        for k in range(SB_PACKETS):
            sim.schedule_at(self.base + 5.2 + 0.005 * k, send)
        self.start, self.end = self.base, self.base + 5.6

    def finish(self) -> Outcome:
        checks: list = []
        expected = self.inputs["members"]
        wrong_members = sum(
            abs(b.count(self.channel) - want) for b, want in zip(self.blocks, expected)
        )
        failed = _check(
            checks, "final membership", wrong_members,
            f"{sum(b.count(self.channel) for b in self.blocks)} members, "
            f"expected {sum(expected)}",
        )
        # Every remaining member of every block receives every packet.
        wrong_deliveries = sum(
            abs(b.deliveries - SB_PACKETS * want)
            for b, want in zip(self.blocks, expected)
        )
        failed += _check(
            checks, "per-member deliveries", -(-wrong_deliveries // SB_PACKETS),
            f"{sum(b.deliveries for b in self.blocks)} deliveries, expected "
            f"{SB_PACKETS * sum(expected)}",
        )
        counters = net_counters(self.net)
        return Outcome(
            ops=len(self.work),
            attempted=len(self.work),
            failed=failed,
            checks=checks,
            counters={
                "events": counters["events"],
                "deliveries": sum(b.deliveries for b in self.blocks),
                "ctrl_bytes_on_wire": counters["bytes_on_wire"],
            },
        )


# ----------------------------------------------------------------------
# fanout_stream (§5.3 / Fig. 5 data plane)
# ----------------------------------------------------------------------

FS_DEPTH = 8
FS_PACKETS = 150
FS_SPACING = 0.002


def generate_fanout(seed: int) -> dict:
    """Leaf subscription order and per-packet send jitter (< spacing/4)."""
    rng = random.Random(derive_seed(seed, "fanout_stream"))
    leaves = list(range(2**FS_DEPTH))
    rng.shuffle(leaves)
    sends = [FS_SPACING * (k + 0.25 * rng.random()) for k in range(FS_PACKETS)]
    return {
        "topology_seed": derive_seed(seed, "fanout_stream", "topology"),
        "leaf_order": leaves,
        "sends": sends,
    }


class FanoutStream(Workload):
    op_name = "delivery"
    rate_name = "deliveries_per_s"
    slice_s = 0.04

    def setup(self) -> None:
        topo = TopologyBuilder.balanced_tree(
            depth=FS_DEPTH, fanout=2, seed=self.inputs["topology_seed"]
        )
        leaves = sorted(
            name for name, node in topo.nodes.items() if len(node.interfaces) == 1
        )
        net = self.net = ExpressNetwork(topo, hosts=["r"] + leaves)
        self.source = net.source("r")
        self.channel = self.source.allocate_channel()
        self.received = [0]
        received = self.received

        def on_data(_packet) -> None:
            received[0] += 1

        self.leaves = [leaves[i] for i in self.inputs["leaf_order"]]
        for leaf in self.leaves:
            net.host(leaf).subscribe(self.channel, on_data=on_data)
        net.settle(1.0)

    def begin(self) -> None:
        sim = self.net.sim
        base = sim.now
        send = partial(self.source.send, self.channel)
        sim.schedule_bulk([(base + at, send) for at in self.inputs["sends"]])
        self.start, self.end = base, base + FS_SPACING * FS_PACKETS + 0.04

    def finish(self) -> Outcome:
        checks: list = []
        expected = FS_PACKETS * len(self.leaves)
        got = self.received[0]
        failed = _check(
            checks, "deliveries = packets x subscribers", abs(expected - got),
            f"{got} deliveries, expected {expected}",
        )
        counters = net_counters(self.net)
        return Outcome(
            ops=got,
            attempted=expected,
            failed=failed,
            checks=checks,
            counters={
                "events": counters["events"],
                "deliveries": got,
                "ctrl_bytes_on_wire": counters["bytes_on_wire"],
            },
        )


# ----------------------------------------------------------------------
# surf_churn (§2.2 TV distribution)
# ----------------------------------------------------------------------

SC_TRANSIT, SC_STUBS, SC_HOSTS = 3, 4, 4
SC_SOURCES = 3
SC_CHANNELS_PER_SOURCE = 500
SC_SURFERS = 24
SC_JOIN_WINDOW = 4.0
SC_CHURN_START = SC_JOIN_WINDOW + 2.0
SC_CHURN_SECONDS = 12.0
SC_ZAP_SPACING = 0.15  # mean simulated seconds between one surfer's zaps
SC_ZAPS_PER_SURFER = round(SC_CHURN_SECONDS / SC_ZAP_SPACING)
SC_REFRESH = 0.4  # UDP refresh interval for the surfers' leases
SC_SETTLE = 3.0  # > UDP_ROBUSTNESS * SC_REFRESH, so abandoned leases expire


def generate_surf(seed: int) -> dict:
    """Zaps as ``(time, surfer index, channel rank)``, Zipf(1.05) ranks."""
    n_channels = SC_SOURCES * SC_CHANNELS_PER_SOURCE
    cumulative = list(
        accumulate(1.0 / (rank + 1) ** 1.05 for rank in range(n_channels))
    )
    total = cumulative[-1]
    zaps = []
    for surfer in range(SC_SURFERS):
        rng = random.Random(derive_seed(seed, "surf_churn", surfer))
        for k in range(SC_ZAPS_PER_SURFER):
            at = SC_CHURN_START + SC_ZAP_SPACING * (k + rng.random())
            zaps.append((at, surfer, bisect.bisect_left(cumulative, rng.random() * total)))
    zaps.sort()
    return {"topology_seed": derive_seed(seed, "surf_churn", "topology"), "zaps": zaps}


class SurfChurn(Workload):
    op_name = "zap"
    rate_name = "zaps_per_s"
    udp_interval = SC_REFRESH

    def setup(self) -> None:
        topo = TopologyBuilder.isp(
            n_transit=SC_TRANSIT, stubs_per_transit=SC_STUBS,
            hosts_per_stub=SC_HOSTS, seed=self.inputs["topology_seed"],
        )
        net = self.net = ExpressNetwork(topo, wire_format=True)
        hosts = sorted(net.host_names)
        source_names = [f"h{t}_0_0" for t in range(SC_SOURCES)]
        others = [name for name in hosts if name not in source_names]
        self.surfers = others[:SC_SURFERS]
        self.tails = others[SC_SURFERS:]
        self.channels = [
            net.source(name).allocate_channel()
            for name in source_names
            for _ in range(SC_CHANNELS_PER_SOURCE)
        ]
        # §3.2 per-interface mode: each surfer's access link runs UDP mode.
        self.edge_of = {}
        for surfer in self.surfers:
            edge = topo.node(surfer).neighbors()[0].name
            self.edge_of[surfer] = edge
            net.ecmp_agents[surfer].set_neighbor_mode(edge, NeighborMode.UDP)
            net.ecmp_agents[edge].set_neighbor_mode(surfer, NeighborMode.UDP)
        # Standing state: one TCP-mode tail subscriber per channel.
        self.tail_of = {}
        n = len(self.channels)
        for index, channel in enumerate(self.channels):
            tail = self.tails[index % len(self.tails)]
            self.tail_of[channel] = tail
            net.sim.schedule_at(
                0.001 + SC_JOIN_WINDOW * index / n,
                partial(net.host(tail).subscribe, channel),
            )
        self.current = [None] * len(self.surfers)
        net.sim.schedule_bulk(
            [(at, partial(self._zap, s, rank)) for at, s, rank in self.inputs["zaps"]]
        )
        net.run(until=SC_CHURN_START)
        self.start, self.end = SC_CHURN_START, SC_CHURN_START + SC_CHURN_SECONDS

    def _zap(self, surfer: int, rank: int) -> None:
        host = self.net.host(self.surfers[surfer])
        previous = self.current[surfer]
        if previous is not None:
            host.unsubscribe(previous)
        channel = self.channels[rank]
        host.subscribe(channel)
        self.current[surfer] = channel

    def finish(self) -> Outcome:
        net = self.net
        counters = net_counters(net)  # before the settle: the churn's cost
        net.settle(SC_SETTLE)
        checks: list = []
        lost_tails = sum(
            1 for channel, tail in self.tail_of.items()
            if not net.host(tail).is_subscribed(channel)
        )
        failed = _check(
            checks, "every tail subscribed", lost_tails,
            f"{lost_tails} of {len(self.tail_of)} tails lost",
        )
        # A surfer's last channel is subscribed at the host and held at
        # its edge router; no other channel keeps state for that surfer.
        lost_last = stale = 0
        for surfer, channel in zip(self.surfers, self.current):
            edge = net.ecmp_agents[self.edge_of[surfer]]
            if channel is not None:
                state = edge.channels.get(channel)
                record = state.downstream.get(surfer) if state else None
                if not net.host(surfer).is_subscribed(channel) or record is None:
                    lost_last += 1
            stale += sum(
                1 for held, state in edge.channels.items()
                if held != channel and surfer in state.downstream
            )
            stale += sum(
                1 for held in net.ecmp_agents[surfer].subscriptions if held != channel
            )
        failed += _check(
            checks, "every surfer's last channel subscribed", lost_last,
            f"{lost_last} of {len(self.surfers)} surfers lost their channel",
        )
        failed += _check(
            checks, "no abandoned channel holds state", stale,
            f"{stale} stale surfer entries",
        )
        zaps = len(self.inputs["zaps"])
        return Outcome(
            ops=zaps,
            attempted=zaps + len(self.tail_of),
            failed=failed,
            checks=checks,
            counters={
                "events": counters["events"],
                "ctrl_bytes_on_wire": counters["bytes_on_wire"],
            },
        )


# ----------------------------------------------------------------------
# crash_storm (soft-state recovery under a seeded chaos plan)
# ----------------------------------------------------------------------

CS_TRANSIT, CS_STUBS, CS_HOSTS = 5, 3, 3
CS_DOWNTIME = 4.0
CS_SPACING = 12.0
CS_CHANNELS_PER_SOURCE = 4
CS_REFRESH = 1.0
CS_FLOOD = 400
CS_TORN = 100
CS_SETTLE = 12.0


def generate_crash(seed: int) -> dict:
    """Subscription offsets, the crash schedule and the torn frames.

    Every transit router but ``t0`` crashes and restarts once, in a
    seeded order at a fixed spacing, so neither the storm's work nor its
    length depends on the seed. Torn frames are ``(offset into the wire-mutation
    window, share of the frame kept)``.
    """
    rng = random.Random(derive_seed(seed, "crash_storm"))
    victims = [f"t{t}" for t in range(1, CS_TRANSIT)]
    rng.shuffle(victims)
    crashes = [(CS_SPACING * k, victim) for k, victim in enumerate(victims)]
    n_hosts = CS_TRANSIT * CS_STUBS * CS_HOSTS
    n_channels = 2 * CS_CHANNELS_PER_SOURCE
    joins = [0.05 * rng.randrange(37) for _ in range(n_hosts * n_channels)]
    torn = sorted((8.0 * rng.random(), rng.random()) for _ in range(CS_TORN))
    return {
        "topology_seed": derive_seed(seed, "crash_storm", "topology"),
        "plan_seed": derive_seed(seed, "crash_storm", "plan"),
        "joins": joins,
        "crashes": crashes,
        "torn": torn,
    }


class CrashStorm(Workload):
    op_name = "simulated second"
    rate_name = "storm_sim_s_per_s"
    udp_interval = CS_REFRESH
    slice_s = 2.0

    def setup(self) -> None:
        obs = Observability()
        topo = TopologyBuilder.isp(
            n_transit=CS_TRANSIT, stubs_per_transit=CS_STUBS,
            hosts_per_stub=CS_HOSTS, seed=self.inputs["topology_seed"],
        )
        obs.bind_simulator(topo.sim)
        net = self.net = ExpressNetwork(topo, obs=obs, wire_format=True, edge_udp=True)
        hosts = sorted(net.host_names)
        net.start()
        net.settle(2.0)
        # Two sources in different transit regions; the last host stays
        # unsubscribed and plays the forged-key attacker.
        self.sources = [net.source(hosts[0]), net.source(hosts[-2])]
        source_names = {s.name for s in self.sources}
        attacker = hosts[-1]
        self.channels = [
            s.allocate_channel() for s in self.sources for _ in range(CS_CHANNELS_PER_SOURCE)
        ]
        keyed = self.channels[0]
        key = make_key(keyed)
        self.sources[0].channel_key(keyed, key)
        self.subscribers = [n for n in hosts if n not in source_names and n != attacker]
        joins = iter(self.inputs["joins"])
        for name in self.subscribers:
            for channel in self.channels:
                net.sim.schedule(
                    next(joins),
                    partial(
                        net.host(name).subscribe, channel,
                        key=key if channel == keyed else None,
                    ),
                )
        net.settle(5.0 + 2 * CS_REFRESH)

        self.monitor = FaultMonitor(net)
        self.monitor.begin()
        start = net.sim.now + 2.0
        # Victims exclude t0 so the link faults on t0's links never race
        # a crash of their own endpoint.
        plan = FaultPlan(self.inputs["plan_seed"])
        for offset, victim in self.inputs["crashes"]:
            plan.crash_restart(start + offset, victim, CS_DOWNTIME)
        edge_of = {name: topo.node(name).neighbors()[0].name for name in hosts}
        plan.partition(start + 5.0, "t0", edge_of[hosts[0]])
        plan.heal(start + 8.0, "t0", edge_of[hosts[0]])
        plan.latency_spike(start + 6.0, "t0", "t1", factor=10.0, duration=5.0)
        mutated = self.subscribers[0]
        plan.wire_mutate(
            start + 3.0, edge_of[mutated], mutated, duration=8.0,
            drop=0.05, duplicate=0.2, reorder=0.2,
        )
        plan.join_flood(start + 4.0, attacker, keyed, attempts=CS_FLOOD, interval=0.005)
        self._schedule_torn_frames(start + 3.0, attacker, keyed, key)
        plan.count_inflate(
            start + 7.0, self.subscribers[1], self.channels[-1], count=1_000_000, repeats=3
        )
        self.injector = FaultInjector(net, plan, monitor=self.monitor)
        self.injector.arm()
        self.start = net.sim.now
        self.end = max(e.at + e.duration for e in plan) + CS_SETTLE

    def _schedule_torn_frames(self, start: float, attacker: str, channel, key) -> None:
        """Truncated copies of a real keyed Count frame from the attacker.

        The live wire mutator drops, duplicates and reorders frames but
        never tears one, so these exercise the receive path's handling
        of frames that fail to decode.
        """
        frame = encode_message(Count(channel, SUBSCRIBER_ID, 1, key))
        node = self.net.topo.node(attacker)
        edge = node.neighbors()[0]
        for offset, kept in self.inputs["torn"]:
            size = 1 + int(kept * (len(frame) - 1))
            packet = Packet(
                src=node.address, dst=edge.address, proto=PROTO_ECMP,
                size=IP_OVERHEAD + size, payload=frame[:size],
            )
            self.net.sim.schedule_at(
                start + offset, partial(node.send_to_neighbor, packet, edge)
            )

    def finish(self) -> Outcome:
        net = self.net
        counters = net_counters(net)
        slo = self.monitor.report(self.injector)
        checks: list = []
        failed = _check(
            checks, "no orphaned state", slo["orphaned_state"],
            f"{slo['orphaned_state']} orphaned entries",
        )
        expected = len(self.subscribers)
        lost = sum(
            expected - len(net.subscriber_hosts(channel)) for channel in self.channels
        )
        failed += _check(
            checks, "no subscriber lost", lost,
            f"{lost} of {expected * len(self.channels)} subscriptions lost",
        )
        # The inflation attack must not survive settlement.
        totals: list = []
        self.sources[-1].count_query(
            self.channels[-1], 1, timeout=5.0,
            callback=lambda total, partial: totals.append(total),
        )
        net.settle(6.0)
        failed += _check(
            checks, "post-storm CountQuery exact", int(totals != [expected]),
            f"CountQuery returned {totals}, expected [{expected}]",
        )
        return Outcome(
            ops=self.end - self.start,
            attempted=expected * len(self.channels) + 2,
            failed=failed,
            checks=checks,
            counters={
                "events": counters["events"],
                "ctrl_bytes_on_wire": counters["bytes_on_wire"],
                "convergence_sim_s": slo["convergence_seconds"],
                "resync_bytes": slo["resync_bytes"],
                "faults_fired": slo["faults_fired"],
            },
        )


WORKLOADS = {
    "superbowl_join": (generate_superbowl, SuperbowlJoin),
    "fanout_stream": (generate_fanout, FanoutStream),
    "surf_churn": (generate_surf, SurfChurn),
    "crash_storm": (generate_crash, CrashStorm),
}
