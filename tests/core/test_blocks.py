"""Unit/integration tests for aggregated edge-subscriber blocks.

``tests/properties/test_block_equivalence.py`` pins the headline
property (block(N) ≡ N individual subscribers upstream); this file
covers the block mechanics themselves: attachment rules, count
arithmetic, FIB behaviour at a blocks-only edge, final-hop delivery
accounting, CountQuery folding, the TREE_ONLY fast path, and UDP-mode
soft-state expiry/refresh.
"""

import pytest

from repro import ExpressNetwork, TopologyBuilder
from repro.core.ecmp.protocol import EcmpAgent, NeighborMode
from repro.core.ecmp.state import BLOCK_PREFIX, is_pseudo_neighbor, LOCAL
from repro.errors import ChannelError, ProtocolError, TopologyError
from repro.netsim.topology import Topology
from repro.obs.hooks import Observability


def build_net(**kwargs) -> ExpressNetwork:
    """hsrc - n0 - n1 - n2 (edge), plus one ordinary host on n2."""
    topo = TopologyBuilder.line(3)
    topo.add_node("hsrc")
    topo.add_link("hsrc", "n0", delay=0.001)
    topo.add_node("hsub")
    topo.add_link("hsub", "n2", delay=0.001)
    net = ExpressNetwork(topo, hosts=["hsrc", "hsub"], **kwargs)
    net.run(until=0.01)
    return net


class TestPseudoNeighbors:
    def test_block_prefix_is_pseudo(self):
        assert is_pseudo_neighbor(LOCAL)
        assert is_pseudo_neighbor(BLOCK_PREFIX + "b0")
        assert not is_pseudo_neighbor("n1")

    def test_blocks_never_appear_in_tree_edges(self):
        net = build_net()
        source = net.source("hsrc")
        channel = source.allocate_channel()
        block = net.subscriber_block("n2")
        block.join(channel, 10)
        net.settle()
        edges = net.tree_edges(channel)
        assert all(not child.startswith(BLOCK_PREFIX) for _, child in edges)
        assert ("n1", "n2") in edges


class TestAttachment:
    def test_attach_to_unknown_node_rejected(self):
        net = build_net()
        with pytest.raises(TopologyError):
            net.subscriber_block("nope")

    def test_attach_to_host_rejected(self):
        net = build_net()
        with pytest.raises(ProtocolError):
            net.subscriber_block("hsub")

    def test_duplicate_name_rejected(self):
        net = build_net()
        net.subscriber_block("n2", name="b")
        with pytest.raises(ProtocolError):
            net.subscriber_block("n2", name="b")

    def test_auto_names_are_unique(self):
        net = build_net()
        a = net.subscriber_block("n2")
        b = net.subscriber_block("n2")
        assert a.pseudo != b.pseudo
        assert a.edge_router == b.edge_router == "n2"


class TestCountArithmetic:
    def test_join_and_leave_accumulate(self):
        net = build_net()
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2")
        assert block.join(channel, 5) == 5
        assert block.join(channel) == 6
        assert block.leave(channel, 2) == 4
        assert block.count(channel) == 4
        assert block.total_members() == 4

    def test_leave_clamps_at_zero(self):
        net = build_net()
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2")
        block.join(channel, 3)
        assert block.leave(channel, 10) == 0
        assert block.count(channel) == 0

    def test_nonpositive_deltas_rejected(self):
        net = build_net()
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2")
        with pytest.raises(ChannelError):
            block.join(channel, 0)
        with pytest.raises(ChannelError):
            block.leave(channel, -1)

    def test_tree_only_fast_path_counts(self):
        net = build_net()  # TREE_ONLY default
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2")
        agent = net.router_agent("n2")
        block.join(channel, 1)  # transition: full path
        assert agent.block_fast_updates == 0
        block.join(channel, 41)  # same-sign: fast path
        block.leave(channel, 2)
        assert agent.block_fast_updates == 2
        state = agent.channels[channel]
        assert state.downstream[block.pseudo].count == 40
        block.leave(channel, 40)  # transition to zero: full path
        assert agent.block_fast_updates == 2


class TestDataPlane:
    def test_final_hop_delivery_is_arithmetic(self):
        net = build_net()
        source = net.source("hsrc")
        channel = source.allocate_channel()
        block = net.subscriber_block("n2")
        block.join(channel, 1000)
        net.settle()
        for _ in range(3):
            source.send(channel)
        net.settle()
        assert block.packets_seen == 3
        assert block.deliveries == 3000
        assert block.bytes_delivered > 0
        # The edge keeps an RPF-valid FIB entry with no outgoing
        # interfaces: packets terminate there without §3.4 no-match
        # drops and without any fan-out link events.
        fib = net.fibs["n2"]
        assert fib.no_match_drops == 0
        entry = fib.get(channel.source, channel.group)
        assert entry is not None and entry.outgoing == 0

    def test_block_and_host_coexist_at_one_edge(self):
        net = build_net()
        source = net.source("hsrc")
        channel = source.allocate_channel()
        block = net.subscriber_block("n2")
        block.join(channel, 7)
        got = []
        net.host("hsub").subscribe(channel, on_data=got.append)
        net.settle()
        source.send(channel)
        net.settle()
        assert len(got) == 1  # real host still gets real packets
        assert block.deliveries == 7

    def test_prune_after_last_leave(self):
        net = build_net()
        source = net.source("hsrc")
        channel = source.allocate_channel()
        block = net.subscriber_block("n2")
        block.join(channel, 4)
        net.settle()
        assert net.fibs["n1"].get(channel.source, channel.group) is not None
        block.leave(channel, 4)
        net.settle()
        assert net.fibs["n2"].get(channel.source, channel.group) is None
        assert net.fibs["n1"].get(channel.source, channel.group) is None


class TestCountQuery:
    def test_block_counts_fold_into_query(self):
        net = build_net()
        source = net.source("hsrc")
        channel = source.allocate_channel()
        net.subscriber_block("n2").join(channel, 123)
        net.host("hsub").subscribe(channel)
        net.settle()
        result = source.count_query(channel, timeout=2.0)
        net.settle(3.0)
        assert result.done and not result.partial
        assert result.count == 124


class TestUdpSoftState:
    def test_udp_block_refreshes_and_survives(self):
        net = build_net(default_mode=NeighborMode.UDP)
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2", udp=True)
        block.join(channel, 50)
        agent = net.router_agent("n2")
        horizon = EcmpAgent.UDP_ROBUSTNESS * EcmpAgent.UDP_QUERY_INTERVAL
        net.run(until=net.sim.now + 2 * horizon)
        # Refresh timer kept the record alive through several expiry
        # sweeps.
        assert agent.channels[channel].downstream[block.pseudo].count == 50
        assert block.count(channel) == 50

    def test_stopped_udp_block_expires(self):
        net = build_net(default_mode=NeighborMode.UDP)
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2", udp=True)
        block.join(channel, 50)
        net.settle()
        block.stop()  # refresh timer dies; soft state must age out
        agent = net.router_agent("n2")
        horizon = EcmpAgent.UDP_ROBUSTNESS * EcmpAgent.UDP_QUERY_INTERVAL
        net.run(until=net.sim.now + 3 * horizon)
        state = agent.channels.get(channel)
        record = None if state is None else state.downstream.get(block.pseudo)
        assert record is None
        # Expiry reconciled the block's own ledger and the delivery
        # index, not just the protocol record.
        assert block.count(channel) == 0
        assert agent.channel_blocks.get(channel) is None

    def test_tcp_block_needs_no_refresh(self):
        net = build_net()
        channel = net.source("hsrc").allocate_channel()
        block = net.subscriber_block("n2")  # udp=False
        assert block._refresh_task is None
        block.join(channel, 5)
        horizon = EcmpAgent.UDP_ROBUSTNESS * EcmpAgent.UDP_QUERY_INTERVAL
        net.run(until=net.sim.now + 3 * horizon)
        assert block.count(channel) == 5


class TestDeliveryAccounting:
    """Block delivery counters against a per-packet oracle taken at
    each delivery, across every way membership moves: join, leave, a
    committed batch slot and a UDP expiry."""

    @pytest.mark.parametrize("with_obs", [False, True], ids=["obs_off", "obs_on"])
    def test_counters_match_per_packet_oracle(self, with_obs):
        # hsrc - n0 - n1 - n2 (edge). Coarse 50 ms wheel slots so a
        # bulk-scheduled burst of block ops lands in one batchable slot.
        topo = Topology(wheel_granularity=0.05)
        for name in ("hsrc", "n0", "n1", "n2"):
            topo.add_node(name)
        for a, b in (("hsrc", "n0"), ("n0", "n1"), ("n1", "n2")):
            topo.add_link(a, b, delay=0.001)
        obs = Observability() if with_obs else None
        net = ExpressNetwork(
            topo, hosts=["hsrc"], default_mode=NeighborMode.UDP, obs=obs
        )
        net.run(until=0.01)
        source = net.source("hsrc")
        channel = source.allocate_channel()
        blocks = [net.subscriber_block("n2", udp=True) for _ in range(3)]
        first, second, doomed = blocks
        forwarder = net.forwarders["n2"]

        oracle = {id(b): [0, 0, 0] for b in blocks}
        totals = {"block_packets": 0, "block_deliveries": 0}
        deliver = forwarder._deliver_local

        def observed(packet):
            # The oracle reads each block's own membership at the
            # moment the packet arrives, before the forwarder counts it.
            if (packet.src, packet.dst) == (channel.source, channel.group):
                members = 0
                for block in blocks:
                    m = block.count(channel)
                    if m:
                        row = oracle[id(block)]
                        row[0] += 1
                        row[1] += m
                        row[2] += m * packet.size
                        members += m
                if members:
                    totals["block_packets"] += 1
                    totals["block_deliveries"] += members
            return deliver(packet)

        forwarder._deliver_local = observed
        sizes = iter(range(100, 10_000, 37))

        def send(n=1):
            for _ in range(n):
                source.send(channel, size=next(sizes))
            net.settle()

        first.join(channel, 10)
        doomed.join(channel, 3)
        net.settle()
        send(2)
        second.join(channel, 5)
        send()
        first.leave(channel, 4)
        send()

        # A burst of ±1 ops inside one wheel slot, then a packet.
        base = net.sim.now + 1.0
        ops = [(base + 0.001 * i, first.join_op(channel)) for i in range(6)]
        ops += [(base + 0.01 + 0.001 * i, second.leave_op(channel)) for i in range(2)]
        net.sim.schedule_bulk(ops, name="op")
        net.sim.schedule_at(base + 0.2, lambda: source.send(channel, size=next(sizes)))
        net.run(until=base + 0.5)
        assert (first.count(channel), second.count(channel)) == (12, 3)
        if obs is None:
            # Dispatch listeners (obs) make the engine fall back to
            # per-event dispatch; without them the slot is batched.
            assert net.sim.batched_slots > 0

        # The doomed block stops refreshing and ages out while packets
        # keep flowing.
        doomed.stop()
        horizon = EcmpAgent.UDP_ROBUSTNESS * EcmpAgent.UDP_QUERY_INTERVAL
        start = net.sim.now
        for k in range(1, 8):
            net.sim.schedule_at(
                start + k * horizon / 2,
                lambda: source.send(channel, size=next(sizes)),
            )
        net.run(until=start + 4 * horizon)
        assert doomed.count(channel) == 0
        assert doomed not in net.router_agent("n2").channel_blocks[channel]

        second.leave(channel, 3)
        send(2)

        # Every packet sent reached the edge while members were there.
        assert totals["block_packets"] == 2 + 1 + 1 + 1 + 7 + 2
        for block in blocks:
            assert [
                block.packets_seen, block.deliveries, block.bytes_delivered
            ] == oracle[id(block)]
        assert forwarder.stats.get("block_packets") == totals["block_packets"]
        assert forwarder.stats.get("block_deliveries") == totals["block_deliveries"]
        if obs is not None:
            hist = obs.registry.get("delivery_latency_seconds").labels(
                protocol="express", node="n2", channel=channel
            )
            assert hist.count == totals["block_packets"]
