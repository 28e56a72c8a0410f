"""The EXPRESS data plane (§3.4).

"The EXPRESS forwarding procedure is nearly identical to that of
conventional IP multicast. ... when a router receives an EXPRESS
packet, it looks up (S,E) in the FIB and forwards the packet to the set
of outgoing network interfaces, if the incoming interface matches the
FIB entry's, dropping or forwarding to the CPU if not. An EXPRESS
multicast packet that does not match an exact (S,E) entry in the FIB is
simply counted and dropped, as opposed to being forwarded to a
rendezvous point as in PIM-SM, or broadcast, as with PIM-DM and
DVMRP."

The same agent also forwards ordinary unicast datagrams (needed by the
session-relay middleware and by subcast's encapsulated leg) and handles
subcast decapsulation (§2.1): an on-tree router that receives an
IP-in-IP packet addressed to itself, whose inner packet targets a
channel it has state for, "decapsulates the packet received from S and
forwards it toward all downstream channel receivers".
"""

from __future__ import annotations

from typing import Callable

from repro.core.channel import lookup_channel
from repro.core.ecmp.protocol import EcmpAgent
from repro.errors import ForwardingError
from repro.inet.addr import is_ssm, is_unicast
from repro.netsim.node import Node, ProtocolAgent
from repro.netsim.packet import Packet
from repro.netsim.trace import Counter
from repro.routing.fib import DROPPED, MulticastFib
from repro.routing.unicast import UnicastRouting

PROTO_DATA = "data"
PROTO_IPIP = "ipip"


class ExpressForwarder(ProtocolAgent):
    """Data-plane forwarding for one node.

    Registered for the ``data`` and ``ipip`` protocols. Uses only the
    FIB for multicast decisions — mirroring the paper's point that
    EXPRESS needs *no change* to deployed fast paths.
    """

    def __init__(
        self,
        node: Node,
        routing: UnicastRouting,
        fib: MulticastFib,
        ecmp: EcmpAgent,
        obs=None,
    ) -> None:
        super().__init__(node)
        self.routing = routing
        self.fib = fib
        self.ecmp = ecmp
        self.obs = obs
        self.stats = Counter()
        self._m_delivery = None
        #: channel -> delivery-latency histogram child (obs mode only),
        #: resolved the first time the channel delivers here.
        self._c_delivery: dict = {}
        if obs is not None:
            registry = obs.registry
            self._m_events = registry.counter(
                "forwarder_events_total",
                "Data-plane forwarding events by node",
                ("node", "event"),
            )
            self._m_delivery = registry.histogram(
                "delivery_latency_seconds",
                "End-to-end data delivery latency from source emit to "
                "subscriber delivery",
                ("protocol", "node", "channel"),
            )
            registry.register_collector(self._collect)
        #: Callbacks for unicast datagrams addressed to this node.
        self._unicast_sinks: list[Callable[[Packet], None]] = []

    def _collect(self) -> None:
        """Registry collector: publish ``stats`` as ``forwarder_events_total``."""
        node = self.node.name
        for event, value in self.stats.as_dict().items():
            self._m_events.child((node, event)).value = value

    def _delivery_hist(self, channel):
        """The delivery-latency child for ``channel``; None without obs."""
        if self._m_delivery is None:
            return None
        child = self._c_delivery.get(channel)
        if child is None:
            child = self._c_delivery[channel] = self._m_delivery.labels(
                protocol="express", node=self.node.name, channel=channel
            )
        return child

    def on_unicast_delivery(self, callback: Callable[[Packet], None]) -> None:
        """Register an application sink for unicast packets addressed
        to this node (used by the session-relay middleware)."""
        self._unicast_sinks.append(callback)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet, ifindex: int) -> None:
        if packet.proto == PROTO_IPIP:
            self._handle_encapsulated(packet, ifindex)
            return
        if is_ssm(packet.dst):
            self._handle_express(packet, ifindex)
            return
        if is_unicast(packet.dst):
            self._handle_unicast(packet, ifindex)
            return
        # Conventional class-D traffic is outside this forwarder's
        # remit (IGMP-managed LANs handle it); count and drop.
        self.stats.incr("non_express_multicast_drops")

    def _handle_express(self, packet: Packet, ifindex: int) -> None:
        if packet.src == self.node.address:
            # A channel packet claiming to be from us arriving on a
            # wire is spoofed or looped; never process it.
            self.stats.incr("self_spoof_drops")
            return
        if self.ecmp.role == "host":
            self._deliver_local(packet)
            return  # hosts terminate channels; they never relay
        oifs = self.fib.lookup(packet.src, packet.dst, ifindex)
        if oifs is DROPPED:
            # Block members sit behind this router's FIB entry, so a
            # packet failing its exact-match or incoming-interface
            # check (§2: only S may send to (S, E)) never reaches them.
            delivered = self._deliver_local(packet, to_blocks=False)
        else:
            delivered = self._deliver_local(packet)
        self._fan_out(packet, oifs, consume=not delivered)

    def _handle_unicast(self, packet: Packet, ifindex: int) -> None:
        if packet.dst == self.node.address:
            self.stats.incr("unicast_delivered")
            for sink in self._unicast_sinks:
                sink(packet)
            return
        target = self.routing.topo.node_by_address(packet.dst)
        if target is None:
            self.stats.incr("unicast_no_route_drops")
            return
        hop = self.routing.next_hop(self.node.name, target.name)
        if hop is None:
            self.stats.incr("unicast_no_route_drops")
            return
        forwarded = packet.copy()
        forwarded.ttl = packet.ttl - 1
        self.stats.incr("unicast_forwarded")
        self.node.send_to_neighbor(forwarded, self.routing.topo.node(hop))

    def _handle_encapsulated(self, packet: Packet, ifindex: int) -> None:
        if packet.dst != self.node.address:
            # In-transit tunnel packet: plain unicast forwarding.
            self._handle_unicast(packet, ifindex)
            return
        if not packet.is_encapsulated():
            self.stats.incr("bad_decap_drops")
            return
        inner = packet.decapsulate()
        if not is_ssm(inner.dst):
            self.stats.incr("bad_decap_drops")
            return
        # Subcast (§2.1): only the channel source may subcast — enforce
        # by requiring the outer source to equal the inner (channel)
        # source, "preserving the single-source property" (§7.1).
        if packet.src != inner.src:
            self.stats.incr("subcast_auth_drops")
            return
        entry = self.fib.get(inner.src, inner.dst)
        if entry is None:
            self.stats.incr("subcast_off_tree_drops")
            return
        self.stats.incr("subcast_relayed")
        delivered = self._deliver_local(inner)
        self._fan_out(inner, entry.outgoing_interfaces(), consume=not delivered)

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------

    def emit_local(self, packet: Packet) -> int:
        """Inject a channel packet sourced at this node (the channel
        source's own transmission). Skips the incoming-interface check;
        returns the number of interfaces forwarded on."""
        if not is_ssm(packet.dst):
            raise ForwardingError("emit_local is for EXPRESS packets")
        if packet.src != self.node.address:
            raise ForwardingError(
                "only the designated source may emit on a channel"
            )
        delivered = self._deliver_local(packet)  # a source subscribed to itself
        entry = self.fib.get(packet.src, packet.dst)
        if entry is None:
            self.fib.no_match_drops += 1
            return 0
        oifs = entry.outgoing_interfaces()
        self._fan_out(packet, oifs, consume=not delivered)
        return len(oifs)

    def emit_unicast(self, packet: Packet) -> bool:
        """Inject a locally-originated unicast packet."""
        if packet.dst == self.node.address:
            for sink in self._unicast_sinks:
                sink(packet)
            return True
        target = self.routing.topo.node_by_address(packet.dst)
        if target is None:
            return False
        hop = self.routing.next_hop(self.node.name, target.name)
        if hop is None:
            return False
        return self.node.send_to_neighbor(packet, self.routing.topo.node(hop))

    def _fan_out(self, packet: Packet, oifs: list[int], consume: bool = False) -> None:
        """Replicate ``packet`` onto ``oifs``.

        With ``consume=True`` the caller relinquishes ownership of the
        packet object, so the final interface sends the original with
        its TTL decremented in place instead of a defensive copy —
        zero-copy relay on degree-1 tree edges, the common case on deep
        distribution trees. Callers must pass ``consume=False`` whenever
        the packet remains visible elsewhere (delivered to a local
        subscriber whose ``on_data`` may retain it).
        """
        n = len(oifs)
        if n == 0:
            return
        self.stats.incr("multicast_forwarded", n)
        send = self.node.send
        for i in range(n - 1):
            copy = packet.copy()
            copy.ttl = packet.ttl - 1
            send(copy, oifs[i])
        if consume:
            packet.ttl -= 1
            self.stats.incr("fanout_inplace")
            send(packet, oifs[n - 1])
        else:
            copy = packet.copy()
            copy.ttl = packet.ttl - 1
            send(copy, oifs[n - 1])

    def _deliver_local(self, packet: Packet, to_blocks: bool = True) -> bool:
        """Deliver to a local subscription, if any; True if delivered.
        With ``to_blocks`` the packet also reaches the channel's
        subscriber blocks."""
        # Every layer (codec, FIB, delivery) shares the process-wide
        # (src, dst) memo; invalid pairs are negative-cached.
        channel = lookup_channel(packet.src, packet.dst)
        if channel is None:
            return False
        blocks = to_blocks and self.ecmp.channel_blocks.get(channel)
        if blocks:
            # Aggregated final hop: the packet terminates here for every
            # block member — counted arithmetically instead of fanned
            # out as N link events (see repro.core.blocks).
            size = packet.size
            members = 0
            for block in blocks:
                n = block.members.get(channel, 0)
                block.packets_seen += 1
                block.deliveries += n
                block.bytes_delivered += size * n
                members += n
            if members:
                self.stats.incr("block_deliveries", members)
                self.stats.incr("block_packets")
                if self._m_delivery is not None:
                    self._delivery_hist(channel).observe(
                        self.sim.now - packet.created_at
                    )
        handle = self.ecmp.subscriptions.get(channel)
        if handle is None or handle.status != "active":
            return False
        handle.packets_received += 1
        handle.bytes_received += packet.size
        self.stats.incr("local_deliveries")
        if self._m_delivery is not None:
            self._delivery_hist(channel).observe(self.sim.now - packet.created_at)
        if handle.on_data is not None:
            handle.on_data(packet)
        return True
