"""Pulled metrics: the registry reads the simulator's own counters.

Link attributes and the agents' ``stats`` bags are the one place each
fact is counted; registry collectors copy them into families at
``collect()``. These tests pin the equalities that make that safe, and
that per-event paths never resolve a label set twice.
"""

from repro.core.network import ExpressNetwork
from repro.netsim.topology import TopologyBuilder
from repro.netsim.trace import Counter
from repro.obs import Observability, attach_topology
from repro.obs.registry import MetricFamily


def series(registry, name):
    """``{label_values: value}`` for one family (no collect)."""
    return {values: child.value for values, child in registry.get(name).children()}


def churn_and_fanout(obs=None):
    topo = TopologyBuilder.isp(n_transit=3, stubs_per_transit=2, hosts_per_stub=2)
    # One lossy access link so the loss family is not all zeros.
    topo.node("h2_1_1").interfaces[0].link.loss = 0.3
    net = ExpressNetwork(topo, obs=obs)
    net.run(until=0.1)
    traffic(net)
    return net


def traffic(net):
    source = net.source("h0_0_0")
    channel = source.allocate_channel()
    hosts = ["h1_0_0", "h1_0_1", "h2_1_0", "h2_1_1"]
    for name in hosts:
        net.host(name).subscribe(channel)
    net.settle()
    for _ in range(5):
        source.send(channel)
    net.settle()
    net.host("h1_0_1").unsubscribe(channel)
    net.host("h0_1_0").subscribe(channel)
    net.settle()
    for _ in range(5):
        source.send(channel)
    net.settle()


class TestPulledFamilies:
    def setup_method(self):
        self.obs = Observability()
        self.net = churn_and_fanout(self.obs)
        self.obs.registry.collect()

    def test_stats_is_a_plain_counter(self):
        for agent in self.net.ecmp_agents.values():
            assert type(agent.stats) is Counter
        for forwarder in self.net.forwarders.values():
            assert type(forwarder.stats) is Counter

    def test_event_families_equal_stats(self):
        registry = self.obs.registry
        ecmp = series(registry, "ecmp_events_total")
        expected = {
            (name, event): value
            for name, agent in self.net.ecmp_agents.items()
            for event, value in agent.stats.as_dict().items()
        }
        assert ecmp == expected
        assert sum(v for (_, e), v in expected.items() if e == "counts_rx") > 0
        forwarder = series(registry, "forwarder_events_total")
        expected = {
            (name, event): value
            for name, fwd in self.net.forwarders.items()
            for event, value in fwd.stats.as_dict().items()
        }
        assert forwarder == expected
        assert expected[("h1_0_0", "local_deliveries")] == 10

    def test_derived_ecmp_families_equal_stats(self):
        registry = self.obs.registry
        wire = series(registry, "ecmp_bytes_on_wire")
        coalesced = series(registry, "ecmp_msgs_coalesced")
        logical = series(registry, "ecmp_bytes_total")
        for name, agent in self.net.ecmp_agents.items():
            stats = agent.stats
            assert wire.get((name, "tx"), 0) == stats["bytes_on_wire"]
            assert wire.get((name, "rx"), 0) == stats["bytes_on_wire_rx"]
            assert coalesced.get((name,), 0) == stats["msgs_coalesced"]
            assert logical.get((name, "tx"), 0) == stats["bytes_tx"]
        assert sum(v for (_, d), v in wire.items() if d == "tx") > 0

    def test_link_families_equal_link_attributes(self):
        registry = self.obs.registry
        families = {
            "link_packets_total": "tx_packets",
            "link_lost_packets_total": "lost_packets",
            "link_ecmp_wire_packets_total": "ecmp_wire_packets",
            "link_ecmp_wire_bytes_total": "ecmp_wire_bytes",
        }
        for family, attr in families.items():
            expected = {
                (f"{link.node_a.name}--{link.node_b.name}",): getattr(link, attr)
                for link in self.net.topo.links
            }
            assert series(registry, family) == expected, family
        assert sum(series(registry, "link_lost_packets_total").values()) > 0

    def test_second_collect_changes_nothing(self):
        registry = self.obs.registry
        first = registry.snapshot()
        assert registry.snapshot() == first


class TestLateAttach:
    def test_links_report_counts_since_attach(self):
        net = churn_and_fanout(obs=None)
        links = net.topo.links
        before = [link.tx_packets for link in links]
        assert sum(before) > 0
        obs = attach_topology(net.topo, Observability())
        assert set(series(obs.registry, "link_packets_total").values()) == {0}
        obs.registry.collect()
        assert set(series(obs.registry, "link_packets_total").values()) == {0}

        traffic(net)
        collectors = len(obs.registry._collectors)
        attach_topology(net.topo, obs)  # re-attach keeps the baseline
        assert len(obs.registry._collectors) == collectors
        obs.registry.collect()
        expected = {
            (f"{link.node_a.name}--{link.node_b.name}",): link.tx_packets - base
            for link, base in zip(links, before)
        }
        assert series(obs.registry, "link_packets_total") == expected
        assert sum(expected.values()) > 0


class TestLabelLookups:
    def test_steady_fanout_resolves_each_series_once(self, monkeypatch):
        obs = Observability()
        topo = TopologyBuilder.balanced_tree(depth=5, fanout=2, seed=0)
        leaves = [n for n, node in topo.nodes.items() if len(node.interfaces) == 1]
        net = ExpressNetwork(topo, hosts=["r"] + leaves, obs=obs)
        source = net.source("r")
        channel = source.allocate_channel()
        for leaf in leaves:
            net.host(leaf).subscribe(channel)
        net.settle(1.0)

        calls = [0]
        labels = MetricFamily.labels

        def counting(self, **kwargs):
            calls[0] += 1
            return labels(self, **kwargs)

        monkeypatch.setattr(MetricFamily, "labels", counting)
        families = list(obs.registry._families.values())
        series_before = sum(len(f.children()) for f in families)
        events_before = net.sim.events_processed
        for k in range(60):
            net.sim.schedule(0.002 * k, lambda: source.send(channel), name="send")
        net.settle(1.0)
        events = net.sim.events_processed - events_before
        created = sum(len(f.children()) for f in families) - series_before

        assert events > 3_000
        assert 0 < calls[0] <= created
