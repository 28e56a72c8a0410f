"""Property tests: an ECMP downstream record behaves like a plain
record of fields, and the refresh ring expires soft state on exactly
the tick a full-table scan would.

Two layers:

* **Record level** — any sequence of field writes applied to a
  :class:`DownstreamRecord` and to a plain dict of the same fields
  leaves the two observably identical: values, types, ``repr`` and
  equality.
* **Network level** — under a randomized subscribe/unsubscribe/
  silence workload, every refresh tick expires exactly the UDP records
  whose lease has run out: a record expires on the first tick at which
  ``now - UDP_ROBUSTNESS × UDP_QUERY_INTERVAL`` has passed its
  ``updated_at``, and never earlier. That is the full-table scan's
  rule, checked tick by tick against the live tables.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ecmp.protocol import EcmpAgent
from repro.core.ecmp.state import LOCAL, DownstreamRecord
from repro.core.network import ExpressNetwork
from repro.netsim.topology import TopologyBuilder

FIELD_WRITES = st.lists(
    st.one_of(
        st.tuples(st.just("count"), st.integers(min_value=0, max_value=1 << 31)),
        st.tuples(st.just("validated"), st.booleans()),
        st.tuples(st.just("udp"), st.booleans()),
        st.tuples(
            st.just("updated_at"),
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        ),
        st.tuples(st.just("presented_key"), st.one_of(st.none(), st.binary(max_size=8))),
    ),
    max_size=12,
)

RECORD_FIELDS = ("count", "validated", "presented_key", "updated_at", "udp")

#: The field model: a fresh record's values.
DEFAULTS = {
    "count": 0,
    "validated": True,
    "presented_key": None,
    "updated_at": 0.0,
    "udp": False,
}


def assert_matches_model(record: DownstreamRecord, model: dict) -> None:
    for field in RECORD_FIELDS:
        value = getattr(record, field)
        assert value == model[field], field
        assert type(value) is type(model[field]), field
    assert repr(record) == (
        f"DownstreamRecord(count={model['count']}, validated={model['validated']}, "
        f"presented_key={model['presented_key']!r}, "
        f"updated_at={model['updated_at']}, udp={model['udp']})"
    )


class TestRecordEquivalence:
    @given(
        count=st.integers(min_value=0, max_value=1 << 31),
        validated=st.booleans(),
        udp=st.booleans(),
        updated_at=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        writes=FIELD_WRITES,
    )
    def test_any_write_sequence_is_backend_invisible(
        self, count, validated, udp, updated_at, writes
    ):
        model = dict(DEFAULTS, count=count, validated=validated, udp=udp,
                     updated_at=updated_at)
        record = DownstreamRecord(
            count=count, validated=validated, udp=udp, updated_at=updated_at
        )
        twin = DownstreamRecord(
            count=count, validated=validated, udp=udp, updated_at=updated_at
        )
        assert_matches_model(record, model)
        for field, value in writes:
            setattr(record, field, value)
            model[field] = value
            assert_matches_model(record, model)
        # Equality is by field, so a twin given the same writes agrees.
        for field, value in writes:
            setattr(twin, field, value)
        assert record == twin

    def test_field_types_survive_the_bank(self):
        record = DownstreamRecord(count=3, updated_at=1.5)
        assert type(record.count) is int
        assert type(record.updated_at) is float
        assert type(record.validated) is bool
        assert type(record.udp) is bool

    def test_unequal_to_differing_record(self):
        assert DownstreamRecord(count=1) != DownstreamRecord(count=2)
        assert DownstreamRecord(count=1) != object()


# ---------------------------------------------------------------------------
# refresh-ring expiry timing
# ---------------------------------------------------------------------------


def watch_expiries(agent: EcmpAgent) -> list:
    """Wrap ``agent``'s refresh tick so every tick checks its expiries.

    Before the tick, every live UDP record is noted with its
    ``updated_at``; after it, the records that vanished (or dropped to
    a zero count) must be exactly those whose lease had run out, and
    ``udp_expirations`` must have grown by that many. Returns the list
    the wrapper appends ``(tick time, expired keys)`` to.
    """
    ticks = []
    original = agent._do_udp_refresh_tick
    lease = agent.UDP_ROBUSTNESS * agent.UDP_QUERY_INTERVAL

    def live_udp_records():
        return {
            (channel, name): record.updated_at
            for channel, state in agent.channels.items()
            for name, record in state.downstream.items()
            if name != LOCAL and record.udp and record.count > 0
        }

    def checked_tick():
        now = agent.sim.now
        before = live_udp_records()
        expirations = agent.stats.get("udp_expirations")
        original()
        after = live_udp_records()
        expired = {key for key in before if key not in after}
        due = {key for key, updated_at in before.items() if updated_at < now - lease}
        assert expired == due, (now, expired, due)
        assert agent.stats.get("udp_expirations") - expirations == len(due)
        ticks.append((now, expired))

    agent._do_udp_refresh_tick = checked_tick
    return ticks


def build_star(phase: float):
    """A UDP-edge star whose agents start ``phase`` refresh intervals
    after time zero, so refresh ticks fall off the ring's bucket grid
    (bucket bounds are multiples of the interval)."""
    topo = TopologyBuilder.star(4)
    net = ExpressNetwork(topo, hosts=[f"leaf{i}" for i in range(4)], edge_udp=True)
    start = phase * EcmpAgent.UDP_QUERY_INTERVAL
    net.sim.run(until=start)
    net.run(until=start + 0.01)
    return net


# One step per (leaf, channel) pair: join, leave (zero Count +
# re-query), or go silent (stop answering queries — soft-state expiry).
OPS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),  # leaf index (leaf0 = source)
        st.integers(min_value=0, max_value=1),  # channel index
        st.sampled_from(["join", "leave", "silence"]),
    ),
    min_size=1,
    max_size=8,
)


def run_ops(ops, phase: float = 0.0) -> tuple[ExpressNetwork, list]:
    net = build_star(phase)
    ticks = watch_expiries(net.ecmp_agents["hub"])
    src = net.source("leaf0")
    chans = [src.allocate_channel(suffix=1 + k) for k in range(2)]
    base = net.sim.now
    for step, (leaf, chan, action) in enumerate(ops):
        at = base + 0.1 + 0.25 * step
        host = f"leaf{leaf}"
        if action == "join":
            net.sim.schedule_at(at, lambda n=host, c=chans[chan]: net.host(n).subscribe(c))
        elif action == "leave":
            net.sim.schedule_at(
                at, lambda n=host, c=chans[chan]: net.host(n).unsubscribe(c)
            )
        else:
            # Vanish without a zero Count: the hub's soft state for this
            # host must age out on the first tick past its lease.
            def silence(n=host):
                agent = net.ecmp_agents[n]
                agent.subscriptions.clear()
                agent.channels.clear()

            net.sim.schedule_at(at, silence)
    # Run well past the soft-state horizon so every expiry lands.
    horizon = (EcmpAgent.UDP_ROBUSTNESS + 2) * EcmpAgent.UDP_QUERY_INTERVAL
    net.run(until=base + 0.1 + 0.25 * len(ops) + horizon)
    return net, ticks


class TestRefreshExpiry:
    @settings(max_examples=15, deadline=None)
    @given(ops=OPS, phase=st.floats(min_value=0.0, max_value=0.99))
    def test_udp_records_expire_on_first_tick_past_their_lease(self, ops, phase):
        net, ticks = run_ops(ops, phase)
        assert ticks, "the refresh tick never ran"
        # Silent hosts leave nothing behind once the horizon has passed.
        hub = net.ecmp_agents["hub"]
        lease = hub.UDP_ROBUSTNESS * hub.UDP_QUERY_INTERVAL
        last_tick = ticks[-1][0]
        for state in hub.channels.values():
            for name, record in state.downstream.items():
                if name != LOCAL and record.udp and record.count > 0:
                    assert record.updated_at >= last_tick - lease

    @pytest.mark.parametrize("phase", [0.0, 0.5])
    @pytest.mark.parametrize("leaf", [1, 3])
    def test_silenced_host_expires_exactly_once(self, leaf, phase):
        net, ticks = run_ops([(leaf, 0, "join"), (leaf, 0, "silence")], phase)
        expired = [(now, keys) for now, keys in ticks if keys]
        assert len(expired) == 1
        now, keys = expired[0]
        assert {name for _, name in keys} == {f"leaf{leaf}"}
        assert net.ecmp_agents["hub"].stats.get("udp_expirations") == 1
