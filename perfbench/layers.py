"""Outside-in layer tracing for the benchmark's traced run.

:class:`LayerTracer` replaces public entry points of the ``repro``
modules, at class or module level, with timing wrappers, before any
network is built. Each wrapper records calls, work units, inclusive
time and self time (inclusive time minus the time spent in wrapped
callees). Nothing inside ``src/repro`` is edited; :meth:`uninstall`
puts every original back.

:func:`layer_metrics` turns one traced timed window (the tracer's
records plus library counter deltas) into the per-layer metrics named
in ``BENCHMARK.json``. Every metric is reported on every workload; a
layer a workload leaves idle reads 0.
"""

from __future__ import annotations

from time import perf_counter_ns

import repro.core.ecmp.protocol as protocol_module
from repro.core.blocks import BlockOp, SubscriberBlock
from repro.core.ecmp.messages import EcmpBatch
from repro.core.ecmp.protocol import EcmpAgent
from repro.core.ecmp.refresh import RefreshRing
from repro.core.ecmp.state import StateBank
from repro.core.forwarding import ExpressForwarder
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.obs.registry import MetricFamily
from repro.obs.tracing import Tracer
from repro.routing.fib import MulticastFib
from repro.routing.unicast import UnicastRouting

#: Message classes by the suffix their rx metric carries.
RX_TYPES = {"Count": "count", "CountQuery": "query", "CountResponse": "response"}


def _records_of(message) -> int:
    return len(message.messages) if isinstance(message, EcmpBatch) else 1


class LayerTracer:
    """Self-time and call accounting around wrapped entry points."""

    def __init__(self) -> None:
        #: ``key -> [calls, units, self_ns, inclusive_ns]``
        self.records: dict[str, list[int]] = {}
        # One child-time accumulator per active wrapped call; the base
        # frame sums the time of outermost calls.
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []
        self._last_decoded = None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point (idempotent per tracer)."""
        if self._patches:
            return
        wrap = self._wrap
        wrap(Simulator, "schedule", _calls("netsim.engine.insert"))
        wrap(Simulator, "schedule_at", _calls("netsim.engine.insert"))
        wrap(Simulator, "schedule_bulk", _units("netsim.engine.insert", _result))
        wrap(Simulator, "run", _units("netsim.engine.run", _result))
        # An op's unit is counted by the join or leave it calls.
        wrap(BlockOp, "__call__", _units("core.blocks.op", _no_units))
        wrap(SubscriberBlock, "join", _calls("core.blocks.op"))
        wrap(SubscriberBlock, "leave", _calls("core.blocks.op"))
        wrap(ExpressForwarder, "handle_packet", _calls("core.forwarding.packet"))
        wrap(ExpressForwarder, "emit_local", _calls("core.forwarding.packet"))
        wrap(MulticastFib, "lookup", _calls("routing.fib.lookup"))
        wrap(MulticastFib, "install", _calls("routing.fib.install"))
        wrap(MulticastFib, "remove", _calls("routing.fib.remove"))
        wrap(Link, "transmit", _calls("netsim.link.transmit"))
        wrap(Node, "receive", _calls("netsim.node.receive"))
        wrap(EcmpAgent, "handle_packet", self._received)
        wrap(EcmpAgent, "new_subscription", _calls("core.ecmp.protocol.subscribe"))
        wrap(EcmpAgent, "delete_subscription", _calls("core.ecmp.protocol.subscribe"))
        # The protocol imports the codec functions by name, so they are
        # replaced in its namespace, where its calls look them up.
        wrap(protocol_module, "encode_message", _units(
            "core.ecmp.messages.encode", lambda args, result: _records_of(args[0])
        ))
        wrap(protocol_module, "decode_message", self._decoded)
        wrap(StateBank, "alloc", _calls("core.ecmp.state.alloc"))
        wrap(StateBank, "release", _calls("core.ecmp.state.release"))
        wrap(RefreshRing, "due", _calls("core.ecmp.refresh.tick"))
        wrap(UnicastRouting, "recompute", _calls("routing.unicast.recompute"))
        wrap(UnicastRouting, "next_hop", _calls("routing.unicast.next_hop"))
        wrap(MetricFamily, "labels", _calls("obs.labels"))
        wrap(Tracer, "start_span", _calls("obs.span"))
        wrap(Tracer, "end", _units("obs.span", _no_units))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def reset(self) -> None:
        """Forget all records (call outside any wrapped call)."""
        self.records.clear()
        self._stack[:] = [0]

    def _decoded(self, args, message):
        # A failed decode leaves None, so no later frame is misread.
        self._last_decoded = message
        return "core.ecmp.messages.decode", _records_of(message)

    def _received(self, args, result):
        """Charge ``EcmpAgent.handle_packet`` to the frame's message type.

        A frame whose records all share one type is charged to that
        type, per message; mixed batch frames go to ``rx.mixed``. The
        record's inclusive time is the router's whole cost of handling
        the message, the quantity the paper's §5.3 T4 figure counts.
        """
        packet = args[1]
        message = packet.headers.get("ecmp")
        if message is None and isinstance(packet.payload, bytes):
            message = self._last_decoded  # decoded inside this call
        if isinstance(message, EcmpBatch):
            kinds = {type(m).__name__ for m in message.messages}
            messages = len(message.messages)
        else:
            kinds = {type(message).__name__}
            messages = 1
        kind = RX_TYPES.get(kinds.pop(), "other") if len(kinds) == 1 else "mixed"
        return "core.ecmp.protocol.rx." + kind, messages

    def _wrap(self, owner, name: str, account) -> None:
        """Replace ``owner.name`` with a timing wrapper.

        ``account(args, result)`` names the record a call is charged to
        and the work units it did.
        """
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        stack = self._stack
        records = self.records
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                key, units = account(args, result)
                record = records.get(key)
                if record is None:
                    record = records[key] = [0, 0, 0, 0]
                record[0] += 1
                record[1] += units
                record[2] += elapsed - child
                record[3] += elapsed

        wrapper.__wrapped__ = original
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)


def _calls(key: str):
    """Account one unit of work per call."""
    charged = (key, 1)
    return lambda args, result: charged


def _units(key: str, count):
    """Account ``count(args, result)`` units of work per call."""
    return lambda args, result: (key, count(args, result))


def _result(args, result) -> int:
    return result


def _no_units(args, result) -> int:
    return 0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = [
    ("netsim.engine.events", "count", "lower"),
    ("netsim.engine.insert_ns", "ns", "lower"),
    ("netsim.engine.run_self_ns_per_event", "ns", "lower"),
    ("netsim.engine.batched_frac", "ratio", "higher"),
    ("core.blocks.op_ns", "ns", "lower"),
    ("core.blocks.ops", "count", "higher"),
    ("core.forwarding.packet_ns", "ns", "lower"),
    ("routing.fib.lookup_ns", "ns", "lower"),
    ("routing.fib.cache_hit_frac", "ratio", "higher"),
    ("netsim.link.transmit_ns", "ns", "lower"),
    ("netsim.node.receive_ns", "ns", "lower"),
    ("core.ecmp.protocol.rx_ns_per_msg.count", "ns", "lower"),
    ("core.ecmp.protocol.rx_ns_per_msg.query", "ns", "lower"),
    ("core.ecmp.protocol.rx_ns_per_msg.response", "ns", "lower"),
    ("core.ecmp.protocol.subscribe_ns", "ns", "lower"),
    ("core.ecmp.protocol.msgs_per_wire_send", "ratio", "higher"),
    ("core.ecmp.messages.encode_ns_per_record", "ns", "lower"),
    ("core.ecmp.messages.decode_ns_per_record", "ns", "lower"),
    ("core.ecmp.state.alloc_ns", "ns", "lower"),
    ("core.ecmp.state.release_ns", "ns", "lower"),
    ("routing.fib.install_ns", "ns", "lower"),
    ("routing.fib.remove_ns", "ns", "lower"),
    ("core.ecmp.refresh.records_examined_per_tick", "count", "lower"),
    ("routing.unicast.recompute_ns", "ns", "lower"),
    ("routing.unicast.recomputes", "count", "lower"),
    ("routing.unicast.next_hop_ns", "ns", "lower"),
    ("obs.labels_ns", "ns", "lower"),
    ("obs.labels_calls_per_event", "ratio", "lower"),
    ("obs.span_ns", "ns", "lower"),
    ("faults.fired", "count", "higher"),
    ("faults.undecodable_frac", "ratio", "lower"),
    ("faults.convergence_sim_s", "s", "lower"),
    ("faults.resync_bytes", "bytes", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def layer_metrics(
    records: dict, before: dict, after: dict, counters: dict, wall_s: float
) -> dict:
    """Per-layer metrics of one traced timed window of ``wall_s`` seconds.

    ``records`` is a copy of :attr:`LayerTracer.records` taken at the
    end of the window; ``before``/``after`` are
    :func:`workloads.net_counters` snapshots taken around it; ``counters``
    are the trial's simulated counters, which carry the fault figures.
    ``trace.overhead`` is filled in by the caller, which also has the
    untraced trials.
    """
    delta = {key: after[key] - before[key] for key in after}
    empty = [0, 0, 0, 0]

    def get(key: str) -> list[int]:
        return records.get(key, empty)

    events = delta["events"]

    def per_unit(key: str) -> float:
        _, units, self_ns, _ = get(key)
        return _ratio(self_ns, units)

    def rx(kind: str) -> float:
        record = get("core.ecmp.protocol.rx." + kind)
        return _ratio(record[3], record[1])

    return {
        "netsim.engine.events": events,
        "netsim.engine.insert_ns": per_unit("netsim.engine.insert"),
        "netsim.engine.run_self_ns_per_event": _ratio(get("netsim.engine.run")[2], events),
        "netsim.engine.batched_frac": _ratio(delta["batched_events"], events),
        "core.blocks.op_ns": per_unit("core.blocks.op"),
        "core.blocks.ops": get("core.blocks.op")[1],
        "core.forwarding.packet_ns": per_unit("core.forwarding.packet"),
        "routing.fib.lookup_ns": per_unit("routing.fib.lookup"),
        "routing.fib.cache_hit_frac": _ratio(delta["fib_hits"], delta["fib_lookups"]),
        "netsim.link.transmit_ns": per_unit("netsim.link.transmit"),
        "netsim.node.receive_ns": per_unit("netsim.node.receive"),
        "core.ecmp.protocol.rx_ns_per_msg.count": rx("count"),
        "core.ecmp.protocol.rx_ns_per_msg.query": rx("query"),
        "core.ecmp.protocol.rx_ns_per_msg.response": rx("response"),
        "core.ecmp.protocol.subscribe_ns": per_unit("core.ecmp.protocol.subscribe"),
        "core.ecmp.protocol.msgs_per_wire_send": _ratio(
            delta["msgs_tx"], delta["wire_sends"]
        ),
        "core.ecmp.messages.encode_ns_per_record": per_unit("core.ecmp.messages.encode"),
        "core.ecmp.messages.decode_ns_per_record": per_unit("core.ecmp.messages.decode"),
        "core.ecmp.state.alloc_ns": per_unit("core.ecmp.state.alloc"),
        "core.ecmp.state.release_ns": per_unit("core.ecmp.state.release"),
        "routing.fib.install_ns": per_unit("routing.fib.install"),
        "routing.fib.remove_ns": per_unit("routing.fib.remove"),
        "core.ecmp.refresh.records_examined_per_tick": _ratio(
            delta["refresh_examined"], get("core.ecmp.refresh.tick")[0]
        ),
        "routing.unicast.recompute_ns": per_unit("routing.unicast.recompute"),
        "routing.unicast.recomputes": get("routing.unicast.recompute")[0],
        "routing.unicast.next_hop_ns": per_unit("routing.unicast.next_hop"),
        "obs.labels_ns": per_unit("obs.labels"),
        "obs.labels_calls_per_event": _ratio(get("obs.labels")[0], events),
        "obs.span_ns": per_unit("obs.span"),
        "faults.fired": counters.get("faults_fired", 0),
        "faults.undecodable_frac": _ratio(
            delta["undecodable"], delta["undecodable"] + delta["wire_recvs"]
        ),
        "faults.convergence_sim_s": counters.get("convergence_sim_s", 0.0),
        "faults.resync_bytes": counters.get("resync_bytes", 0),
        "trace.coverage": _ratio(sum(r[2] for r in records.values()), wall_s * 1e9),
    }
