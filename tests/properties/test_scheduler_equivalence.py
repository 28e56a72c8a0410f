"""Property test: the engine ≡ a heapq reference scheduler.

The engine (timer wheel, pure bulk buckets, arena, batch slot
dispatch) must be *observationally identical* to
:class:`tests.heap_scheduler.HeapSimulator`, a plain binary heap that
fires one event at a time: for any workload, the same seed dispatches
the same events in the same ``(time, seq)`` order, leaves the same
protocol state behind, and counts the same ``events_processed``.

Three layers of checking:

* raw engine traces (dispatch order as ``(time, seq, name)`` tuples)
  over randomized schedules that include mid-dispatch scheduling,
  cancellation, and far-future events that exercise the overflow heap
  and cascade path;
* full-stack ``ExpressNetwork`` runs: settled ChannelState tables
  (the ``test_batching_equivalence`` snapshot) must match;
* ``events_processed`` equality on every comparison.

Seeded ``random.Random`` instances (not hypothesis) keep sequences
deterministic, matching the idiom of the other property tests.
"""

import random

import pytest

from repro import ExpressNetwork, TopologyBuilder
from repro.netsim.engine import Simulator
from tests.heap_scheduler import HeapSimulator, use_heap_simulator

#: Engine under test vs oracle, by the names the helpers below take.
SIMULATORS = {"wheel": Simulator, "heap": HeapSimulator}

N_ENGINE_CASES = 8
N_NETWORK_CASES = 6


# ---------------------------------------------------------------------------
# raw engine equivalence
# ---------------------------------------------------------------------------


def run_engine_trace(kind: str, seed: int) -> tuple[list, int]:
    """Drive one randomized schedule; return (dispatch trace, count).

    The workload deliberately mixes near events (open-slot and bucket
    paths), far events (overflow + cascade), simultaneous events (seq
    tie-break), mid-dispatch scheduling (insert at or after the open
    slot), and cancellations (lazy skip + compaction).
    """
    rng = random.Random(seed)
    sim = SIMULATORS[kind](seed=0, wheel_slots=256)
    trace = []
    cancellable = []

    def record(tag):
        trace.append((sim.now, tag))
        # Mid-dispatch behaviour: sometimes schedule follow-ups
        # (including zero-delay, landing in the open slot) and
        # sometimes cancel a pending event.
        roll = rng.random()
        if roll < 0.30:
            delay = rng.choice([0.0, 0.0004, 0.003, 0.9, 40.0])
            cancellable.append(
                sim.schedule(delay, lambda t=f"{tag}+f": record(t), name=str(tag))
            )
        elif roll < 0.45 and cancellable:
            cancellable.pop(rng.randrange(len(cancellable))).cancel()

    for i in range(120):
        # Spread across three regimes: sub-slot, in-horizon, beyond the
        # 256-slot horizon (256 * 0.001 = 0.256s) to force overflow.
        when = rng.choice(
            [
                rng.uniform(0.0, 0.002),
                rng.uniform(0.0, 0.2),
                rng.uniform(0.3, 5.0),
                rng.uniform(50.0, 90.0),
            ]
        )
        event = sim.schedule_at(when, lambda t=i: record(t), name=str(i))
        if rng.random() < 0.2:
            cancellable.append(event)
    # Duplicate timestamps: seq must break the tie identically.
    for j in range(10):
        sim.schedule_at(0.5, lambda t=f"dup{j}": record(t))
    sim.run()
    return trace, sim.events_processed


@pytest.mark.parametrize("case", range(N_ENGINE_CASES))
def test_dispatch_trace_matches_heap(case):
    seed = 0x3E51 + case
    heap_trace, heap_count = run_engine_trace("heap", seed)
    wheel_trace, wheel_count = run_engine_trace("wheel", seed)
    assert wheel_trace == heap_trace
    assert wheel_count == heap_count


def test_bounded_run_matches_heap():
    """run(until=...) segment by segment — the wheel's cursor bound
    (limit_slot) must not reorder or drop events at window edges."""

    def drive(kind):
        rng = random.Random(0xB0B)
        sim = SIMULATORS[kind](seed=0, wheel_slots=128)
        out = []
        for i in range(200):
            sim.schedule_at(
                rng.uniform(0.0, 3.0), lambda t=i: out.append((sim.now, t))
            )
        # Far-future event beyond every window: its overflow slot must
        # not drag the cursor forward (the degradation the bound fixes).
        sim.schedule_at(500.0, lambda: out.append((sim.now, "far")))
        for until in (0.25, 0.5, 0.500001, 1.0, 2.9999, 3.0, 600.0):
            sim.run(until=until)
            out.append(("mark", until, sim.now, sim.events_processed))
        return out

    assert drive("wheel") == drive("heap")


def test_max_events_matches_heap():
    def drive(kind):
        rng = random.Random(7)
        sim = SIMULATORS[kind](seed=0)
        out = []
        for i in range(50):
            sim.schedule_at(rng.uniform(0.0, 1.0), lambda t=i: out.append(t))
        while sim.run(max_events=7):
            out.append(("chunk", sim.events_processed))
        return out

    assert drive("wheel") == drive("heap")


# ---------------------------------------------------------------------------
# full-stack equivalence
# ---------------------------------------------------------------------------


def snapshot(net: ExpressNetwork) -> dict:
    """Every agent's full channel table, in comparable form (same shape
    as test_batching_equivalence's snapshot)."""
    table = {}
    for name, agent in sorted(net.ecmp_agents.items()):
        for channel, state in agent.channels.items():
            downstream = {
                peer: (record.count, record.validated)
                for peer, record in state.downstream.items()
                if record.count > 0
            }
            table[(name, channel)] = (state.upstream, state.advertised, downstream)
    return table


def drive_network(seed: int) -> tuple[dict, int]:
    rng = random.Random(seed)
    topo = TopologyBuilder.isp(
        n_transit=3, stubs_per_transit=2, hosts_per_stub=2, seed=7
    )
    net = ExpressNetwork(topo)
    net.run(until=0.01)

    hosts = sorted(net.host_names)
    source = net.source(hosts[0])
    channels = [source.allocate_channel() for _ in range(3)]
    subscribers = hosts[1:]
    # One aggregated block rides along so block_adjust sits in the
    # compared workload too.
    block = net.subscriber_block("e0_0")

    when = 0.05
    for _ in range(40):
        when += rng.uniform(0.002, 0.12)
        roll = rng.random()
        host = rng.choice(subscribers)
        channel = rng.choice(channels)
        if roll < 0.55:
            net.sim.schedule_at(
                when, lambda h=host, c=channel: net.host(h).subscribe(c)
            )
        elif roll < 0.8:
            net.sim.schedule_at(
                when, lambda h=host, c=channel: net.host(h).unsubscribe(c)
            )
        elif roll < 0.9:
            n = rng.randint(1, 50)
            net.sim.schedule_at(when, lambda c=channel, k=n: block.join(c, k))
        else:
            n = rng.randint(1, 50)
            net.sim.schedule_at(when, lambda c=channel, k=n: block.leave(c, k))
    net.run(until=when)
    net.settle(3.0)
    return snapshot(net), net.sim.events_processed


@pytest.mark.parametrize("case", range(N_NETWORK_CASES))
def test_network_state_tables_match_heap(case, monkeypatch):
    seed = 0x4EE1 + case
    wheel_table, wheel_events = drive_network(seed)
    use_heap_simulator(monkeypatch)
    heap_table, heap_events = drive_network(seed)
    assert wheel_table == heap_table
    assert wheel_events == heap_events


# ---------------------------------------------------------------------------
# schedule_bulk ≡ sequential schedule_at (the native-core contract)
# ---------------------------------------------------------------------------


def bulk_items(seed: int, n: int = 150) -> list:
    """Randomized (time, tag) pairs mixing open-slot, in-horizon,
    overflow, and duplicate timestamps (tie-break coverage), shuffled
    so submission order disagrees with time order."""
    rng = random.Random(seed)
    times = (
        [rng.uniform(0.0, 0.002) for _ in range(n // 4)]
        + [rng.uniform(0.0, 0.2) for _ in range(n // 2)]
        + [rng.uniform(0.3, 40.0) for _ in range(n // 4)]
        + [0.07] * 12  # ties: input order must be preserved
    )
    rng.shuffle(times)
    return [(t, i) for i, t in enumerate(times)]


@pytest.mark.parametrize("case", range(4))
def test_schedule_bulk_matches_sequential_schedule_at(case):
    items = bulk_items(0xB17C + case)

    def drive(bulk: bool) -> tuple[list, int]:
        sim = Simulator(seed=0, wheel_slots=256)
        out = []
        if bulk:
            sim.schedule_bulk(
                [(t, lambda g=tag: out.append((sim.now, g))) for t, tag in items],
                name="bulk",
            )
        else:
            for t, tag in items:
                sim.schedule_at(t, lambda g=tag: out.append((sim.now, g)), name="bulk")
        sim.run()
        return out, sim.events_processed

    assert drive(True) == drive(False)


@pytest.mark.parametrize("scheduler", ["heap", "wheel"])
def test_schedule_bulk_rejects_past_times_atomically(scheduler):
    """Engine and oracle alike: a past-time item rejects the whole
    batch, so comparisons against the oracle never see half a batch."""
    from repro.errors import SimulationError

    sim = SIMULATORS[scheduler](seed=0)
    sim.schedule_at(1.0, lambda: None)
    sim.run(until=0.5)
    with pytest.raises(SimulationError):
        sim.schedule_bulk([(0.6, lambda: None), (0.1, lambda: None)])
    # Nothing from the rejected batch was scheduled.
    assert sim.pending() == 1


@pytest.mark.parametrize("case", range(3))
def test_bulk_interleaved_with_singles_and_cancels_matches_heap(case):
    """schedule_bulk mixed with schedule_at into the *same* buckets
    (forcing pure-bucket materialization) plus cancellations must stay
    trace-identical to the heap oracle."""
    seed = 0x51A7 + case

    def drive(kind: str) -> tuple[list, int]:
        rng = random.Random(seed)
        sim = SIMULATORS[kind](seed=0, wheel_slots=128)
        out = []

        def rec(tag):
            out.append((sim.now, tag))

        sim.schedule_bulk(
            [
                (rng.uniform(0.0, 0.25), lambda g=f"b{i}": rec(g))
                for i in range(80)
            ]
        )
        cancellable = []
        for i in range(40):
            # Same time range: many land in buckets that are pure.
            event = sim.schedule_at(
                rng.uniform(0.0, 0.25), lambda g=f"s{i}": rec(g)
            )
            if rng.random() < 0.4:
                cancellable.append(event)
        for event in cancellable[::2]:
            event.cancel()
        # A second bulk call over the same window (stale-pure buckets).
        sim.schedule_bulk(
            [
                (rng.uniform(0.0, 0.25), lambda g=f"b2_{i}": rec(g))
                for i in range(40)
            ],
            name="second",
        )
        sim.run()
        return out, sim.events_processed

    assert drive("wheel") == drive("heap")


# ---------------------------------------------------------------------------
# batch slot dispatch ≡ per-event dispatch
# ---------------------------------------------------------------------------


def drive_block_storm(seed: int = 3):
    """A miniature mega storm: block join/leave ops bulk-scheduled with
    coarse wheel slots so engine runs exercise batch slot dispatch.
    Returns comparable end state + the stats dict."""
    rng = random.Random(seed)
    topo = TopologyBuilder.isp(
        n_transit=3, stubs_per_transit=2, hosts_per_stub=1, seed=7,
        wheel_granularity=0.05,
    )
    net = ExpressNetwork(topo)
    source = net.source(sorted(net.host_names)[0])
    channel = source.allocate_channel()
    blocks = [net.subscriber_block(n) for n in sorted(net.topo.nodes) if n.startswith("e")]
    net.run(until=0.01)
    base = net.sim.now
    work = [
        (base + 0.1 + 2.0 * i / 4000, blocks[i % len(blocks)].join_op(channel))
        for i in range(4000)
    ]
    work += [
        (base + 2.3 + 0.5 * i / 500, blocks[i % len(blocks)].leave_op(channel))
        for i in range(500)
    ]
    rng.shuffle(work)
    net.sim.schedule_bulk(work, name="op")
    net.sim.schedule_at(base + 3.0, lambda: source.send(channel))
    net.run(until=base + 3.4)
    def record_times(block):
        state = block.agent.channels.get(channel)
        record = state.downstream.get(block.pseudo) if state else None
        return record.updated_at if record is not None else None

    state = (
        [(b.count(channel), b.deliveries, record_times(b)) for b in blocks],
        snapshot(net),
        net.sim.events_processed,
    )
    return state, net.sim.scheduler_stats()


def test_batch_slot_dispatch_matches_per_event(monkeypatch):
    wheel_state, wheel_stats = drive_block_storm()
    use_heap_simulator(monkeypatch)
    heap_state, heap_stats = drive_block_storm()
    assert wheel_state == heap_state
    # The engine run actually used batch dispatch; the oracle, firing
    # one event at a time, never does.
    assert wheel_stats["batched_events"] > 0
    assert wheel_stats["batched_slots"] > 0
    assert heap_stats["batched_events"] == 0
