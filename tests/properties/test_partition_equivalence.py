"""Property test: sharded simulation ≡ single-process oracle.

The contract the parallel subsystem is pinned to: for any declarative
scenario, an N-partition conservative-lookahead run must settle into
*exactly* the state an unsharded run on the heapq reference scheduler
(:class:`tests.heap_scheduler.HeapSimulator`) produces — ChannelState
tables (upstream, advertised counts, per-neighbor downstream records),
subscription status and per-host delivery counts, aggregated-block
membership and deliveries, total dispatched event counts, and (when
observability is on) every counter and histogram family outside the
sync-only / wall-clock exclusion set. The oracle fires one event at a
time in ``(time, seq)`` order, so any divergence is an engine or
parallel-subsystem bug.

Four axes are swept:

* partition count N ∈ {1, 2, 4} (1 degenerates to a proxy-free run);
* worker engine: the heapq reference scheduler vs. the timer wheel
  (the oracle stays heap);
* execution inline vs. over pipes — frame counts included;
* randomized workloads over hosts, blocks, and channels, seeded
  ``random.Random`` per the property-suite idiom.
"""

import random

import pytest

from repro.netsim.parallel import ParallelRunner, assert_equivalent, run_single
from repro.netsim.parallel.scenario import ScenarioSpec

from tests.heap_scheduler import use_heap_simulator
from tests.netsim.parallel.conftest import make_small_spec

N_RANDOM_CASES = 4


def heap_oracle(spec: ScenarioSpec, **kwargs) -> dict:
    """``run_single`` on the heapq reference scheduler."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        use_heap_simulator(monkeypatch)
        return run_single(spec, **kwargs)


def run_sharded(engine: str, *args, **kwargs):
    """A sharded run whose workers use ``engine`` (``"heap"`` for the
    reference scheduler, ``"wheel"`` for the production engine)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if engine == "heap":
            use_heap_simulator(monkeypatch)
        return ParallelRunner(*args, **kwargs).run()


@pytest.fixture(scope="module")
def oracle_with_obs():
    return heap_oracle(make_small_spec(), with_obs=True)


def test_single_process_engine_matches_heap_oracle(oracle_with_obs):
    assert_equivalent(run_single(make_small_spec(), with_obs=True), oracle_with_obs)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_n_partitions_match_heap_oracle(n, oracle_with_obs):
    result = run_sharded(
        "heap", make_small_spec(), n, mode="inline", with_obs=True
    )
    assert result.plan.n == n
    assert_equivalent(result.merged, oracle_with_obs)


@pytest.mark.parametrize("n", [2, 4])
def test_wheel_workers_match_heap_oracle(n, oracle_with_obs):
    result = run_sharded(
        "wheel", make_small_spec(), n, mode="inline", with_obs=True
    )
    assert_equivalent(result.merged, oracle_with_obs)


def test_mp_transport_matches_oracle(oracle_with_obs):
    result = ParallelRunner(
        make_small_spec(), 2, mode="mp", with_obs=True
    ).run()
    assert_equivalent(result.merged, oracle_with_obs)


def test_sharded_run_is_deterministic():
    a = ParallelRunner(make_small_spec(), 2, mode="inline").run()
    b = ParallelRunner(make_small_spec(), 2, mode="inline").run()
    assert a.merged == b.merged
    assert a.rounds == b.rounds
    assert [s.as_dict() for s in a.sync] == [s.as_dict() for s in b.sync]


def test_inline_and_mp_are_frame_identical():
    """A pipe run must not only settle identically to inline — the
    whole protocol transcript (rounds, windows, null messages, frame
    counts per worker) must match, because inline routes through the
    same encoded frames."""
    inline = ParallelRunner(make_small_spec(), 2, mode="inline").run()
    mp = ParallelRunner(make_small_spec(), 2, mode="mp").run()
    assert mp.merged == inline.merged
    assert mp.rounds == inline.rounds
    assert [s.as_dict() for s in mp.sync] == [
        s.as_dict() for s in inline.sync
    ]


def random_spec(seed: int) -> ScenarioSpec:
    """A randomized membership/data workload on the small ISP topology."""
    rng = random.Random(seed)
    hosts = [
        f"h{t}_{s}_{i}" for t in range(2) for s in range(2) for i in range(2)
    ]
    blocks = ("e0_0", "e1_1")
    ops = []
    when = 0.05
    for _ in range(rng.randint(15, 30)):
        when += rng.uniform(0.005, 0.08)
        roll = rng.random()
        if roll < 0.40:
            ops.append((when, "join", rng.choice(hosts[1:]), rng.randrange(2)))
        elif roll < 0.55:
            ops.append((when, "leave", rng.choice(hosts[1:]), rng.randrange(2)))
        elif roll < 0.75:
            ops.append(
                (when, "block_join", rng.randrange(2), rng.randrange(2),
                 rng.randint(1, 30))
            )
        elif roll < 0.85:
            ops.append(
                (when, "block_leave", rng.randrange(2), rng.randrange(2),
                 rng.randint(1, 10))
            )
        else:
            ops.append((when, "send", rng.randrange(2)))
    return ScenarioSpec(
        topology="isp",
        topology_kwargs={
            "n_transit": 2, "stubs_per_transit": 2, "hosts_per_stub": 2,
        },
        source=hosts[0],
        n_channels=2,
        blocks=blocks,
        ops=tuple(ops),
        duration=when + 1.5,
        seed=seed,
    )


@pytest.mark.parametrize("case", range(N_RANDOM_CASES))
def test_random_workloads_match_oracle(case):
    seed = 0x9A27 + case
    spec = random_spec(seed)
    oracle = heap_oracle(spec)
    for n in (2, 4):
        result = ParallelRunner(spec, n, mode="inline").run()
        assert_equivalent(result.merged, oracle)
