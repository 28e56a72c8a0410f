"""Parallel sharded simulation: per-partition event loops with
conservative lookahead.

The distribution tree rooted at ``(S, E)`` decomposes into subtrees
whose only coupling is hop-by-hop control traffic on the links that
cross the cut, so the simulator shards naturally: a partitioner splits
the topology into per-subtree node sets (source in rank 0, cut links
minimized), every worker process builds the *full* topology — so
addressing, interface indices, and unicast routing are identical
everywhere — but starts protocol agents only for the nodes it owns,
and cut links are replaced by proxy endpoints that serialize packets
(the real ECMP wire codec, ``MSG_BATCH`` frames included, for control
traffic) and re-inject them in the owning partition with exact
``(time, seq)`` ordering.

Synchronization is conservative: each cut link's propagation delay is
its lookahead, and no worker dispatches past its granted horizon —
derived from the other partitions' next effective event times plus the
transitive cut-link closure. Grants are demand-driven: each worker
gets a multi-window horizon *ladder*, and quiet shards are skipped
entirely (null messages are demand-driven, not per-round). Frames
move over one ``multiprocessing`` pipe per worker
(:mod:`~repro.netsim.parallel.transport`), raw bytes with no pickling
on the hot loop. The sharded run is deterministic for a given seed —
inline and multi-process runs exchange identical frames — and, once
settled, produces ``ChannelState`` tables, delivery counts,
and obs counters identical to the single-process oracle (pinned by
``tests/properties/test_partition_equivalence.py``).

See ``docs/performance.md`` ("Sharding the event loop") for the model
of how cut delay bounds the achievable speedup.
"""

from repro.netsim.parallel.partition import PartitionPlan, plan_partitions
from repro.netsim.parallel.runner import (
    ParallelResult,
    ParallelRunner,
    assert_equivalent,
    run_single,
)
from repro.netsim.parallel.scenario import OPGENS, ScenarioSpec
from repro.netsim.parallel.sync import (
    PHASES,
    RoundTrace,
    SyncStats,
    build_ladder,
    grant_ceilings,
    merge_phase_stats,
    message_stats,
    transitive_lookahead,
)
from repro.netsim.parallel.transport import PipeTransport, TransportError
from repro.netsim.parallel.worker import TelemetryConfig

__all__ = [
    "OPGENS",
    "PHASES",
    "ParallelResult",
    "ParallelRunner",
    "PartitionPlan",
    "PipeTransport",
    "RoundTrace",
    "ScenarioSpec",
    "SyncStats",
    "TelemetryConfig",
    "TransportError",
    "assert_equivalent",
    "build_ladder",
    "grant_ceilings",
    "merge_phase_stats",
    "message_stats",
    "plan_partitions",
    "run_single",
    "transitive_lookahead",
]
