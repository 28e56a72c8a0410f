"""Coordinator/worker protocol tests (:mod:`repro.netsim.parallel.runner`).

The heavyweight N-partition-vs-oracle equivalence sweep lives in
``tests/properties/test_partition_equivalence.py``; this file pins the
runner mechanics: inline and pipe execution, sync accounting, merge
rules, and the equivalence checker itself.
"""

import os

import pytest

from repro.errors import SimulationError
from repro.netsim.parallel.runner import (
    ParallelRunner,
    assert_equivalent,
    merge_summaries,
    run_single,
)
from repro.netsim.parallel.transport import TransportError


@pytest.fixture(scope="module")
def oracle():
    from .conftest import make_small_spec

    return run_single(make_small_spec())


@pytest.fixture(scope="module")
def inline_result():
    from .conftest import make_small_spec

    return ParallelRunner(make_small_spec(), 2, mode="inline").run()


class TestInline:
    def test_matches_oracle(self, oracle, inline_result):
        assert_equivalent(inline_result.merged, oracle)

    def test_rounds_and_wall_recorded(self, inline_result):
        assert inline_result.rounds > 0
        assert inline_result.wall_seconds > 0

    def test_proxy_accounting_closed(self, inline_result):
        # Every exported packet is injected somewhere: fleet totals of
        # out and in must balance, bytes included.
        packets_out = sum(s.proxy_packets_out for s in inline_result.sync)
        packets_in = sum(s.proxy_packets_in for s in inline_result.sync)
        bytes_out = sum(s.proxy_bytes_out for s in inline_result.sync)
        bytes_in = sum(s.proxy_bytes_in for s in inline_result.sync)
        assert packets_out == packets_in > 0
        assert bytes_out == bytes_in > 0

    def test_sync_totals_shape(self, inline_result):
        totals = inline_result.sync_totals()
        # Every coordinator round grants at least one worker, and each
        # grant drains at least one window.
        assert totals["sync_rounds"] >= inline_result.rounds
        assert totals["windows"] >= totals["sync_rounds"]
        # Per worker: one READY frame plus one report per grant.
        assert totals["frames_sent"] == totals["sync_rounds"] + inline_result.plan.n
        assert totals["frames_received"] == totals["sync_rounds"]
        assert totals["proxy_packets"] > 0


class TestProcessTransport:
    def test_mp_matches_oracle_and_inline(self, oracle, inline_result):
        from .conftest import make_small_spec

        result = ParallelRunner(make_small_spec(), 2, mode="mp").run()
        assert_equivalent(result.merged, oracle)
        assert result.merged == inline_result.merged
        # Same encoded frames in both modes: the whole protocol
        # transcript matches, frame counts included.
        assert [s.as_dict() for s in result.sync] == [
            s.as_dict() for s in inline_result.sync
        ]
        assert result.rounds == inline_result.rounds

    def test_worker_error_surfaces(self):
        from .conftest import make_small_spec

        plan = ParallelRunner(make_small_spec(), 2, mode="inline").plan
        bad = make_small_spec()
        bad.topology = "nope"
        with pytest.raises(SimulationError, match="worker 0 failed"):
            ParallelRunner(bad, 2, mode="mp", plan=plan).run()

    def test_worker_crash_raises_not_hangs(self, monkeypatch):
        # A worker that dies mid-grant without sending an error frame
        # must surface as a transport error (subclass of
        # SimulationError), not a hang: its end of the pipe reads EOF.
        from .conftest import make_small_spec

        import repro.netsim.parallel.worker as worker_mod

        original = worker_mod.PartitionWorker.run_grant

        def dying_grant(self, ladder, imports, final):
            if self.rank == 1 and self.sim.events_processed > 0:
                os._exit(3)
            return original(self, ladder, imports, final)

        monkeypatch.setattr(
            worker_mod.PartitionWorker, "run_grant", dying_grant
        )
        with pytest.raises(TransportError, match="pipe peer closed"):
            ParallelRunner(make_small_spec(), 2, mode="mp").run()


class TestRunnerValidation:
    def test_unknown_mode_rejected(self, small_spec):
        with pytest.raises(SimulationError, match="unknown runner mode"):
            ParallelRunner(small_spec, 2, mode="threads")

    def test_single_partition_inline_matches_oracle(self, oracle, small_spec):
        result = ParallelRunner(small_spec, 1, mode="inline").run()
        assert_equivalent(result.merged, oracle)
        assert result.sync_totals()["proxy_packets"] == 0


class TestMergeAndCompare:
    def test_merge_rejects_overlap(self):
        summary = {
            "channel_tables": {"r0": {}},
            "subscriptions": {},
            "blocks": {},
            "events": 1,
            "final_time": 1.0,
            "obs_counters": None,
        }
        with pytest.raises(SimulationError, match="partition overlap"):
            merge_summaries([summary, dict(summary)])

    def test_merge_adds_counts_and_counters(self):
        a = {
            "channel_tables": {"r0": {}}, "subscriptions": {}, "blocks": {},
            "events": 3, "final_time": 1.0,
            "obs_counters": {("x", ()): 2, ("h", ()): (1, 0.5)},
        }
        b = {
            "channel_tables": {"r1": {}}, "subscriptions": {}, "blocks": {},
            "events": 4, "final_time": 2.0,
            "obs_counters": {("x", ()): 5, ("h", ()): (2, 1.5)},
        }
        merged = merge_summaries([a, b])
        assert merged["events"] == 7
        assert merged["final_time"] == 2.0
        assert merged["obs_counters"][("x", ())] == 7
        assert merged["obs_counters"][("h", ())] == (3, 2.0)

    def test_assert_equivalent_flags_table_divergence(self, oracle):
        tampered = dict(oracle)
        tampered["channel_tables"] = dict(oracle["channel_tables"])
        victim = next(iter(tampered["channel_tables"]))
        tampered["channel_tables"][victim] = {"bogus": {}}
        with pytest.raises(AssertionError, match="channel_tables"):
            assert_equivalent(tampered, oracle)

    def test_assert_equivalent_flags_event_count(self, oracle):
        tampered = dict(oracle)
        tampered["events"] = oracle["events"] + 1
        with pytest.raises(AssertionError, match="event counts"):
            assert_equivalent(tampered, oracle)

    def test_assert_equivalent_flags_counter_divergence(self):
        base = {
            "channel_tables": {}, "subscriptions": {}, "blocks": {},
            "events": 0, "final_time": 0.0,
            "obs_counters": {("x", ()): 1},
        }
        other = dict(base)
        other["obs_counters"] = {("x", ()): 2}
        with pytest.raises(AssertionError, match="counter"):
            assert_equivalent(base, other)
        missing = dict(base)
        missing["obs_counters"] = {("y", ()): 1}
        with pytest.raises(AssertionError, match="families"):
            assert_equivalent(base, missing)


class TestSyncAccounting:
    def test_message_totals_shape(self, inline_result):
        totals = inline_result.message_totals()
        assert totals["frames_total"] == (
            inline_result.sync_totals()["frames_sent"]
            + inline_result.sync_totals()["frames_received"]
        )
        assert totals["sync_messages_per_event"] > 0
        assert totals["frames_per_round"] > 0

    def test_round_traces_recorded(self, inline_result):
        traces = inline_result.round_traces
        assert len(traces) == inline_result.rounds
        assert sum(t.frames for t in traces) > 0
        granted = [t for t in traces if t.ladders]
        assert granted
        for trace in granted:
            for rank, ladder in trace.ladders.items():
                # The authoritative bound is the last rung.
                assert ladder == sorted(ladder)
                assert ladder[-1] == trace.horizons[rank] or trace.horizons[
                    rank
                ] > inline_result.plan.lookahead.get((rank, rank), 0)
        # Traces serialize for the CI post-mortem dump.
        import json

        json.dumps([t.as_dict() for t in traces])
