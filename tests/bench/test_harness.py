"""Tests for the perf harness (``python -m repro.bench``).

The heavier assertions on scenario *metrics* (Dijkstra savings ratio,
in-place fan-out fraction, cache hit rates) live in
``benchmarks/perf/test_perf_smoke.py``; here we pin the report schema,
the CLI contract (output path, scenario selection, floor flags and exit
codes), and JSON serialisability.
"""

import json

import pytest

from repro.bench import (
    CEILING_GATES,
    FLOOR_GATES,
    SCHEMA_VERSION,
    build_report,
    check_floors,
    main,
    write_report,
)
from repro.bench.scenarios import SCENARIOS


@pytest.fixture(scope="module")
def quick_report():
    return build_report(quick=True, seed=0)


class TestReportSchema:
    def test_top_level_schema(self, quick_report):
        report = quick_report
        assert report["bench"] == "perf"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["quick"] is True
        assert report["seed"] == 0
        assert set(report["scenarios"]) == set(SCENARIOS)
        assert report["wall_seconds_total"] > 0

    def test_every_scenario_reports_throughput(self, quick_report):
        for name, metrics in quick_report["scenarios"].items():
            assert metrics["sim_events"] > 0, name
            assert metrics["events_per_sec"] > 0, name
            assert metrics["wall_seconds"] > 0, name
            assert "params" in metrics, name

    def test_summary_aggregates(self, quick_report):
        summary = quick_report["summary"]
        rates = [
            m["events_per_sec"] for m in quick_report["scenarios"].values()
        ]
        assert summary["events_per_sec_min"] == min(rates)
        assert summary["events_per_sec_max"] == max(rates)
        churn = quick_report["scenarios"]["link_flap_churn"]
        assert summary["dijkstra_savings_ratio"] == churn["dijkstra_savings_ratio"]
        assert summary["delivery_p99_max_seconds"] > 0

    def test_report_is_json_serialisable(self, quick_report, tmp_path):
        out = tmp_path / "report.json"
        write_report(quick_report, out)
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(quick_report)
        )

    def test_scenario_selection(self):
        report = build_report(quick=True, only=["steady_fanout"])
        assert set(report["scenarios"]) == {"steady_fanout"}


class TestCli:
    def test_writes_output_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        code = main(
            ["--quick", "--scenario", "join_storm", "--output", str(out)]
        )
        assert code == 0
        parsed = json.loads(out.read_text())
        assert parsed["bench"] == "perf"
        assert set(parsed["scenarios"]) == {"join_storm"}
        assert "join_storm" in capsys.readouterr().out

    def test_events_floor_violation_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "--quick",
                "--scenario",
                "join_storm",
                "--output",
                str(out),
                "--floor-events-per-sec",
                "1e15",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().err
        # The report is still written for post-mortem diffing.
        assert out.exists()

    def test_dijkstra_floor_checks_the_churn_scenario(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "--quick",
                "--scenario",
                "link_flap_churn",
                "--output",
                str(out),
                "--floor-dijkstra-ratio",
                "5",
            ]
        )
        assert code == 0
        code = main(
            [
                "--quick",
                "--scenario",
                "link_flap_churn",
                "--output",
                str(out),
                "--floor-dijkstra-ratio",
                "1e9",
            ]
        )
        assert code == 1

    def test_rejects_unknown_scenario(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--scenario", "nope", "--output", str(tmp_path / "x.json")])


class TestParallelScenario:
    """Schema v4 (sharded mega storm) + v11 (exact sync-tax ceilings)."""

    def test_scenario_fields(self, quick_report):
        parallel = quick_report["scenarios"]["mega_join_storm_parallel"]
        assert parallel["equivalent_to_single_process"] is True
        assert parallel["partition_speedup"] > 0
        assert parallel["params"]["workers"] == 4
        assert parallel["partition_plan"]["partitions"] == 4
        assert parallel["partition_plan"]["min_lookahead"] > 0
        assert parallel["sync_rounds"] > 0
        assert parallel["sync"]["proxy_packets"] > 0
        assert parallel["members_final"] == parallel["members_expected"]
        assert parallel["block_deliveries"] == parallel["deliveries_expected"]
        single = parallel["single_process"]
        assert single["sim_events"] == parallel["sim_events"]

    def test_sync_tax_fields(self, quick_report):
        # The sync tax is exact frame counting, not a wall clock: for
        # seed 0 the timed pass sends 3 null reports out of 75 and
        # moves 154 frames for 338,072 merged events — the values the
        # CI ceilings (0.04 and 4.556e-4) sit on.
        parallel = quick_report["scenarios"]["mega_join_storm_parallel"]
        sync = parallel["sync"]
        assert (sync["null_messages"], sync["sync_rounds"]) == (3, 75)
        assert sync["frames_sent"] + sync["frames_received"] == 154
        assert parallel["sim_events"] == 338_072
        assert parallel["null_message_ratio"] == 3 / 75
        assert parallel["sync_messages_per_event"] == 154 / 338_072
        assert parallel["frames_per_round"] >= 2.0
        for field in ("transport", "sync_mode", "sync_baseline",
                      "null_ratio_reduction", "sync_message_reduction",
                      "demand_null_ratio"):
            assert field not in parallel
        assert check_floors(
            quick_report,
            {"null_message_ratio": 0.04, "sync_msgs_per_event": 4.556e-4},
        ) == []

    def test_summary_fields(self, quick_report):
        parallel = quick_report["scenarios"]["mega_join_storm_parallel"]
        summary = quick_report["summary"]
        assert summary["partition_speedup"] == parallel["partition_speedup"]
        assert summary["partition_workers"] == 4
        assert summary["null_message_ratio"] == parallel["null_message_ratio"]
        assert summary["sync_messages_per_event"] == (
            parallel["sync_messages_per_event"]
        )
        for field in ("transport", "sync_mode", "null_ratio_reduction",
                      "sync_message_reduction"):
            assert field not in summary


def fake_report(**summary) -> dict:
    base = {
        "events_per_sec_min": 1e6,
        "dijkstra_savings_ratio": 10.0,
        "ecmp_bytes_on_wire": 50_000,
        "wire_message_reduction": 5.0,
        "mega_batched_share": 0.9,
        "mega_events_per_sec": 2e6,
        "partition_speedup": 2.0,
        "sync_efficiency": 0.9,
        "null_message_ratio": 0.04,
        "sync_messages_per_event": 4.5e-4,
        "zap_events_per_sec": 1500.0,
        "refresh_records_examined": 200,
        "convergence_seconds": 0.5,
        "blast_radius": 0.6,
    }
    base.update(summary)
    return {"summary": base}


class TestCheckFloors:
    """The declarative gate table behind every ``--floor-*`` flag."""

    def test_none_floors_are_skipped(self):
        assert check_floors(fake_report(), {g: None for g in FLOOR_GATES}) == []

    @pytest.mark.parametrize("gate", sorted(FLOOR_GATES))
    def test_each_gate_passes_and_fails(self, gate):
        key = FLOOR_GATES[gate][0]
        assert check_floors(fake_report(), {gate: 0.001}) == []
        failures = check_floors(fake_report(**{key: 0.0005}), {gate: 0.001})
        assert len(failures) == 1
        assert failures[0].startswith("FAIL")

    def test_missing_summary_value_fails_not_passes(self):
        # A requested gate whose scenario did not run must fail loudly.
        report = {"summary": {}}
        failures = check_floors(report, {"partition_speedup": 1.5})
        assert len(failures) == 1

    def test_partition_gate_skips_on_cores_limited_host(self, capsys):
        # Workers time-slicing fewer cores than shards cannot express a
        # speedup; the gate skips (loudly) instead of failing the host.
        limited = fake_report(
            partition_speedup=0.5, parallel_warnings=["cores_limited"]
        )
        assert check_floors(limited, {"partition_speedup": 1.5}) == []
        assert "SKIP" in capsys.readouterr().err
        # Without the warning, the same sub-floor speedup still fails,
        # and other gates are unaffected by the warning.
        unwarned = fake_report(partition_speedup=0.5)
        assert len(check_floors(unwarned, {"partition_speedup": 1.5})) == 1
        assert (
            check_floors(limited, {"mega_events_per_sec": 1e6}) == []
        )
        failures = check_floors(
            fake_report(
                mega_events_per_sec=100.0, parallel_warnings=["cores_limited"]
            ),
            {"mega_events_per_sec": 1e6},
        )
        assert len(failures) == 1


class TestCeilingGates:
    """Schema v9 robustness SLOs: lower is better, so the gates are
    ceilings — and a missing measurement fails rather than passing on
    a vacuous zero."""

    @pytest.mark.parametrize("gate", sorted(CEILING_GATES))
    def test_under_ceiling_passes(self, gate):
        key = CEILING_GATES[gate][0]
        assert check_floors(fake_report(**{key: 0.1}), {gate: 1.0}) == []

    @pytest.mark.parametrize("gate", sorted(CEILING_GATES))
    def test_over_ceiling_fails(self, gate):
        key = CEILING_GATES[gate][0]
        failures = check_floors(fake_report(**{key: 2.0}), {gate: 1.0})
        assert len(failures) == 1
        assert failures[0].startswith("FAIL")
        assert "exceeded" in failures[0]

    @pytest.mark.parametrize("gate", sorted(CEILING_GATES))
    def test_exactly_at_ceiling_passes(self, gate):
        key = CEILING_GATES[gate][0]
        assert check_floors(fake_report(**{key: 1.0}), {gate: 1.0}) == []

    @pytest.mark.parametrize("gate", sorted(CEILING_GATES))
    def test_missing_measurement_fails(self, gate):
        # build_report writes None for the v9 fields when the storm
        # scenario is excluded; a requested ceiling must not pass then.
        key = CEILING_GATES[gate][0]
        for report in (fake_report(**{key: None}), {"summary": {}}):
            failures = check_floors(report, {gate: 1.0})
            assert len(failures) == 1
            assert "no measurement" in failures[0]

    def test_gate_tables_are_disjoint(self):
        assert not set(CEILING_GATES) & set(FLOOR_GATES)


class TestCliFloorsAndWorkers:
    def make_fake_build_report(self, captured, **summary):
        def fake_build_report(quick=True, seed=0, only=None, workers=None):
            captured.update(quick=quick, only=only, workers=workers)
            return {
                "bench": "perf",
                "schema_version": SCHEMA_VERSION,
                "scenarios": {},
                **fake_report(**summary),
            }

        return fake_build_report

    def test_workers_flag_reaches_build_report(self, monkeypatch, tmp_path):
        import repro.bench as bench

        captured = {}
        monkeypatch.setattr(
            bench, "build_report", self.make_fake_build_report(captured)
        )
        code = main(
            ["--quick", "--workers", "3", "--output", str(tmp_path / "o.json")]
        )
        assert code == 0
        assert captured["workers"] == 3

    def test_partition_floor_gates_exit_code(self, monkeypatch, tmp_path, capsys):
        import repro.bench as bench

        captured = {}
        monkeypatch.setattr(
            bench,
            "build_report",
            self.make_fake_build_report(captured, partition_speedup=1.1),
        )
        out = str(tmp_path / "o.json")
        assert main(
            ["--output", out, "--floor-partition-speedup", "1.0"]
        ) == 0
        assert main(
            ["--output", out, "--floor-partition-speedup", "1.5"]
        ) == 1
        assert "partition speedup floor" in capsys.readouterr().err

    def test_ceiling_flags_gate_exit_code(self, monkeypatch, tmp_path, capsys):
        import repro.bench as bench

        monkeypatch.setattr(
            bench,
            "build_report",
            self.make_fake_build_report(
                {}, convergence_seconds=1.2, blast_radius=0.9
            ),
        )
        out = str(tmp_path / "o.json")
        assert main(
            [
                "--output", out,
                "--floor-convergence-seconds", "2.0",
                "--floor-blast-radius", "0.95",
            ]
        ) == 0
        assert main(
            ["--output", out, "--floor-convergence-seconds", "1.0"]
        ) == 1
        assert "convergence seconds ceiling" in capsys.readouterr().err
        assert main(
            ["--output", out, "--floor-blast-radius", "0.5"]
        ) == 1
        assert "blast radius ceiling" in capsys.readouterr().err

    def test_sync_tax_ceiling_flags_gate_exit_code(
        self, monkeypatch, tmp_path, capsys
    ):
        import repro.bench as bench

        monkeypatch.setattr(
            bench,
            "build_report",
            self.make_fake_build_report(
                {}, null_message_ratio=0.04, sync_messages_per_event=4.5e-4
            ),
        )
        out = str(tmp_path / "o.json")
        assert main(
            [
                "--output", out,
                "--floor-null-message-ratio", "0.04",
                "--floor-sync-msgs-per-event", "4.556e-4",
            ]
        ) == 0
        assert main(
            ["--output", out, "--floor-null-message-ratio", "0.03"]
        ) == 1
        assert "null-message ratio ceiling" in capsys.readouterr().err
        assert main(
            ["--output", out, "--floor-sync-msgs-per-event", "4e-4"]
        ) == 1
        assert "sync messages/event ceiling" in capsys.readouterr().err
