"""The committed ``BENCH_perf.json`` must match the harness's schema.

``python -m repro.bench`` writes ``SCHEMA_VERSION``; a committed
trajectory file left on an older schema silently diffs against fields
the harness no longer writes. Regenerate it with
``python -m repro.bench --quick --output BENCH_perf.json``.
"""

import json
from pathlib import Path

from repro.bench import SCHEMA_VERSION
from repro.bench.scenarios import SCENARIOS

COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_perf.json"


def test_committed_report_is_on_the_current_schema():
    report = json.loads(COMMITTED.read_text())
    assert report["schema_version"] == SCHEMA_VERSION


def test_committed_report_covers_every_scenario():
    report = json.loads(COMMITTED.read_text())
    assert set(report["scenarios"]) == set(SCENARIOS)
