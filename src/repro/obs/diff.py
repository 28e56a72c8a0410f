"""Metric diffing: ``python -m repro.obs diff A.json B.json``.

Compares two metric dumps — either ``BENCH_perf.json`` reports from
``python -m repro.bench`` or JSONL metric dumps from
:func:`repro.obs.exporters.metrics_to_jsonl` — and prints per-metric
deltas with regressions highlighted. The input format is sniffed per
file, so a bench report can be compared against an earlier bench
report and a JSONL scrape against another JSONL scrape.

"Regression" is direction-aware: most counters moving is just a
different workload, but a metric whose *name* marks it as a cost
(``*_seconds``, ``*latency*``, ``*rss*``, ``null_message_ratio``) is
worse when it grows, while a benefit metric (``*_per_sec``,
``*speedup*``, ``*ratio``, ``*efficiency*``, cache/in-place fractions)
is worse when it shrinks. Metrics matching neither table are reported
as neutral deltas. The classification tables are deliberately small
and name-based — exactly the convention the registry's metric names
already follow.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Iterable, Optional, TextIO

#: Name fragments marking a metric as a cost: growing is a regression.
LOWER_IS_BETTER = (
    "_seconds",
    "latency",
    "rss",
    "null_message",
    # Sync-tax economics (bench schema v7): frames on the wire per
    # useful event are overhead. (``*_reduction`` ratios land in the
    # benefit table — no cost fragment appears in them.)
    "messages_per_event",
    "frames_per_round",
    "no_match_drops",
    "sync_wait",
    "idle",
    # Phase-breakdown fractions (engine profiler): time spent building
    # events or flushing metrics is overhead the native core exists to
    # shrink.
    "phase_breakdown.alloc",
    "phase_breakdown.accounting",
    # Control-plane refresh economics (bench schema v8): records the
    # refresh tick examines are pure overhead.
    "records_examined",
    # Robustness SLOs (bench schema v9): ``convergence_seconds`` is
    # already a cost via ``_seconds``; resync traffic, fault blast
    # radius, and orphaned state are recovery overhead — a run that
    # resyncs more bytes or churns more agents after the same fault
    # plan regressed. (``blast_radius`` must classify here despite no
    # benefit fragment; ``resync`` is matched before the benefit
    # table so ``resync_*`` counters never read as wins.)
    "resync",
    "blast_radius",
    "orphaned",
)

#: Name fragments marking a metric as a benefit: shrinking is a
#: regression. Checked *after* :data:`LOWER_IS_BETTER`, so e.g.
#: ``null_message_ratio`` classifies as a cost despite ``_ratio``.
HIGHER_IS_BETTER = (
    "_per_sec",
    "per_second",
    "speedup",
    "_ratio",
    "efficiency",
    "fraction",
    "reduction",
    "hits",
    "_share",
)


def direction(name: str) -> int:
    """+1 if higher is better, -1 if lower is better, 0 if neutral."""
    lowered = name.lower()
    if any(frag in lowered for frag in LOWER_IS_BETTER):
        return -1
    if any(frag in lowered for frag in HIGHER_IS_BETTER):
        return +1
    return 0


def flatten(obj, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested dict, keyed by dotted path.

    Bools and non-numeric leaves are dropped: the diff compares
    measurements, not configuration echoes.
    """
    out: dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
    return out


def _metric_key(record: dict) -> str:
    labels = record.get("labels") or {}
    if labels:
        inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
        return f"{record['name']}{{{inner}}}"
    return str(record["name"])


def _flatten_jsonl(lines: Iterable[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("kind") != "metric":
            continue  # span records and flight entries are not diffable
        key = _metric_key(record)
        if "value" in record:
            out[key] = float(record["value"])
        else:  # histogram summary
            for field in ("count", "sum", "p50", "p90", "p99"):
                if field in record:
                    out[f"{key}.{field}"] = float(record[field])
    return out


def load_metrics(path: str) -> dict[str, float]:
    """Flat ``{metric: value}`` from a bench report or a JSONL dump."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict):  # one object: a bench report
            # Drop run metadata that only describes the environment.
            for noise in ("generated_at", "python_version", "platform"):
                payload.pop(noise, None)
            return flatten(payload)
    return _flatten_jsonl(text.splitlines())


def diff_metrics(
    old: dict[str, float], new: dict[str, float], threshold: float = 0.05
) -> list[dict]:
    """Per-metric delta rows, sorted worst regression first.

    Each row carries ``metric``, ``old``, ``new``, ``delta``, ``pct``
    (relative change, ``inf`` for new-from-zero), ``direction``, and
    ``regression`` (True when the metric moved against its direction by
    more than ``threshold``).
    """
    rows = []
    for name in sorted(old.keys() | new.keys()):
        a = old.get(name)
        b = new.get(name)
        delta = (b or 0.0) - (a or 0.0)
        if a in (None, 0.0):
            pct = math.inf if delta else 0.0
        else:
            pct = delta / abs(a)
        sense = direction(name)
        regression = (
            a is not None
            and b is not None
            and sense != 0
            and pct * sense < -threshold
        )
        rows.append(
            {
                "metric": name,
                "old": a,
                "new": b,
                "delta": delta,
                "pct": pct,
                "direction": sense,
                "regression": regression,
            }
        )
    rows.sort(key=lambda r: (not r["regression"], -abs(r["pct"]), r["metric"]))
    return rows


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.6g}"


def render_diff(
    rows: list[dict],
    out: TextIO,
    changed_only: bool = True,
    color: bool = False,
) -> int:
    """Print the diff table; returns the number of regressions."""
    red, green, reset = ("\x1b[31m", "\x1b[32m", "\x1b[0m") if color else ("",) * 3
    regressions = 0
    shown = 0
    for row in rows:
        if changed_only and row["delta"] == 0.0 and row["old"] is not None:
            continue
        shown += 1
        pct = row["pct"]
        pct_text = "new" if pct == math.inf else f"{pct:+.1%}"
        mark = " "
        if row["regression"]:
            regressions += 1
            mark = f"{red}!{reset or '!'}" if color else "!"
        elif row["direction"] != 0 and row["pct"] * row["direction"] > 0:
            mark = f"{green}+{reset}" if color else "+"
        out.write(
            f"{mark} {row['metric']:<60s} {_fmt(row['old']):>16s} -> "
            f"{_fmt(row['new']):>16s}  ({pct_text})\n"
        )
    out.write(
        f"\n{shown} metrics changed, {regressions} regression"
        f"{'' if regressions == 1 else 's'}\n"
    )
    return regressions


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs diff",
        description="Diff two metric dumps (BENCH_perf.json or JSONL) "
        "with regression highlighting.",
    )
    parser.add_argument("old", help="baseline dump")
    parser.add_argument("new", help="candidate dump")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative change beyond which a direction-aware metric "
        "counts as a regression (default 0.05)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="show unchanged metrics too",
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when any regression is found",
    )
    args = parser.parse_args(argv)

    rows = diff_metrics(
        load_metrics(args.old), load_metrics(args.new), threshold=args.threshold
    )
    regressions = render_diff(
        rows, sys.stdout, changed_only=not args.all, color=sys.stdout.isatty()
    )
    return 1 if (args.fail_on_regression and regressions) else 0
