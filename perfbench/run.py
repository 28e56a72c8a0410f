"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload superbowl_join --seed 1 --seconds 16 --trace 0

The workload runs as repeated trials on the library's defaults for
``--seconds`` of host time; every timed step is calibrated against a
host-speed probe (see :class:`HostProbe`). With ``--trace 0`` the last
line of standard output is a JSON object carrying the end-to-end
metrics. With ``--trace 1`` half the time goes to untraced trials and
half to traced trials, with every layer's entry points wrapped, and
the JSON carries the per-layer metrics. Lines before it are a readable
report: the host fingerprint, each output check, and each metric with
its unit. See ``perfbench/README.md`` for the workloads and the metric
map.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: Trials a run takes at least, so every timed slice has repetitions
#: and ``setup_s`` is a median.
MIN_TRIALS = 3

#: ``REPRO_*`` variables that select no implementation path; any other
#: one set makes the run not comparable with the committed figures.
NEUTRAL_ENV = {"REPRO_ROUNDS_DUMP"}

def host_fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
                env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    env = {key: value for key, value in sorted(os.environ.items()) if key.startswith("REPRO_")}
    selecting = sorted(key for key in env if key not in NEUTRAL_ENV)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "repro_env": env,
        "comparable": not selecting,
        "path_selecting_env": selecting,
    }


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, step: int) -> int:
        self.value = (self.value + step) & 0xFFFF
        return self.value


class HostProbe:
    """A fixed slice of pure-Python work that measures the host's speed.

    The host is shared, and its speed swings by up to 2x within seconds
    as other machines' load comes and goes. The probe runs just before
    every timed step; the step's host time is then scaled by
    ``REFERENCE_S / probe time``, which cancels the swing common to both.
    Like the simulator, the probe mixes method calls, attribute writes,
    dict stores, sifts through a heap of 64k entries and reads scattered
    over 8 MB, so cache contention slows it as it slows the program. It
    calls no library code, so a faster program still reads faster, and
    allocates no object the garbage collector tracks, so it never moves
    a collection into or out of the step it precedes.
    """

    #: About the probe's time between timed steps (the step evicts its
    #: data) on a 2-core Xeon host in its fast regime, Python 3.11; a
    #: calibrated second is a host second at that speed.
    REFERENCE_S = 0.003
    ITERATIONS = 1500

    def __init__(self) -> None:
        self.cells = [_Cell() for _ in range(1024)]
        self.table = dict.fromkeys(range(1 << 15), 0)
        self.heap = list(range(1 << 16))
        self.memory = bytearray(8 << 20)

    def __call__(self) -> float:
        """Run the probe once; returns its host seconds."""
        cells, table, heap, memory = self.cells, self.table, self.heap, self.memory
        replace, mask, total = heapq.heapreplace, len(memory) - 1, 0
        started = perf_counter()
        for i in range(self.ITERATIONS):
            value = cells[i * 613 & 1023].bump(i)
            table[value * 40503 & 0x7FFF] = i
            replace(heap, value * 7919 % 1000003)
            total += memory[(value * 2654435761 + i * 4099) & mask]
        return perf_counter() - started

    def timed(self, step) -> tuple[float, float]:
        """Run ``step()``; returns its host seconds, raw and calibrated."""
        probe_s = self()
        started = perf_counter()
        step()
        wall_s = perf_counter() - started
        return wall_s, wall_s * self.REFERENCE_S / probe_s


class Trial:
    """Timings, outcome and counter snapshots of one workload trial."""

    def __init__(self, setup_s, walls, costs, outcome, before, after, layers=None):
        #: Calibrated set-up seconds.
        self.setup_s = setup_s
        #: Raw and calibrated host seconds of each timed step: ``begin()``,
        #: then one per slice.
        self.walls = walls
        self.costs = costs
        self.wall_s = sum(walls)
        self.outcome = outcome
        self.before = before
        self.after = after
        self.layers = layers


def run_trial(workloads, cls, inputs, probe, tracer=None):
    """Set up one trial, run its timed window slice by slice, check it."""
    work = cls(inputs)
    interval = (
        workloads.udp_query_interval(work.udp_interval)
        if work.udp_interval is not None
        else nullcontext()
    )
    with interval:
        gc.collect()
        _, setup_s = probe.timed(work.setup)
        net = work.net
        before = workloads.net_counters(net)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        timings = [probe.timed(work.begin)]
        timings += [probe.timed(partial(net.run, until=t)) for t in work.slice_ends()]
        walls, costs = zip(*timings)
        after = workloads.net_counters(net)
        layers = None
        if tracer is not None:
            # Read the records before the untimed checks add to them.
            layers = {key: list(record) for key, record in tracer.records.items()}
        outcome = work.finish()
    return Trial(setup_s, walls, costs, outcome, before, after, layers)


def run_trials(workloads, cls, inputs, seconds, probe, tracer=None):
    """Trials until ``seconds`` of host time have passed, and at least
    :data:`MIN_TRIALS` of them.

    Returns ``(trials, errors)``; a trial that raises ends the loop and
    its error is reported as a failed check.
    """
    trials, errors = [], []
    started = perf_counter()
    while perf_counter() - started < seconds or len(trials) < MIN_TRIALS:
        try:
            trials.append(run_trial(workloads, cls, inputs, probe, tracer))
        except Exception as exc:  # reported as a failure, never dropped
            traceback.print_exc()
            errors.append(f"{type(exc).__name__}: {exc}")
            break
    return trials, errors


def window_cost(trials, costs="costs") -> float:
    """Seconds of the timed window, summed step by step.

    Every trial runs the same inputs, so step ``k`` does the same work
    in each. Contention only ever adds time, so each step is taken as
    the mean of its cheaper half of repetitions. ``costs`` picks
    calibrated (``"costs"``) or raw (``"walls"``) seconds.
    """
    total = 0.0
    for step in zip(*(getattr(t, costs) for t in trials)):
        cheaper = sorted(step)[: (len(step) + 1) // 2]
        total += sum(cheaper) / len(cheaper)
    return total


def tally(trials, reference, name):
    """Checks, attempted and failed operations over ``trials``."""
    checks, attempted, failed = [], 0, 0
    for trial in trials:
        attempted += trial.outcome.attempted
        failed += trial.outcome.failed
        checks.extend(trial.outcome.checks)
    mismatched = sum(1 for trial in trials if trial.outcome.counters != reference)
    checks.append((name, mismatched == 0, f"{mismatched} of {len(trials)} trials differ"))
    return checks, attempted + len(trials), failed + mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (needs the library on sys.path)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    generate, cls = workloads.WORKLOADS[args.workload]
    host = host_fingerprint()
    print("# host " + json.dumps(host, sort_keys=True))
    if not host["comparable"]:
        print("# NOT COMPARABLE: path-selecting variables set: "
              + ", ".join(host["path_selecting_env"]))

    inputs = generate(args.seed)
    # A traced run splits its time between untraced and traced trials.
    budget = args.seconds / 2 if args.trace else args.seconds
    probe = HostProbe()
    trials, errors = run_trials(workloads, cls, inputs, budget, probe)
    reference = trials[0].outcome.counters if trials else {}
    checks, attempted, failed = tally(
        trials, reference, "simulated counters repeat across trials"
    )
    end_to_end = {}
    if trials:
        end_to_end = {
            "setup_s": (statistics.median(t.setup_s for t in trials), "s"),
            "ops_per_s": (trials[0].outcome.ops / window_cost(trials), "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "ctrl_bytes_on_wire": (reference["ctrl_bytes_on_wire"], "bytes"),
        }

    traced, per_layer = [], {}
    if args.trace and trials:
        from layers import PER_LAYER, LayerTracer, layer_metrics

        tracer = LayerTracer()
        tracer.install()
        try:
            traced, traced_errors = run_trials(
                workloads, cls, inputs, budget, probe, tracer
            )
        finally:
            tracer.uninstall()
        errors.extend(traced_errors)
        more_checks, more_attempted, more_failed = tally(
            traced, reference, "traced run reproduces untraced counters"
        )
        checks += more_checks
        attempted += more_attempted
        failed += more_failed
        if traced:
            per_trial = [
                layer_metrics(
                    trial.layers, trial.before, trial.after,
                    trial.outcome.counters, trial.wall_s,
                )
                for trial in traced
            ]
            units = {name: unit for name, unit, _ in PER_LAYER}
            per_layer = {
                name: (statistics.median(m[name] for m in per_trial), units[name])
                for name in per_trial[0]
            }
            per_layer["trace.overhead"] = (
                window_cost(traced) / window_cost(trials), "ratio"
            )

    for error in errors:
        checks.append(("trial completed", False, error))
        attempted += 1
        failed += 1
    attempted = max(attempted, 1)

    print(f"# {args.workload} seed={args.seed}: {len(trials)} trials, "
          f"{sum(t.wall_s for t in trials):.2f} s timed; {len(traced)} traced trials")
    for name, ok, detail in checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"# error_rate = {failed / attempted:.6g} ({failed} of {attempted} failed)")
    for key, value in reference.items():
        print(f"# simulated {key} = {value}")
    if trials:
        print(f"# {cls.rate_name} = {end_to_end['ops_per_s'][0]:.6g} 1/s "
              f"(ops_per_s; one op = one {cls.op_name}; "
              f"{trials[0].outcome.ops / window_cost(trials, 'walls'):.6g} 1/s uncalibrated)")
    for name, (value, unit) in {**end_to_end, **per_layer}.items():
        print(f"# metric {name} = {value:.6g} {unit}")

    reported = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0 and bool(trials),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
