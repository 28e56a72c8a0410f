"""Conservative-lookahead synchronization (null messages / LBTS).

The coordinator runs Chandy–Misra–Bryant-style rounds over the
partition graph. Each worker reports its *next effective event time*
— the earliest timestamp it could dispatch, accounting for both its
local queue and any imports the coordinator is still holding for it.
``L[q -> w]`` is the smallest propagation delay of any cut link from
partition q toward w, and ``Lc`` its transitive closure
(:func:`transitive_lookahead`): nothing q dispatches at or after
``next_eff_q`` can arrive in w before ``next_eff_q + Lc[q -> w]``.
Workers run exclusive-horizon windows
(``Simulator.run(until=H, inclusive=False)``), export cut-crossing
packets, and report back. Because every cut delay is positive, the
global minimum next-event time strictly increases each round and the
protocol cannot deadlock. A report that carries neither exports nor
dispatched work is a CMB null message: pure clock announcement.

Grants are demand-driven. Each worker gets a grant *ceiling*

    G_w = min over q != w of (next_eff_q + Lc[q -> w])

— deliberately excluding the self-echo diagonal term, because the
worker enforces that bound itself: it drains multiple windows
``[s, min(G_w, s + Lc[w, w]))`` locally (s = its next pending event
time) and reports back only when the ceiling is exhausted or it
exports a cut-crossing packet. Any export at time
``t >= s`` can echo back no earlier than ``t + Lc[w, w] >= s +
Lc[w, w]``, which is at or past the window end — so no window ever
overruns the knowledge the worker had when granted, and stopping at
the first export keeps the null messages demand-driven: quiet shards
simply are not granted (no heartbeats), and a report almost always
carries payload. The rung ladder a grant carries is the projection of
those windows from the worker's reported next-k event times — the
worker recomputes the real windows from live peeks (new events created
mid-grant only tighten them), the coordinator records the ladder in
:class:`RoundTrace` for post-mortems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf


#: Order in which phase fractions are reported everywhere (docs, bench
#: schema, Prometheus gauges): event execution, scheduler bookkeeping,
#: event construction/recycling outside run windows, metrics
#: flush/snapshot time, blocking on the coordinator pipe, everything
#: else.
PHASES = ("dispatch", "cascade", "alloc", "accounting", "sync_wait", "idle")


@dataclass
class SyncStats:
    """Per-worker sync counters (picklable; mirrored into the obs
    registry as ``parallel_*`` families when observability is on).

    The ``wall_*`` fields are phase accounting, populated only when the
    worker runs with profiling enabled. They are deliberately *not*
    part of :meth:`as_dict`: that dict is compared across execution
    modes and runs by the determinism tests, and wall clocks measure the
    machine, not the protocol.
    """

    rank: int = 0
    null_messages: int = 0
    lbts_stalls: int = 0
    sync_rounds: int = 0
    #: Exclusive-horizon simulator windows run; at least
    #: ``sync_rounds``, since one grant drains one or more windows.
    windows: int = 0
    #: Protocol frames this worker sent/received (grants, reports,
    #: ready/result/exit — everything on its endpoint). Deterministic
    #: for a given spec, identical across execution modes.
    frames_sent: int = 0
    frames_received: int = 0
    proxy_packets_out: int = 0
    proxy_bytes_out: int = 0
    proxy_packets_in: int = 0
    proxy_bytes_in: int = 0
    wall_dispatch: float = 0.0
    wall_cascade: float = 0.0
    wall_alloc: float = 0.0
    wall_accounting: float = 0.0
    wall_sync_wait: float = 0.0
    wall_total: float = 0.0
    events_dispatched: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "rank": self.rank,
            "null_messages": self.null_messages,
            "lbts_stalls": self.lbts_stalls,
            "sync_rounds": self.sync_rounds,
            "windows": self.windows,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "proxy_packets_out": self.proxy_packets_out,
            "proxy_bytes_out": self.proxy_bytes_out,
            "proxy_packets_in": self.proxy_packets_in,
            "proxy_bytes_in": self.proxy_bytes_in,
        }

    @property
    def null_message_ratio(self) -> float:
        """Fraction of reports that were pure clock announcements —
        neither exports nor dispatched work (the literal CMB null
        message)."""
        return self.null_messages / self.sync_rounds if self.sync_rounds else 0.0

    def phase_seconds(self) -> dict[str, float]:
        """Absolute wall seconds per phase. ``idle`` is the remainder
        of ``wall_total`` not attributed to any measured phase (barrier
        skew, result extraction, pipe sends)."""
        measured = (
            self.wall_dispatch + self.wall_cascade + self.wall_alloc
            + self.wall_accounting + self.wall_sync_wait
        )
        return {
            "dispatch": self.wall_dispatch,
            "cascade": self.wall_cascade,
            "alloc": self.wall_alloc,
            "accounting": self.wall_accounting,
            "sync_wait": self.wall_sync_wait,
            "idle": max(0.0, self.wall_total - measured),
        }

    def phase_breakdown(self) -> dict[str, float]:
        """Phase fractions of ``wall_total`` (sum ~1.0 when profiled)."""
        total = self.wall_total
        if total <= 0.0:
            return {phase: 0.0 for phase in PHASES}
        return {
            phase: seconds / total
            for phase, seconds in self.phase_seconds().items()
        }

    def events_per_second(self) -> float:
        """Dispatched events per wall second of the worker's run."""
        return (
            self.events_dispatched / self.wall_total
            if self.wall_total > 0.0
            else 0.0
        )


def merge_sync_stats(stats: list[SyncStats]) -> dict[str, int]:
    """Fleet totals across workers (ranks dropped)."""
    totals = {
        "null_messages": 0,
        "lbts_stalls": 0,
        "sync_rounds": 0,
        "windows": 0,
        "frames_sent": 0,
        "frames_received": 0,
        "proxy_packets": 0,
        "proxy_bytes": 0,
    }
    for s in stats:
        totals["null_messages"] += s.null_messages
        totals["lbts_stalls"] += s.lbts_stalls
        totals["sync_rounds"] += s.sync_rounds
        totals["windows"] += s.windows
        totals["frames_sent"] += s.frames_sent
        totals["frames_received"] += s.frames_received
        totals["proxy_packets"] += s.proxy_packets_out
        totals["proxy_bytes"] += s.proxy_bytes_out
    return totals


def message_stats(stats: list[SyncStats], events: int) -> dict[str, float]:
    """Host-independent sync-message economics.

    ``sync_messages_per_event`` — total protocol frames the fleet
    moved (both directions) per dispatched event: the metric the
    multi-window/demand-driven work is gated on, meaningful even on
    ``cores_limited`` hosts where wall-clock speedup is not.
    ``frames_per_round`` — frames per sync round (grant + report + any
    control traffic amortized); coalescing keeps it near 2.
    """
    frames = sum(s.frames_sent + s.frames_received for s in stats)
    rounds = sum(s.sync_rounds for s in stats)
    return {
        "frames_total": frames,
        "sync_messages_per_event": frames / events if events else 0.0,
        "frames_per_round": frames / rounds if rounds else 0.0,
    }


def merge_phase_stats(stats: list[SyncStats]) -> dict:
    """Fleet-level phase accounting, weighted by worker wall time.

    The fractions answer "where did the fleet's worker-seconds go" —
    each worker contributes to a phase in proportion to the absolute
    wall time it spent there, so a shard that ran twice as long weighs
    twice as much. ``sync_efficiency`` is the *productive* share —
    dispatch + cascade + alloc + accounting: the fraction of worker
    wall time spent doing simulation work (including the native core's
    event setup and counter flushing) rather than waiting on the sync
    protocol (the bench floor gate's signal). Only ``sync_wait`` and
    ``idle`` count against it.
    """
    total = sum(s.wall_total for s in stats)
    seconds = {phase: 0.0 for phase in PHASES}
    for s in stats:
        for phase, value in s.phase_seconds().items():
            seconds[phase] += value
    breakdown = {
        phase: (value / total if total > 0.0 else 0.0)
        for phase, value in seconds.items()
    }
    rounds = sum(s.sync_rounds for s in stats)
    nulls = sum(s.null_messages for s in stats)
    return {
        "phase_breakdown": breakdown,
        "phase_seconds": seconds,
        "wall_total": total,
        "null_message_ratio": nulls / rounds if rounds else 0.0,
        "sync_efficiency": (
            breakdown["dispatch"]
            + breakdown["cascade"]
            + breakdown["alloc"]
            + breakdown["accounting"]
        ),
        "events_per_second": {
            s.rank: s.events_per_second() for s in stats
        },
    }


def effective_next_times(
    reported: list[float], pending_import_min: list[float]
) -> list[float]:
    """Fold pending (undelivered) imports into each worker's report.

    A worker's own queue does not know about packets the coordinator
    is still holding for it; using the raw report would let a
    predecessor's horizon race past an import that is about to land —
    a causality violation. ``pending_import_min[w]`` is the earliest
    arrival time among held imports destined to w (``inf`` if none).
    """
    return [min(r, p) for r, p in zip(reported, pending_import_min)]


def transitive_lookahead(
    lookahead: dict[tuple[int, int], float], n: int
) -> dict[tuple[int, int], float]:
    """All-pairs minimum lookahead over the partition graph.

    Direct cut delays alone are *not* a safe horizon input: influence
    propagates transitively (q exports to r, whose reaction exports to
    w), and an idle intermediate partition reports ``next_eff = inf``
    — which would unbound w's horizon even though q's next event can
    reach w in ``L[q->r] + L[r->w]``. Floyd–Warshall over the cut
    delays gives the true minimum delay along *any* partition path,
    including the diagonal ``(w, w)``: the shortest cycle through the
    cut bounds how soon a worker's own dispatches can echo back to it,
    which must also cap its horizon. Computed once per plan (the
    partition count is tiny).
    """
    dist = [[inf] * n for _ in range(n)]
    for (src, dst), delay in lookahead.items():
        if delay < dist[src][dst]:
            dist[src][dst] = delay
    for mid in range(n):
        row_mid = dist[mid]
        for src in range(n):
            through = dist[src][mid]
            if through == inf:
                continue
            row_src = dist[src]
            for dst in range(n):
                candidate = through + row_mid[dst]
                if candidate < row_src[dst]:
                    row_src[dst] = candidate
    return {
        (src, dst): dist[src][dst]
        for src in range(n)
        for dst in range(n)
        if dist[src][dst] < inf
    }


def grant_ceilings(
    next_eff: list[float], lookahead: dict[tuple[int, int], float]
) -> list[float]:
    """Per-worker grant ceilings for demand-driven sync.

    ``next_eff[q]`` is worker q's effective next event time;
    ``lookahead[(q, w)]`` the min delay from q toward w — pass the
    :func:`transitive_lookahead` closure, not the raw per-cut-link
    matrix, so multi-hop influence bounds the ceiling too. A worker no
    other partition can reach gets ``inf``. The diagonal ``(w, w)``
    closure term is *excluded*: the self-echo bound depends on the
    worker's own future dispatch times, which only the worker knows
    mid-grant — so it enforces that bound itself by capping each
    internal window at ``s + Lc[w, w]`` and stopping at the first
    export. Everything the coordinator can soundly promise from the
    *other* workers' effective next times is in the ceiling. Cached
    (possibly stale) reports are safe inputs: a worker's dispatch
    times only move forward, so an old report is still a lower bound.
    """
    n = len(next_eff)
    ceilings = [inf] * n
    for (src, dst), delay in lookahead.items():
        if src == dst:
            continue
        bound = next_eff[src] + delay
        if bound < ceilings[dst]:
            ceilings[dst] = bound
    return ceilings


def build_ladder(
    next_times: list[float], self_delay: float, ceiling: float
) -> list[float]:
    """The horizon rungs a demand grant carries: the projection of the
    worker's export-capped windows from its reported next-k event
    times. Rung i is ``min(ceiling, next_times[i] + self_delay)``;
    rungs are deduped ascending and the final rung is always the
    ceiling, so ``ladder[-1]`` is the authoritative bound and the
    earlier rungs are the predicted intermediate window ends (recorded
    in :class:`RoundTrace`; the worker recomputes the real windows
    from live peeks, which new mid-grant events can only tighten)."""
    rungs: list[float] = []
    for when in next_times:
        rung = when + self_delay
        if rung >= ceiling:
            break
        if not rungs or rung > rungs[-1]:
            rungs.append(rung)
    rungs.append(ceiling)
    return rungs


@dataclass
class RoundTrace:
    """One coordinator scheduling round, for the sync unit tests,
    flight-recorder dumps, and ``repro.obs diff`` post-mortems."""

    round_index: int
    next_eff: list[float] = field(default_factory=list)
    horizons: list[float] = field(default_factory=list)
    exports: int = 0
    #: Rank -> granted horizon ladder this round.
    ladders: dict[int, list[float]] = field(default_factory=dict)
    #: Protocol frames exchanged this round (grants + reports).
    frames: int = 0

    def as_dict(self) -> dict:
        """JSON-safe record (inf encoded as None for jsonl dumps)."""

        def scrub(value):
            if isinstance(value, float) and value == inf:
                return None
            return value

        return {
            "round_index": self.round_index,
            "next_eff": [scrub(v) for v in self.next_eff],
            "horizons": [scrub(v) for v in self.horizons],
            "exports": self.exports,
            "ladders": {
                str(rank): [scrub(v) for v in ladder]
                for rank, ladder in self.ladders.items()
            },
            "frames": self.frames,
        }
