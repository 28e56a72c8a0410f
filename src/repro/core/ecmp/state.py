"""Per-channel ECMP state records.

A router on a channel's distribution tree records, per §3.2: its
upstream (RPF) neighbor, "the per-channel subscriber count for each
interface" (we key by neighbor, which is 1:1 with interfaces on
point-to-point links), and — for authenticated channels — the key
material in flight or cached.

§5.2 prices this state: a count-activity record is "roughly 16 bytes,
namely [channel, countId, count]", doubled to 32 to allow for
implementation fields; with an average fanout of 2 (three records
including the upstream record) and 2 outstanding counts per channel,
"the DRAM memory cost per channel is 192 bytes ... Adding another
eight bytes to store K(S,E), the total size is 200 bytes."
:func:`management_state_bytes` reproduces that accounting from live
state so the ``T2`` benchmark can compare model vs measured.

Each :class:`DownstreamRecord` is a plain slots record owned by its
channel's ``downstream`` dict. :class:`StateBank` is the record's one
create point and one remove point, so the protocol's record lifetime
can be timed from outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.channel import Channel
from repro.core.keys import KEY_BYTES, ChannelKey
from repro.core.proactive import ProactiveCounter

#: Pseudo-neighbor name for this node's own (host-local) subscriptions.
LOCAL = "__local__"

#: Name prefix for aggregated subscriber-block records (see
#: :mod:`repro.core.blocks`). Like LOCAL, a block pseudo-neighbor has
#: no peer node: it contributes to counts but never to the FIB's
#: outgoing set, wire sends, or query fan-out.
BLOCK_PREFIX = "__block__:"


def is_pseudo_neighbor(name: str) -> bool:
    """True for downstream-record keys that are not real neighbors
    (the LOCAL record and subscriber-block records)."""
    return name == LOCAL or name.startswith(BLOCK_PREFIX)

#: §5.2's raw count-activity record: [channel (7), countId (2), count (4)]
#: rounded to 16, then doubled "to allow for implementation fields".
COUNT_RECORD_BYTES = 32


@dataclass(slots=True)
class DownstreamRecord:
    """State for one downstream neighbor (or LOCAL) on a channel."""

    count: int = 0
    #: False while an authenticated subscription awaits validation.
    validated: bool = True
    presented_key: Optional[ChannelKey] = None
    updated_at: float = 0.0
    #: True for neighbors managed in UDP mode (soft state, needs refresh).
    udp: bool = False


class StateBank:
    """Where downstream records are created and removed.

    Stateless: the records live in their :class:`ChannelState`'s
    ``downstream`` dict. Every protocol-path insert and explicit
    removal goes through these two functions; records dropped with a
    whole channel table (a crash) are not released one by one.
    """

    @staticmethod
    def alloc(state: ChannelState, name: str) -> DownstreamRecord:
        """Insert a fresh record for neighbor ``name`` and return it."""
        record = state.downstream[name] = DownstreamRecord()
        return record

    @staticmethod
    def release(state: ChannelState, name: str) -> DownstreamRecord:
        """Remove neighbor ``name``'s record and return it."""
        return state.downstream.pop(name)


@dataclass
class ChannelState:
    """Everything one node knows about one channel."""

    channel: Channel
    #: Upstream neighbor name toward S; None at the source's own node.
    upstream: Optional[str] = None
    #: Per-downstream-neighbor subscriber counts (LOCAL for own subs).
    downstream: dict[str, DownstreamRecord] = field(default_factory=dict)
    #: Count last advertised upstream (TCP-mode "sum provided upstream").
    advertised: int = 0
    #: Key forwarded upstream, awaiting a CountResponse verdict.
    pending_key: Optional[ChannelKey] = None
    #: Proactive counters, per countId, when §6 mode is active.
    proactive: dict[int, ProactiveCounter] = field(default_factory=dict)
    #: Latest unsolicited per-neighbor values for proactive countIds
    #: other than subscriberId: countId -> neighbor -> value.
    proactive_values: dict[int, dict[str, int]] = field(default_factory=dict)
    #: When this node last switched upstream (hysteresis input).
    upstream_changed_at: float = 0.0
    created_at: float = 0.0

    def total(self, validated_only: bool = True) -> int:
        """Sum of downstream subscriber counts (the value sent upstream)."""
        return sum(
            rec.count
            for rec in self.downstream.values()
            if rec.validated or not validated_only
        )

    def has_downstream(self) -> bool:
        return any(rec.count > 0 for rec in self.downstream.values())

    def downstream_links(self) -> int:
        """Tree links below this node (excludes the host-local record
        and aggregated subscriber-block records, which are not links)."""
        return sum(
            1
            for name, rec in self.downstream.items()
            if not is_pseudo_neighbor(name) and rec.count > 0
        )

    def unvalidated(self) -> list[str]:
        return [name for name, rec in self.downstream.items() if not rec.validated]


def management_state_bytes(
    state: ChannelState, outstanding_counts: int = 1, authenticated: bool = False
) -> int:
    """The §5.2 accounting applied to one live channel state.

    Each count activity keeps one 32-byte [channel, countId, count]
    record per neighbor (downstream neighbors plus the upstream one);
    tree maintenance itself is one such activity, so the floor is one
    record set. Authenticated channels add 8 bytes for K(S,E).
    """
    neighbor_records = len(state.downstream) + (1 if state.upstream else 0)
    total = neighbor_records * max(outstanding_counts, 1) * COUNT_RECORD_BYTES
    if authenticated:
        total += KEY_BYTES
    return total


def paper_model_channel_bytes(
    fanout: int = 2, outstanding_counts: int = 2, authenticated: bool = True
) -> int:
    """§5.2's worked example: "assume an average fan-out of 2 (so three
    records including the upstream record) and assume 2 counts
    outstanding at any time on a channel, the DRAM memory cost per
    channel is 192 bytes ... Adding another eight bytes to store
    K(S,E), the total size is 200 bytes."

    >>> paper_model_channel_bytes()
    200
    """
    neighbor_records = fanout + 1
    total = neighbor_records * outstanding_counts * COUNT_RECORD_BYTES
    if authenticated:
        total += KEY_BYTES
    return total
