"""Batched delivery accounting for subscriber blocks.

A subscriber block (:mod:`repro.core.blocks`) stands for many receivers
behind one edge router, so one delivered packet is one delivery per
member. Counting that per packet and per block would cost more than
the forwarding it measures. This module keeps the block counters in
preallocated integer columns and updates them in bulk:

* :class:`CounterBank` — a column store of plain Python integer lists,
  one row per subscriber block, one column per counter.
* :class:`DeliveryView` — the forwarder's frozen per-(agent, channel)
  view of block membership. Per packet it does two integer adds
  (``pending_packets``/``pending_bytes``); the flush applies the
  pending tallies to every member block in one pass. Views are
  invalidated by ``EcmpAgent.members_changing`` (membership is about to
  move, so pending tallies accumulated under the old counts are applied
  first) and refreshed lazily against ``agent.blocks_version``.

Flush boundaries (the full set — counters are never stale when read):

* ``members_changing`` before any join/leave/batch member mutation,
* block counter property reads (``block.deliveries`` etc.),
* the forwarder's registry collector at every ``collect()``/snapshot/
  export,
* a delivery view noticing ``blocks_version`` moved.

Link and protocol counters do not live here: they are plain attributes
and ``stats`` bags on their owners, which registry collectors read at
collect time (see :mod:`repro.obs.hooks`).

The columns are plain lists, not ndarrays: every access is a scalar
read or add, where list indexing returns the stored ``int`` directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.channel import Channel
    from repro.core.ecmp.protocol import EcmpAgent

#: Initial rows per bank column (doubles on demand).
_INITIAL_ROWS = 64


class CounterBank:
    """A column store of preallocated integer counters.

    Columns are plain Python lists of ints. :meth:`add_row` appends a
    zeroed row and returns its index, which the caller keeps (a
    :class:`~repro.core.blocks.SubscriberBlock` holds its own). Growth
    doubles the columns in place.
    """

    __slots__ = ("columns", "rows", "_capacity", "_cols")

    def __init__(
        self, columns: Sequence[str], capacity: int = _INITIAL_ROWS
    ) -> None:
        self.columns = tuple(columns)
        self.rows = 0
        self._capacity = capacity
        self._cols = {name: [0] * capacity for name in self.columns}

    def add_row(self) -> int:
        """Append one zeroed row; returns its index."""
        row = self.rows
        if row >= self._capacity:
            self._capacity *= 2
            for col in self._cols.values():
                col.extend([0] * (self._capacity - len(col)))
        self.rows = row + 1
        return row

    def get(self, name: str, row: int) -> int:
        return self._cols[name][row]

    def set(self, name: str, row: int, value: int) -> None:
        self._cols[name][row] = value


#: Process-wide bank backing every :class:`SubscriberBlock`'s delivery
#: counters (``packets_seen``/``deliveries``/``bytes_delivered``). One
#: row per block instance; rows are never reused, which is fine — banks
#: grow geometrically and a row is three machine words.
BLOCK_BANK = CounterBank(("packets_seen", "deliveries", "bytes_delivered"))


class DeliveryView:
    """Frozen per-(agent, channel) membership view for the forwarder's
    arithmetic final-hop delivery.

    Between membership changes the per-packet work is two integer adds;
    :meth:`flush` then applies the pending packet/byte tallies to every
    member block's bank row in one pass. The equivalence argument: membership is frozen between flushes (every
    mutation path calls ``members_changing`` first), so per-packet and
    batched application compute identical sums.
    """

    __slots__ = (
        "agent",
        "channel",
        "stats",
        "hist",
        "version",
        "blocks",
        "members",
        "members_sum",
        "pending_packets",
        "pending_bytes",
    )

    def __init__(
        self,
        agent: "EcmpAgent",
        channel: "Channel",
        stats,
        hist=None,
    ) -> None:
        self.agent = agent
        self.channel = channel
        #: The forwarder's stats bag — flush targets, same keys the
        #: per-packet path used to increment.
        self.stats = stats
        #: The channel's delivery-latency histogram child (obs mode
        #: only): latency is a per-packet distribution, so it is
        #: observed at delivery time, not deferred.
        self.hist = hist
        self.version = -1
        self.blocks: tuple = ()
        self.members: list[int] = []
        self.members_sum = 0
        self.pending_packets = 0
        self.pending_bytes = 0

    def refresh(self) -> None:
        """Rebuild the frozen member vectors from current membership
        (call only with no pending tallies)."""
        agent = self.agent
        channel = self.channel
        blocks = tuple(agent.channel_blocks.get(channel, ()))
        self.blocks = blocks
        counts = [block.members.get(channel, 0) for block in blocks]
        self.members_sum = sum(counts)
        self.members = counts
        self.version = agent.blocks_version

    def flush(self) -> None:
        """Apply pending per-packet tallies to the member blocks' bank
        rows and the stats bag; no-op with nothing pending."""
        packets = self.pending_packets
        if not packets:
            return
        nbytes = self.pending_bytes
        self.pending_packets = 0
        self.pending_bytes = 0
        cols = BLOCK_BANK._cols
        seen = cols["packets_seen"]
        deliveries = cols["deliveries"]
        delivered_bytes = cols["bytes_delivered"]
        for block, m in zip(self.blocks, self.members):
            row = block._row
            seen[row] += packets
            deliveries[row] += m * packets
            delivered_bytes[row] += m * nbytes
        if self.members_sum:
            stats = self.stats
            stats.incr("block_deliveries", self.members_sum * packets)
            stats.incr("block_packets", packets)


def flush_agent_views(agent: "EcmpAgent") -> None:
    """Flush every pending delivery view of ``agent`` (cheap when
    nothing is pending — one attribute check per channel view)."""
    for view in agent._delivery_views.values():
        if view.pending_packets:
            view.flush()
