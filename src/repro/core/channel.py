"""The channel value type and per-host channel allocation.

"A multicast channel is a datagram delivery service identified by a
tuple (S, E) where S is the sender's source address and E is a channel
destination address. Only the source host S may send to (S, E)" (§2).

Channels with the same E but different S are unrelated; equality and
hashing therefore cover both components. Each source host can allocate
its 2^24 channel numbers autonomously — "duplicate allocation is an
issue only at a single host, which the host operating system can avoid
with a local database of allocated channels" (§2.2.1);
:class:`ChannelAllocator` is that local database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import ChannelError
from repro.inet.addr import (
    CHANNELS_PER_SOURCE,
    channel_suffix,
    format_address,
    is_ssm,
    is_unicast,
    ssm_address,
)

# ---------------------------------------------------------------------------
# Channel interning
#
# Channels key every hot dict in the system (channel tables, FIB caches,
# block membership, key caches), and the same (S, E) pair is rebuilt at
# every layer: codec decode, FIB lookup, data-plane delivery. Interning
# gives all of those one shared object, so the validation and hash are
# paid once per distinct channel rather than once per packet. Channels
# compare by value, never by identity, so a memo may forget an entry.
# ---------------------------------------------------------------------------

#: (source, suffix) -> canonical Channel, filled by :meth:`Channel.of`.
_OF_MEMO: dict = {}

#: (source, group) -> canonical Channel, or None for pairs that fail
#: validation (negative caching: the data plane probes arbitrary
#: packet addresses, and an invalid pair stays invalid).
_PAIR_MEMO: dict = {}

#: Size guard for each memo: every EXPRESS packet at every node runs
#: :func:`lookup_channel` on its (src, dst), so a flood of spoofed
#: pairs would otherwise grow the memos without bound. A full memo is
#: emptied, like the FIB's lookup cache.
_MEMO_MAX = 8192

_MISSING = object()


def _remember(memo: dict, key, channel) -> None:
    if len(memo) >= _MEMO_MAX:
        memo.clear()
    memo.setdefault(key, channel)


def lookup_channel(source: int, group: int):
    """The canonical :class:`Channel` for ``(source, group)``, or None
    when the pair is not a valid channel.

    This is the data plane's fast path: validation is pure, so each
    pair's result is memoized, invalid pairs included.
    """
    key = (source, group)
    channel = _PAIR_MEMO.get(key, _MISSING)
    if channel is _MISSING:
        try:
            channel = Channel(source=source, group=group)
        except ChannelError:
            channel = None
        _remember(_PAIR_MEMO, key, channel)
        if channel is not None:
            _remember(_OF_MEMO, (source, channel.suffix), channel)
    return channel


@dataclass(frozen=True)
class Channel:
    """An EXPRESS channel (S, E).

    Attributes
    ----------
    source:
        The single designated source's unicast address S.
    group:
        The channel destination address E, in 232.0.0.0/8.
    """

    source: int
    group: int

    def __post_init__(self) -> None:
        if not is_unicast(self.source):
            raise ChannelError(
                f"channel source {format_address(self.source)} must be unicast"
            )
        if not is_ssm(self.group):
            raise ChannelError(
                f"channel destination {format_address(self.group)} must be in 232/8"
            )
        # Channels key every hot dict in the control and data planes
        # (channel tables, FIB caches, block membership), and the value
        # is immutable — memoize the hash instead of rebuilding the
        # (source, group) tuple on every lookup.
        object.__setattr__(self, "_hash", hash((self.source, self.group)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def suffix(self) -> int:
        """The 24-bit channel number within the source's space."""
        return channel_suffix(self.group)

    @classmethod
    def of(cls, source: int, suffix: int) -> "Channel":
        """The canonical channel ``suffix`` of host ``source``.

        Interned: repeated calls with the same pair return the same
        object, shared with :func:`lookup_channel` (the data plane's
        (src, dst) memo), until a full memo is emptied.
        """
        if cls is not Channel:  # subclasses get no interning
            return cls(source=source, group=ssm_address(suffix))
        key = (source, suffix)
        channel = _OF_MEMO.get(key)
        if channel is None:
            channel = cls(source=source, group=ssm_address(suffix))
            _remember(_OF_MEMO, key, channel)
            _remember(_PAIR_MEMO, (source, channel.group), channel)
        return channel

    def __str__(self) -> str:
        return f"({format_address(self.source)},{format_address(self.group)})"


class ChannelAllocator:
    """A source host's local database of allocated channel numbers.

    Allocation is sequential with explicit release; allocating a
    specific suffix that is already held raises :class:`ChannelError`.
    """

    def __init__(self, source: int) -> None:
        if not is_unicast(source):
            raise ChannelError(f"{format_address(source)} is not a unicast address")
        self.source = source
        self._allocated: set[int] = set()
        self._next = 1  # leave suffix 0 unused (reads as "no channel")

    def allocate(self, suffix: Optional[int] = None) -> Channel:
        """Allocate a channel, either a specific ``suffix`` or the next
        free one."""
        if suffix is not None:
            if suffix in self._allocated:
                raise ChannelError(f"channel suffix {suffix} already allocated")
            self._allocated.add(suffix)
            return Channel.of(self.source, suffix)
        if len(self._allocated) >= CHANNELS_PER_SOURCE - 1:
            raise ChannelError("all 2^24 channels allocated")
        while self._next in self._allocated:
            self._next = (self._next + 1) % CHANNELS_PER_SOURCE or 1
        suffix = self._next
        self._allocated.add(suffix)
        self._next = (self._next + 1) % CHANNELS_PER_SOURCE or 1
        return Channel.of(self.source, suffix)

    def release(self, channel: Channel) -> None:
        if channel.source != self.source:
            raise ChannelError(f"{channel} does not belong to this source")
        self._allocated.discard(channel.suffix)

    def allocated(self) -> Iterator[Channel]:
        for suffix in sorted(self._allocated):
            yield Channel.of(self.source, suffix)

    def __len__(self) -> int:
        return len(self._allocated)

    def __contains__(self, channel: Channel) -> bool:
        return channel.source == self.source and channel.suffix in self._allocated
