"""Worker-crash injection against the pipe transport.

The contract ``crash_parallel_worker`` exists to exercise: when a
worker process dies mid-flight, the coordinator's next receive,
``wait_any`` or send must surface a :class:`TransportError` — the dead
child's end of the pipe reads as EOF and refuses writes — rather than
hanging forever or leaking a raw ``OSError``. Surviving workers keep
working.
"""

import pytest

from repro.errors import FaultError
from repro.faults import crash_parallel_worker
from repro.netsim.parallel.transport import (
    PipeEndpoint,
    PipeTransport,
    TransportError,
)


def _echo_worker(conn, rank):
    """Child target: echo frames until told to quit."""
    endpoint = PipeEndpoint(conn)
    while True:
        frame = endpoint.recv()
        if frame == b"quit":
            return
        endpoint.send(frame)


@pytest.fixture
def transport():
    transport = PipeTransport(2, _echo_worker)
    yield transport
    for rank, proc in enumerate(transport.procs):
        if proc.is_alive():
            transport.send_frame(rank, b"quit")
    transport.close()


class TestCrashParallelWorker:
    def test_echo_roundtrip_before_crash(self, transport):
        transport.send_frame(0, b"ping")
        assert transport.wait_any([0]) == [0]
        assert transport.recv_frame(0) == b"ping"

    def test_coordinator_raises_instead_of_hanging(self, transport):
        proc = crash_parallel_worker(transport, 0, join_timeout=10.0)
        assert not proc.is_alive()
        # EOF makes the connection readable, so wait_any returns and
        # the recv itself raises.
        with pytest.raises(TransportError, match="peer closed"):
            for rank in transport.wait_any([0]):
                transport.recv_frame(rank)

    def test_send_to_dead_worker_raises_transport_error(self, transport):
        # Larger than the pipe buffer, so the write cannot vanish into
        # the kernel: it must fail, and fail as a TransportError.
        crash_parallel_worker(transport, 0, join_timeout=10.0)
        with pytest.raises(TransportError, match="peer gone"):
            transport.send_frame(0, b"x" * 100000)

    def test_survivor_keeps_working(self, transport):
        crash_parallel_worker(transport, 0, join_timeout=10.0)
        transport.send_frame(1, b"still here")
        assert transport.wait_any([1]) == [1]
        assert transport.recv_frame(1) == b"still here"

    def test_complete_frame_survives_the_crash(self, transport):
        # A reply already in flight when the worker dies must still be
        # delivered — crash detection only fires on an *empty* channel.
        transport.send_frame(0, b"last words")
        assert transport.wait_any([0]) == [0]
        crash_parallel_worker(transport, 0, join_timeout=10.0)
        assert transport.recv_frame(0) == b"last words"

    def test_bad_rank_rejected(self, transport):
        with pytest.raises(FaultError, match="no worker rank"):
            crash_parallel_worker(transport, 7)

    def test_transport_without_procs_rejected(self):
        with pytest.raises(FaultError, match="no worker processes"):
            crash_parallel_worker(object(), 0)
