"""Coordinator/worker frame transport for the sharded runner.

The sync protocol speaks length-delimited binary *frames* (see the
frame codecs in :mod:`repro.netsim.parallel.codec`); this module moves
those frames between the coordinator and its worker processes. One
``multiprocessing`` pipe per worker carries them as raw
``send_bytes``/``recv_bytes`` payloads — no pickling on the hot loop,
the connection adds only its own length header. The inline runner's
``InlineTransport`` (in :mod:`repro.netsim.parallel.runner`) routes
the *same* encoded frames through in-process queues, so frame counts
and codec coverage are identical between the two execution modes
(the determinism tests rely on it).

Crash safety: a worker dying mid-run must surface as a
:class:`TransportError`, never a hang and never a raw ``OSError``.
A dead child's end of the pipe reads as EOF, writing to it fails with
``BrokenPipeError``, and :meth:`PipeTransport.wait_any` probes child
liveness while it waits.
"""

from __future__ import annotations

from repro.errors import SimulationError


class TransportError(SimulationError):
    """A transport endpoint failed (peer died, pipe closed)."""


class PipeEndpoint:
    """Frames over one ``multiprocessing`` pipe connection (either end)."""

    def __init__(self, conn) -> None:
        self.conn = conn

    def send(self, frame: bytes) -> None:
        try:
            self.conn.send_bytes(frame)
        except OSError as exc:
            raise TransportError(f"pipe peer gone: {exc}") from exc

    def recv(self) -> bytes:
        try:
            return self.conn.recv_bytes()
        except EOFError as exc:
            raise TransportError("pipe peer closed") from exc

    def close(self) -> None:
        self.conn.close()


class PipeTransport:
    """Coordinator side: one mp child per rank, one pipe per child.

    ``send_frame(rank, frame)`` / ``recv_frame(rank)`` move one frame;
    ``wait_any(ranks)`` blocks until at least one of the given ranks
    has a frame pending and returns the readable subset in rank order,
    so the coordinator's processing order is deterministic. ``spawn``
    is the child target, called as ``spawn(conn, rank)`` with the
    child's end of the pipe.
    """

    def __init__(self, plan_n: int, spawn) -> None:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context()
        self.endpoints = []
        self.procs = []
        for rank in range(plan_n):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=spawn, args=(child, rank), daemon=True)
            proc.start()
            child.close()
            self.endpoints.append(PipeEndpoint(parent))
            self.procs.append(proc)

    def send_frame(self, rank: int, frame: bytes) -> None:
        self.endpoints[rank].send(frame)

    def recv_frame(self, rank: int) -> bytes:
        return self.endpoints[rank].recv()

    def wait_any(self, ranks: list[int]) -> list[int]:
        from multiprocessing.connection import wait

        conns = {self.endpoints[r].conn: r for r in ranks}
        while True:
            ready = wait(list(conns), timeout=1.0)
            if ready:
                return sorted(conns[c] for c in ready)
            for rank in ranks:
                if not self.procs[rank].is_alive():
                    raise TransportError(
                        f"worker {rank} died without a reply"
                    )

    def close(self) -> None:
        for endpoint in self.endpoints:
            try:
                endpoint.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hang guard
                proc.terminate()
