"""In-process transport for the lock service.

The service's connection handler is written against the tiny duck-typed
surface it actually uses of asyncio's ``StreamReader``/``StreamWriter``
pair — ``readline``, ``write``, ``drain``, ``close``, ``is_closing`` —
so the same handler serves real TCP sockets (``asyncio.start_server``)
and this zero-socket in-process pipe.  Tests and the bench run entirely
in-process: deterministic, no ports, no firewall surprises in CI.

The pipe carries *whole protocol lines* (the service and client both
write one ``encode()``-d line per call), so each direction is a
``deque`` of lines plus at most one parked reader: ``readline`` pops a
line when one is queued and otherwise parks on a future that the next
``write`` (or ``close``) resolves — the reader task is woken through the
loop exactly as a socket's reader would be, never run inline by the
writer.  A line longer than :data:`~repro.service.protocol.MAX_LINE_BYTES`
makes ``readline`` raise ``ValueError``, as ``StreamReader.readline``
does for a line over its limit.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Optional, Tuple

from .protocol import MAX_LINE_BYTES


class _Direction:
    """One direction of the pipe, shared by its writer and its reader."""

    __slots__ = ("lines", "closed", "parked")

    def __init__(self) -> None:
        self.lines: Deque[bytes] = deque()
        #: Set once by the writer's ``close()``; the reader sees EOF after
        #: the lines queued before it.
        self.closed = False
        #: The reader's future while it waits on an empty pipe.
        self.parked: Optional["asyncio.Future[None]"] = None

    def wake_reader(self) -> None:
        parked = self.parked
        if parked is not None and not parked.done():
            parked.set_result(None)


class MemoryReader:
    """Reader half: pops whole lines written by the peer."""

    def __init__(self, direction: _Direction) -> None:
        self._direction = direction

    async def readline(self) -> bytes:
        direction = self._direction
        lines = direction.lines
        while not lines:
            if direction.closed:
                return b""
            if direction.parked is not None:
                raise RuntimeError(
                    "readline() called while another coroutine is "
                    "already waiting for incoming data"
                )
            direction.parked = asyncio.get_running_loop().create_future()
            try:
                await direction.parked
            finally:
                direction.parked = None
        line = lines.popleft()
        if len(line) > MAX_LINE_BYTES:
            raise ValueError("line is longer than the frame limit")
        return line


class MemoryWriter:
    """Writer half: queues whole lines for the peer's reader."""

    def __init__(self, direction: _Direction) -> None:
        self._direction = direction

    def write(self, data: bytes) -> None:
        direction = self._direction
        if not direction.closed:
            direction.lines.append(bytes(data))
            direction.wake_reader()

    async def drain(self) -> None:
        """Yield once so the peer's reader can run (the unbounded pipe
        itself never applies backpressure — the service's per-client
        in-flight cap does)."""
        await asyncio.sleep(0)

    def is_closing(self) -> bool:
        return self._direction.closed

    def close(self) -> None:
        direction = self._direction
        if not direction.closed:
            direction.closed = True
            direction.wake_reader()

    async def wait_closed(self) -> None:
        return None


#: One endpoint: (reader, writer).
Endpoint = Tuple[MemoryReader, MemoryWriter]


def memory_pair() -> Tuple[Endpoint, Endpoint]:
    """A connected duplex pipe: ``(client_endpoint, server_endpoint)``."""
    client_to_server = _Direction()
    server_to_client = _Direction()
    client = (MemoryReader(server_to_client), MemoryWriter(client_to_server))
    server = (MemoryReader(client_to_server), MemoryWriter(server_to_client))
    return client, server
