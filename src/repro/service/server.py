"""The audited asyncio lock service: a front-end over the kernel.

:class:`LockService` serves concurrent client sessions speaking the
JSON-line protocol (:mod:`repro.service.protocol`) over either transport:
the in-process pipe (:func:`~repro.service.transport.memory_pair`, used
by the tests and the e2e service workloads) or real TCP
(:meth:`LockService.serve_tcp`).
Every connection binds to an *actor* at handshake; every request is then

1. **authorized inline** — the owner-only policy
   (:class:`~repro.service.auth.Authorizer`) runs before the kernel is
   consulted, so a denied request provably changes no lock state and its
   denial is audited with the reason;
2. **executed on the shared kernel** — one
   :class:`~repro.kernel.core.LockKernel`, with no lock around it: every
   kernel request (and the disconnect and drain sweeps) is a plain
   synchronous call, and a coroutine runs uninterrupted until its next
   ``await``, so on the one event loop no two of them can overlap.
   Requests from all sessions therefore apply in a single serializable
   order — the order the loop ran them, which the audit log's sequence
   numbers record.  The invariant to keep: nothing between reading
   kernel state and writing the reply may ``await``
   (``tests/test_service.py::TestSerializedWithoutALock`` wraps every
   kernel section in a re-entrancy sentinel to hold it);
3. **answered on the same connection** — one response line per request;
   a ``blocked`` acquire additionally produces one ``wake`` event line
   when the parked request resolves (grant, deadlock victim, client
   abort, or drain).

**Frames.**  A request line longer than
:data:`~repro.service.protocol.MAX_LINE_BYTES` is refused on either
transport: one audited ``protocol`` error, a best-effort reply, and the
connection is closed and cleaned up as for a disconnect.  A line that
does not parse (bad UTF-8, bad JSON, nesting the parser gives up on) is
answered with an audited ``protocol`` error and the connection carries
on.

**Backpressure.**  Each connection has an in-flight cap (a semaphore):
a parked acquire holds a slot until its wake fires, and once a client
has ``max_inflight`` requests parked the service simply stops reading
from that connection — the client cannot flood the kernel's wait queues.

**Drain.**  :meth:`LockService.drain` refuses new work, cancels every
parked request through the kernel (blocked clients receive a terminal
``wake`` with outcome ``error``), aborts every live transaction, emits a
``drain`` event on every connection, and closes them.  No client is left
hanging on a response.

**Disconnect.**  A connection remembers the transactions begun on it.
When the client goes away (EOF, reset) the ones still live are aborted
through the kernel — one audited ``abort`` each, the parked slot
returned, the waiters behind their locks woken — so a vanished client
cannot hold locks or a wait-queue position forever.  A connection that
leaves nothing live behind leaves no audit entry either.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Awaitable, Deque, Dict, Optional, Set, Tuple

from ..kernel import LockKernel, LockMode, Outcome
from .auth import Authorizer
from .protocol import (
    MAX_LINE_BYTES,
    MODE_WIRE,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    parse_mode,
    request_id,
    require_str,
)
from .transport import memory_pair


#: Audit actor of a connection that never completed its handshake.
UNAUTHENTICATED = "<unauthenticated>"


class _Connection:
    """Server-side per-connection state: the writer, the in-flight cap,
    the actor bound at handshake, and the transactions begun here."""

    def __init__(self, writer, max_inflight: int) -> None:
        self.writer = writer
        self.actor: Optional[str] = None
        self.inflight = asyncio.Semaphore(max_inflight)
        #: Transactions begun on this connection and not yet seen to
        #: finish on it (a commit or abort reply, or a victim wake);
        #: whatever is still live at disconnect is aborted.
        self.txns: Set[str] = set()

    def send(self, message: Dict[str, object]) -> None:
        if not self.writer.is_closing():
            self.writer.write(encode(message))

    def close(self) -> None:
        self.writer.close()


class _Parked:
    """A blocked acquire's continuation: forwards the kernel's wake-up to
    the owning connection as a ``wake`` event and returns the in-flight
    slot; a ``victim`` wake also ends the connection's hold on the name.
    The kernel fires it exactly once (single-delivery contract)."""

    __slots__ = ("conn", "rid")

    def __init__(self, conn: _Connection, rid: object) -> None:
        self.conn = conn
        self.rid = rid

    def __call__(self, txn: str, response) -> None:
        event: Dict[str, object] = {
            "event": "wake",
            "id": self.rid,
            "txn": txn,
            "outcome": response.outcome.wire,
        }
        if response.reason is not None:
            event["reason"] = response.reason
        if response.outcome is Outcome.VICTIM:
            self.conn.txns.discard(txn)
        self.conn.send(event)
        self.conn.inflight.release()


class LockService:
    """The asyncio lock-manager service (see module docstring)."""

    def __init__(self, *, max_inflight: int = 8) -> None:
        self.kernel = LockKernel()
        self.audit = self.kernel.audit
        self.auth = Authorizer()
        self.max_inflight = max_inflight
        self._draining = False
        #: Open connections, in the order they opened (a dict as an
        #: ordered set: drain visits them in that order).
        self._conns: Dict[_Connection, None] = {}
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._tcp_server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Transports
    # ------------------------------------------------------------------

    async def connect(self, actor: str) -> "ServiceClient":
        """Open an in-process connection, complete the handshake, and
        return the client handle."""
        (c_reader, c_writer), (s_reader, s_writer) = memory_pair()
        task = asyncio.ensure_future(self.handle_client(s_reader, s_writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        client = ServiceClient(c_reader, c_writer, actor)
        await client.hello()
        return client

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Start the optional TCP listener; returns ``(host, port)``."""
        self._tcp_server = await asyncio.start_server(
            self.handle_client, host, port, limit=MAX_LINE_BYTES
        )
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def handle_client(self, reader, writer) -> None:
        conn = _Connection(writer, self.max_inflight)
        self._conns[conn] = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Either transport's reader, on a line over
                    # MAX_LINE_BYTES.  What follows it need not start on
                    # a line boundary, so the connection ends here.
                    self._refuse(conn, None, "protocol", Outcome.ERROR,
                                 "request line too long")
                    break
                if not line:
                    break
                if conn.actor is None:
                    if not self._handshake(conn, line):
                        break
                else:
                    slot_wait = self._handle_request(conn, line)
                    if slot_wait is not None:
                        await slot_wait
        except asyncio.CancelledError:
            pass  # drain cancels reader tasks after notifying the client
        except ConnectionError:
            pass  # a reset is a disconnect like EOF
        finally:
            del self._conns[conn]
            conn.close()
            self._abandon(conn)

    def _abandon(self, conn: _Connection) -> None:
        """The client is gone: abort what it left live (a parked acquire's
        wake finds the writer closed and only returns the slot)."""
        for txn in sorted(conn.txns):
            if self.kernel.is_live(txn):
                self.kernel.abort(
                    txn, actor=conn.actor, reason="client disconnected"
                )

    def _refuse(
        self,
        conn: _Connection,
        rid: object,
        op: str,
        outcome: Outcome,
        reason: str,
        txn: Optional[str] = None,
    ) -> None:
        """A request the service turns away before the kernel sees it:
        one audit entry with the reason, then the reply."""
        self.audit.append(op, conn.actor or UNAUTHENTICATED, outcome.wire,
                          txn=txn, reason=reason)
        reply = {
            "id": rid, "op": op, "outcome": outcome.wire, "reason": reason,
        }
        if txn is not None:
            reply["txn"] = txn
        conn.send(reply)

    def _handshake(self, conn: _Connection, line: bytes) -> bool:
        """First line must be ``{"op": "hello", "actor": <name>}``."""
        try:
            message = decode(line)
            if message.get("op") != "hello":
                raise ProtocolError("first request must be 'hello'")
            actor = require_str(message, "actor")
        except ProtocolError as exc:
            self._refuse(conn, None, "hello", Outcome.ERROR, str(exc))
            return False
        conn.actor = actor
        self.audit.append("hello", actor, Outcome.GRANTED.wire)
        conn.send({
            "id": request_id(message), "op": "hello", "actor": actor,
            "outcome": Outcome.GRANTED.wire, "protocol": PROTOCOL_VERSION,
        })
        return True

    def _handle_request(
        self, conn: _Connection, line: bytes
    ) -> Optional[Awaitable[None]]:
        """Answer one request line.  Every op is answered before this
        returns, except an ``acquire``: it is handed back as an awaitable
        that first takes the connection's in-flight slot."""
        # rid survives the except clause whenever the line decoded far
        # enough to carry one, so even a malformed request (bad op,
        # missing txn) gets a reply the client can correlate — an
        # uncorrelatable ``id: null`` error would strand a waiter.
        rid = None
        try:
            message = decode(line)
            rid = request_id(message)
            op = message.get("op")
            if op not in OPS:
                raise ProtocolError(f"unknown op {op!r}")
            txn = require_str(message, "txn")
        except ProtocolError as exc:
            self._refuse(conn, rid, "protocol", Outcome.ERROR, str(exc))
            return None

        if self._draining:
            self._refuse(conn, rid, op, Outcome.ERROR, "service draining",
                         txn)
            return None

        # Inline authorization: the owner-only check runs before the
        # kernel sees the request.  A denial is audited here — the kernel
        # was never consulted, so no lock state can have changed.
        denial = self.auth.check(op, conn.actor, txn)
        if denial is not None:
            self._refuse(conn, rid, op, Outcome.DENIED, denial, txn)
            return None

        # Everything below runs without an ``await`` between reading
        # kernel state and answering — except the in-flight slot an
        # acquire takes *before* it calls the kernel.
        if op == "acquire":
            try:
                entity = require_str(message, "entity")
                mode = parse_mode(message.get("mode"))
            except ProtocolError as exc:
                self._refuse(conn, rid, op, Outcome.ERROR, str(exc), txn)
                return None
            return self._op_acquire(conn, rid, txn, entity, mode)
        if op == "locks":
            self._op_locks(conn, rid, txn)
        else:
            self._op_mutating(conn, message, rid, op, txn)
        return None

    def _op_locks(self, conn: _Connection, rid: object, txn: str) -> None:
        """Holder-only visibility: an owner sees its own holdings and
        nothing else (non-owners were already denied above; unknown
        transactions read as holding nothing)."""
        held = self.kernel.held(txn)
        self.audit.append("locks", conn.actor, Outcome.GRANTED.wire, txn=txn)
        conn.send({
            "id": rid, "op": "locks", "txn": txn,
            "outcome": Outcome.GRANTED.wire,
            "locks": sorted(
                [str(e), MODE_WIRE[m]] for e, m in held.items()
            ),
        })

    async def _op_acquire(
        self,
        conn: _Connection,
        rid: object,
        txn: str,
        entity: str,
        mode: LockMode,
    ) -> None:
        # Backpressure: a parked acquire owns an in-flight slot until
        # its wake fires; at the cap, the connection's read loop stops
        # here and the client is simply not read from.
        await conn.inflight.acquire()
        response = self.kernel.acquire(
            txn, entity, mode, on_wake=_Parked(conn, rid), actor=conn.actor
        )
        outcome = response.outcome
        if outcome is not Outcome.BLOCKED:
            # Never parked (or resolved synchronously during deadlock
            # resolution, in which case the wake already released it).
            conn.inflight.release()
        reply: Dict[str, object] = {
            "id": rid, "op": "acquire", "txn": txn, "entity": entity,
            "mode": MODE_WIRE[mode], "outcome": outcome.wire,
        }
        if response.reason is not None:
            reply["reason"] = response.reason
        if response.blockers:
            # Visibility: a client learns how *many* conflicts park
            # it, never which transactions hold them.
            reply["conflicts"] = len(response.blockers)
        conn.send(reply)

    def _op_mutating(
        self,
        conn: _Connection,
        message: Dict[str, object],
        rid: object,
        op: str,
        txn: str,
    ) -> None:
        """``begin`` / ``release`` / ``commit`` / ``abort``: one kernel
        call, one reply."""
        actor = conn.actor
        reply: Dict[str, object] = {"id": rid, "op": op, "txn": txn}
        if op == "release":
            try:
                entity = require_str(message, "entity")
            except ProtocolError as exc:
                self._refuse(conn, rid, op, Outcome.ERROR, str(exc), txn)
                return
            response = self.kernel.release(txn, entity, actor=actor)
            reply["entity"] = entity
        elif op == "begin":
            response = self.kernel.begin(txn, actor=actor)
            if response.ok:
                self.auth.register(txn, actor)
                conn.txns.add(txn)
        else:
            finish = self.kernel.commit if op == "commit" else self.kernel.abort
            response = finish(txn, actor=actor)
            if response.ok:
                conn.txns.discard(txn)
        reply["outcome"] = response.outcome.wire
        if response.reason is not None:
            reply["reason"] = response.reason
        conn.send(reply)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    async def drain(self) -> Tuple[str, ...]:
        """Graceful shutdown (idempotent); returns the names of the live
        transactions the kernel aborted."""
        self._draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
        # Parked callbacks fire here: blocked clients get their terminal
        # wake events before the connections close.
        drained = self.kernel.drain()
        for conn in self._conns:
            conn.send({"event": "drain"})
            conn.close()
        for task in tuple(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
        return drained


class ServiceClient:
    """Client-side handle: sends requests, matches responses by id, and
    buffers unsolicited ``wake``/``drain`` events arriving in between."""

    def __init__(self, reader, writer, actor: str) -> None:
        self.actor = actor
        self._reader = reader
        self._writer = writer
        self._events: Deque[Dict[str, object]] = deque()
        self._responses: Dict[object, Dict[str, object]] = {}
        self._next_id = 0

    # -- plumbing -------------------------------------------------------

    async def _pump_once(self) -> None:
        """Read one message off the wire into the right buffer (events
        and responses interleave freely: a wake for an old request may
        arrive while a newer response is awaited, and vice versa)."""
        line = await self._reader.readline()
        if not line:
            raise ConnectionError(
                f"connection closed (actor {self.actor!r})"
            )
        message = decode(line)
        if "event" in message:
            self._events.append(message)
        else:
            self._responses[message.get("id")] = message

    async def _send(self, message: Dict[str, object]) -> None:
        self._writer.write(encode(message))
        await self._writer.drain()

    # -- protocol -------------------------------------------------------

    async def hello(self) -> Dict[str, object]:
        await self._send({"op": "hello", "actor": self.actor})
        while not self._responses:
            await self._pump_once()
        (_, reply), = self._responses.items()
        self._responses.clear()
        return reply

    def send_raw(self, op: str, **fields: object) -> object:
        """Fire a request without awaiting its response (the response id
        is returned; collect it later with :meth:`response_for`)."""
        rid = self._next_id
        self._next_id += 1
        self._writer.write(encode({"op": op, "id": rid, **fields}))
        return rid

    async def request(self, op: str, **fields: object) -> Dict[str, object]:
        """Send one request and return its response, buffering any events
        that arrive first (fetch them with :meth:`next_event`)."""
        rid = self._next_id
        self._next_id += 1
        await self._send({"op": op, "id": rid, **fields})
        return await self.response_for(rid)

    async def response_for(self, rid: object) -> Dict[str, object]:
        while rid not in self._responses:
            await self._pump_once()
        return self._responses.pop(rid)

    async def next_event(self) -> Dict[str, object]:
        """The next unsolicited event (buffered or read fresh)."""
        while not self._events:
            await self._pump_once()
        return self._events.popleft()

    async def wait_wake(self, rid: object) -> Dict[str, object]:
        """Block until the wake event for request ``rid`` arrives.  Every
        other event stays buffered, in arrival order, for its own
        :meth:`wait_wake` / :meth:`next_event`."""
        while True:
            for event in self._events:
                if event.get("event") == "wake" and event.get("id") == rid:
                    self._events.remove(event)
                    return event
            await self._pump_once()

    async def close(self) -> None:
        self._writer.close()
        if hasattr(self._writer, "wait_closed"):
            await self._writer.wait_closed()
