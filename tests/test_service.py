"""The audited asyncio lock service (``repro.service``): the
boundary-enforcement-integrity invariants — every denied mutation leaves
lock state unchanged and writes an audit entry with the reason; the
holder-only visibility view; per-client backpressure; concurrent-session
stress with a serializable audit order; graceful drain; and the wire
protocol's error handling (including over real TCP)."""

import asyncio
import inspect
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel import Outcome
from repro.service import (
    LockService,
    ProtocolError,
    ServiceClient,
    decode,
    encode,
    parse_mode,
)
from repro.service.protocol import MAX_LINE_BYTES, MUTATING_OPS


def run(coro):
    return asyncio.run(coro)


async def make_service(**kwargs):
    return LockService(**kwargs)


async def until(condition, timeout=5):
    """Poll for something the service does in its own time (noticing a
    closed socket, say)."""
    async def poll():
        while not condition():
            await asyncio.sleep(0.01)

    await asyncio.wait_for(poll(), timeout)


#: Anything a message can carry: non-ASCII and control characters, ids of
#: every JSON type, nesting, floats (finite, so ``==`` can compare them).
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


#: Messages the wire contract is checked on: non-ASCII and control
#: characters, nested ``locks`` lists, the JSON constants, an ``id`` too
#: long for a machine word, floats (non-finite ones too) and key order.
_WIRE_CORPUS = [
    {"id": 3, "op": "acquire", "txn": "t1", "entity": "a", "mode": "X",
     "outcome": "granted"},
    {"txn": "t\u00ebst", "entity": "\u65e5\u672c", "reason": "\U0001f512 \u2028"},
    {"reason": "tab\tnewline\nnul\x00bell\x07del\x7fquote\"back\\slash"},
    {"id": 1, "locks": [["a", "S"], ["b", "X"], [["nested"], []]]},
    {"id": None, "ok": True, "denied": False},
    {"id": 123456789012345678901234567890, "negative": -10 ** 29},
    {"f": 0.1, "g": -2.5e-300, "h": 1e308, "i": 3.0, "j": -0.0},
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")},
    {"B": 1, "a": 2, "\u00e9": 3, "": 4, "aa": 5},
    {1: "int key", 2: "another"},
    {"tuple": ("a", 1)},
    {},
]

#: The reference rendering: the standard library's encoder, configured
#: as the wire protocol says.
_REFERENCE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _reference_decode(line):
    """The service's decoding rule stated with the standard library:
    ``JSONDecoder().decode`` on the UTF-8 text; the error text (or the
    message) it leads to."""
    try:
        message = json.JSONDecoder().decode(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return f"malformed request line: {exc}"
    if not isinstance(message, dict):
        return f"request must be a JSON object, got {type(message).__name__}"
    return message


#: Request lines for each way ``decode`` can end, and the whitespace rule
#: (JSON whitespace is space, tab, CR and LF; form feed is not).
_DECODE_CASES = {
    "plain": b'{"op":"begin","txn":"t1"}\n',
    "no-terminator": b'{"op":"begin"}',
    "whitespace-around": b' \t\r\n{"op": "begin"} \t\r\n',
    "form-feed-before": b'\x0c{"op":"begin"}\n',
    "vertical-tab-after": b'{"op":"begin"}\x0b\n',
    "nbsp-after": '{"op":"begin"}\u00a0\n'.encode(),
    "extra-word": b'{"op": "begin"} trailing\n',
    "extra-object": b'{"a":1}\n{"b":2}\n',
    "empty": b"",
    "blank": b"\n",
    "spaces": b"   \r\n",
    "junk": b"not json\n",
    "bom": b'\xef\xbb\xbf{"op":"begin"}\n',
    "missing-colon": b'{"a" 1}\n',
    "control-char": b'{"a": "\x01"}\n',
    "unterminated": b'{"a": "open\n',
    "multi-line-position": b'{\n"a": 1,\n}\n',
    "bad-utf8": b'{"op": "begin", "txn": "\xff"}\n',
    "truncated-utf8": b'{"op": "\xe6\x97"}\n',
    "deep-nesting": b"[" * 50_000 + b"\n",
    "array": b"[1,2]\n",
    "string": b'"op"\n',
    "null": b"null\n",
    "number": b"3 \n",
}


class TestWireContract:
    """``encode`` and ``decode`` call the C codec directly; these hold
    them to the standard library's results byte for byte and error text
    for error text."""

    @pytest.mark.parametrize("message", _WIRE_CORPUS, ids=range(len(_WIRE_CORPUS)))
    def test_encode_is_the_reference_encoder(self, message):
        line = encode(message)
        assert line == (_REFERENCE_ENCODER.encode(message) + "\n").encode()
        assert line.isascii()

    def test_encode_renders_known_lines(self):
        assert encode(_WIRE_CORPUS[1]) == (
            b'{"entity":"\\u65e5\\u672c","reason":"\\ud83d\\udd12 \\u2028",'
            b'"txn":"t\\u00ebst"}\n'
        )
        assert encode({"id": None, "f": 1e16, "n": float("nan")}) == (
            b'{"f":1e+16,"id":null,"n":NaN}\n'
        )

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"])
    def test_encode_refuses_what_the_reference_refuses(self, value):
        with pytest.raises(TypeError) as expected:
            _REFERENCE_ENCODER.encode({"x": value})
        with pytest.raises(TypeError) as raised:
            encode({"x": value})
        assert str(raised.value) == str(expected.value)
        # A failed call leaves nothing behind for the next one.
        assert encode({"x": [1]}) == b'{"x":[1]}\n'

    @pytest.mark.parametrize("case", sorted(_DECODE_CASES))
    def test_decode_matches_the_reference_decoder(self, case):
        line = _DECODE_CASES[case]
        expected = _reference_decode(line)
        if isinstance(expected, dict):
            assert decode(line) == expected
        else:
            with pytest.raises(ProtocolError) as raised:
                decode(line)
            assert str(raised.value) == expected

    def test_decode_error_texts(self):
        """Spelled out, so a change in the standard library shows too."""
        texts = {}
        for case in ("extra-word", "blank", "junk", "missing-colon",
                     "multi-line-position", "bad-utf8", "array"):
            with pytest.raises(ProtocolError) as raised:
                decode(_DECODE_CASES[case])
            texts[case] = str(raised.value)
        assert texts == {
            "extra-word": "malformed request line: Extra data: "
                          "line 1 column 17 (char 16)",
            "blank": "malformed request line: Expecting value: "
                     "line 2 column 1 (char 1)",
            "junk": "malformed request line: Expecting value: "
                    "line 1 column 1 (char 0)",
            "missing-colon": "malformed request line: Expecting ':' "
                             "delimiter: line 1 column 6 (char 5)",
            "multi-line-position": "malformed request line: Expecting "
                                   "property name enclosed in double quotes: "
                                   "line 3 column 1 (char 10)",
            "bad-utf8": "malformed request line: 'utf-8' codec can't decode "
                        "byte 0xff in position 24: invalid start byte",
            "array": "request must be a JSON object, got list",
        }


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "acquire", "txn": "t1", "entity": "a", "id": 7}
        line = encode(message)
        assert line.endswith(b"\n")
        assert decode(line) == message

    @given(st.dictionaries(st.text(), _json_values, max_size=6))
    def test_encode_is_canonical_json_and_decode_inverts_it(self, message):
        """The wire bytes are exactly ``json.dumps`` with sorted keys and
        compact separators — however ``encode`` gets there."""
        line = encode(message)
        assert line == (
            json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode()
        assert decode(line) == message

    def test_decode_rejects_non_object_and_junk(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode(b"not json\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode(b"[1,2]\n")

    @pytest.mark.parametrize("line, fragment", [
        (b"[" * 50_000 + b"\n", "recursion"),  # the parser gives up
        (b'{"op": "begin", "txn": "\xff"}\n', "utf-8"),
        (b'{"op": "begin"} trailing\n', "Extra data"),
    ])
    def test_unparseable_line_is_answered_and_audited(self, line, fragment):
        """Whatever the parser raises on a request line, the client gets
        one ``error`` reply, the log one entry, and nothing else moves."""
        assert len(line) <= MAX_LINE_BYTES
        with pytest.raises(ProtocolError, match="malformed"):
            decode(line)

        async def scenario():
            svc = await make_service()
            client = await svc.connect("alice")
            await client.request("begin", txn="t1")
            await client.request("acquire", txn="t1", entity="a")
            fingerprint = svc.kernel.state_fingerprint()
            audit_len = len(svc.audit)
            client._writer.write(line)
            reply = await asyncio.wait_for(client.response_for(None), 5)
            assert (reply["op"], reply["outcome"]) == ("protocol", "error")
            assert fragment in reply["reason"]
            (entry,) = svc.audit.entries()[audit_len:]
            assert (entry.op, entry.actor, entry.decision, entry.reason) == (
                "protocol", "alice", "error", reply["reason"]
            )
            assert svc.kernel.state_fingerprint() == fingerprint
            # The connection and its transaction carry on.
            locks = await client.request("locks", txn="t1")
            assert locks["locks"] == [["a", "X"]]
            assert (await client.request("commit", txn="t1"))["outcome"] == \
                "granted"
            await svc.drain()

        run(scenario())

    def test_parse_mode(self):
        from repro.kernel import LockMode

        assert parse_mode(None) is LockMode.EXCLUSIVE
        assert parse_mode("S") is LockMode.SHARED
        assert parse_mode("exclusive") is LockMode.EXCLUSIVE
        with pytest.raises(ProtocolError, match="unknown lock mode"):
            parse_mode("Z")

    def test_field_error_reply_keeps_the_request_id(self):
        """A request that decodes but fails validation (missing ``txn``,
        unknown op) must be answered under its own id — an ``id: null``
        error would strand the client waiting on its rid forever."""

        async def scenario():
            svc = await make_service()
            client = await svc.connect("alice")
            reply = await client.request("locks")  # no txn field
            assert reply["outcome"] == Outcome.ERROR.value
            assert reply["op"] == "protocol"
            assert "txn" in reply["reason"]
            reply = await client.request("mystery", txn="t1")
            assert reply["outcome"] == Outcome.ERROR.value
            assert "unknown op" in reply["reason"]
            # The connection survives the malformed requests.
            assert (await client.request("begin", txn="t1"))["outcome"] == \
                Outcome.GRANTED.value
            await svc.drain()

        run(scenario())


class TestAuthorizationBoundary:
    """A denied mutating op: no lock-state change + one audit entry with
    the decision reason — checked for every mutating op."""

    def test_every_mutating_op_denied_without_state_change(self):
        async def scenario():
            svc = await make_service()
            owner = await svc.connect("owner")
            intruder = await svc.connect("intruder")
            assert (await owner.request("begin", txn="t1"))["outcome"] == "granted"
            granted = await owner.request(
                "acquire", txn="t1", entity="a", mode="X"
            )
            assert granted["outcome"] == "granted"
            for op in sorted(MUTATING_OPS - {"begin"}):
                fingerprint = svc.kernel.state_fingerprint()
                audit_len = len(svc.audit)
                fields = {"txn": "t1"}
                if op in ("acquire", "release"):
                    fields["entity"] = "a"
                reply = await intruder.request(op, **fields)
                assert reply["outcome"] == "denied", (op, reply)
                assert "does not own" in reply["reason"]
                assert svc.kernel.state_fingerprint() == fingerprint, (
                    f"denied {op} changed lock state"
                )
                entry = svc.audit.entries()[-1]
                assert len(svc.audit) == audit_len + 1
                assert entry.op == op
                assert entry.actor == "intruder"
                assert entry.decision == "denied"
                assert entry.reason and "does not own" in entry.reason
            # The owner's holdings survived every denied attempt.
            locks = await owner.request("locks", txn="t1")
            assert locks["locks"] == [["a", "X"]]
            await svc.drain()

        run(scenario())

    def test_finished_txn_name_cannot_be_hijacked(self):
        async def scenario():
            svc = await make_service()
            owner = await svc.connect("owner")
            intruder = await svc.connect("intruder")
            await owner.request("begin", txn="t1")
            await owner.request("commit", txn="t1")
            reply = await intruder.request("begin", txn="t1")
            assert reply["outcome"] == "denied"
            assert "does not own" in reply["reason"]
            await svc.drain()

        run(scenario())

    def test_holder_only_visibility(self):
        """A client sees its own holdings through ``locks`` and is denied
        (audited) on anyone else's — the lock_owner_only view."""

        async def scenario():
            svc = await make_service()
            alice = await svc.connect("alice")
            bob = await svc.connect("bob")
            await alice.request("begin", txn="a1")
            await alice.request("acquire", txn="a1", entity="x", mode="X")
            await bob.request("begin", txn="b1")
            await bob.request("acquire", txn="b1", entity="y", mode="S")
            mine = await alice.request("locks", txn="a1")
            assert mine["locks"] == [["x", "X"]]
            other = await alice.request("locks", txn="b1")
            assert other["outcome"] == "denied"
            assert "locks" not in other
            denial = svc.audit.entries()[-1]
            assert (denial.op, denial.decision) == ("locks", "denied")
            await svc.drain()

        run(scenario())


class TestBlockingAndWake:
    def test_blocked_acquire_wakes_with_grant(self):
        async def scenario():
            svc = await make_service()
            alice = await svc.connect("alice")
            bob = await svc.connect("bob")
            await alice.request("begin", txn="a1")
            await bob.request("begin", txn="b1")
            await alice.request("acquire", txn="a1", entity="x")
            blocked = await bob.request("acquire", txn="b1", entity="x")
            assert blocked["outcome"] == "blocked"
            # Visibility: a count of conflicts, never holder names.
            assert blocked["conflicts"] == 1
            assert "blockers" not in blocked
            await alice.request("commit", txn="a1")
            wake = await bob.wait_wake(blocked["id"])
            assert wake["outcome"] == "granted"
            locks = await bob.request("locks", txn="b1")
            assert locks["locks"] == [["x", "X"]]
            await svc.drain()

        run(scenario())

    def test_deadlock_victim_wakes_with_victim_outcome(self):
        async def scenario():
            svc = await make_service()
            alice = await svc.connect("alice")
            bob = await svc.connect("bob")
            await alice.request("begin", txn="a1")
            await bob.request("begin", txn="b1")
            await alice.request("acquire", txn="a1", entity="x")
            await bob.request("acquire", txn="b1", entity="y")
            first = await alice.request("acquire", txn="a1", entity="y")
            assert first["outcome"] == "blocked"
            second = await bob.request("acquire", txn="b1", entity="x")
            # The cycle resolved synchronously inside the kernel call:
            # a1 (tie-broken by name) was sacrificed, b1 was granted.
            wake_a = await alice.wait_wake(first["id"])
            assert wake_a["outcome"] == "victim"
            wake_b = await bob.wait_wake(second["id"])
            assert wake_b["outcome"] == "granted"
            assert svc.kernel.victims == ["a1"]
            await svc.drain()

        run(scenario())

    def test_a_deadlock_victim_is_no_longer_tracked_by_its_connection(self):
        """A victim is finished at its ``victim`` wake: the connection
        stops holding its name then, not at disconnect."""

        async def scenario():
            svc = await make_service()
            alice = await svc.connect("alice")
            bob = await svc.connect("bob")
            await alice.request("begin", txn="ta")
            await bob.request("begin", txn="tb")
            await alice.request("acquire", txn="ta", entity="x")
            await bob.request("acquire", txn="tb", entity="y")
            first = await alice.request("acquire", txn="ta", entity="y")
            await bob.request("acquire", txn="tb", entity="x")
            wake = await alice.wait_wake(first["id"])
            assert wake["outcome"] == "victim"
            conns = {c.actor: c for c in svc._conns}
            assert conns["alice"].txns == set()
            assert conns["bob"].txns == {"tb"}
            await svc.drain()

        run(scenario())

    def test_backpressure_stops_reading_at_the_inflight_cap(self):
        async def scenario():
            svc = await make_service(max_inflight=2)
            holder = await svc.connect("holder")
            flooder = await svc.connect("flooder")
            await holder.request("begin", txn="h")
            for entity in ("e0", "e1", "e2"):
                await holder.request("acquire", txn="h", entity=entity)
            for i, entity in enumerate(("e0", "e1", "e2")):
                await flooder.request("begin", txn=f"f{i}")
            # Two parked acquires fill the cap...
            parked_ids = []
            for i, entity in enumerate(("e0", "e1")):
                reply = await flooder.request(
                    "acquire", txn=f"f{i}", entity=entity
                )
                assert reply["outcome"] == "blocked"
                parked_ids.append(reply["id"])
            # ...so the third request is written but NOT answered: the
            # service has stopped reading this connection.
            rid = flooder.send_raw("acquire", txn="f2", entity="e2")
            await asyncio.sleep(0.05)
            assert len(svc.kernel.blocked_txns()) == 2  # f2 never reached the kernel
            # Releasing one entity resolves a parked request, freeing a
            # slot; the stalled third request now completes.
            await holder.request("release", txn="h", entity="e0")
            wake = await flooder.wait_wake(parked_ids[0])
            assert wake["outcome"] == "granted"
            third = await flooder.response_for(rid)
            assert third["outcome"] == "blocked"
            await svc.drain()

        run(scenario())


    def test_wait_wake_keeps_the_events_it_skips(self):
        """One client, two parked acquires, wakes collected in the reverse
        order of arrival: the skipped wake and the drain event behind it
        must still be there."""

        async def scenario():
            svc = await make_service()
            holder = await svc.connect("holder")
            waiter = await svc.connect("waiter")
            await holder.request("begin", txn="h")
            parked = {}
            for entity in ("x", "y"):
                await holder.request("acquire", txn="h", entity=entity)
                await waiter.request("begin", txn=f"w-{entity}")
                reply = await waiter.request(
                    "acquire", txn=f"w-{entity}", entity=entity
                )
                assert reply["outcome"] == "blocked"
                parked[entity] = reply["id"]
            await holder.request("commit", txn="h")  # wakes x, then y
            await svc.drain()
            second = await asyncio.wait_for(waiter.wait_wake(parked["y"]), 5)
            assert second["txn"] == "w-y"
            first = await asyncio.wait_for(waiter.wait_wake(parked["x"]), 5)
            assert (first["txn"], first["outcome"]) == ("w-x", "granted")
            assert (await waiter.next_event())["event"] == "drain"

        run(scenario())


class TestDisconnect:
    """A client that vanishes leaves nothing behind: its live
    transactions are aborted (audited), its parked slot is reclaimed, and
    whoever waited on its locks is woken."""

    @staticmethod
    async def connect(svc, actor):
        """A client plus the server task handling it, which ends once the
        service has noticed the disconnect and cleaned up."""
        before = set(svc._conn_tasks)
        client = await svc.connect(actor)
        (handler,) = svc._conn_tasks - before
        return client, handler

    def test_disconnect_while_parked(self):
        async def scenario():
            svc = await make_service(max_inflight=1)
            alice = await svc.connect("alice")
            bob, bob_handler = await self.connect(svc, "bob")
            await alice.request("begin", txn="a1")
            await alice.request("acquire", txn="a1", entity="x")
            await bob.request("begin", txn="b1")
            blocked = await bob.request("acquire", txn="b1", entity="x")
            assert blocked["outcome"] == "blocked"
            (conn,) = [c for c in svc._conns if c.actor == "bob"]
            assert conn.inflight.locked()  # the parked acquire owns the slot
            audit_len = len(svc.audit)
            await bob.close()
            await asyncio.wait_for(bob_handler, timeout=5)
            assert svc.kernel.live_txns() == ("a1",)
            assert svc.kernel.blocked_txns() == ()
            assert svc.kernel.graph.snapshot() == {}
            assert list(svc.kernel.table.queue("x")) == []
            assert not conn.inflight.locked()
            (entry,) = svc.audit.entries()[audit_len:]
            assert (entry.op, entry.txn, entry.decision, entry.reason) == (
                "abort", "b1", "granted", "client disconnected"
            )
            # The survivor is untouched and the name stays finished.
            locks = await alice.request("locks", txn="a1")
            assert locks["locks"] == [["x", "X"]]
            assert await svc.drain() == ("a1",)

        run(scenario())

    def test_disconnect_while_holding_a_lock_another_client_waits_on(self):
        async def scenario():
            svc = await make_service()
            alice = await svc.connect("alice")
            bob = await svc.connect("bob")
            await alice.request("begin", txn="a1")
            await alice.request("acquire", txn="a1", entity="x")
            await alice.request("begin", txn="a2")
            await alice.request("commit", txn="a2")  # finished: not re-aborted
            await bob.request("begin", txn="b1")
            blocked = await bob.request("acquire", txn="b1", entity="x")
            assert blocked["outcome"] == "blocked"
            audit_len = len(svc.audit)
            await alice.close()
            wake = await asyncio.wait_for(bob.wait_wake(blocked["id"]), 5)
            assert wake["outcome"] == "granted"
            assert svc.kernel.live_txns() == ("b1",)
            assert svc.kernel.graph.snapshot() == {}
            assert [
                (e.op, e.txn, e.decision) for e in svc.audit.entries()[audit_len:]
            ] == [("abort", "a1", "granted"), ("grant", "b1", "granted")]
            await svc.drain()

        run(scenario())

    def test_a_connection_with_nothing_live_leaves_no_audit_entry(self):
        async def scenario():
            svc = await make_service()
            alice, handler = await self.connect(svc, "alice")
            await alice.request("begin", txn="a1")
            await alice.request("commit", txn="a1")
            audit_len = len(svc.audit)
            await alice.close()
            await asyncio.wait_for(handler, timeout=5)
            assert len(svc.audit) == audit_len
            await svc.drain()

        run(scenario())


class TestFrameLimit:
    """A request line over ``MAX_LINE_BYTES`` has one outcome on both
    transports: one audited ``protocol`` error, a best-effort reply, the
    connection closed, and what it left live aborted as for a disconnect."""

    OVERSIZED = encode({"op": "begin", "txn": "x" * MAX_LINE_BYTES, "id": 9})

    @staticmethod
    def check_audit(svc, audit_len, actor, live):
        first, *aborts = svc.audit.entries()[audit_len:]
        assert (first.op, first.actor, first.txn, first.decision,
                first.reason) == (
            "protocol", actor, None, "error", "request line too long"
        )
        assert [(e.op, e.txn, e.decision, e.reason) for e in aborts] == [
            ("abort", txn, "granted", "client disconnected") for txn in live
        ]

    def test_over_the_memory_pipe(self):
        async def scenario():
            svc = await make_service()
            bystander = await svc.connect("bob")
            await bystander.request("begin", txn="b1")
            await bystander.request("acquire", txn="b1", entity="b")
            client, handler = await TestDisconnect.connect(svc, "alice")
            await client.request("begin", txn="t1")
            await client.request("acquire", txn="t1", entity="a")
            audit_len = len(svc.audit)
            client._writer.write(self.OVERSIZED)
            reply = await asyncio.wait_for(client.response_for(None), 5)
            assert (reply["op"], reply["outcome"], reply["reason"]) == (
                "protocol", "error", "request line too long"
            )
            with pytest.raises(ConnectionError):  # closed behind the reply
                await client.next_event()
            await asyncio.wait_for(handler, 5)
            self.check_audit(svc, audit_len, "alice", live=["t1"])
            assert svc.kernel.live_txns() == ("b1",)
            assert svc.kernel.held("b1") and not svc.kernel.held("t1")
            await svc.drain()

        run(scenario())

    def test_as_the_first_line(self):
        async def scenario():
            from repro.service import memory_pair

            svc = await make_service()
            (c_reader, c_writer), server_end = memory_pair()
            c_writer.write(self.OVERSIZED)
            await asyncio.wait_for(svc.handle_client(*server_end), 5)
            reply = decode(await c_reader.readline())
            assert (reply["outcome"], reply["reason"]) == (
                "error", "request line too long"
            )
            assert await c_reader.readline() == b""
            self.check_audit(svc, 0, "<unauthenticated>", live=[])

        run(scenario())

    def test_over_tcp(self):
        async def scenario():
            svc = await make_service()
            host, port = await svc.serve_tcp("127.0.0.1", 0)
            client = ServiceClient(
                *(await asyncio.open_connection(host, port)), "alice"
            )
            await client.hello()
            await client.request("begin", txn="t1")
            await client.request("acquire", txn="t1", entity="a")
            audit_len = len(svc.audit)
            client._writer.write(self.OVERSIZED)
            # Best effort: the service closes with our bytes still in
            # flight, so the reply may lose the race to a reset.
            try:
                reply = await asyncio.wait_for(client.response_for(None), 5)
                assert reply["reason"] == "request line too long"
            except ConnectionError:
                pass
            await until(lambda: not svc.kernel.is_live("t1"))
            self.check_audit(svc, audit_len, "alice", live=["t1"])
            assert svc.kernel.live_txns() == ()
            await client.close()
            await svc.drain()

        run(scenario())


class _Sentinel:
    """Stands where ``LockService._kernel_lock`` stood, but only watches:
    it trips when a guarded section is entered while another task is
    inside one, or when a section hands back an awaitable — the two ways
    an ``await`` could get between a kernel decision and its audit
    entry.  Same-task nesting (``_abandon`` calling ``abort``) is fine."""

    def __init__(self):
        self.inside = None
        self.entered = 0
        self.trips = []

    def guard(self, fn):
        name = getattr(fn, "__qualname__", repr(fn))

        def section(*args, **kwargs):
            task = asyncio.current_task()
            if self.inside is not None and self.inside[0] is not task:
                self.trips.append(f"{name} entered inside {self.inside[1]}")
            outer, self.inside = self.inside, (task, name)
            self.entered += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.inside = outer
            if inspect.isawaitable(result):
                self.trips.append(f"{name} is not synchronous")
            return result

        return section

    def watch(self, svc):
        for name in ("begin", "acquire", "release", "commit", "abort",
                     "held", "drain"):
            setattr(svc.kernel, name, self.guard(getattr(svc.kernel, name)))
        svc._abandon = self.guard(svc._abandon)


class TestSerializedWithoutALock:
    """The service takes no lock around the kernel: every kernel section
    is synchronous, so the event loop's order is the audit order."""

    def test_the_sentinel_catches_a_section_that_awaits(self):
        async def scenario():
            sentinel = _Sentinel()

            async def section():
                await asyncio.sleep(0)

            await sentinel.guard(section)()
            assert sentinel.trips and "not synchronous" in sentinel.trips[0]

        run(scenario())

    def test_no_kernel_section_is_ever_entered_twice(self):
        rounds = 5

        async def session(open_client, i, clients):
            me = await open_client(f"actor{i}")
            seen = set()
            for r in range(rounds):
                txn = f"c{i}-r{r}"
                seen.add((await me.request("begin", txn=txn))["outcome"])
                await me.request("acquire", txn=txn, entity=f"p{i}")
                got = await me.request(
                    "acquire", txn=txn, entity=f"hot{(i + r) % 2}",
                    mode="X" if (i + r) % 3 == 0 else "S",
                )
                seen.add(got["outcome"])
                if got["outcome"] == "blocked":
                    got = await asyncio.wait_for(me.wait_wake(got["id"]), 10)
                assert got["outcome"] == "granted"
                probe = await me.request(
                    "release", txn=f"c{(i + 1) % clients}-r0", entity="p0"
                )
                seen.add(probe["outcome"])
                if i % 4 == 3 and r == rounds - 2:
                    break  # vanish holding two locks others may wait on
                await me.request("commit", txn=txn)
            await me.close()
            return seen

        async def quitter(svc, open_client, tag):
            """Parks behind a holder, then disconnects while parked."""
            holder = await open_client(f"holder-{tag}")
            gone = await open_client(f"gone-{tag}")
            held, parked, gate = f"h-{tag}", f"g-{tag}", f"gate-{tag}"
            await holder.request("begin", txn=held)
            await holder.request("acquire", txn=held, entity=gate)
            await gone.request("begin", txn=parked)
            reply = await gone.request("acquire", txn=parked, entity=gate)
            assert reply["outcome"] == "blocked"
            await gone.close()
            await until(lambda: not svc.kernel.is_live(parked))
            assert (await holder.request("commit", txn=held))["outcome"] == \
                "granted"
            await holder.close()

        async def scenario():
            svc = await make_service()
            sentinel = _Sentinel()
            sentinel.watch(svc)
            host, port = await svc.serve_tcp("127.0.0.1", 0)

            async def over_tcp(actor):
                client = ServiceClient(
                    *(await asyncio.open_connection(host, port)), actor
                )
                await client.hello()
                return client

            clients = 12
            seen = await asyncio.gather(
                *(session(svc.connect if i % 3 else over_tcp, i, clients)
                  for i in range(clients)),
                quitter(svc, svc.connect, "mem"),
                quitter(svc, over_tcp, "tcp"),
            )
            await until(lambda: not svc.kernel.live_txns())
            assert await svc.drain() == ()

            assert sentinel.trips == []
            assert sentinel.entered > clients * rounds * 4
            assert {"granted", "blocked", "denied"} <= set().union(
                *(outcomes for outcomes in seen if outcomes)
            )
            entries = svc.audit.entries()
            assert [e.seq for e in entries] == list(range(len(entries)))
            abandoned = sorted(
                e.txn for e in entries if e.reason == "client disconnected"
            )
            assert abandoned == sorted(
                ["g-mem", "g-tcp"]
                + [f"c{i}-r{rounds - 2}" for i in range(clients) if i % 4 == 3]
            )
            assert svc.kernel.state_fingerprint()[0] == ()

        run(scenario())


class TestStress:
    def test_concurrent_sessions_serializable_audit(self):
        """≥8 concurrent clients mixing authorized and unauthorized ops
        and contending for a shared entity: denied ops leave no trace in
        lock state, acquires block and every blocked one is woken exactly
        once with a grant, every handshake, request and wake is audited
        once, the audit log is one gap-free serializable order, and
        nothing is live at drain."""
        clients, rounds = 8, 6
        counts = {"requests": 0, "blocked": 0, "woken": 0}

        async def client_loop(svc, i):
            me = await svc.connect(f"actor{i}")

            async def request(op, **fields):
                counts["requests"] += 1
                return await me.request(op, **fields)

            for r in range(rounds):
                txn = f"c{i}-r{r}"
                assert (await request("begin", txn=txn))["outcome"] == "granted"
                await request("acquire", txn=txn, entity=f"p{i}", mode="X")
                # Even clients write hot0, odd ones read hot0..hot2.  Each
                # transaction takes one shared entity, after its private
                # one, so no wait closes a cycle.
                entity, mode = (
                    ("hot0", "X") if i % 2 == 0 else (f"hot{(i + r) % 3}", "S")
                )
                got = await request("acquire", txn=txn, entity=entity, mode=mode)
                if got["outcome"] == "blocked":
                    counts["blocked"] += 1
                    # Bounded: a lost wake fails here instead of hanging.
                    wake = await asyncio.wait_for(me.wait_wake(got["id"]), 5)
                    assert wake["outcome"] == "granted", wake
                    counts["woken"] += 1
                else:
                    assert got["outcome"] == "granted", got
                # Unauthorized probe at a peer's transaction.
                probe = await request(
                    "release", txn=f"c{(i + 1) % clients}-r0", entity="p0"
                )
                assert probe["outcome"] in ("denied", "error")
                assert (await request("commit", txn=txn))["outcome"] == "granted"
            # A second wake for a request would have arrived before the
            # commit replies that follow it on the same connection.
            assert not [e for e in me._events if e.get("event") == "wake"]
            await me.close()

        async def scenario():
            svc = await make_service()
            await asyncio.gather(*(client_loop(svc, i) for i in range(clients)))
            drained = await svc.drain()
            assert drained == ()  # every transaction committed
            entries = svc.audit.entries()
            # Serializable order: sequence numbers are the positions —
            # gap-free, strictly increasing, assigned under one kernel.
            assert [e.seq for e in entries] == list(range(len(entries)))
            denied = [e for e in entries if e.decision == "denied"]
            assert denied, "stress produced no unauthorized denials"
            assert all(e.reason for e in denied)
            # The run contended: acquires blocked, and each blocked one
            # was granted by exactly one audited wake.
            assert counts["blocked"] > 0, "stress produced no lock waits"
            assert counts["woken"] == counts["blocked"], counts
            grants = [e for e in entries if e.op == "grant"]
            assert len(grants) == counts["blocked"], (len(grants), counts)
            # Every handshake, request and wake has one audit entry, and
            # nothing else has one.
            hellos = [e for e in entries if e.op == "hello"]
            assert len(hellos) == clients
            assert len(entries) == clients + counts["requests"] + counts["woken"], (
                len(entries), counts,
            )
            begins = [e for e in entries
                      if e.op == "begin" and e.decision == "granted"]
            commits = [e for e in entries
                       if e.op == "commit" and e.decision == "granted"]
            assert len(begins) == len(commits) == clients * rounds
            # No lock state survives the run.
            assert svc.kernel.state_fingerprint()[0] == ()

        run(scenario())


class TestDrain:
    def test_drain_unblocks_parked_clients_and_closes(self):
        async def scenario():
            svc = await make_service()
            alice = await svc.connect("alice")
            bob = await svc.connect("bob")
            await alice.request("begin", txn="a1")
            await bob.request("begin", txn="b1")
            await alice.request("acquire", txn="a1", entity="x")
            blocked = await bob.request("acquire", txn="b1", entity="x")
            assert blocked["outcome"] == "blocked"
            drained = await svc.drain()
            assert drained == ("a1", "b1")
            # The parked client got a terminal wake, not a hang.
            wake = await bob.wait_wake(blocked["id"])
            assert wake["outcome"] == "error"
            assert "draining" in wake["reason"]
            # Then the drain event and EOF.
            assert (await bob.next_event())["event"] == "drain"
            with pytest.raises(ConnectionError):
                await bob.next_event()
            # Drain is idempotent and the service stays refusing.
            assert await svc.drain() == ()

        run(scenario())

    def test_requests_after_drain_are_refused_and_audited(self):
        async def scenario():
            svc = await make_service()
            client = await svc.connect("alice")
            svc._draining = True
            reply = await client.request("begin", txn="t1")
            assert reply["outcome"] == "error"
            assert reply["reason"] == "service draining"
            entry = svc.audit.entries()[-1]
            assert (entry.op, entry.decision) == ("begin", "error")

        run(scenario())


class TestTcpTransport:
    def test_full_round_trip_over_tcp(self):
        async def scenario():
            svc = await make_service()
            host, port = await svc.serve_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode({"op": "hello", "actor": "alice"}))
            await writer.drain()
            hello = json.loads(await reader.readline())
            assert hello["outcome"] == "granted"
            assert hello["protocol"] == 1
            writer.write(encode({"op": "begin", "txn": "t1", "id": 0}))
            writer.write(encode(
                {"op": "acquire", "txn": "t1", "entity": "a", "id": 1}
            ))
            await writer.drain()
            assert json.loads(await reader.readline())["outcome"] == "granted"
            assert json.loads(await reader.readline())["outcome"] == "granted"
            assert svc.kernel.held("t1")
            writer.close()
            await writer.wait_closed()
            await svc.drain()

        run(scenario())

    def test_malformed_first_line_is_rejected(self):
        async def scenario():
            svc = await make_service()
            host, port = await svc.serve_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"garbage\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["outcome"] == "error"
            assert (await reader.readline()) == b""  # connection closed
            writer.close()
            await writer.wait_closed()
            await svc.drain()

        run(scenario())
