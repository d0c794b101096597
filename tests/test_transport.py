"""The in-process line pipe (``repro.service.transport``): the contract
the service and its clients rely on, stated once."""

import asyncio

import pytest

from repro.service.protocol import MAX_LINE_BYTES
from repro.service.transport import memory_pair


def run(coro):
    return asyncio.run(coro)


def test_lines_arrive_in_the_order_written_each_direction_on_its_own():
    async def scenario():
        (c_reader, c_writer), (s_reader, s_writer) = memory_pair()
        for i in range(5):
            c_writer.write(b"up %d\n" % i)
        for i in range(3):
            s_writer.write(b"down %d\n" % i)
        assert [await s_reader.readline() for _ in range(5)] == [
            b"up %d\n" % i for i in range(5)
        ]
        assert [await c_reader.readline() for _ in range(3)] == [
            b"down %d\n" % i for i in range(3)
        ]
        # Closing one direction leaves the other open.
        c_writer.close()
        assert await s_reader.readline() == b""
        assert not s_writer.is_closing()
        s_writer.write(b"still open\n")
        assert await c_reader.readline() == b"still open\n"

    run(scenario())


def test_a_line_written_before_any_readline_is_delivered():
    async def scenario():
        (_, c_writer), (s_reader, _) = memory_pair()
        c_writer.write(b"early\n")
        await asyncio.sleep(0)
        assert await s_reader.readline() == b"early\n"

    run(scenario())


def test_a_parked_reader_is_woken_through_the_loop_not_run_by_the_writer():
    async def scenario():
        (_, c_writer), (s_reader, _) = memory_pair()
        got = []

        async def read_one():
            got.append(await s_reader.readline())

        task = asyncio.ensure_future(read_one())
        await asyncio.sleep(0)  # the reader parks on the empty pipe
        c_writer.write(b"line\n")
        assert got == []  # write() returned without running the reader
        await asyncio.wait_for(task, 5)
        assert got == [b"line\n"]

    run(scenario())


def test_close_is_idempotent_and_eof_is_sticky():
    async def scenario():
        (_, c_writer), (s_reader, _) = memory_pair()
        c_writer.write(b"last\n")
        assert not c_writer.is_closing()
        c_writer.close()
        c_writer.close()
        assert c_writer.is_closing()
        c_writer.write(b"dropped\n")  # after close: never delivered
        await c_writer.wait_closed()
        # What was queued before the close still arrives, then EOF, once
        # and for ever.
        assert await s_reader.readline() == b"last\n"
        for _ in range(3):
            assert await s_reader.readline() == b""

    run(scenario())


def test_close_wakes_a_parked_reader_with_eof():
    async def scenario():
        (_, c_writer), (s_reader, _) = memory_pair()
        task = asyncio.ensure_future(s_reader.readline())
        await asyncio.sleep(0)
        c_writer.close()
        assert await asyncio.wait_for(task, 5) == b""

    run(scenario())


def test_a_reader_cancelled_while_parked_loses_no_line():
    async def scenario():
        (_, c_writer), (s_reader, _) = memory_pair()

        # Cancelled on an empty pipe: no stale waiter stays behind, so the
        # next write has nobody to hand the line to but the queue.
        task = asyncio.ensure_future(s_reader.readline())
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        c_writer.write(b"one\n")
        assert await asyncio.wait_for(s_reader.readline(), 5) == b"one\n"

        # Cancelled after the write woke it but before it ran: the line
        # is still queued for the next reader.
        task = asyncio.ensure_future(s_reader.readline())
        await asyncio.sleep(0)
        c_writer.write(b"two\n")
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert await asyncio.wait_for(s_reader.readline(), 5) == b"two\n"

    run(scenario())


def test_one_reader_per_direction():
    async def scenario():
        (_, c_writer), (s_reader, _) = memory_pair()
        first = asyncio.ensure_future(s_reader.readline())
        await asyncio.sleep(0)
        with pytest.raises(RuntimeError, match="already waiting"):
            await s_reader.readline()
        c_writer.write(b"line\n")
        assert await asyncio.wait_for(first, 5) == b"line\n"

    run(scenario())


def test_a_line_over_the_frame_limit_raises_like_a_stream_reader():
    async def scenario():
        (_, c_writer), (s_reader, _) = memory_pair()
        c_writer.write(b"x" * (MAX_LINE_BYTES - 1) + b"\n")
        c_writer.write(b"x" * MAX_LINE_BYTES + b"\n")
        c_writer.write(b"next\n")
        assert len(await s_reader.readline()) == MAX_LINE_BYTES
        with pytest.raises(ValueError):
            await s_reader.readline()
        # Whole lines: the oversized one is consumed, the stream is intact.
        assert await s_reader.readline() == b"next\n"

    run(scenario())
