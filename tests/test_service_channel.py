"""The shard transport: frames and the channel without a process, then a fleet
whose workers are stopped and killed behind the HTTP front end.

The contract under test is the one the module docstring of
``repro.service.shards`` states: a worker's death and a parent's death are
events, and neither the front end nor the I/O loop ever blocks on a shard.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import Request, ShardedExecutor, shard_for
from repro.service.shards import _Channel, encode_frame, pop_frames

QUERY = "Q(x) <- B(x)"
#: One document per shard of a two-shard fleet (the routing hash is pinned in
#: ``test_service_sharded.py``).
DOC_ON = {shard_for(doc, 2): doc for doc in ("d", "a")}


# ---------------------------------------------------------------------------
# Frames.
# ---------------------------------------------------------------------------

_leaves = st.none() | st.booleans() | st.integers() | st.text(max_size=20) | st.binary(max_size=40)
_messages = st.lists(
    st.recursive(
        _leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=10,
    ),
    max_size=8,
)


def _feed(pieces) -> list:
    """What a receiver sees: ``pop_frames`` after every ``recv``-sized piece."""
    buffer, seen = bytearray(), []
    for piece in pieces:
        buffer += piece
        seen += pop_frames(buffer)
    assert not buffer
    return seen


class TestFrames:
    @settings(max_examples=200, deadline=None)
    @given(_messages, st.lists(st.integers(min_value=0, max_value=4096), max_size=12))
    def test_any_cut_of_any_messages_parses_to_the_same_messages(self, messages, cuts):
        wire = b"".join(encode_frame(message) for message in messages)
        offsets = sorted({0, len(wire), *(cut % (len(wire) + 1) for cut in cuts)})
        pieces = [wire[start:end] for start, end in zip(offsets, offsets[1:])]
        assert b"".join(pieces) == wire
        assert _feed(pieces) == messages

    def test_many_frames_in_one_recv(self):
        messages = [(seq, "ok", list(range(seq))) for seq in range(50)]
        assert _feed([b"".join(map(encode_frame, messages))]) == messages

    @pytest.mark.parametrize("cut", [1, 2, 3])
    def test_a_frame_split_inside_its_length(self, cut):
        wire = encode_frame((7, "execute", ("x" * 300,)))
        buffer = bytearray(wire[:cut])
        assert pop_frames(buffer) == [] and bytes(buffer) == wire[:cut]
        buffer += wire[cut:]
        assert pop_frames(buffer) == [(7, "execute", ("x" * 300,))] and not buffer

    def test_an_incomplete_tail_stays_in_the_buffer(self):
        first, second = encode_frame("one"), encode_frame("two")
        buffer = bytearray(first + second[:-1])
        assert pop_frames(buffer) == ["one"]
        assert bytes(buffer) == second[:-1]


# ---------------------------------------------------------------------------
# The channel, against a peer socket in this process.
# ---------------------------------------------------------------------------


@pytest.fixture
def loop():
    """A running event loop on its own thread."""
    running = asyncio.new_event_loop()
    thread = threading.Thread(target=running.run_forever, daemon=True)
    thread.start()
    yield running
    running.call_soon_threadsafe(running.stop)
    thread.join(timeout=10)
    running.close()


class _Peer:
    """A channel and the far end of its socket, with everything delivered recorded."""

    def __init__(self, loop):
        ours, self.far = socket.socketpair()
        self.messages: list = []
        self.eofs = 0
        self.channel = _Channel(ours, loop, self.messages.append, self._on_eof)

    def _on_eof(self):
        self.eofs += 1

    def read_frames(self, count: int):
        """The next ``count`` messages the far end receives, as they arrive."""
        buffer = bytearray()
        self.far.settimeout(10)
        while count:
            buffer += self.far.recv(1 << 16)
            for message in pop_frames(buffer):
                count -= 1
                yield message

    def close(self):
        self.far.close()
        self.channel.sock.close()


@pytest.fixture
def peer(loop):
    entry = _Peer(loop)
    yield entry
    entry.close()


def _until(condition, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.002)
    return condition()


class TestChannel:
    def test_replies_in_pieces_are_delivered_whole_and_in_order(self, peer):
        messages = [(seq, "ok", "v" * seq) for seq in range(30)]
        wire = b"".join(map(encode_frame, messages))
        for start in range(0, len(wire), 7):
            peer.far.sendall(wire[start : start + 7])
        assert _until(lambda: len(peer.messages) == len(messages))
        assert peer.messages == messages

    def test_a_peer_that_does_not_read_never_blocks_the_sender(self, peer):
        """800 kB to a socket nobody reads: every ``send`` returns at once, the
        remainder waits in ``outgoing`` and is flushed when the peer wakes up."""
        frames = [encode_frame((seq, "execute", ("q" * 20_000,))) for seq in range(40)]
        sender = threading.Thread(
            target=lambda: [peer.channel.send(frame) for frame in frames], daemon=True
        )
        sender.start()
        sender.join(timeout=0.5)
        assert not sender.is_alive()
        assert len(peer.channel.outgoing) > 0  # past the socket buffer
        received = list(peer.read_frames(len(frames)))
        assert [seq for seq, _method, _arguments in received] == list(range(40))
        assert _until(lambda: not peer.channel.outgoing)
        # The channel still reads while (and after) it was backed up.
        peer.far.sendall(encode_frame("reply"))
        assert _until(lambda: peer.messages == ["reply"])

    def test_eof_is_reported_once_and_the_reader_is_removed(self, peer):
        peer.far.sendall(encode_frame("last words"))
        peer.far.close()
        assert _until(lambda: peer.eofs == 1)
        assert peer.messages == ["last words"]
        time.sleep(0.05)  # a reader left registered would spin on the EOF
        assert peer.eofs == 1
        peer.channel.send(encode_frame("to nobody"))  # dropped, not raised


# ---------------------------------------------------------------------------
# A fleet: death and stalls.
# ---------------------------------------------------------------------------


@pytest.fixture
def fleet():
    executor = ShardedExecutor(shards=2)
    try:
        for doc in DOC_ON.values():
            executor.register_payload({"doc": doc, "sexpr": "(A (B))"})
        yield executor
    finally:
        for process in executor._processes:  # a test may have left one stopped
            if process.is_alive():
                os.kill(process.pid, signal.SIGCONT)
        executor.close()


def _post_query(address, doc: str, query: str = QUERY, timeout: float = 30.0):
    host, port = address
    body = json.dumps({"doc": doc, "query": query}).encode("utf-8")
    request = urllib.request.Request(f"http://{host}:{port}/query", data=body, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestDeathIsAnEvent:
    def test_a_killed_worker_fails_its_in_flight_request_at_once(self, fleet, serve):
        address = serve(fleet).server_address
        os.kill(fleet._processes[0].pid, signal.SIGSTOP)
        answers = []
        client = threading.Thread(target=lambda: answers.append(_post_query(address, DOC_ON[0])))
        client.start()
        assert _until(lambda: fleet.shard_load()[0]["in_flight"] == 1)
        killed = time.perf_counter()
        os.kill(fleet._processes[0].pid, signal.SIGKILL)
        client.join(timeout=10)
        assert time.perf_counter() - killed < 0.5
        assert answers == [
            (400, {"error": "shard 0 worker died; its in-flight requests were dropped"})
        ]
        # The other shard keeps answering; the dead one refuses by name.
        status, payload = _post_query(address, DOC_ON[1])
        assert status == 200 and payload["answers"] == [[1]]
        assert _post_query(address, DOC_ON[0]) == (
            400,
            {"error": "shard 0 worker is not running (restart the server)"},
        )
        assert [load["alive"] for load in fleet.shard_load()] == [False, True]

    def test_on_the_private_loop_too(self, fleet):
        os.kill(fleet._processes[1].pid, signal.SIGSTOP)
        future = fleet.submit(Request(doc=DOC_ON[1], query=QUERY))
        killed = time.perf_counter()
        os.kill(fleet._processes[1].pid, signal.SIGKILL)
        with pytest.raises(ValueError, match="shard 1 worker died"):
            future.result(timeout=10)
        assert time.perf_counter() - killed < 0.5
        assert fleet.execute(Request(doc=DOC_ON[0], query=QUERY)).answers == [(1,)]

    def test_workers_are_single_threaded_and_spawn_round_trips(self):
        with ShardedExecutor(shards=1, start_method="spawn") as spawned:
            spawned.register_payload({"doc": "d", "sexpr": "(A (B))"})
            assert spawned.execute(Request(doc="d", query=QUERY)).answers == [(1,)]
            tasks = f"/proc/{spawned._processes[0].pid}/task"
            if os.path.isdir(tasks):
                assert len(os.listdir(tasks)) == 1


class TestTheLoopNeverBlocksOnAShard:
    def test_a_flood_to_a_stopped_shard_leaves_the_other_shard_fast(self, fleet, serve):
        padded = QUERY + " " * 20_000  # 40 of these are past the socket buffer
        address = serve(fleet).server_address
        os.kill(fleet._processes[0].pid, signal.SIGSTOP)
        answers = []
        clients = [
            threading.Thread(
                target=lambda: answers.append(_post_query(address, DOC_ON[0], padded))
            )
            for _ in range(40)
        ]
        for client in clients:
            client.start()
        assert _until(lambda: fleet.shard_load()[0]["in_flight"] == 40)
        assert fleet.shard_load()[0]["queue_depth"] == 39
        assert len(fleet._channels[0].outgoing) > 0
        started = time.perf_counter()
        status, payload = _post_query(address, DOC_ON[1], timeout=5)
        assert time.perf_counter() - started < 1.0
        assert status == 200 and payload["answers"] == [[1]]
        os.kill(fleet._processes[0].pid, signal.SIGCONT)
        for client in clients:
            client.join(timeout=30)
        assert [status for status, _payload in answers] == [200] * 40
        assert all(payload["answers"] == [[1]] for _status, payload in answers)
        idle = {"shard": 0, "queue_depth": 0, "in_flight": 0, "alive": True}
        assert fleet.shard_load()[0] == idle

    def test_a_blocking_call_on_the_io_loop_is_an_error_with_a_name(self, fleet):
        request = Request(doc=DOC_ON[0], query=QUERY)
        blocking = [
            lambda: fleet.execute(request),
            lambda: fleet.execute_batch([request]),
            lambda: fleet.register_payload({"doc": "x", "sexpr": "(A)"}),
            lambda: fleet.evict_document("x"),
            fleet.document_count,
            fleet.stats,
        ]

        async def on_the_loop():
            for call in blocking:
                with pytest.raises(RuntimeError, match="blocking ShardedExecutor call"):
                    call()
            # What the loop is meant to do instead.
            return await asyncio.wrap_future(fleet.submit(request))

        outcome = asyncio.run_coroutine_threadsafe(on_the_loop(), fleet._io_loop)
        assert outcome.result(timeout=10).answers == [(1,)]
        assert fleet.execute(request).answers == [(1,)]  # fine from this thread
