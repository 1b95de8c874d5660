"""Hypothesis fuzzing of the control plane against a live collector.

Random sequences of control frames (every verb, including the ones only a
server may send), JSON payloads of any shape — non-objects, bad tokens,
bogus ``PULL`` targets — and valid, mutated or forged report frames go to
a running :class:`CollectionServer`, in-memory and durable, up to three
groups per connection.  The property: within a timeout, the replies other
than ``STATE``/``STATS`` read ``(OK ACK)* OK? ERR?`` and an ``ERR`` is the
last reply; a token repeated within one connection is re-ACK'd as a
duplicate with its first counts; the handler's last-resort crash guard
never logs; and afterwards a normal :class:`LoadGenerator` run still gets
every report acknowledged.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import socket
import struct
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.server import (
    ACK,
    CONTROL_MAGIC,
    ERR,
    FIN,
    HELLO,
    MAX_STATE_BYTES,
    OK,
    PULL,
    SERVER_PROTOCOL_VERSION,
    STATE,
    CollectionServer,
    FrameDecoder,
    LoadGenerator,
    hello_payload,
)
from repro.server.framing import STATS

from ..service.util import build, encode_frames, forge_frame, small_dataset

PROTOCOL = build("InpRR")
DATASET = small_dataset()
SPEC = PROTOCOL.spec()
FRAMES = encode_frames(PROTOCOL, DATASET, 16)
FOREIGN_FRAMES = encode_frames(PROTOCOL, small_dataset(n=32, d=5), 16)
FINAL_KINDS = {ACK, STATE, STATS, ERR}
#: The replies to one connection, probe answers left out, one letter each.
GROUP_REPLIES = re.compile(r"(OA)*O?E?")
LETTERS = {OK: "O", ACK: "A", ERR: "E"}


def control_frame(kind: str, body: bytes) -> bytes:
    """A control frame around arbitrary payload bytes (JSON or not)."""
    name = kind.encode("utf-8")
    return (
        struct.pack("<4sHH", CONTROL_MAGIC, SERVER_PROTOCOL_VERSION, len(name))
        + name
        + struct.pack("<Q", len(body))
        + body
    )


def json_frame(kind: str, payload) -> bytes:
    return control_frame(kind, json.dumps(payload).encode())


def hello(token) -> bytes:
    payload = hello_payload(SPEC, DATASET.domain.attributes)
    if token is not None:
        payload["token"] = token
    return json_frame(HELLO, payload)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)
tokens = st.none() | st.sampled_from(["g0", "g1"]) | st.text(max_size=8)
#: Non-object payloads, payloads missing the contract, and valid HELLOs
#: whose token is not a string.
hostile_hellos = st.builds(json_frame, st.just(HELLO), json_values) | st.builds(
    hello, json_values.filter(lambda token: not isinstance(token, str))
)


#: Control-plane probes with payloads of any shape, bogus targets included.
probes = st.builds(
    json_frame,
    st.just(PULL),
    st.fixed_dictionaries({"what": st.sampled_from(["state", "stats"]) | json_values}),
) | st.builds(json_frame, st.sampled_from([PULL, STATS]), json_values)


@st.composite
def hostile_frames(draw):
    """Anything a collector must refuse: verbs only a server sends, unknown
    verbs, non-JSON payloads, hostile HELLOs, and flipped, truncated or
    forged report frames."""
    kind = draw(st.sampled_from(["control", "report", "hello"]))
    if kind == "hello":
        return draw(hostile_hellos)
    if kind == "control":
        verb = draw(st.sampled_from([FIN, PULL, STATS, OK, ACK, ERR, STATE, "BOGUS"]))
        if draw(st.booleans()):
            return control_frame(verb, draw(st.binary(max_size=16)))
        return json_frame(verb, draw(json_values))
    frame = draw(st.sampled_from(FRAMES + FOREIGN_FRAMES))
    how = draw(st.sampled_from(["flip", "truncate", "forged"]))
    if how == "flip":
        position = draw(st.integers(0, len(frame) - 1))
        mutated = bytearray(frame)
        mutated[position] ^= draw(st.integers(1, 255))
        return bytes(mutated)
    if how == "truncate":
        return frame[: draw(st.integers(0, len(frame) - 1))]
    return forge_frame("InpRR", draw(st.binary(max_size=64)))


@st.composite
def conversations(draw):
    """Probes, then up to three greeted groups, each of which may FIN and
    probe again, a later one sometimes replaying an earlier one's token;
    one hostile frame is spliced in at a random point half the time.

    Returns the frames, each group's token, and whether the conversation
    is clean (no hostile frame), in which case the i-th ``ACK`` answers
    the i-th group."""
    fin = json_frame(FIN, {})
    parts = draw(st.lists(probes, max_size=2))
    group_tokens = []
    for _ in range(draw(st.integers(0, 3))):
        used = [token for token in group_tokens if token is not None]
        token = draw(st.sampled_from(used) if used and draw(st.booleans()) else tokens)
        group_tokens.append(token)
        parts.append(hello(token))
        parts += draw(st.lists(st.sampled_from(FRAMES + FOREIGN_FRAMES), max_size=3))
        parts += draw(st.lists(st.just(fin) | probes, max_size=2))
        if draw(st.integers(0, 3)):
            parts.append(fin)
    clean = draw(st.booleans())
    if not clean:
        parts.insert(draw(st.integers(0, len(parts))), draw(hostile_frames()))
    return parts, group_tokens, clean


def converse(port: int, payload: bytes) -> list:
    """Send the bytes, half-close, and decode every reply until the close."""
    received = bytearray()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server already rejected us and closed
        while True:
            try:
                chunk = sock.recv(1 << 16)
            except ConnectionResetError:
                break  # closed with our bytes unread: a close all the same
            if not chunk:
                break
            received += chunk
    return FrameDecoder(max_state_bytes=MAX_STATE_BYTES).feed(bytes(received))


class ErrorLog(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.mark.parametrize("durable", [False, True], ids=["in-memory", "durable"])
def test_control_plane_fuzz_never_crashes_a_handler(durable, tmp_path):
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def call(coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, loop).result(60.0)

    async def start():
        server = CollectionServer(
            SPEC,
            DATASET.domain,
            port=0,
            shards=2,
            checkpoint_dir=tmp_path if durable else None,
        )
        return await server.start()

    errors = ErrorLog()
    watched = [logging.getLogger("repro.server.server"), logging.getLogger("asyncio")]
    for logger in watched:
        logger.addHandler(errors)
    server = call(start())
    try:

        @settings(
            max_examples=150,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(conversations())
        def check(conversation):
            parts, group_tokens, clean = conversation
            errors.messages.clear()
            replies = converse(server.port, b"".join(parts))
            assert errors.messages == []
            kinds = [reply.kind for reply in replies]
            assert set(kinds) <= FINAL_KINDS | {OK}, kinds
            if ERR in kinds:
                assert kinds.index(ERR) == len(kinds) - 1, kinds
            letters = "".join(LETTERS.get(kind, "") for kind in kinds)
            assert GROUP_REPLIES.fullmatch(letters), kinds
            if clean:
                acks = [reply.payload for reply in replies if reply.kind == ACK]
                first = {}
                for token, ack in zip(group_tokens, acks):
                    if token in first:
                        assert ack["duplicate"] is True, (token, ack)
                        assert {**ack, "duplicate": True} == {
                            **first[token],
                            "duplicate": True,
                        }
                    elif token is not None:
                        first[token] = ack

        check()

        async def load():
            return await LoadGenerator(
                SPEC, DATASET.domain, "127.0.0.1", server.port, frames=FRAMES, num_clients=2
            ).run()

        async def stats():
            return server.stats()

        report = call(load())
        assert report.acked_reports == DATASET.size
        connections = call(stats())["connections"]
        assert connections["active"] == 0
        assert connections["total"] == (
            connections["completed"] + connections["rejected"] + connections["dropped"]
        )
    finally:
        call(server.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10.0)
        for logger in watched:
            logger.removeHandler(errors)
    assert not thread.is_alive()
    loop.close()
    assert errors.messages == []
