"""``STATE`` frame fuzzing: hostile answers end in an error, never a session.

A ``STATE`` payload is ``u32 head length | JSON head | raw bytes``, and a
state answer's raw bytes are a session checkpoint.  A head length past
the payload, a head that is not a JSON object, a truncated or flipped
checkpoint and a stats answer with raw bytes must each end in
:class:`WireFormatError` (the frame decoders) or
:class:`CollectionServiceError` (the pull client's decoders) — never
another exception, and never a restored session.  Both frame decoders
split every frame identically at any chunk boundary, and the same
hostile answers sent by a fake collector fail :func:`pull_state` and
:func:`pull_stats_payload` over a real socket.
"""

from __future__ import annotations

import asyncio
import functools
import json
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import CollectionServiceError, WireFormatError
from repro.server.framing import (
    CONTROL_MAGIC,
    MAX_STATE_BYTES,
    SERVER_PROTOCOL_VERSION,
    STATE,
    STATE_HEAD_LENGTH,
    ControlMessage,
    FrameDecoder,
    encode_control,
)
from repro.service import AggregationSession
from repro.topology.pull import (
    decode_state,
    decode_stats,
    pull_state,
    pull_stats_payload,
)

from ..service.util import ALL_PROTOCOLS, build, encode_frames, small_dataset
from .reference_decoder import FrameDecoderReference

FUZZ = settings(max_examples=150, deadline=None)
#: Bytes of the SHA-256 trailer that closes every checkpoint.
TRAILER_BYTES = 32
STATE_HEAD = {"collector_id": "c0", "what": "state", "reports": 24}
STATS_HEAD = {"collector_id": "c0", "what": "stats", "stats": {"reports": 24}}

protocols = st.sampled_from(ALL_PROTOCOLS)
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
json_objects = st.dictionaries(st.text(max_size=8), json_values, max_size=4)


@functools.lru_cache(maxsize=None)
def live_checkpoint(name: str) -> bytes:
    """What a collector's state answer carries: a checkpoint, no token map."""
    protocol = build(name)
    dataset = small_dataset(n=24, d=4)
    session = AggregationSession(protocol.spec(), dataset.domain)
    for frame in encode_frames(protocol, dataset, 12):
        session.submit(frame)
    return session.checkpoint_bytes(extra={"collector_id": "c0"})


def state_frame(payload: bytes) -> bytes:
    """A ``STATE`` frame around an arbitrary payload (valid or not)."""
    name = STATE.encode("utf-8")
    return (
        struct.pack("<4sHH", CONTROL_MAGIC, SERVER_PROTOCOL_VERSION, len(name))
        + name
        + struct.pack("<Q", len(payload))
        + payload
    )


def decode_split(frame: bytes, cut: int):
    """Feed ``frame`` in two chunks to both decoders; return both outcomes
    (the frames, or the error message) and check that they agree."""
    outcomes = []
    for decoder in (
        FrameDecoder(max_state_bytes=MAX_STATE_BYTES),
        FrameDecoderReference(max_state_bytes=MAX_STATE_BYTES),
    ):
        try:
            outcomes.append(decoder.feed(frame[:cut]) + decoder.feed(frame[cut:]))
        except WireFormatError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def refuse_state(raw: bytes, head=STATE_HEAD) -> CollectionServiceError:
    """Decode a state answer around ``raw``; it must not restore."""
    with pytest.raises(CollectionServiceError) as excinfo:
        decode_state(ControlMessage(STATE, dict(head), raw))
    return excinfo.value


class TestStateFrames:
    @FUZZ
    @given(head=json_objects, raw=st.binary(max_size=256), data=st.data())
    def test_valid_frames_split_identically_anywhere(self, head, raw, data):
        frame = encode_control(STATE, head, raw)
        cut = data.draw(st.integers(0, len(frame)), label="cut")
        assert decode_split(frame, cut) == [ControlMessage(STATE, head, raw)]

    @FUZZ
    @given(
        head=json_objects,
        raw=st.binary(max_size=64),
        excess=st.integers(1, 1 << 20),
        data=st.data(),
    )
    def test_head_length_past_the_payload_is_refused(self, head, raw, excess, data):
        head_bytes = json.dumps(head).encode()
        declared = len(head_bytes) + len(raw) + excess
        frame = state_frame(STATE_HEAD_LENGTH.pack(declared) + head_bytes + raw)
        cut = data.draw(st.integers(0, len(frame)), label="cut")
        assert "past the" in decode_split(frame, cut)

    @FUZZ
    @given(payload=st.binary(max_size=STATE_HEAD_LENGTH.size - 1))
    def test_payload_shorter_than_the_head_length_is_refused(self, payload):
        assert "too short" in decode_split(state_frame(payload), 0)

    @FUZZ
    @given(
        head=st.one_of(
            json_values.filter(lambda value: not isinstance(value, dict)).map(
                lambda value: json.dumps(value).encode()
            ),
            st.binary(max_size=32),
        ),
        raw=st.binary(max_size=64),
        data=st.data(),
    )
    def test_head_that_is_not_a_json_object_is_refused(self, head, raw, data):
        try:
            is_object = isinstance(json.loads(head.decode("utf-8")), dict)
        except (UnicodeDecodeError, json.JSONDecodeError):
            is_object = False
        assume(not is_object)
        frame = state_frame(STATE_HEAD_LENGTH.pack(len(head)) + head + raw)
        cut = data.draw(st.integers(0, len(frame)), label="cut")
        outcome = decode_split(frame, cut)
        assert isinstance(outcome, str) and "payload" in outcome

    def test_only_state_frames_carry_raw_bytes(self):
        with pytest.raises(WireFormatError, match="only STATE"):
            encode_control("OK", {}, b"raw")


class TestStateAnswers:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_the_pristine_answer_restores(self, name):
        frame = encode_control(STATE, STATE_HEAD, live_checkpoint(name))
        (answer,) = FrameDecoder(max_state_bytes=MAX_STATE_BYTES).feed(frame)
        pulled = decode_state(answer)
        assert pulled.collector_id == "c0"
        assert pulled.acked_tokens == {}
        assert pulled.num_reports == 24

    @FUZZ
    @given(name=protocols, data=st.data())
    def test_every_truncated_checkpoint_is_refused(self, name, data):
        blob = live_checkpoint(name)
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        refuse_state(blob[:cut])

    @FUZZ
    @given(name=protocols, flip=st.integers(1, 255), data=st.data())
    def test_a_flipped_trailer_byte_is_refused(self, name, flip, data):
        blob = bytearray(live_checkpoint(name))
        position = data.draw(
            st.integers(len(blob) - TRAILER_BYTES, len(blob) - 1), label="position"
        )
        blob[position] ^= flip
        assert "corrupted session checkpoint" in str(refuse_state(bytes(blob)))

    @FUZZ
    @given(raw=st.binary(min_size=1, max_size=64))
    def test_a_stats_answer_with_raw_bytes_is_refused(self, raw):
        with pytest.raises(CollectionServiceError, match="raw byte"):
            decode_stats(ControlMessage(STATE, STATS_HEAD, raw))

    def test_a_stats_answer_is_not_a_state(self):
        assert decode_stats(ControlMessage(STATE, STATS_HEAD)) == STATS_HEAD
        refuse_state(live_checkpoint("InpRR"), head=STATS_HEAD)


def hostile_answers():
    """``(what, frame)``: a hostile answer to a ``PULL`` of ``what``."""
    blob = live_checkpoint("InpRR")
    head = json.dumps(STATE_HEAD).encode()

    def flipped(position: int) -> bytes:
        mutated = bytearray(blob)
        mutated[position] ^= 0xFF
        return encode_control(STATE, STATE_HEAD, bytes(mutated))

    return st.one_of(
        st.integers(1, 1 << 16).map(
            lambda excess: (
                "state",
                state_frame(STATE_HEAD_LENGTH.pack(len(head) + excess) + head),
            )
        ),
        st.sampled_from([b"[]", b"null", b"\xff", b"{"]).map(
            lambda bad: (
                "state",
                state_frame(STATE_HEAD_LENGTH.pack(len(bad)) + bad + blob),
            )
        ),
        st.integers(0, len(blob) - 1).map(
            lambda cut: ("state", encode_control(STATE, STATE_HEAD, blob[:cut]))
        ),
        st.integers(len(blob) - TRAILER_BYTES, len(blob) - 1).map(
            lambda position: ("state", flipped(position))
        ),
        st.binary(min_size=1, max_size=64).map(
            lambda raw: ("stats", encode_control(STATE, STATS_HEAD, raw))
        ),
    )


@settings(max_examples=40, deadline=None)
@given(answer=hostile_answers())
def test_a_fake_collector_cannot_make_a_pull_restore(answer):
    what, frame = answer

    async def scenario():
        async def collector(reader, writer):
            await reader.read(1 << 16)
            writer.write(frame)
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(collector, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        pull = pull_state if what == "state" else pull_stats_payload
        try:
            with pytest.raises((WireFormatError, CollectionServiceError)):
                await pull("127.0.0.1", port, timeout=5.0)
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())
