"""CollectionServer end to end: sockets, shards, faults, checkpoints.

The acceptance bar of the subsystem: for **every** protocol, reports
collected over real TCP connections — multiple shards, clients connecting,
churning and disconnecting concurrently — finalize to estimates bit-for-bit
identical to ``run_streaming`` on the same encoded reports, and the server
survives malformed frames and spec-mismatched clients with per-connection
rejection, not process death.
"""

from __future__ import annotations

import asyncio
import struct

import numpy as np
import pytest

from repro.core.backends import registered_backends, use_backend
from repro.core.domain import Domain
from repro.core.exceptions import (
    CollectionServiceError,
    ProtocolConfigurationError,
)
from repro.server import (
    ACK,
    ERR,
    FIN,
    HELLO,
    OK,
    CollectionServer,
    ControlMessage,
    FrameDecoder,
    LoadGenerator,
    encode_control,
    hello_payload,
    merge_checkpoints,
)
from repro.service import WIRE_FORMAT_VERSION, ProtocolSpec

from ..service.util import (
    ALL_PROTOCOLS,
    SEED,
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)

BATCH_SIZE = 16  # 96 records -> 6 frames


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


def collect_over_sockets(protocol, frames, domain, **kwargs):
    """Run a server + fleet round trip in one event loop; return the server."""
    loadgen_kwargs = {
        key: kwargs.pop(key)
        for key in (
            "num_clients",
            "frames_per_connection",
            "malformed_connections",
        )
        if key in kwargs
    }

    async def session():
        server = CollectionServer(
            protocol.spec(), domain, port=0, **kwargs
        )
        await server.start()
        fleet = LoadGenerator(
            protocol.spec(),
            domain,
            "127.0.0.1",
            server.port,
            frames=frames,
            **loadgen_kwargs,
        )
        report = await fleet.run()
        await server.stop()
        return server, report

    return asyncio.run(session())


async def raw_exchange(port, payloads):
    """Open one raw connection, send the byte strings, return the replies."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    decoder = FrameDecoder()
    replies = []
    try:
        for payload in payloads:
            writer.write(payload)
            await writer.drain()
            chunk = await asyncio.wait_for(reader.read(1 << 16), 10.0)
            if not chunk:
                replies.append(None)
                break
            replies.extend(decoder.feed(chunk))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return replies


class TestEndToEndEquality:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_socket_collection_matches_run_streaming(self, name, dataset):
        """The headline proof, per protocol: shards + concurrent clients +
        many groups per connection over real sockets == in-process
        run_streaming."""
        protocol = build(name)
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        server, report = collect_over_sockets(
            protocol,
            frames,
            dataset.domain,
            shards=3,
            num_clients=4,
            frames_per_connection=1,  # one frame per group
        )
        assert report.acked_frames == len(frames)
        assert report.acked_reports == dataset.size
        assert server.num_reports == dataset.size
        expected = estimates_of(
            protocol.run_streaming(
                dataset,
                rng=np.random.default_rng(SEED),
                batch_size=BATCH_SIZE,
            )
        )
        assert_estimates_equal(estimates_of(server.finalize()), expected)

    @pytest.mark.parametrize(
        "backend",
        [
            "numpy",
            "threaded",
            pytest.param(
                "native",
                marks=pytest.mark.skipif(
                    "native" not in registered_backends(),
                    reason="the native scan did not build on this host",
                ),
            ),
        ],
    )
    def test_olh_socket_equality_per_kernel_backend(self, backend, dataset):
        """The headline proof holds under every kernel backend.

        The baseline runs under the ambient (auto) backend and the socket
        collection under an explicitly pinned one, so this also proves
        cross-backend equality: backend choice is a pure performance knob,
        invisible in the estimates.
        """
        protocol = build("InpOLH")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        expected = estimates_of(
            protocol.run_streaming(
                dataset,
                rng=np.random.default_rng(SEED),
                batch_size=BATCH_SIZE,
            )
        )
        with use_backend(backend):
            server, report = collect_over_sockets(
                protocol, frames, dataset.domain, shards=2, num_clients=3
            )
            assert report.acked_reports == dataset.size
            observed = estimates_of(server.finalize())
        assert_estimates_equal(observed, expected)

    def test_shard_counts_cover_all_sessions(self, dataset):
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        server, _ = collect_over_sockets(
            protocol,
            frames,
            dataset.domain,
            shards=3,
            num_clients=6,
            frames_per_connection=1,
        )
        shard_reports = server.stats()["shard_reports"]
        assert len(shard_reports) == 3
        assert sum(shard_reports) == dataset.size
        assert all(count > 0 for count in shard_reports)


class TestFaultTolerance:
    def test_malformed_frames_reject_connection_not_server(self, dataset):
        """Poison connections get ERR'd; the well-formed fleet's estimates
        still match the in-process baseline bit-for-bit."""
        protocol = build("InpHT")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        server, report = collect_over_sockets(
            protocol,
            frames,
            dataset.domain,
            shards=2,
            num_clients=3,
            malformed_connections=4,
        )
        assert report.rejected_connections == 4
        assert server.stats()["connections"]["rejected"] == 4
        expected = estimates_of(
            protocol.run_streaming(
                dataset,
                rng=np.random.default_rng(SEED),
                batch_size=BATCH_SIZE,
            )
        )
        assert_estimates_equal(estimates_of(server.finalize()), expected)

    def test_corrupt_payload_mid_stream_rejects_connection(self, dataset):
        """A frame whose payload is corrupted fails its CRC-32 at decode;
        the server answers ERR and keeps serving."""
        protocol = build("InpHT")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        # Keep the valid frame header but zero the payload: the frame still
        # parses at the transport layer, then fails the payload's CRC-32
        # check when the connection decodes it.
        from repro.protocols.wire import _parse_frame_header

        _, header_end, frame_end = _parse_frame_header(frames[0], 0)
        corrupted = frames[0][:header_end] + bytes(frame_end - header_end)

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            hello = encode_control(
                HELLO, hello_payload(protocol.spec(), dataset.domain.attributes)
            )
            replies = await raw_exchange(server.port, [hello, corrupted])
            # A well-formed client right after still completes.
            fleet = LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                server.port,
                frames=frames,
                num_clients=2,
            )
            report = await fleet.run()
            await server.stop()
            return server, report, replies

        server, report, replies = asyncio.run(session())
        assert replies[0].kind == OK
        errors = [
            reply
            for reply in replies[1:]
            if isinstance(reply, ControlMessage) and reply.kind == ERR
        ]
        assert errors and "corrupted" in errors[0].payload["error"]
        assert "CRC-32" in errors[0].payload["error"]
        assert report.acked_reports == dataset.size
        assert server.num_reports == dataset.size  # corrupt frame added nothing

    def test_retired_v1_frame_gets_readable_err(self, dataset):
        """A version-1 (npz payload) report frame is refused at its header
        with an ERR naming both wire-format versions."""
        protocol = build("InpHT")
        frame = bytearray(encode_frames(protocol, dataset, None)[0])
        struct.pack_into("<H", frame, 4, 1)

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            hello = encode_control(
                HELLO, hello_payload(protocol.spec(), dataset.domain.attributes)
            )
            replies = await raw_exchange(server.port, [hello, bytes(frame)])
            await server.stop()
            return server, replies

        server, replies = asyncio.run(session())
        assert replies[0].kind == OK
        (error,) = [reply for reply in replies[1:] if reply.kind == ERR]
        assert "version 1 (npz payload)" in error.payload["error"]
        assert f"version {WIRE_FORMAT_VERSION}" in error.payload["error"]
        assert server.num_reports == 0

    def test_spec_mismatch_rejected_with_diff(self, dataset):
        protocol = build("InpHT", epsilon=1.1)
        mismatched = ProtocolSpec(protocol="InpHT", epsilon=0.5, max_width=2)

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            hello = encode_control(
                HELLO, hello_payload(mismatched, dataset.domain.attributes)
            )
            replies = await raw_exchange(server.port, [hello])
            # The mismatched client is gone; a matching fleet still works.
            frames = encode_frames(protocol, dataset, BATCH_SIZE)
            fleet = LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                server.port,
                frames=frames,
                num_clients=2,
            )
            report = await fleet.run()
            await server.stop()
            return server, report, replies

        server, report, replies = asyncio.run(session())
        (error,) = [r for r in replies if isinstance(r, ControlMessage)]
        assert error.kind == ERR
        assert error.payload["error"] == "spec mismatch"
        assert any("epsilon" in line for line in error.payload["diff"])
        assert report.acked_reports == dataset.size
        assert server.stats()["connections"]["rejected"] == 1

    def test_shape_mismatched_reports_rejected_per_connection(self, dataset):
        """Frames that decode fine but don't fit the domain (client encoded
        over a different dimension) earn an ERR, not a crashed handler."""
        protocol = build("InpRR")
        wrong_dimension = encode_frames(protocol, small_dataset(n=32, d=5), None)

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            hello = encode_control(
                HELLO, hello_payload(protocol.spec(), dataset.domain.attributes)
            )
            replies = await raw_exchange(
                server.port, [hello, wrong_dimension[0]]
            )
            # The server is still healthy for well-shaped clients.
            frames = encode_frames(protocol, dataset, BATCH_SIZE)
            fleet = LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                server.port,
                frames=frames,
                num_clients=2,
            )
            report = await fleet.run()
            await server.stop()
            return server, report, replies

        server, report, replies = asyncio.run(session())
        assert replies[0].kind == OK
        errors = [
            reply
            for reply in replies[1:]
            if isinstance(reply, ControlMessage) and reply.kind == ERR
        ]
        assert errors and "shape" in errors[0].payload["error"]
        assert server.stats()["connections"]["rejected"] == 1
        assert report.acked_reports == dataset.size
        assert server.num_reports == dataset.size

    def test_hostile_spec_values_rejected_per_connection(self, dataset):
        """A HELLO whose spec raises outside ProtocolConfigurationError
        (negative epsilon -> PrivacyBudgetError) still earns an ERR, not a
        silently crashed handler."""
        protocol = build("InpHT")
        hostile = protocol.spec().to_dict()
        hostile["epsilon"] = -1.0

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            hello = encode_control(
                HELLO,
                {"spec": hostile, "attributes": list(dataset.domain.attributes)},
            )
            replies = await raw_exchange(server.port, [hello])
            await server.stop()
            return server, replies

        server, replies = asyncio.run(session())
        (error,) = [r for r in replies if isinstance(r, ControlMessage)]
        assert error.kind == ERR
        assert any("spec:" in line for line in error.payload["diff"])
        assert server.stats()["connections"]["rejected"] == 1

    def test_loadgen_surfaces_spec_rejection(self, dataset):
        protocol = build("InpHT", epsilon=1.1)
        mismatched = ProtocolSpec(protocol="InpHT", epsilon=0.5, max_width=2)
        frames = encode_frames(protocol, dataset, BATCH_SIZE)

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            fleet = LoadGenerator(
                mismatched,
                dataset.domain,
                "127.0.0.1",
                server.port,
                frames=frames,
                num_clients=1,
            )
            try:
                with pytest.raises(
                    CollectionServiceError, match="rejected the HELLO"
                ):
                    await fleet.run()
            finally:
                await server.stop()

        asyncio.run(session())

    def test_report_frame_before_hello_rejected(self, dataset):
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, None)

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            replies = await raw_exchange(server.port, [frames[0]])
            await server.stop()
            return server, replies

        server, replies = asyncio.run(session())
        (error,) = [r for r in replies if isinstance(r, ControlMessage)]
        assert error.kind == ERR
        assert "before HELLO" in error.payload["error"]
        assert server.num_reports == 0

    def test_client_vanishing_mid_frame_is_dropped_quietly(self, dataset):
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            hello = encode_control(
                HELLO, hello_payload(protocol.spec(), dataset.domain.attributes)
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(hello)
            await writer.drain()
            await asyncio.wait_for(reader.read(1 << 16), 10.0)  # OK
            writer.write(frames[0][: len(frames[0]) // 2])
            await writer.drain()
            writer.close()  # vanish mid-frame, no FIN
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            # The server must still serve a full well-formed collection.
            fleet = LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                server.port,
                frames=frames,
                num_clients=2,
            )
            report = await fleet.run()
            await server.stop()
            return server, report

        server, report = asyncio.run(session())
        assert report.acked_reports == dataset.size
        assert server.num_reports == dataset.size
        assert server.stats()["connections"]["dropped"] == 1


class TestLifecycle:
    def test_stop_after_reports_shuts_down(self, dataset):
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)

        async def session():
            server = CollectionServer(
                protocol.spec(),
                dataset.domain,
                port=0,
                stop_after_reports=dataset.size,
            )
            await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            fleet = LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                server.port,
                frames=frames,
                num_clients=3,
            )
            report = await fleet.run()
            await asyncio.wait_for(serve_task, 10.0)
            return server, report

        server, report = asyncio.run(session())
        assert server.stop_requested
        assert report.acked_reports == dataset.size

    def test_checkpoints_periodic_and_on_shutdown(self, dataset, tmp_path):
        protocol = build("InpHT")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)

        async def session():
            server = CollectionServer(
                protocol.spec(),
                dataset.domain,
                port=0,
                shards=2,
                checkpoint_dir=tmp_path,
                checkpoint_interval=0.05,
            )
            await server.start()
            fleet = LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                server.port,
                frames=frames,
                num_clients=2,
            )
            report = await fleet.run()
            await asyncio.sleep(0.2)  # let the periodic task fire
            await server.stop()
            return server, report

        server, _ = asyncio.run(session())
        assert server.stats()["checkpoints_written"] >= 2
        paths = sorted(tmp_path.glob("shard-*.npz"))
        assert len(paths) == 2
        assert not list(tmp_path.glob("*.tmp"))  # atomic writes leave no litter
        restored = merge_checkpoints(paths)
        assert restored.num_reports == dataset.size
        assert_estimates_equal(
            estimates_of(restored.snapshot()),
            estimates_of(server.finalize()),
        )

    def test_server_restarts_after_stop(self, dataset):
        """A stopped server may start again; the stale stop request from
        the first round must not make the second round exit immediately."""
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            server.request_stop()
            await server.serve_until_stopped()
            # Second round: must actually serve, not bail on the old event.
            await server.start()
            assert not server.stop_requested
            fleet = LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                server.port,
                frames=frames,
                num_clients=2,
            )
            report = await fleet.run()
            await server.stop()
            return server, report

        server, report = asyncio.run(session())
        assert report.acked_reports == dataset.size
        assert server.num_reports == dataset.size

    def test_stats_snapshot(self, dataset):
        protocol = build("InpRR")
        frames = encode_frames(protocol, dataset, BATCH_SIZE)
        server, report = collect_over_sockets(
            protocol, frames, dataset.domain, shards=2, num_clients=2
        )
        stats = server.stats()
        assert stats["frames"] == len(frames)
        assert stats["reports"] == dataset.size
        assert stats["bytes"] == sum(len(frame) for frame in frames)
        assert stats["connections"]["completed"] == 2
        assert stats["connections"]["active"] == 0
        assert stats["uptime_seconds"] > 0
        assert stats["reports_per_second"] > 0

    def test_constructor_validation(self, dataset):
        spec = build("InpRR").spec()
        with pytest.raises(ProtocolConfigurationError, match="shard count"):
            CollectionServer(spec, dataset.domain, shards=0)
        with pytest.raises(
            ProtocolConfigurationError, match="requires checkpoint_dir"
        ):
            CollectionServer(spec, dataset.domain, checkpoint_interval=5.0)
        with pytest.raises(
            ProtocolConfigurationError, match="stop_after_reports"
        ):
            CollectionServer(spec, dataset.domain, stop_after_reports=0)
        # max_frame_bytes fails at construction, never per connection.
        with pytest.raises(ProtocolConfigurationError, match="max_frame_bytes"):
            CollectionServer(spec, dataset.domain, max_frame_bytes=0)
        with pytest.raises(ProtocolConfigurationError, match="max_frame_bytes"):
            CollectionServer(spec, dataset.domain, max_frame_bytes=2 << 30)

    def test_checkpoint_without_dir_refused(self, dataset):
        server = CollectionServer(build("InpRR").spec(), dataset.domain)
        with pytest.raises(ProtocolConfigurationError, match="checkpoint_dir"):
            server.checkpoint()

    def test_merge_checkpoints_needs_paths(self):
        with pytest.raises(ProtocolConfigurationError, match="at least one"):
            merge_checkpoints([])
