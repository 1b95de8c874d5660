"""LoadGenerator: frame preparation, determinism, churn, fault injection."""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.core.exceptions import (
    CollectionServiceError,
    ProtocolConfigurationError,
)
from repro.resilience import RetryPolicy
from repro.server import CollectionServer, LoadGenerator, loadgen

from ..service.util import (
    SEED,
    assert_estimates_equal,
    build,
    encode_frames,
    estimates_of,
    small_dataset,
)

#: Three retries with no sleep between them: these tests count attempts.
NO_BACKOFF = RetryPolicy(max_retries=3, base_delay=0.0)


@pytest.fixture(scope="module")
def dataset():
    return small_dataset()


@pytest.fixture(scope="module")
def protocol():
    return build("InpRR")


class TestFramePreparation:
    def test_frames_for_dataset_matches_streaming_discipline(
        self, protocol, dataset
    ):
        """frames_for_dataset spawns the same per-batch generators as
        run_streaming, so its frames equal the reference encoding."""
        observed = LoadGenerator.frames_for_dataset(
            protocol.spec(),
            dataset,
            16,
            rng=np.random.default_rng(SEED),
        )
        assert observed == encode_frames(protocol, dataset, 16, seed=SEED)

    def test_provided_frames_dealt_round_robin(self, protocol, dataset):
        frames = encode_frames(protocol, dataset, 16)
        fleet = LoadGenerator(
            protocol.spec(),
            dataset.domain,
            "127.0.0.1",
            1,
            frames=frames,
            num_clients=4,
        )
        per_client = fleet.client_frames()
        assert per_client == [
            [frames[0], frames[4]],
            [frames[1], frames[5]],
            [frames[2]],
            [frames[3]],
        ]

    def test_synthetic_frames_deterministic_in_seed(self, protocol, dataset):
        def fleet():
            return LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                1,
                num_clients=3,
                records_per_client=32,
                batch_size=8,
                seed=123,
            )

        assert fleet().client_frames() == fleet().client_frames()
        other = LoadGenerator(
            protocol.spec(),
            dataset.domain,
            "127.0.0.1",
            1,
            num_clients=3,
            records_per_client=32,
            batch_size=8,
            seed=124,
        )
        assert other.client_frames() != fleet().client_frames()

    def test_validation(self, protocol, dataset):
        with pytest.raises(ProtocolConfigurationError, match="num_clients"):
            LoadGenerator(
                protocol.spec(), dataset.domain, "h", 1, num_clients=0
            )
        with pytest.raises(
            ProtocolConfigurationError, match="records_per_client"
        ):
            LoadGenerator(
                protocol.spec(), dataset.domain, "h", 1, records_per_client=0
            )
        with pytest.raises(
            ProtocolConfigurationError, match="frames_per_connection"
        ):
            LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "h",
                1,
                frames_per_connection=0,
            )
        with pytest.raises(
            ProtocolConfigurationError, match="malformed_connections"
        ):
            LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "h",
                1,
                malformed_connections=-1,
            )

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_connect_timeout_must_be_finite_and_positive(
        self, protocol, dataset, value
    ):
        """A NaN deadline never passes (``monotonic() >= nan`` is always
        false), so a fleet built with one would spin on a closed port."""
        with pytest.raises(
            ProtocolConfigurationError, match="connect_timeout"
        ):
            LoadGenerator(
                protocol.spec(), dataset.domain, "h", 1, connect_timeout=value
            )


class TestFleetRuns:
    def test_synthetic_fleet_end_to_end(self, protocol, dataset):
        """Self-encoding clients: the server aggregates exactly the records
        the fleet synthesized, verified against an in-process session."""

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            fleet = LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                server.port,
                num_clients=3,
                records_per_client=32,
                batch_size=8,
                seed=42,
            )
            report = await fleet.run()
            await server.stop()
            return server, fleet, report

        server, fleet, report = asyncio.run(session())
        assert report.acked_reports == 3 * 32
        assert report.frames == 3 * 4
        baseline = protocol.session(dataset.domain)
        for frames in fleet.client_frames():
            for frame in frames:
                baseline.submit(frame)
        assert_estimates_equal(
            estimates_of(server.finalize()),
            estimates_of(baseline.snapshot()),
        )

    def test_report_accounting(self, protocol, dataset):
        frames = encode_frames(protocol, dataset, 16)

        async def session():
            server = CollectionServer(protocol.spec(), dataset.domain, port=0)
            await server.start()
            fleet = LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                server.port,
                frames=frames,
                num_clients=2,
                frames_per_connection=2,
            )
            report = await fleet.run()
            await server.stop()
            return report, server.stats()

        report, stats = asyncio.run(session())
        assert report.clients == 2
        assert report.frames == len(frames)
        assert report.acked_frames == len(frames)
        assert report.bytes == sum(len(frame) for frame in frames)
        # 3 frames per client, 2 per group: 2 groups per client, carried
        # over one connection per client (one address).
        (target,) = report.acked_by_target.values()
        assert target["groups"] == 4
        assert [client.connections for client in report.per_client] == [1, 1]
        assert report.connections == 2
        assert stats["groups"] == {"committed": 4, "duplicate": 0}
        assert stats["connections"]["total"] == 2
        assert report.duration_seconds > 0
        assert report.reports_per_second > 0
        payload = report.to_dict()
        assert payload["acked_reports"] == dataset.size
        assert len(payload["per_client"]) == 2

    def test_vanishing_server_raises_collection_service_error(
        self, protocol, dataset
    ):
        """A server that dies mid-session surfaces as the documented
        CollectionServiceError on every client path (handshake, writes,
        reads) — never as a raw ConnectionResetError."""
        from repro.server import OK, encode_control

        frames = encode_frames(protocol, dataset, 16)

        async def session():
            async def accept_then_die(reader, writer):
                await reader.read(1 << 16)  # the HELLO
                writer.write(encode_control(OK, {}))
                await writer.drain()
                writer.close()  # vanish before any frame is acknowledged

            fake = await asyncio.start_server(
                accept_then_die, "127.0.0.1", 0
            )
            port = fake.sockets[0].getsockname()[1]
            try:
                fleet = LoadGenerator(
                    protocol.spec(),
                    dataset.domain,
                    "127.0.0.1",
                    port,
                    frames=frames,
                    num_clients=1,
                )
                with pytest.raises(CollectionServiceError):
                    await fleet.run()
            finally:
                fake.close()
                await fake.wait_closed()

        asyncio.run(session())

    def test_out_of_protocol_server_raises_collection_service_error(
        self, protocol, dataset
    ):
        """A peer speaking something other than the collection protocol
        surfaces as CollectionServiceError, not a raw WireFormatError."""

        async def session():
            async def speak_garbage(reader, writer):
                await reader.read(1 << 16)
                writer.write(b"HTTP/1.1 400 Bad Request\r\n\r\n")
                await writer.drain()
                writer.close()

            fake = await asyncio.start_server(speak_garbage, "127.0.0.1", 0)
            port = fake.sockets[0].getsockname()[1]
            try:
                fleet = LoadGenerator(
                    protocol.spec(),
                    dataset.domain,
                    "127.0.0.1",
                    port,
                    num_clients=1,
                    records_per_client=8,
                )
                with pytest.raises(
                    CollectionServiceError, match="out of protocol"
                ):
                    await fleet.run()
            finally:
                fake.close()
                await fake.wait_closed()

        asyncio.run(session())

    def test_silent_server_fails_the_group_after_the_io_timeout(
        self, protocol, dataset, monkeypatch
    ):
        """A server that accepts and then says nothing fails the group
        after the fixed per-read silence bound instead of hanging it."""
        monkeypatch.setattr(loadgen, "DEFAULT_IO_TIMEOUT", 0.1)

        async def session():
            async def say_nothing(reader, writer):
                while await reader.read(1 << 16):
                    pass
                writer.close()

            fake = await asyncio.start_server(say_nothing, "127.0.0.1", 0)
            port = fake.sockets[0].getsockname()[1]
            try:
                fleet = LoadGenerator(
                    protocol.spec(),
                    dataset.domain,
                    "127.0.0.1",
                    port,
                    num_clients=1,
                    records_per_client=8,
                    retry=RetryPolicy(max_retries=0),
                )
                with pytest.raises(
                    CollectionServiceError, match=r"no response within 0\.1s"
                ):
                    await fleet.run()
            finally:
                fake.close()
                await fake.wait_closed()

        asyncio.run(session())

    def test_connect_timeout_raises_quickly(self, protocol, dataset):
        async def session():
            # A port nothing listens on; bounded retry then a clear error.
            fleet = LoadGenerator(
                protocol.spec(),
                dataset.domain,
                "127.0.0.1",
                1,  # port 1: connection refused
                num_clients=1,
                records_per_client=8,
                connect_timeout=0.2,
            )
            with pytest.raises(CollectionServiceError, match="cannot connect"):
                await fleet.run()

        asyncio.run(session())


TARGETS = [("127.0.0.1", 9001), ("127.0.0.1", 9002), ("127.0.0.1", 9003)]


class TestFailoverRouting:
    """Exactly-once delivery discipline of _deliver_group.

    These drive the retry loop directly with a stubbed _send_group — no
    sockets — because the property under test is *which address* each
    attempt goes to, not the wire exchange.
    """

    def fleet(self, protocol, dataset, **kwargs):
        kwargs.setdefault("failover", lambda address: {"dead": False})
        kwargs.setdefault("retry", NO_BACKOFF)
        return LoadGenerator(
            protocol.spec(),
            dataset.domain,
            targets=TARGETS,
            routing="round-robin",
            token_prefix="t",
            num_clients=1,
            records_per_client=8,
            **kwargs,
        )

    def test_transient_retries_pin_the_routed_address(
        self, protocol, dataset
    ):
        """A retry after a lost ACK must go back to the SAME collector —
        the only one that has seen the group's idempotency token.  A
        round-robin router advances on every route() call, so routing
        per attempt would fold the group twice on a different collector."""
        fleet = self.fleet(protocol, dataset, retry=NO_BACKOFF)
        attempts = []

        async def send_group(result, frames, address, token=None):
            attempts.append(address)
            if len(attempts) < 3:
                raise CollectionServiceError("ACK lost")
            return len(frames), 0

        fleet._send_group = send_group
        from repro.server.loadgen import ClientResult

        result = ClientResult(client_id=0)
        asyncio.run(fleet._deliver_group(result, 0, [b"frame"]))
        assert len(attempts) == 3
        assert len(set(attempts)) == 1, (
            f"transient retries switched collectors: {attempts}"
        )
        assert result.retries == 2

    def test_dead_verdict_reroutes_to_a_survivor(self, protocol, dataset):
        dead_address = None
        verdicts = []

        def oracle(address):
            verdicts.append(address)
            return {"dead": address == dead_address, "acked_tokens": {}}

        fleet = self.fleet(protocol, dataset, failover=oracle)
        attempts = []

        async def send_group(result, frames, address, token=None):
            attempts.append(address)
            if address == dead_address:
                raise CollectionServiceError("connection refused")
            return len(frames), 0

        fleet._send_group = send_group
        from repro.server.loadgen import ClientResult

        dead_address = fleet.router.targets[0]
        result = ClientResult(client_id=0)
        asyncio.run(fleet._deliver_group(result, 0, [b"frame"]))
        assert attempts[0] == dead_address
        assert attempts[1] != dead_address
        assert verdicts == [dead_address]
        assert dead_address in fleet.router.dead

    def test_first_contact_gets_the_full_connect_timeout(
        self, protocol, dataset
    ):
        """With an oracle configured, only addresses that have already
        accepted a connection take the short reconnect path; a collector
        still binding its socket keeps the full grace window."""
        fleet = self.fleet(
            protocol,
            dataset,
            connect_timeout=0.3,
            retry=RetryPolicy(base_delay=0.1),
        )
        address = ("127.0.0.1", 1)  # connection refused

        async def attempt():
            with pytest.raises(
                CollectionServiceError, match=r"within 0\.3s"
            ):
                await fleet._connect(address)
            fleet._contacted.add(address)
            with pytest.raises(
                CollectionServiceError, match=r"within 0\.1s"
            ):
                await fleet._connect(address)

        asyncio.run(attempt())
