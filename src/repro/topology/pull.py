"""The fan-in wire client: PULL a collector, decode its STATE answer.

A pull is a *non-consuming snapshot read*: the collector answers with its
current merged state (or stats) and keeps serving.  That makes pulls
naturally idempotent — a dropped answer is simply re-pulled, a duplicated
one overwrites the previous snapshot with an equal-or-newer superset —
which is the property the fault-injection harness leans on.

A state answer carries only what the fan-in merges: the collector's
session checkpoint, as raw bytes after the ``STATE`` frame's JSON head.
The acknowledged-token map stays on the collector's disk, where the
failover oracle and :func:`~repro.topology.fan_in`'s fallback read it
through :func:`~repro.server.durable.restore_durable`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.exceptions import CollectionServiceError, WireFormatError
from ..observability import get_registry, trace
from ..resilience.policies import RetryPolicy
from ..server.framing import (
    ERR,
    MAX_STATE_BYTES,
    PULL,
    STATE,
    ControlMessage,
    FrameDecoder,
    encode_control,
)
from ..service.session import AggregationSession

__all__ = [
    "PulledState",
    "decode_state",
    "decode_stats",
    "pull_control",
    "pull_state",
    "pull_stats_payload",
]

_READ_CHUNK = 1 << 16

_PULL_COUNTER = None


def _count_pull(outcome: str) -> None:
    global _PULL_COUNTER
    if _PULL_COUNTER is None:
        _PULL_COUNTER = get_registry().counter(
            "repro_topology_pulls_total",
            "PULL round trips attempted, by outcome.",
            labels=("outcome",),
        )
    _PULL_COUNTER.labels(outcome=outcome).inc()


@dataclass
class PulledState:
    """One collector's snapshot: identity, session state, ACK'd tokens.

    ``acked_tokens`` is filled for a state recovered from disk and empty
    for a live pull, whose ``STATE`` answer does not carry the map.
    """

    collector_id: str
    session: AggregationSession
    acked_tokens: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def num_reports(self) -> int:
        return self.session.num_reports


async def pull_control(
    host: str,
    port: int,
    payload: Optional[Dict[str, Any]] = None,
    *,
    timeout: float = 10.0,
    retry: Optional[RetryPolicy] = None,
) -> ControlMessage:
    """Send one ``PULL`` and return the first control frame answered.

    Raises :class:`CollectionServiceError` on an ``ERR`` answer, a
    truncated stream, or a timeout.  A pull is a non-consuming snapshot
    read, so passing a :class:`~repro.resilience.RetryPolicy` makes the
    whole exchange retry safely (an ``ERR`` answer is a protocol verdict,
    not a transient fault, and is never retried).
    """
    attempts = 0
    what = str((payload or {}).get("what", "state"))
    while True:
        try:
            with trace.span("topology.pull") as span:
                span.annotate(host=host, port=port, what=what)
                answer = await _pull_control_once(host, port, payload, timeout)
            _count_pull("ok")
            return answer
        except CollectionServiceError as error:
            if "rejected the PULL" in str(error):
                _count_pull("rejected")
                raise
            attempts += 1
            if retry is None or not retry.should_retry(attempts):
                _count_pull("failed")
                raise
            _count_pull("retried")
            await asyncio.sleep(retry.delay(attempts))


async def _pull_control_once(
    host: str,
    port: int,
    payload: Optional[Dict[str, Any]],
    timeout: float,
) -> ControlMessage:
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except (OSError, asyncio.TimeoutError) as error:
        raise CollectionServiceError(
            f"cannot connect to collector {host}:{port} for a PULL: "
            f"{error or 'timed out'}"
        ) from error
    try:
        writer.write(encode_control(PULL, payload or {}))
        await writer.drain()
        # The one decoder that *expects* checkpoint-carrying STATE answers,
        # so it alone raises the inbound STATE cap past the generic
        # control bound.
        decoder = FrameDecoder(max_state_bytes=MAX_STATE_BYTES)
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise CollectionServiceError(
                    f"PULL of {host}:{port} timed out after {timeout:.1f}s"
                )
            chunk = await asyncio.wait_for(
                reader.read(_READ_CHUNK), remaining
            )
            if not chunk:
                raise CollectionServiceError(
                    f"collector {host}:{port} closed the stream before "
                    "answering the PULL"
                )
            decoder.absorb(chunk)
            for item in decoder.frames():
                if not isinstance(item, ControlMessage):
                    raise CollectionServiceError(
                        f"collector {host}:{port} answered a PULL with a "
                        "report frame"
                    )
                if item.kind == ERR:
                    raise CollectionServiceError(
                        f"collector {host}:{port} rejected the PULL: "
                        f"{item.payload.get('error', item.payload)}"
                    )
                if item.kind != STATE:
                    raise CollectionServiceError(
                        f"collector {host}:{port} answered a PULL with "
                        f"{item.kind!r}, expected STATE"
                    )
                return item
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def decode_state(answer: ControlMessage) -> PulledState:
    """Restore the session a state ``STATE`` answer carries as raw bytes."""
    payload = answer.payload
    if payload.get("what") != "state":
        raise CollectionServiceError(
            f"STATE answer is not a state snapshot (what="
            f"{payload.get('what')!r})"
        )
    if not answer.raw:
        raise CollectionServiceError(
            "STATE answer carries no session checkpoint"
        )
    try:
        session = AggregationSession.restore_bytes(answer.raw)
    except WireFormatError as error:
        raise CollectionServiceError(
            f"STATE answer carries a corrupted session checkpoint: {error}"
        ) from error
    return PulledState(
        collector_id=str(payload.get("collector_id", "collector")),
        session=session,
    )


def decode_stats(answer: ControlMessage) -> Dict[str, Any]:
    """The payload of a stats ``STATE`` answer (stats + metrics snapshot)."""
    if answer.raw:
        raise CollectionServiceError(
            f"stats answer carries {len(answer.raw)} raw byte(s); only a "
            "state answer may"
        )
    if not isinstance(answer.payload.get("stats"), dict):
        raise CollectionServiceError("stats answer carries no stats")
    return answer.payload


async def pull_state(
    host: str,
    port: int,
    *,
    timeout: float = 10.0,
    retry: Optional[RetryPolicy] = None,
) -> PulledState:
    """Pull one collector's full session state."""
    answer = await pull_control(
        host, port, {"what": "state"}, timeout=timeout, retry=retry
    )
    return decode_state(answer)


async def pull_stats_payload(
    host: str,
    port: int,
    *,
    timeout: float = 10.0,
    retry: Optional[RetryPolicy] = None,
) -> Dict[str, Any]:
    """Pull one collector's stats answer: its ``"stats"`` counters and,
    under ``"metrics"``, a metrics-snapshot ``state_dict`` that callers
    roll up across a topology tree."""
    answer = await pull_control(
        host, port, {"what": "stats"}, timeout=timeout, retry=retry
    )
    try:
        return decode_stats(answer)
    except CollectionServiceError as error:
        raise CollectionServiceError(f"collector {host}:{port}: {error}") from error
