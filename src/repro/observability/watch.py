"""The ``repro watch`` client: poll collectors' STATS, render live rates.

A watch session opens a plain socket to each collector, sends one
``STATS`` control frame, and decodes the ``STATS`` answer — the payload
carries the collector's :meth:`~repro.server.CollectionServer.stats`
counters and a metrics-snapshot ``state_dict``.  Because the counters are
monotonic, two consecutive samples give exact interval rates
(reports/sec, MB/sec, and the collector's CPU microseconds per report)
with no server-side bookkeeping.

The rendering also derives the *expected-error half-width* the theory
section promises for the collected population so far: Table-2 methods go
through :func:`repro.theory.bounds.error_bound` (with ``d`` = the
domain's attribute count and ``k`` = the spec's ``max_width``), the
frequency oracles through
:func:`repro.theory.bounds.frequency_confidence_half_width`; protocols
with no closed-form bound render ``n/a``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import CollectionServiceError
from ..server.framing import (
    ERR,
    STATS,
    ControlMessage,
    FrameDecoder,
    encode_control,
)

__all__ = [
    "RateTracker",
    "expected_error_half_width",
    "render_watch",
    "request_stats",
    "sample_targets",
]

_READ_CHUNK = 1 << 16

#: Methods whose half-width comes from the Table-2 ``error_bound``.
_TABLE2_METHODS = frozenset(
    {"InpRR", "InpPS", "InpHT", "MargRR", "MargPS", "MargHT"}
)
#: Oracles whose half-width comes from the frequency-oracle CI.
_ORACLE_METHODS = frozenset({"InpOLH", "InpHTCMS"})


async def request_stats(
    host: str, port: int, *, timeout: float = 5.0
) -> Dict[str, Any]:
    """One STATS probe: returns the answer payload (stats + metrics)."""
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except (OSError, asyncio.TimeoutError) as error:
        raise CollectionServiceError(
            f"cannot connect to collector {host}:{port} for STATS: "
            f"{error or 'timed out'}"
        ) from error
    try:
        writer.write(encode_control(STATS, {}))
        await writer.drain()
        decoder = FrameDecoder()
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise CollectionServiceError(
                    f"STATS probe of {host}:{port} timed out after "
                    f"{timeout:.1f}s"
                )
            chunk = await asyncio.wait_for(reader.read(_READ_CHUNK), remaining)
            if not chunk:
                raise CollectionServiceError(
                    f"collector {host}:{port} closed the stream before "
                    "answering STATS"
                )
            decoder.absorb(chunk)
            for item in decoder.frames():
                if not isinstance(item, ControlMessage):
                    raise CollectionServiceError(
                        f"collector {host}:{port} answered STATS with a "
                        "report frame"
                    )
                if item.kind == ERR:
                    raise CollectionServiceError(
                        f"collector {host}:{port} rejected the STATS probe: "
                        f"{item.payload.get('error', item.payload)}"
                    )
                if item.kind != STATS:
                    raise CollectionServiceError(
                        f"collector {host}:{port} answered STATS with "
                        f"{item.kind!r}"
                    )
                return item.payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def sample_targets(
    targets: Sequence[Tuple[str, int]], *, timeout: float = 5.0
) -> List[Dict[str, Any]]:
    """Probe every target concurrently; failures become error entries."""

    async def probe(host: str, port: int) -> Dict[str, Any]:
        try:
            payload = await request_stats(host, port, timeout=timeout)
        except CollectionServiceError as error:
            return {"target": f"{host}:{port}", "error": str(error)}
        payload = dict(payload)
        payload["target"] = f"{host}:{port}"
        return payload

    return list(
        await asyncio.gather(*(probe(host, port) for host, port in targets))
    )


def expected_error_half_width(stats: Mapping[str, Any]) -> Optional[float]:
    """The theory-derived half-width for the population collected so far.

    Returns ``None`` when the protocol has no closed-form bound (``HH``,
    ``InpEM``), when no reports have arrived yet, or when the stats dict
    is missing the needed fields — the caller renders ``n/a``.
    """
    # Runtime import: repro.theory is heavier than this client needs at
    # import time and is only touched when a bound is actually rendered.
    from ..theory.bounds import error_bound, frequency_confidence_half_width

    spec = stats.get("spec")
    if not isinstance(spec, Mapping):
        return None
    protocol = spec.get("protocol")
    epsilon = spec.get("epsilon")
    population = stats.get("reports")
    dimension = stats.get("num_attributes")
    if not population or not epsilon or not dimension:
        return None
    try:
        if protocol in _TABLE2_METHODS:
            width = int(spec.get("max_width") or 1)
            return float(
                error_bound(
                    protocol,
                    int(dimension),
                    max(width, 1),
                    float(epsilon),
                    int(population),
                )
            )
        if protocol in _ORACLE_METHODS:
            # The oracle estimates cell frequencies over the full binary
            # domain; cap the exponent so the bound stays finite for
            # very wide domains (it only shrinks with domain size).
            domain_size = 2 ** min(int(dimension), 62)
            return float(
                frequency_confidence_half_width(
                    protocol,
                    float(epsilon),
                    int(population),
                    domain_size,
                )
            )
    except Exception:
        return None
    return None


class RateTracker:
    """Interval rates from consecutive monotonic samples, per target."""

    def __init__(self) -> None:
        self._last: Dict[str, Tuple[float, float, float]] = {}
        self._cpu: Dict[str, Tuple[float, float]] = {}

    def rates(
        self, target: str, reports: float, num_bytes: float, now: Optional[float] = None
    ) -> Optional[Tuple[float, float]]:
        """``(reports/sec, MB/sec)`` since the previous sample, or ``None``
        on a target's first sample (no interval yet)."""
        now = time.monotonic() if now is None else now
        previous = self._last.get(target)
        self._last[target] = (now, float(reports), float(num_bytes))
        if previous is None:
            return None
        then, last_reports, last_bytes = previous
        elapsed = now - then
        if elapsed <= 0:
            return None
        return (
            (float(reports) - last_reports) / elapsed,
            (float(num_bytes) - last_bytes) / (1e6 * elapsed),
        )

    def cpu_us_per_report(
        self, target: str, reports: float, cpu_seconds: float
    ) -> Optional[float]:
        """The collector's CPU microseconds per report since the previous
        sample, or ``None`` on a target's first sample or when no report
        arrived in between."""
        previous = self._cpu.get(target)
        self._cpu[target] = (float(reports), float(cpu_seconds))
        if previous is None:
            return None
        last_reports, last_cpu = previous
        collected = float(reports) - last_reports
        if collected <= 0:
            return None
        return 1e6 * (float(cpu_seconds) - last_cpu) / collected


def render_watch(
    payloads: Sequence[Mapping[str, Any]],
    tracker: Optional[RateTracker] = None,
    now: Optional[float] = None,
) -> str:
    """One human-readable watch frame over every probed collector."""
    lines: List[str] = []
    total_reports = 0
    for payload in payloads:
        target = payload.get("target", "?")
        error = payload.get("error")
        if error:
            lines.append(f"collector {target}  UNREACHABLE: {error}")
            continue
        stats = payload.get("stats") or {}
        reports = int(stats.get("reports", 0))
        num_bytes = int(stats.get("bytes", 0))
        total_reports += reports
        lines.append(
            f"collector {target}  "
            f"(id {payload.get('collector_id', '?')})"
        )
        rate_text = ""
        if tracker is not None:
            rates = tracker.rates(target, reports, num_bytes, now)
            if rates is not None:
                rate_text = (
                    f"  [{rates[0]:,.1f} reports/s, {rates[1]:.2f} MB/s]"
                )
        lines.append(
            f"  reports : {reports:,}  frames : "
            f"{int(stats.get('frames', 0)):,}  bytes : {num_bytes:,}"
            f"{rate_text}"
        )
        shard_reports = stats.get("shard_reports") or []
        if shard_reports:
            shards = "  ".join(
                f"{index:02d}={count:,}"
                for index, count in enumerate(shard_reports)
            )
            lines.append(f"  shards  : {shards}")
        connections = stats.get("connections") or {}
        if connections:
            lines.append(
                "  conns   : "
                + "  ".join(
                    f"{key}={connections.get(key, 0)}"
                    for key in ("active", "completed", "rejected", "dropped")
                )
            )
        groups = stats.get("groups") or {}
        if groups:
            lines.append(
                f"  groups  : committed={int(groups.get('committed', 0)):,}  "
                f"duplicate={int(groups.get('duplicate', 0)):,}"
            )
        cpu = stats.get("cpu")
        if cpu:
            user = float(cpu.get("user_seconds", 0.0))
            system = float(cpu.get("sys_seconds", 0.0))
            per_report = ""
            if tracker is not None:
                micros = tracker.cpu_us_per_report(
                    target, reports, user + system
                )
                if micros is not None:
                    per_report = f"  [{micros:.3f} µs/report]"
            lines.append(
                f"  cpu     : user={user:.2f}s  sys={system:.2f}s{per_report}"
            )
        commit_log = stats.get("commit_log")
        if commit_log:
            lines.append(
                f"  log     : records={int(commit_log.get('records', 0)):,}  "
                f"bytes={int(commit_log.get('bytes', 0)):,}  "
                f"compactions={int(commit_log.get('compactions', 0)):,}"
            )
        half_width = expected_error_half_width(stats)
        spec = stats.get("spec") or {}
        if half_width is not None:
            lines.append(
                f"  ±error  : {half_width:.4g}  "
                f"({spec.get('protocol')}, eps={spec.get('epsilon')}, "
                f"n={reports:,})"
            )
        else:
            lines.append(
                f"  ±error  : n/a  ({spec.get('protocol', '?')})"
            )
    reachable = sum(1 for payload in payloads if not payload.get("error"))
    lines.append(
        f"fleet: {reachable}/{len(payloads)} collector(s), "
        f"{total_reports:,} reports"
    )
    return "\n".join(lines)
