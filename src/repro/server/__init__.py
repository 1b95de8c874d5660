"""The network collection service: framing → handshake → server → loadgen.

This package turns the wire codec and :class:`~repro.service.
AggregationSession` into an actual deployment surface (stdlib ``asyncio``
only, no new runtime dependencies):

* :mod:`~repro.server.framing` — the session frame layer: report frames
  (the existing ``RPRB`` wire bytes) and JSON control frames
  (``HELLO``/``OK``/``ERR``/``FIN``/``ACK``) share one length-prefixed
  header, reassembled incrementally by :class:`FrameDecoder` no matter how
  TCP fragments them;
* :mod:`~repro.server.handshake` — the ``HELLO`` spec agreement: clients
  present their full canonical spec (plus its hash) and mismatches are
  rejected with a readable per-field diff;
* :class:`CollectionServer` — the asyncio collector: per-connection
  rejection of bad input, round-robin sharding over
  ``AggregationSession``\\ s, bounded per-connection buffering, periodic +
  shutdown checkpoints, and finalization bit-for-bit identical to
  ``run_streaming`` over the same encoded reports;
* :class:`LoadGenerator` — the client-fleet simulator: N concurrent
  clients, connection churn, malformed-frame injection, throughput
  reporting.

The CLI drives both ends via ``repro serve`` and ``repro load``.
"""

from .framing import (
    ACK,
    CONTROL_KINDS,
    CONTROL_MAGIC,
    ERR,
    FIN,
    HELLO,
    MAX_CONTROL_BYTES,
    MAX_STATE_BYTES,
    OK,
    POISON_FRAME,
    PULL,
    REPORT_MAGIC,
    SERVER_PROTOCOL_VERSION,
    STATE,
    ControlMessage,
    FrameDecoder,
    encode_control,
)
from .handshake import check_hello, hello_payload, spec_hash
from .loadgen import ClientResult, LoadGenerator, LoadReport
from .multiproc import MultiProcessCollector
from .server import (
    DEFAULT_BATCH_MAX_USERS,
    DEFAULT_BATCH_WINDOW_SECONDS,
    DEFAULT_MAX_FRAME_BYTES,
    DURABLE_STATE_FILENAME,
    CollectionServer,
    install_uvloop,
    merge_checkpoints,
)

__all__ = [
    # framing
    "SERVER_PROTOCOL_VERSION",
    "MAX_CONTROL_BYTES",
    "REPORT_MAGIC",
    "CONTROL_MAGIC",
    "POISON_FRAME",
    "HELLO",
    "OK",
    "ERR",
    "FIN",
    "ACK",
    "PULL",
    "STATE",
    "MAX_STATE_BYTES",
    "CONTROL_KINDS",
    "ControlMessage",
    "encode_control",
    "FrameDecoder",
    # handshake
    "spec_hash",
    "hello_payload",
    "check_hello",
    # server
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_BATCH_MAX_USERS",
    "DEFAULT_BATCH_WINDOW_SECONDS",
    "DURABLE_STATE_FILENAME",
    "CollectionServer",
    "install_uvloop",
    "merge_checkpoints",
    "MultiProcessCollector",
    # loadgen
    "ClientResult",
    "LoadGenerator",
    "LoadReport",
]
