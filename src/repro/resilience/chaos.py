"""Reusable chaos primitives for fault-injection tests and smoke jobs.

These injectors are deliberately generic — stdlib + numpy, no imports
from the server or topology tiers (:func:`corrupt_checkpoint_array`
reads the checkpoint layout from :mod:`repro.service.session`) — so any
test layer (the ``tests/topology`` harness, the CI ``chaos-smoke`` job,
ad-hoc repro scripts) can compose them:

* :func:`flip_file_bit` — flip one bit anywhere in a file (simulates
  media corruption; on a checkpoint the SHA-256 trailer, or the magic
  and version check ahead of it, refuses it on read).
* :func:`corrupt_checkpoint_array` — the targeted fault: flip one bit
  inside a named state array's bytes and leave the header, layout and
  trailer alone, so only the SHA-256 trailer check can catch it (silent
  at-rest corruption / tampering).
* :func:`enospc_on_fsync` — make every ``os.fsync`` in this process fail
  with ``ENOSPC``, the classic full-disk symptom, to prove atomic writes
  leave the previous checkpoint intact.
* :func:`deny_writes` — revoke write permission on a directory (an
  os-level, cross-process fault that surfaces as ``OSError`` on the
  writer, the same handling path as a full disk).
* :class:`SlowLinkProxy` — a local TCP forwarder that delays and chunks
  traffic, for slow-link / timeout-policy tests.
* :func:`kill_hard` — SIGKILL a process mid-operation (no cleanup
  handlers run), the client-crash primitive behind spool-replay tests.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import os
import signal
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..service.session import parse_checkpoint

__all__ = [
    "flip_file_bit",
    "corrupt_checkpoint_array",
    "enospc_on_fsync",
    "deny_writes",
    "SlowLinkProxy",
    "kill_hard",
]

PathLike = Union[str, Path]


def flip_file_bit(
    path: PathLike,
    rng: Optional[np.random.Generator] = None,
    *,
    offset: Optional[int] = None,
    bit: Optional[int] = None,
) -> int:
    """XOR one bit of ``path`` in place; returns the byte offset flipped.

    With no explicit ``offset``/``bit`` the position is drawn from
    ``rng`` (seed it for reproducible chaos runs).
    """
    path = Path(path)
    blob = bytearray(path.read_bytes())
    if not blob:
        raise ValueError(f"cannot flip a bit in empty file {path}")
    generator = rng if rng is not None else np.random.default_rng()
    position = (
        int(generator.integers(0, len(blob))) if offset is None else int(offset)
    )
    bit_index = int(generator.integers(0, 8)) if bit is None else int(bit)
    blob[position] ^= 1 << bit_index
    path.write_bytes(bytes(blob))
    return position


def corrupt_checkpoint_array(
    path: PathLike,
    array_name: Optional[str] = None,
    rng: Optional[np.random.Generator] = None,
) -> str:
    """Flip one bit inside a checkpoint's state array, trailer untouched.

    The header and layout stay valid, so nothing short of the SHA-256
    trailer check can notice — the exact at-rest corruption the integrity
    layer exists for.  ``array_name`` picks the array to damage; by
    default a non-empty one is drawn from ``rng``.  Returns its name.
    """
    path = Path(path)
    generator = rng if rng is not None else np.random.default_rng()
    blob = bytearray(path.read_bytes())
    # The parsed arrays are views of ``blob``: a flip through one lands in
    # that array's bytes and nowhere else.
    _, state = parse_checkpoint(blob, str(path))
    if array_name is None:
        candidates = [name for name, array in state.items() if array.nbytes]
        if not candidates:
            raise ValueError(f"{path} holds no state bytes to corrupt")
        array_name = candidates[int(generator.integers(0, len(candidates)))]
    elif array_name not in state:
        raise ValueError(
            f"{path} has no array {array_name!r}; arrays: {list(state)}"
        )
    raw = state[array_name].reshape(-1).view(np.uint8)
    if not raw.size:
        raise ValueError(f"array {array_name!r} in {path} is empty")
    raw[int(generator.integers(0, raw.size))] ^= 1 << int(generator.integers(0, 8))
    path.write_bytes(blob)
    return array_name


@contextlib.contextmanager
def enospc_on_fsync():
    """Within the block, every ``os.fsync`` in this process raises ENOSPC.

    The canonical full-disk failure: data was buffered but cannot be made
    durable.  Atomic checkpoint writers must abort the temp file and keep
    the previous checkpoint visible.
    """
    real_fsync = os.fsync

    def failing_fsync(fd):
        raise OSError(errno.ENOSPC, "No space left on device (injected)")

    os.fsync = failing_fsync
    try:
        yield
    finally:
        os.fsync = real_fsync


@contextlib.contextmanager
def deny_writes(directory: PathLike):
    """Revoke write permission on ``directory`` within the block.

    A cross-process fault (works on collector subprocesses too): every
    attempt to create or replace a file there fails with ``OSError``,
    exercising the same degraded path as a full disk.
    """
    directory = Path(directory)
    original_mode = directory.stat().st_mode & 0o777
    directory.chmod(0o500)
    try:
        yield
    finally:
        directory.chmod(original_mode)


class SlowLinkProxy:
    """A local TCP forwarder that throttles traffic toward a target.

    Accepts on an ephemeral local port and pumps bytes to
    ``(target_host, target_port)``, sleeping ``delay_seconds`` between
    ``chunk_bytes``-sized slices in both directions — a deterministic
    slow link for timeout-policy and io-timeout tests.

    Use as an async context manager::

        async with SlowLinkProxy("127.0.0.1", port, delay_seconds=0.2) as proxy:
            ...connect to ("127.0.0.1", proxy.port)...
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        *,
        delay_seconds: float = 0.05,
        chunk_bytes: int = 1024,
        host: str = "127.0.0.1",
    ):
        self._target = (target_host, int(target_port))
        self._delay = float(delay_seconds)
        self._chunk = int(chunk_bytes)
        self._host = host
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    async def start(self) -> "SlowLinkProxy":
        self._server = await asyncio.start_server(
            self._handle, host=self._host, port=0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def _pump(self, reader, writer) -> None:
        try:
            while True:
                chunk = await reader.read(self._chunk)
                if not chunk:
                    break
                if self._delay > 0:
                    await asyncio.sleep(self._delay)
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.write_eof()

    async def _handle(self, client_reader, client_writer) -> None:
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                *self._target
            )
        except OSError:
            client_writer.close()
            return
        try:
            await asyncio.gather(
                self._pump(client_reader, upstream_writer),
                self._pump(upstream_reader, client_writer),
            )
        finally:
            for writer in (client_writer, upstream_writer):
                with contextlib.suppress(Exception):
                    writer.close()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "SlowLinkProxy":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()


def kill_hard(process) -> None:
    """SIGKILL a subprocess mid-operation (no cleanup handlers run).

    Accepts anything with a ``pid`` (``subprocess.Popen``,
    ``multiprocessing.Process``) or a bare pid.  The crash primitive
    behind client mid-spool kills: the process gets no chance to flush,
    commit, or say goodbye.
    """
    pid = getattr(process, "pid", process)
    if pid is None:
        return
    with contextlib.suppress(ProcessLookupError, OSError):
        os.kill(int(pid), signal.SIGKILL)
