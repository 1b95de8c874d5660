"""Pluggable kernel backends for the library's bit-level hot loops.

The decode-side cost of the reproduction concentrates in a handful of
array kernels: the OLH support-count scan (``O(N * 2^d)``, the ``InpOLH``
bottleneck) and the popcount/parity folds behind the Hadamard machinery.
This module makes those kernels *swappable*: every implementation is a
:class:`KernelBackend` registered by name, and callers pick one through
:func:`resolve_backend` — explicit argument first, then the
``REPRO_KERNEL_BACKEND`` environment variable, then the process-wide
default (:func:`set_default_backend`), then an automatic choice.

Three backends ship:

* ``numpy`` — the reference-conformant blocked numpy implementation (the
  exact kernels proven against their references by the property suite).
* ``threaded`` — the same numpy kernels fanned out over a thread pool.
  numpy releases the GIL inside its ufunc loops, so user-partitioned
  support counting and chunked popcount/parity scale with cores while
  staying bit-for-bit identical (integer partial sums add exactly).
* ``native`` — the threaded fan-out with a compiled work unit: the whole
  hash-and-compare chain of the support-count scan fused into one C loop
  (``_olh_scan.c``), built once per machine with the system C compiler
  into a private per-user cache and loaded through :mod:`ctypes` (which
  releases the GIL) at import, so forked collectors inherit the mapping.
  It is the automatic choice whenever it loaded; without a compiler, or
  with a failed build or an unusable cache, the automatic choice logs one
  warning and falls back to ``threaded``/``numpy``.

Every backend computes *identical* integer support counts — backend
choice is a pure performance knob and is treated exactly like
``decode_batch_size`` by the protocol layer (excluded from equality and
merge-signature comparisons).

This module is self-contained on purpose (numpy + exceptions only): it
*owns* the splitmix64 avalanche and the SWAR popcount so that both
``repro.core.bitops`` and ``repro.mechanisms.local_hashing`` can import
from here without circular imports.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..observability import get_registry, trace
from .exceptions import ProtocolConfigurationError

__all__ = [
    "BACKEND_ENV_VAR",
    "HAS_BITWISE_COUNT",
    "KernelBackend",
    "NumpyBackend",
    "ThreadedBackend",
    "NativeBackend",
    "registered_backends",
    "get_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
    "fold_buckets",
]

_logger = logging.getLogger(__name__)

#: Environment variable consulted by :func:`resolve_backend` when no
#: explicit backend name is passed.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Whether this numpy ships the hardware-popcount ufunc (numpy >= 2.0).
HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


# --------------------------------------------------------------------- #
# shared scalar kernels (single definitions; everything imports these)

#: The (value, seed) pair is mixed as ``value + seed * _SEED_MIX`` before
#: the avalanche, so decode loops can hoist the per-seed term out of their
#: domain scans.
_SEED_MIX = np.uint64(0x9E3779B97F4A7C15)


def _avalanche(
    mixed: np.ndarray, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """The seed-independent splitmix64 finaliser (in-place on ``mixed``).

    The single definition of the OLH hash's bit mixing, shared by the
    client-side encoder and every backend's support-count scan — the two
    must agree exactly or support counts degrade to noise.  Every step
    writes into ``mixed`` or ``scratch`` (a same-shape ``uint64`` buffer,
    allocated here when not given), so a caller looping over blocks
    allocates nothing per block.
    """
    if scratch is None:
        scratch = np.empty_like(mixed)
    with np.errstate(over="ignore"):
        np.right_shift(mixed, np.uint64(30), out=scratch)
        mixed ^= scratch
        mixed *= np.uint64(0xBF58476D1CE4E5B9)
        np.right_shift(mixed, np.uint64(27), out=scratch)
        mixed ^= scratch
        mixed *= np.uint64(0x94D049BB133111EB)
        np.right_shift(mixed, np.uint64(31), out=scratch)
        mixed ^= scratch
    return mixed


def fold_buckets(
    mixed: np.ndarray, num_buckets: int, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """Reduce avalanched ``uint64`` words onto ``[0, num_buckets)`` in place.

    For a power-of-two bucket count (the common case: the variance-optimal
    ``g = floor(e^eps) + 1`` is 4 for the paper's ``eps = ln 3``) the
    modulo is a bit mask: ``x & (g - 1) == x % g`` for unsigned ``x``.
    Any other ``g`` (``g = 21`` at ``eps = 3``, the heavy-hitter oracle)
    folds as ``x - (x // g) * g``: numpy divides by a scalar with a
    multiply-and-shift, where the vectorised ``%`` runs a hardware divide
    per element, so this is 2.5-3x faster and equal to ``x % g``
    exactly (``(x // g) * g <= x``, nothing wraps).  ``scratch`` is an
    optional same-shape ``uint64`` buffer for the quotient.  Both the
    client-side hash and every backend fold through this one helper so
    they cannot drift apart.
    """
    buckets = int(num_buckets)
    if buckets & (buckets - 1) == 0:
        mixed &= np.uint64(buckets - 1)
        return mixed
    divisor = np.uint64(buckets)
    if scratch is None:
        scratch = np.empty_like(mixed)
    np.floor_divide(mixed, divisor, out=scratch)
    scratch *= divisor
    mixed -= scratch
    return mixed


# SWAR (SIMD-within-a-register) popcount constants for 64-bit words.
_SWAR_M1 = np.uint64(0x5555555555555555)
_SWAR_M2 = np.uint64(0x3333333333333333)
_SWAR_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_SWAR_H01 = np.uint64(0x0101010101010101)


def _popcount_swar(words: np.ndarray) -> np.ndarray:
    """Branch-free popcount of a ``uint64`` array in five vector passes.

    The classic parallel bit-count: fold adjacent 1-, 2- and 4-bit fields
    into byte-wise counts, then sum the eight bytes with one overflowing
    multiply.  Used when :data:`HAS_BITWISE_COUNT` is false.
    """
    x = words.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & _SWAR_M1
    x = (x & _SWAR_M2) + ((x >> np.uint64(2)) & _SWAR_M2)
    x = (x + (x >> np.uint64(4))) & _SWAR_M4
    with np.errstate(over="ignore"):
        x *= _SWAR_H01
    return (x >> np.uint64(56)).astype(np.int64)


#: Target element count of one (user block x domain block) tile of the
#: support-count scan.  48K ``uint64`` words are 384 KiB, so the work,
#: scratch and match buffers together (about 0.8 MiB) stay inside a 2 MiB
#: per-core L2 through every pass over the tile.  Also keeps a tile's user
#: rows below 2^16, so per-column match counts fit a ``uint16``.
_SCAN_TILE_ELEMENTS = 3 << 14


def _scan_operands(
    seeds: np.ndarray, noisy_buckets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``uint64`` (hoisted seed offsets, targets) every scan consumes."""
    with np.errstate(over="ignore"):
        offsets = seeds.astype(np.uint64) * _SEED_MIX
    return offsets, noisy_buckets.astype(np.uint64)


# --------------------------------------------------------------------- #
# backends


class KernelBackend:
    """One implementation of the library's array hot-loop kernels.

    All methods receive pre-validated inputs (the public entry points in
    ``bitops``/``local_hashing`` own coercion and shape checks) and must
    return results bit-for-bit identical to :class:`NumpyBackend`.
    """

    #: Registry key; also what ``REPRO_KERNEL_BACKEND`` selects.
    name: str = "abstract"

    def popcount(self, words: np.ndarray) -> np.ndarray:
        """Set-bit count of a ``uint64`` array, as ``int64``."""
        raise NotImplementedError

    def parity(self, words: np.ndarray) -> np.ndarray:
        """Set-bit parity (0/1) of a ``uint64`` array, as ``int64``."""
        raise NotImplementedError

    def support_counts(
        self,
        seeds: np.ndarray,
        noisy_buckets: np.ndarray,
        domain_size: int,
        num_buckets: int,
        batch_size: int,
    ) -> np.ndarray:
        """OLH per-element support counts as an ``int64`` array.

        ``support[x]`` is the number of users whose noisy bucket equals
        their hash of ``x`` — an exact integer count, so any partition of
        the users (blocks, threads, processes) sums to the same result.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyBackend(KernelBackend):
    """The reference-conformant blocked numpy kernels (the default)."""

    name = "numpy"

    def popcount(self, words: np.ndarray) -> np.ndarray:
        if HAS_BITWISE_COUNT:
            return np.bitwise_count(words).astype(np.int64)
        return _popcount_swar(words)

    def parity(self, words: np.ndarray) -> np.ndarray:
        x = words
        for shift in (32, 16, 8, 4, 2, 1):
            x = x ^ (x >> np.uint64(shift))
        return (x & np.uint64(1)).astype(np.int64)

    def support_counts(
        self, seeds, noisy_buckets, domain_size, num_buckets, batch_size
    ) -> np.ndarray:
        with trace.span("kernel.support_counts") as span:
            span.annotate(backend=self.name, users=int(seeds.shape[0]))
            return self._scan(
                *_scan_operands(seeds, noisy_buckets),
                domain_size,
                num_buckets,
                batch_size,
            )

    @staticmethod
    def _scan(offsets, targets, domain_size, num_buckets, batch_size):
        """The cache-fitted scan over (domain blocks x user blocks) tiles.

        A domain block is at most ``batch_size`` elements wide; a user
        block holds as many users as fill :data:`_SCAN_TILE_ELEMENTS` at
        that real width, so every tile fits in L2 whatever the width.  The
        ``uint64`` work and scratch buffers, the match buffer and the
        per-column counter are allocated once per call and every pass
        writes into them.  Offsets and targets are broadcast into the
        scratch buffer with ``np.copyto`` so the add and the compare run
        over contiguous operands.  Also the per-thread work unit of
        :class:`ThreadedBackend`.
        """
        num_users = offsets.shape[0]
        support = np.zeros(domain_size, dtype=np.int64)
        width = min(batch_size, domain_size)
        user_block = max(1, min(num_users, _SCAN_TILE_ELEMENTS // width))
        tile = user_block * width
        work = np.empty(tile, dtype=np.uint64)
        scratch = np.empty(tile, dtype=np.uint64)
        matches = np.empty(tile, dtype=np.bool_)
        counts = np.empty(width, dtype=np.uint16)
        with np.errstate(over="ignore"):
            for dstart in range(0, domain_size, width):
                dstop = min(dstart + width, domain_size)
                columns = dstop - dstart
                candidates = np.arange(dstart, dstop, dtype=np.uint64)
                for ustart in range(0, num_users, user_block):
                    ustop = min(ustart + user_block, num_users)
                    shape = (ustop - ustart, columns)
                    size = shape[0] * columns
                    mixed = work[:size].reshape(shape)
                    spare = scratch[:size].reshape(shape)
                    hits = matches[:size].reshape(shape)
                    np.copyto(spare, offsets[ustart:ustop, None])
                    np.add(spare, candidates, out=mixed)
                    _avalanche(mixed, spare)
                    fold_buckets(mixed, num_buckets, spare)
                    np.copyto(spare, targets[ustart:ustop, None])
                    np.equal(mixed, spare, out=hits)
                    np.add.reduce(
                        hits.view(np.uint8),
                        axis=0,
                        dtype=np.uint16,
                        out=counts[:columns],
                    )
                    support[dstart:dstop] += counts[:columns]
        return support


class ThreadedBackend(KernelBackend):
    """The numpy kernels fanned out over a shared thread pool.

    Support counts partition the *users* across workers: each thread runs
    the full-domain blocked scan over its user slice and the ``int64``
    partials are summed — exact, because integer addition is associative
    and commutative.  popcount/parity chunk the input array the same way.
    Small inputs (below :attr:`min_work_elements` total work) skip the
    pool entirely; thread fan-out costs more than it saves there.

    A forked child inherits the pool object but none of its threads, so
    work submitted to it would wait forever; every instance drops its pool
    in the child (``os.register_at_fork``) and the child starts its own.
    """

    name = "threaded"

    #: Minimum total work (elements touched) before threads pay off.
    min_work_elements = 1 << 21

    def __init__(self, max_workers: Optional[int] = None):
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._numpy = NumpyBackend()
        _THREADED_BACKENDS.add(self)

    @property
    def workers(self) -> int:
        return self._max_workers or min(8, os.cpu_count() or 1)

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-kernel"
            )
        return self._pool

    def _slices(self, total: int) -> Tuple[slice, ...]:
        workers = min(self.workers, total)
        step = -(-total // workers)
        return tuple(
            slice(start, min(start + step, total))
            for start in range(0, total, step)
        )

    def popcount(self, words: np.ndarray) -> np.ndarray:
        if words.size < self.min_work_elements or words.ndim != 1:
            return self._numpy.popcount(words)
        parts = self._executor().map(
            lambda part: self._numpy.popcount(part),
            [words[chunk] for chunk in self._slices(words.shape[0])],
        )
        return np.concatenate(list(parts))

    def parity(self, words: np.ndarray) -> np.ndarray:
        if words.size < self.min_work_elements or words.ndim != 1:
            return self._numpy.parity(words)
        parts = self._executor().map(
            lambda part: self._numpy.parity(part),
            [words[chunk] for chunk in self._slices(words.shape[0])],
        )
        return np.concatenate(list(parts))

    #: The per-thread work unit: ``(offsets, targets, domain_size,
    #: num_buckets, batch_size) -> int64 support`` over one user slice.
    _scan = staticmethod(NumpyBackend._scan)

    def support_counts(
        self, seeds, noisy_buckets, domain_size, num_buckets, batch_size
    ) -> np.ndarray:
        num_users = seeds.shape[0]
        with trace.span("kernel.support_counts") as span:
            span.annotate(backend=self.name, users=int(num_users))
            offsets, targets = _scan_operands(seeds, noisy_buckets)
            if (
                num_users * domain_size < self.min_work_elements
                or num_users < 2
                or self.workers < 2
            ):
                return self._scan(
                    offsets, targets, domain_size, num_buckets, batch_size
                )
            partials = self._executor().map(
                lambda chunk: self._scan(
                    offsets[chunk],
                    targets[chunk],
                    domain_size,
                    num_buckets,
                    batch_size,
                ),
                self._slices(num_users),
            )
            support = np.zeros(domain_size, dtype=np.int64)
            for partial in partials:
                support += partial
            return support


class NativeBackend(ThreadedBackend):
    """The threaded fan-out with the fused C scan as its work unit.

    Same pool, user slices, :attr:`min_work_elements` and fork hook as
    :class:`ThreadedBackend`; each slice runs ``_olh_scan.c`` — add,
    avalanche, bucket fold, compare and count in one loop per (user,
    element) instead of numpy's separate passes over a tile — and yields
    the same integer counts.  ``scan`` is the loaded C function (see
    :func:`_load_native_scan`); popcount/parity stay numpy.
    """

    name = "native"

    def __init__(self, scan: Callable, max_workers: Optional[int] = None):
        super().__init__(max_workers)
        self._native_scan = scan

    def _scan(self, offsets, targets, domain_size, num_buckets, batch_size):
        offsets = np.ascontiguousarray(offsets, dtype=np.uint64)
        targets = np.ascontiguousarray(targets, dtype=np.uint64)
        if offsets.shape != targets.shape or offsets.ndim != 1 or batch_size < 1:
            raise ValueError(
                "native scan needs equal 1-D offsets and targets and a "
                "decode batch size >= 1"
            )
        support = np.zeros(domain_size, dtype=np.int64)
        self._native_scan(
            offsets.ctypes.data,
            targets.ctypes.data,
            offsets.shape[0],
            domain_size,
            num_buckets,
            batch_size,
            support.ctypes.data,
        )
        return support


_THREADED_BACKENDS: "weakref.WeakSet[ThreadedBackend]" = weakref.WeakSet()


def _drop_inherited_pools() -> None:
    for backend in _THREADED_BACKENDS:
        backend._pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_inherited_pools)


# --------------------------------------------------------------------- #
# the native scan: build once per machine, load at import

_NATIVE_SOURCE = Path(__file__).with_name("_olh_scan.c")
_NATIVE_FLAGS = ("-O3", "-shared", "-fPIC")
#: A cached library ends in the SHA-256 of everything before it (the ELF
#: loader ignores trailing bytes), so a truncated file is rebuilt.
_TRAILER_BYTES = hashlib.sha256().digest_size


def _native_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``), created ``0700``.

    Refuses a directory this user does not own or that group or others
    can write: anyone who can write it could swap the library loaded here.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    directory = Path(base) / "repro"
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = directory.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise OSError(
            f"{directory} is not owned by this user or is writable by group "
            f"or others"
        )
    return directory


def _compiler() -> Tuple[str, bytes]:
    """The system C compiler's path and its ``--version`` banner."""
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    banner = subprocess.run(
        [compiler, "--version"], capture_output=True, check=True, timeout=30
    ).stdout
    return compiler, banner


def _sealed(path: Path) -> bool:
    """Whether ``path`` holds a complete library with a valid trailer."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    body, trailer = data[:-_TRAILER_BYTES], data[-_TRAILER_BYTES:]
    return bool(body) and hashlib.sha256(body).digest() == trailer


def _build(compiler: str, target: Path) -> None:
    """Compile the scan into ``target``: temp name, trailer, ``os.replace``,
    so processes building the same library at once each install a whole
    file."""
    handle, temp = tempfile.mkstemp(
        dir=target.parent, prefix=".build-", suffix=".so"
    )
    os.close(handle)
    try:
        subprocess.run(
            [compiler, *_NATIVE_FLAGS, "-o", temp, str(_NATIVE_SOURCE)],
            capture_output=True,
            check=True,
            timeout=120,
        )
        with open(temp, "r+b") as library:
            library.write(hashlib.sha256(library.read()).digest())
        os.replace(temp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise


def _load_native_scan() -> Callable:
    """The fused scan's C entry point, built into the cache on first use.

    The cached file is named by the SHA-256 of the source, the flags, the
    compiler's version banner and the machine, so any change to one of
    them builds afresh.  Raises ``OSError``/``SubprocessError`` when there
    is no compiler, the build fails or the cache is unusable.
    """
    compiler, banner = _compiler()
    key = hashlib.sha256(
        b"\0".join(
            (
                _NATIVE_SOURCE.read_bytes(),
                " ".join(_NATIVE_FLAGS).encode(),
                banner,
                platform.machine().encode(),
            )
        )
    ).hexdigest()
    path = _native_cache_dir() / f"olh_scan-{key[:32]}.so"
    if not _sealed(path):
        _build(compiler, path)
    scan = ctypes.CDLL(str(path)).repro_olh_support_counts
    scan.restype = None
    scan.argtypes = (
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_uint64,
        ctypes.c_int64,
        ctypes.c_void_p,
    )
    return scan


# --------------------------------------------------------------------- #
# registry and selection

_BACKENDS: Dict[str, KernelBackend] = {}
_DEFAULT_OVERRIDE: Optional[str] = None
_WARNED: set = set()

_DISPATCH_COUNTER = None


def _count_dispatch(backend_name: str) -> None:
    """One resolved kernel dispatch, labelled by the backend that won."""
    global _DISPATCH_COUNTER
    if _DISPATCH_COUNTER is None:
        _DISPATCH_COUNTER = get_registry().counter(
            "repro_kernel_dispatch_total",
            "Kernel-backend resolutions, by winning backend.",
            labels=("backend",),
        )
    _DISPATCH_COUNTER.labels(backend=backend_name).inc()


def _register(backend: KernelBackend) -> KernelBackend:
    _BACKENDS[backend.name] = backend
    return backend


_register(NumpyBackend())
_register(ThreadedBackend())


def _install_native() -> Optional[str]:
    """Load the native scan and register ``native``; never raises.

    Returns ``None`` when it loaded, else why not (``native`` is then left
    unregistered).  The reason goes into the one warning
    :func:`_auto_backend` logs when it first falls back, not into a
    warning here, at import, before a program has set up its logging.
    """
    try:
        scan = _load_native_scan()
    except (OSError, subprocess.SubprocessError, AttributeError) as error:
        _BACKENDS.pop(NativeBackend.name, None)
        output = getattr(error, "stderr", None)
        detail = output.decode(errors="replace").strip() if output else ""
        return f"{error}: {detail.splitlines()[-1]}" if detail else str(error)
    _register(NativeBackend(scan))
    return None


#: Loaded here, at import, so that processes forked later (the collectors)
#: inherit the mapped library and pay neither the build nor the load.
_NATIVE_FAILURE = _install_native()


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name (sorted)."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> KernelBackend:
    """The backend registered under ``name`` (which must exist)."""
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ProtocolConfigurationError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{list(registered_backends())}"
        )
    return backend


def _auto_backend() -> KernelBackend:
    native = _BACKENDS.get(NativeBackend.name)
    if native is not None:
        return native
    if _NATIVE_FAILURE is not None:
        _warn_once(
            NativeBackend.name,
            f"native OLH support-count scan unavailable ({_NATIVE_FAILURE}); "
            f"falling back to the numpy kernels",
        )
    if (os.cpu_count() or 1) > 1:
        return _BACKENDS["threaded"]
    return _BACKENDS["numpy"]


def _warn_once(name: str, message: str) -> None:
    if name not in _WARNED:
        _WARNED.add(name)
        _logger.warning(message)


def resolve_backend(name: str = "") -> KernelBackend:
    """Pick the kernel backend for one call.

    Selection order: the explicit ``name`` argument (a protocol's
    ``kernel_backend`` tuning option), then the ``REPRO_KERNEL_BACKEND``
    environment variable, then the process-wide default installed by
    :func:`set_default_backend`, then automatic (``native`` when it
    loaded, else ``threaded`` on multi-core hosts, ``numpy`` otherwise).
    ``"auto"`` at any level selects the automatic choice; an unknown name
    (``native`` too, where it did not load) logs a warning (once per name)
    and falls through to the next level instead of failing — backend
    choice must never break an aggregation.
    """
    candidates = (
        (name, "requested"),
        (os.environ.get(BACKEND_ENV_VAR, ""), f"${BACKEND_ENV_VAR}"),
        (_DEFAULT_OVERRIDE or "", "default"),
    )
    for candidate, source in candidates:
        if not candidate:
            continue
        if candidate == "auto":
            backend = _auto_backend()
            _count_dispatch(backend.name)
            return backend
        backend = _BACKENDS.get(candidate)
        if backend is None:
            _warn_once(
                candidate,
                f"unknown kernel backend {candidate!r} ({source}); known "
                f"backends: {list(registered_backends())} — falling back",
            )
            continue
        _count_dispatch(backend.name)
        return backend
    backend = _auto_backend()
    _count_dispatch(backend.name)
    return backend


def set_default_backend(name: Optional[str]) -> None:
    """Install a process-wide default backend (``None``/``""`` clears it).

    The name must be registered (``"auto"`` is allowed).
    """
    global _DEFAULT_OVERRIDE
    if not name:
        _DEFAULT_OVERRIDE = None
        return
    if name != "auto" and name not in _BACKENDS:
        raise ProtocolConfigurationError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{list(registered_backends())}"
        )
    _DEFAULT_OVERRIDE = name


@contextmanager
def use_backend(name: str):
    """Temporarily install ``name`` as the process-wide default backend."""
    global _DEFAULT_OVERRIDE
    previous = _DEFAULT_OVERRIDE
    set_default_backend(name)
    try:
        yield resolve_backend()
    finally:
        _DEFAULT_OVERRIDE = previous
