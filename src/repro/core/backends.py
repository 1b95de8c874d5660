"""The kernel backends for the library's bit-level hot loops.

The decode-side cost of the reproduction concentrates in a handful of
array kernels: the OLH support-count scan (``O(N * 2^d)``, the ``InpOLH``
bottleneck) and the popcount/parity folds behind the Hadamard machinery.
Each implementation is a :class:`KernelBackend`; which one runs is a fact
about the machine, fixed at import and returned by
:func:`resolve_backend`.  Two ship, in this order of preference:

* ``native`` — the whole hash-and-compare chain of the support-count scan
  fused into one C loop (``_olh_scan.c``), built once per machine with
  the system C compiler into a private per-user cache and loaded through
  :mod:`ctypes` at import, so forked collectors inherit the mapping.  The
  library carries x86-64-v4 (AVX-512), avx2 and default clones of every
  entry point, and the loader runs the widest the CPU supports
  (:func:`native_clone` names it).  It runs whenever it loaded; without
  a compiler, or with a failed build or an unusable cache, the first
  :func:`resolve_backend` call logs one warning and ``numpy`` runs
  instead.
* ``numpy`` — the reference-conformant blocked numpy implementation (the
  exact kernels proven against their references by the property suite).

Every kernel runs on the thread that calls it: parallelism belongs to
processes (collectors, ``ProcessExecutor``), never to a kernel call.

Besides the one-domain scan, every backend answers
:meth:`KernelBackend.support_counts_levels`, which counts all prefix
levels of a heavy-hitter batch at once: ``native`` in one C call,
``numpy`` through the base class's loop over the levels.

Every backend computes *identical* integer support counts, so the choice
changes only speed, never an estimate, a checkpoint or a spec.

This module is self-contained on purpose (numpy + observability only): it
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
from contextlib import suppress
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..observability import get_registry, trace

__all__ = [
    "HAS_BITWISE_COUNT",
    "KernelBackend",
    "NumpyBackend",
    "NativeBackend",
    "native_clone",
    "resolve_backend",
    "fold_buckets",
]

_logger = logging.getLogger(__name__)

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

    #: The label of ``repro_kernel_dispatch_total`` and of the
    #: ``kernel.support_counts`` span.
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
        the users (blocks, batches, processes) sums to the same result.
        """
        with trace.span("kernel.support_counts") as span:
            span.annotate(backend=self.name, users=int(seeds.shape[0]))
            return self._support_counts(
                seeds, noisy_buckets, domain_size, num_buckets, batch_size
            )

    def support_counts_levels(
        self,
        levels: np.ndarray,
        pairs: np.ndarray,
        domains: np.ndarray,
        num_buckets: int,
        batch_size: int,
    ) -> np.ndarray:
        """The support counts of every prefix level of a heavy-hitter batch.

        User ``i`` sits on level ``levels[i]`` (which must lie in
        ``[0, len(domains))``) and reports the ``int64`` pair
        ``pairs[i] = (seed, noisy bucket)``.  Returns one ``int64`` array
        of ``sum(domains)`` counts: level ``l``'s ``domains[l]`` counts,
        equal to :meth:`support_counts` over that level's users, follow
        level ``l - 1``'s.  One ``kernel.support_counts`` span covers all
        the levels.
        """
        with trace.span("kernel.support_counts") as span:
            span.annotate(backend=self.name, users=int(levels.shape[0]))
            return self._support_counts_levels(
                levels, pairs, domains, num_buckets, batch_size
            )

    def _support_counts(
        self, seeds, noisy_buckets, domain_size, num_buckets, batch_size
    ) -> np.ndarray:
        """:meth:`support_counts` without its span."""
        raise NotImplementedError

    def _support_counts_levels(
        self, levels, pairs, domains, num_buckets, batch_size
    ) -> np.ndarray:
        """:meth:`support_counts_levels` without its span: one one-domain
        count per level, over that level's users."""
        counts = []
        for level, domain_size in enumerate(domains):
            members = pairs[levels == level]
            counts.append(
                self._support_counts(
                    members[:, 0],
                    members[:, 1],
                    int(domain_size),
                    num_buckets,
                    batch_size,
                )
            )
        return np.concatenate(counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyBackend(KernelBackend):
    """The reference-conformant blocked numpy kernels."""

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

    def _support_counts(
        self, seeds, noisy_buckets, domain_size, num_buckets, batch_size
    ) -> np.ndarray:
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
        over contiguous operands.
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


class NativeBackend(NumpyBackend):
    """The fused C scan: one library call per support count.

    ``_olh_scan.c`` runs add, avalanche, bucket fold, compare and count in
    one loop per (user, element) instead of numpy's separate passes over a
    tile, and yields the same integer counts.  A heavy-hitter batch's
    levels take one call, which also sorts the users by level and hoists
    the seed products.  ``library`` is the loaded scan (see
    :func:`_load_native_library`); popcount/parity are
    :class:`NumpyBackend`'s.
    """

    name = "native"

    def __init__(self, library: ctypes.CDLL):
        self._library = library

    @property
    def clone(self) -> str:
        """The clone the loader dispatches to on this CPU."""
        return self._library.repro_olh_clone().decode()

    def _scan(self, offsets, targets, domain_size, num_buckets, batch_size):
        offsets = np.ascontiguousarray(offsets, dtype=np.uint64)
        targets = np.ascontiguousarray(targets, dtype=np.uint64)
        if offsets.shape != targets.shape or offsets.ndim != 1 or batch_size < 1:
            raise ValueError(
                "native scan needs equal 1-D offsets and targets and a "
                "decode batch size >= 1"
            )
        support = np.zeros(domain_size, dtype=np.int64)
        self._library.repro_olh_support_counts(
            offsets.ctypes.data,
            targets.ctypes.data,
            offsets.shape[0],
            domain_size,
            num_buckets,
            batch_size,
            support.ctypes.data,
        )
        return support

    def _support_counts_levels(
        self, levels, pairs, domains, num_buckets, batch_size
    ) -> np.ndarray:
        levels = np.ascontiguousarray(levels, dtype=np.int64)
        pairs = np.ascontiguousarray(pairs, dtype=np.int64)
        domains = np.ascontiguousarray(domains, dtype=np.int64)
        num_users = levels.shape[0]
        if (
            levels.ndim != 1
            or pairs.shape != (num_users, 2)
            or domains.ndim != 1
            or (domains.size and domains.min() < 0)
            or batch_size < 1
        ):
            raise ValueError(
                "native level scan needs 1-D levels, one (seed, bucket) "
                "pair per user, non-negative 1-D domains and a decode "
                "batch size >= 1"
            )
        support = np.zeros(int(domains.sum()), dtype=np.int64)
        status = self._library.repro_olh_support_counts_levels(
            levels.ctypes.data,
            pairs.ctypes.data,
            num_users,
            domains.shape[0],
            domains.ctypes.data,
            num_buckets,
            batch_size,
            support.ctypes.data,
        )
        if status == _NATIVE_BAD_LEVEL:
            raise ValueError(
                f"report levels must lie in [0, {domains.shape[0]})"
            )
        if status == _NATIVE_NO_MEMORY:
            raise MemoryError("native level scan could not allocate")
        return support


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


#: ``repro_olh_support_counts_levels``'s failure codes.
_NATIVE_BAD_LEVEL = 1
_NATIVE_NO_MEMORY = 2


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the C signatures of the scan library's entry points."""
    pointer, i64, u64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
    scan = library.repro_olh_support_counts
    scan.restype = None
    scan.argtypes = (pointer, pointer, i64, i64, u64, i64, pointer)
    levels = library.repro_olh_support_counts_levels
    levels.restype = ctypes.c_int
    levels.argtypes = (pointer, pointer, i64, i64, pointer, u64, i64, pointer)
    clone = library.repro_olh_clone
    clone.restype = ctypes.c_char_p
    clone.argtypes = ()
    return library


def _load_native_library() -> ctypes.CDLL:
    """The fused scan's C library, built into the cache on first use.

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
    return _bind(ctypes.CDLL(str(path)))


# --------------------------------------------------------------------- #
# the machine's backend


def _machine_backend() -> Tuple[KernelBackend, Optional[str]]:
    """This machine's backend and, when ``native`` did not load, the
    warning that says why.

    Never raises, and logs nothing: :func:`resolve_backend` logs the
    warning at its first call, not here, at import, before a program has
    set up its logging.
    """
    try:
        return NativeBackend(_load_native_library()), None
    except (OSError, subprocess.SubprocessError, AttributeError) as error:
        output = getattr(error, "stderr", None)
        detail = output.decode(errors="replace").strip() if output else ""
        reason = f"{error}: {detail.splitlines()[-1]}" if detail else str(error)
    warning = (
        f"native OLH support-count scan unavailable ({reason}); falling "
        f"back to the numpy kernels"
    )
    return NumpyBackend(), warning


#: Chosen here, at import, so that processes forked later (the collectors)
#: inherit the mapped library and pay neither the build nor the load.
#: The warning is cleared once logged.
_BACKEND, _FALLBACK_WARNING = _machine_backend()

_DISPATCH_COUNTER = None


def native_clone() -> Optional[str]:
    """The native scan's clone this CPU runs (``"x86-64-v4"``, ``"avx2"``
    or ``"default"``), or ``None`` when ``native`` did not load."""
    if isinstance(_BACKEND, NativeBackend):
        return _BACKEND.clone
    return None


def resolve_backend() -> KernelBackend:
    """This machine's kernel backend, counted as one dispatch.

    ``native`` when the C scan loaded, else ``numpy``.  On a fallback, the
    first call logs why ``native`` did not load.
    """
    global _DISPATCH_COUNTER, _FALLBACK_WARNING
    if _FALLBACK_WARNING is not None:
        _logger.warning(_FALLBACK_WARNING)
        _FALLBACK_WARNING = None
    if _DISPATCH_COUNTER is None:
        _DISPATCH_COUNTER = get_registry().counter(
            "repro_kernel_dispatch_total",
            "Kernel dispatches, by backend.",
            labels=("backend",),
        )
    _DISPATCH_COUNTER.labels(backend=_BACKEND.name).inc()
    return _BACKEND
