"""Name-based construction of executors, mirroring the protocol registry.

The experiment harness and the CLI refer to execution backends by short
names (``"serial"``, ``"process"``); this module maps those
names to the implementing classes and provides the two factories the rest of
the library uses: :func:`make_executor` for explicit construction and
:func:`resolve_executor` for APIs that accept an executor *or* a name *or*
nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type, Union

from ..core.exceptions import ExecutionError
from .base import Executor
from .process import ProcessExecutor
from .serial import SerialExecutor

__all__ = [
    "EXECUTOR_CLASSES",
    "ExecutorLike",
    "available_executors",
    "make_executor",
    "resolve_executor",
]

#: All executor classes keyed by their backend name.
EXECUTOR_CLASSES: Dict[str, Type[Executor]] = {
    cls.name: cls for cls in (SerialExecutor, ProcessExecutor)
}

#: What APIs taking an optional executor accept: nothing (serial), a backend
#: name, or a ready-made instance.
ExecutorLike = Union[None, str, Executor]


def available_executors() -> List[str]:
    """Names of every registered execution backend."""
    return sorted(EXECUTOR_CLASSES)


def make_executor(name: str, workers: int = 1, **options) -> Executor:
    """Instantiate an execution backend by name.

    ``options`` are forwarded to the backend constructor (e.g.
    ``start_method="spawn"`` for the process backend).
    """
    try:
        cls = EXECUTOR_CLASSES[name]
    except KeyError:
        raise ExecutionError(
            f"unknown executor {name!r}; available: {available_executors()}"
        ) from None
    return cls(workers=workers, **options)


def resolve_executor(executor: ExecutorLike) -> Executor:
    """Coerce ``None``, a backend name or an instance into an executor.

    A bare name resolves to a *single-worker* instance of that backend;
    callers wanting real fan-out build one with :func:`make_executor` and
    pass the instance.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, str):
        return make_executor(executor)
    if isinstance(executor, Executor):
        return executor
    raise ExecutionError(
        f"expected an executor, a backend name or None, got {executor!r}"
    )
