"""Experiment configuration presets.

Every experiment module exposes a ``default_config(quick=...)`` built from
these dataclasses.  The ``paper`` presets use the parameter grids of the
corresponding figure/table in the paper; the ``quick`` presets shrink the
population sizes and repetition counts so the whole suite can regenerate in
minutes on a laptop (the *shape* of the results is preserved — error ratios
between methods are driven by d, k and eps, not by N alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.exceptions import ProtocolConfigurationError
from ..execution import available_executors
from ..service.spec import ProtocolSpec

__all__ = ["SweepConfig", "LN3"]

#: The paper's default privacy level, eps = ln 3 (~1.1).
LN3 = math.log(3.0)


@dataclass(frozen=True)
class SweepConfig:
    """A generic parameter sweep over (protocols x datasets x parameters).

    Attributes
    ----------
    protocols:
        Protocol names (see :mod:`repro.protocols.registry`).
    dataset:
        Which generator to use: ``"taxi"``, ``"movielens"``, ``"skewed"`` or
        ``"uniform"``.
    population_sizes:
        Values of N to sweep.
    dimensions:
        Values of d to sweep.
    widths:
        Values of the workload width k to sweep.
    epsilons:
        Values of the privacy parameter to sweep.
    repetitions:
        Number of independent repetitions per grid point (the paper uses 10).
    seed:
        Master seed for reproducibility.
    protocol_options:
        Extra keyword arguments per protocol name.
    batch_size:
        When set, protocols run through the streaming pipeline
        (:meth:`~repro.protocols.base.MarginalReleaseProtocol.run_streaming`)
        consuming the dataset in record batches of this size; ``None`` keeps
        the one-shot ``run()`` path.
    shards:
        Number of accumulator shards the streaming pipeline spreads batches
        over.  For a fixed seed the estimates depend only on ``batch_size``,
        never on ``shards``.
    executor:
        Execution backend evaluating the shards: ``"serial"`` (default)
        or ``"process"``.  Estimates are bit-for-bit identical across
        backends; only wall-clock time changes.
    workers:
        Worker count for the parallel backends; must stay 1 for the serial
        backend (extra workers could never run) and requires ``shards > 1``
        (parallelism is per-shard, so a single shard keeps extra workers
        idle).
    """

    protocols: Tuple[str, ...]
    dataset: str = "movielens"
    population_sizes: Tuple[int, ...] = (2**16,)
    dimensions: Tuple[int, ...] = (8,)
    widths: Tuple[int, ...] = (2,)
    epsilons: Tuple[float, ...] = (LN3,)
    repetitions: int = 3
    seed: int = 20180610
    protocol_options: Dict[str, Dict] = field(default_factory=dict)
    batch_size: Optional[int] = None
    shards: int = 1
    executor: str = "serial"
    workers: int = 1

    def __post_init__(self):
        if not self.protocols:
            raise ProtocolConfigurationError("a sweep needs at least one protocol")
        if self.repetitions < 1:
            raise ProtocolConfigurationError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ProtocolConfigurationError(
                f"batch size must be >= 1 or None, got {self.batch_size}"
            )
        if self.shards < 1:
            raise ProtocolConfigurationError(
                f"shard count must be >= 1, got {self.shards}"
            )
        if self.shards > 1 and self.batch_size is None:
            raise ProtocolConfigurationError(
                "shards > 1 requires a batch_size: without batching the whole "
                "dataset is one report batch and only one shard would be used"
            )
        if self.executor not in available_executors():
            raise ProtocolConfigurationError(
                f"unknown executor {self.executor!r}; "
                f"available: {available_executors()}"
            )
        if self.workers < 1:
            raise ProtocolConfigurationError(
                f"worker count must be >= 1, got {self.workers}"
            )
        if self.workers > 1 and self.executor == "serial":
            raise ProtocolConfigurationError(
                "workers > 1 has no effect with the serial executor; "
                "pick executor='process'"
            )
        if self.workers > 1 and self.shards < 2:
            raise ProtocolConfigurationError(
                "workers > 1 requires shards > 1: parallelism is per-shard, "
                "so extra workers would idle on a single shard"
            )
        if any(n < 1 for n in self.population_sizes):
            raise ProtocolConfigurationError("population sizes must be positive")
        if any(d < 1 for d in self.dimensions):
            raise ProtocolConfigurationError("dimensions must be positive")
        if any(k < 1 for k in self.widths):
            raise ProtocolConfigurationError("widths must be positive")
        if any(eps <= 0 for eps in self.epsilons):
            raise ProtocolConfigurationError("epsilons must be positive")

    def grid_size(self) -> int:
        """Number of (protocol, N, d, k, eps, repetition) cells in the sweep."""
        return (
            len(self.protocols)
            * len(self.population_sizes)
            * len(self.dimensions)
            * len(self.widths)
            * len(self.epsilons)
            * self.repetitions
        )

    @classmethod
    def from_specs(
        cls, specs: Iterable[ProtocolSpec], **overrides
    ) -> "SweepConfig":
        """Build a sweep from declarative :class:`ProtocolSpec` objects.

        Each spec contributes its protocol name and options; the specs'
        shared epsilon and max_width seed ``epsilons``/``widths``.  Because
        a sweep crosses protocols with every epsilon and width, the specs
        must agree on both unless the corresponding axis is overridden
        explicitly (``epsilons=...`` / ``widths=...``).  Any other
        :class:`SweepConfig` field can be overridden the same way.
        """
        specs = tuple(specs)
        if not specs:
            raise ProtocolConfigurationError("a sweep needs at least one spec")
        for spec in specs:
            if not isinstance(spec, ProtocolSpec):
                raise ProtocolConfigurationError(
                    f"from_specs expects ProtocolSpec objects, "
                    f"got {type(spec).__name__}"
                )
        names = [spec.protocol for spec in specs]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ProtocolConfigurationError(
                f"each protocol may appear in one spec only; "
                f"duplicated: {duplicates}"
            )
        if "epsilons" not in overrides:
            epsilons = {spec.epsilon for spec in specs}
            if len(epsilons) > 1:
                raise ProtocolConfigurationError(
                    "specs disagree on epsilon "
                    f"({sorted(epsilons)}); a sweep runs every protocol at "
                    "every epsilon, so pass an explicit epsilons=... override"
                )
            overrides["epsilons"] = (specs[0].epsilon,)
        if "widths" not in overrides:
            widths = {spec.max_width for spec in specs}
            if len(widths) > 1:
                raise ProtocolConfigurationError(
                    f"specs disagree on max_width ({sorted(widths)}); a sweep "
                    "runs every protocol at every width, so pass an explicit "
                    "widths=... override"
                )
            overrides["widths"] = (specs[0].max_width,)
        if "protocol_options" not in overrides:
            overrides["protocol_options"] = {
                spec.protocol: dict(spec.options) for spec in specs if spec.options
            }
        return cls(protocols=tuple(names), **overrides)

    def specs(self) -> List[ProtocolSpec]:
        """The sweep's (protocol, epsilon, width) grid as ProtocolSpecs.

        One spec per grid cell, in protocol-major order — the exact
        configurations :func:`~repro.experiments.harness.run_sweep` builds.
        """
        return [
            ProtocolSpec(
                protocol=name,
                epsilon=epsilon,
                max_width=width,
                options=self.protocol_options.get(name, {}),
            )
            for name in self.protocols
            for epsilon in self.epsilons
            for width in self.widths
        ]
