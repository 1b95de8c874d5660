"""Protocol and estimator interfaces shared by all marginal-release methods.

Every method in the paper follows the same life-cycle:

1. each user locally *perturbs* a view of their record (the client side),
2. the untrusted aggregator *aggregates* the reports into some global
   summary (a noisy full distribution, a set of Hadamard coefficients, or a
   collection of noisy marginals), and
3. any k-way marginal is *queried* on demand from that summary.

:class:`MarginalReleaseProtocol` exposes that life-cycle as a streaming
pipeline:

* :meth:`~MarginalReleaseProtocol.encode_batch` — the client side, perturbing
  a whole batch of records into a protocol-specific report batch with
  vectorised NumPy operations;
* :class:`Accumulator` — the aggregator side: per-shard mergeable state fed
  through ``update(reports)``, combined associatively with ``merge(other)``;
* :meth:`Accumulator.finalize` — produces the protocol's
  :class:`MarginalEstimator`, behind which step 3 happens on demand.

``run(dataset, rng)`` remains as a one-shot convenience wrapper over the
pipeline, and :meth:`~MarginalReleaseProtocol.run_streaming` drives the same
pipeline over record batches spread across any number of shards.  Three
concrete estimator kinds cover the design space:

* :class:`DistributionEstimator` — a reconstructed full distribution over
  ``{0,1}^d`` (``InpRR``, ``InpPS`` and the frequency-oracle baselines);
* :class:`CoefficientEstimator` — reconstructed low-order Hadamard
  coefficients (``InpHT``);
* :class:`PerMarginalEstimator` — directly reconstructed k-way marginal
  tables (``MargRR``, ``MargPS``, ``MargHT``).
"""

from __future__ import annotations

import abc
import logging
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..core import bitops
from ..core.domain import Domain
from ..core.exceptions import (
    AggregationError,
    MarginalQueryError,
    ProtocolConfigurationError,
)
from ..core.hadamard import marginal_from_scaled_coefficients
from ..core.marginals import MarginalTable, MarginalWorkload, marginal_operator
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng, spawn_rngs
from ..datasets.base import BinaryDataset, record_indices
from .wire import decode_reports

__all__ = [
    "MarginalEstimator",
    "DistributionEstimator",
    "CoefficientEstimator",
    "PerMarginalEstimator",
    "Accumulator",
    "MarginalReleaseProtocol",
    "as_record_matrix",
    "record_indices",
    "sampled_marginal_cells",
    "take_state_array",
]

_logger = logging.getLogger(__name__)


def take_state_array(
    state: Mapping[str, Any], key: str, shape, dtype
) -> np.ndarray:
    """Extract one validated array from an accumulator state dict.

    Shared by every accumulator's ``_import_state``: the field must be
    present and coerce to exactly the shape the freshly constructed
    accumulator expects, otherwise the state came from a differently
    configured protocol and loading it would corrupt the aggregation.
    """
    try:
        value = state[key]
    except KeyError:
        raise AggregationError(
            f"accumulator state is missing the field {key!r}"
        ) from None
    array = np.asarray(value, dtype=dtype)
    if array.shape != tuple(shape):
        raise AggregationError(
            f"accumulator state field {key!r} must have shape {tuple(shape)}, "
            f"got {array.shape}"
        )
    return array.copy()


def as_record_matrix(records) -> np.ndarray:
    """Coerce a :class:`BinaryDataset` or array-like into an ``(n, d)`` matrix.

    Client-side encoders accept either form so callers can stream raw record
    chunks without wrapping each one in a dataset object.
    """
    if isinstance(records, BinaryDataset):
        return records.records
    array = np.asarray(records)
    if array.ndim != 2:
        raise ProtocolConfigurationError(
            f"a record batch must be a 2-D (n, d) array, got shape {array.shape}"
        )
    return array


def sampled_marginal_cells(
    indices: np.ndarray, choices: np.ndarray, marginals: Sequence[int]
) -> np.ndarray:
    """Each user's compact cell within their sampled marginal.

    ``indices[i]`` is user ``i``'s one-hot position and ``choices[i]`` the
    position (into ``marginals``) of the k-way marginal that user sampled;
    the result is the user's cell index within that ``2^k``-cell table.
    """
    cells = np.empty(indices.shape[0], dtype=np.int64)
    for position, beta in enumerate(marginals):
        members = choices == position
        if members.any():
            cells[members] = bitops.compress_indices(indices[members] & beta, beta)
    return cells


class MarginalEstimator(abc.ABC):
    """Answers marginal queries from privately aggregated reports."""

    def __init__(self, workload: MarginalWorkload):
        self._workload = workload
        self._metadata: Dict[str, Any] = {}

    @property
    def workload(self) -> MarginalWorkload:
        """The set of marginals this estimator promises to answer."""
        return self._workload

    @property
    def metadata(self) -> Dict[str, Any]:
        """Provenance of the aggregation that produced this estimator.

        Populated by :meth:`MarginalReleaseProtocol.run_streaming` with the
        effective pipeline shape (``num_batches``, ``effective_shards``,
        executor backend, ...); empty for hand-driven accumulators.  The
        dict is live — drivers record into it after :meth:`finalize`.
        """
        return self._metadata

    @property
    def domain(self) -> Domain:
        return self._workload.domain

    @abc.abstractmethod
    def query(self, beta) -> MarginalTable:
        """Estimate the marginal identified by ``beta`` (mask or names)."""

    def query_all(self, width: Optional[int] = None) -> Dict[int, MarginalTable]:
        """Estimate every marginal in the workload (optionally of one width)."""
        return {beta: self.query(beta) for beta in self._workload.marginals(width)}

    def _validate(self, beta) -> int:
        mask = self.domain.mask_of(beta)
        return self._workload.validate(mask)


class DistributionEstimator(MarginalEstimator):
    """Marginals obtained by aggregating a reconstructed full distribution."""

    def __init__(self, workload: MarginalWorkload, distribution: np.ndarray):
        super().__init__(workload)
        distribution = np.asarray(distribution, dtype=np.float64)
        if distribution.shape != (workload.domain.size,):
            raise AggregationError(
                f"reconstructed distribution must have length "
                f"{workload.domain.size}, got shape {distribution.shape}"
            )
        self._distribution = distribution

    @property
    def distribution(self) -> np.ndarray:
        """The reconstructed (possibly non-normalised / signed) distribution."""
        return self._distribution

    def query(self, beta) -> MarginalTable:
        mask = self._validate(beta)
        return marginal_operator(self._distribution, mask, self.domain)


class CoefficientEstimator(MarginalEstimator):
    """Marginals reconstructed from estimated scaled Hadamard coefficients."""

    def __init__(self, workload: MarginalWorkload, coefficients: Mapping[int, float]):
        super().__init__(workload)
        self._coefficients: Dict[int, float] = {0: 1.0}
        for alpha, value in coefficients.items():
            self._coefficients[int(alpha)] = float(value)

    @property
    def coefficients(self) -> Dict[int, float]:
        """Estimated scaled coefficients ``alpha -> Theta[alpha]`` (0 included)."""
        return dict(self._coefficients)

    def coefficient(self, alpha: int) -> float:
        try:
            return self._coefficients[int(alpha)]
        except KeyError:
            raise MarginalQueryError(
                f"coefficient {alpha:#x} was not collected by this protocol"
            ) from None

    def query(self, beta) -> MarginalTable:
        mask = self._validate(beta)
        needed = {}
        for alpha in bitops.submasks(mask):
            needed[alpha] = self.coefficient(alpha)
        values = marginal_from_scaled_coefficients(mask, needed)
        return MarginalTable(self.domain, mask, values)


class PerMarginalEstimator(MarginalEstimator):
    """Marginals estimated table-by-table (the ``Marg*`` protocols).

    ``tables`` maps each width-``k`` marginal mask to its estimated cell
    vector.  Queries of width exactly ``k`` are answered directly; narrower
    queries are answered by marginalising every stored superset table and
    averaging (each is an unbiased estimate, so the average only reduces
    variance).
    """

    def __init__(self, workload: MarginalWorkload, tables: Mapping[int, np.ndarray]):
        super().__init__(workload)
        if not tables:
            raise AggregationError("per-marginal estimator needs at least one table")
        self._tables: Dict[int, np.ndarray] = {}
        width = None
        for beta, values in tables.items():
            beta = int(beta)
            values = np.asarray(values, dtype=np.float64)
            k = bitops.popcount(beta)
            if width is None:
                width = k
            elif k != width:
                raise AggregationError(
                    "all stored tables must cover the same number of attributes"
                )
            if values.shape != (1 << k,):
                raise AggregationError(
                    f"table for marginal {beta:#x} must have {1 << k} cells, "
                    f"got shape {values.shape}"
                )
            self._tables[beta] = values
        self._table_width = int(width)

    @property
    def table_width(self) -> int:
        """Width of the directly materialised marginals."""
        return self._table_width

    @property
    def tables(self) -> Dict[int, np.ndarray]:
        return dict(self._tables)

    def query(self, beta) -> MarginalTable:
        mask = self._validate(beta)
        if mask in self._tables:
            return MarginalTable(self.domain, mask, self._tables[mask])
        width = bitops.popcount(mask)
        if width > self._table_width:
            raise MarginalQueryError(
                f"marginal of width {width} exceeds the materialised width "
                f"{self._table_width}"
            )
        supersets = [
            stored for stored in self._tables if bitops.is_subset(mask, stored)
        ]
        if not supersets:
            raise MarginalQueryError(
                f"no materialised marginal covers {self.domain.names_of(mask)}"
            )
        estimates = []
        for stored in supersets:
            table = MarginalTable(self.domain, stored, self._tables[stored])
            estimates.append(table.marginalize(mask).values)
        return MarginalTable(self.domain, mask, np.mean(estimates, axis=0))


class Accumulator(abc.ABC):
    """Mergeable aggregation state for one protocol (the aggregator side).

    An accumulator ingests report batches produced by
    :meth:`MarginalReleaseProtocol.encode_batch` through :meth:`update`, can
    absorb the state of a peer accumulator (e.g. one per worker shard)
    through :meth:`merge`, and finalises into the protocol's
    :class:`MarginalEstimator`.  ``update`` and ``merge`` are associative and
    commutative: any shard/merge tree over the same report batches produces
    the same estimates as a single-pass aggregation.
    """

    def __init__(self, workload: MarginalWorkload):
        self._workload = workload
        self._num_reports = 0

    @property
    def workload(self) -> MarginalWorkload:
        return self._workload

    @property
    def domain(self) -> Domain:
        return self._workload.domain

    @property
    def num_reports(self) -> int:
        """Number of user reports folded in so far (including merges)."""
        return self._num_reports

    def update(self, reports) -> "Accumulator":
        """Fold one batch of client reports into this state; returns ``self``."""
        users = int(reports.num_users)
        if users < 0:
            raise AggregationError(f"report batch has negative size {users}")
        self._ingest(reports)
        self._num_reports += users
        return self

    def merge(self, other: "Accumulator") -> "Accumulator":
        """Absorb another shard's state into this one; returns ``self``.

        Both accumulators must come from identically configured protocols
        over the same workload.
        """
        if type(other) is not type(self):
            raise AggregationError(
                f"cannot merge a {type(other).__name__} into a "
                f"{type(self).__name__}"
            )
        if other._workload != self._workload:
            raise AggregationError(
                "cannot merge accumulators built over different workloads"
            )
        if other._merge_signature() != self._merge_signature():
            raise AggregationError(
                "cannot merge accumulators from differently configured "
                "protocols (mechanism parameters differ)"
            )
        self._absorb(other)
        self._num_reports += other._num_reports
        return self

    def state_dict(self) -> Dict[str, Any]:
        """Picklable snapshot of the aggregation state.

        The returned dict holds only plain values (NumPy arrays, ints) —
        the sufficient statistics plus ``"num_reports"`` — so worker
        processes can ship their shard's state back to the driver cheaply.
        The contract is asymmetric on purpose: the state carries *no*
        mechanism configuration, so it must only be restored (via
        :meth:`load_state`) into an accumulator built by the identically
        configured protocol — exactly what the process backend does.
        """
        state = self._export_state()
        state["num_reports"] = self._num_reports
        return state

    def load_state(self, state: Mapping[str, Any]) -> "Accumulator":
        """Restore a :meth:`state_dict` snapshot into this fresh accumulator.

        Refuses to overwrite an accumulator that has already seen reports;
        build a new one with ``protocol.accumulator(domain)`` instead.
        Returns ``self``.
        """
        if self._num_reports != 0:
            raise AggregationError(
                "load_state requires a fresh accumulator; this one has "
                f"already folded in {self._num_reports} reports"
            )
        data = dict(state)
        try:
            num_reports = int(data.pop("num_reports"))
        except KeyError:
            raise AggregationError(
                "accumulator state is missing the field 'num_reports'"
            ) from None
        if num_reports < 0:
            raise AggregationError(
                f"accumulator state has negative report count {num_reports}"
            )
        self._import_state(data)
        self._num_reports = num_reports
        return self

    @abc.abstractmethod
    def finalize(self) -> MarginalEstimator:
        """Produce the estimator from the accumulated reports."""

    @abc.abstractmethod
    def _ingest(self, reports) -> None:
        """Protocol-specific part of :meth:`update`."""

    @abc.abstractmethod
    def _export_state(self) -> Dict[str, Any]:
        """Protocol-specific part of :meth:`state_dict` (copies its arrays)."""

    @abc.abstractmethod
    def _import_state(self, state: Mapping[str, Any]) -> None:
        """Protocol-specific part of :meth:`load_state` (validates shapes)."""

    @abc.abstractmethod
    def _absorb(self, other: "Accumulator") -> None:
        """Protocol-specific part of :meth:`merge`."""

    @abc.abstractmethod
    def _merge_signature(self):
        """The mechanism configuration that must match for merging.

        De-biasing at :meth:`finalize` uses *this* accumulator's mechanism
        parameters, so merging state produced under different parameters
        (a different epsilon, sketch shape, hash range, ...) would silently
        bias the estimates; :meth:`merge` compares signatures to refuse it.
        """

    def _require_reports(self) -> int:
        if self._num_reports < 1:
            raise AggregationError(
                "cannot finalize an accumulator that has seen no reports"
            )
        return self._num_reports

    def __repr__(self) -> str:
        name = type(self).__name__
        protocol = name[: -len("Accumulator")] if name.endswith("Accumulator") else name
        return (
            f"{name}(protocol={protocol!r}, d={self.domain.dimension}, "
            f"k={self._workload.max_width}, num_reports={self._num_reports})"
        )


class MarginalReleaseProtocol(abc.ABC):
    """A complete marginal-release method under epsilon-LDP.

    Parameters
    ----------
    budget:
        The per-user privacy budget; each user's single report satisfies
        ``budget.epsilon``-LDP.
    max_width:
        The workload parameter ``k``: after collection, every marginal over
        at most ``k`` attributes can be answered.
    """

    #: Short machine-readable name matching the paper (e.g. ``"InpHT"``).
    name: str = "abstract"

    def __init__(self, budget: PrivacyBudget, max_width: int):
        if not isinstance(budget, PrivacyBudget):
            budget = PrivacyBudget(float(budget))
        if max_width < 1:
            raise ProtocolConfigurationError(
                f"max marginal width must be >= 1, got {max_width}"
            )
        self._budget = budget
        self._max_width = int(max_width)

    @property
    def budget(self) -> PrivacyBudget:
        return self._budget

    @property
    def epsilon(self) -> float:
        return self._budget.epsilon

    @property
    def max_width(self) -> int:
        return self._max_width

    def workload_for(self, domain: Domain) -> MarginalWorkload:
        if self._max_width > domain.dimension:
            raise ProtocolConfigurationError(
                f"workload width {self._max_width} exceeds the domain's "
                f"{domain.dimension} attributes"
            )
        return MarginalWorkload(domain, self._max_width)

    @abc.abstractmethod
    def encode_batch(self, records, rng: RngLike = None):
        """Client side: perturb a batch of records into a report batch.

        ``records`` is a :class:`BinaryDataset` or an ``(n, d)`` 0/1 array.
        The returned object is protocol-specific but always carries a
        ``num_users`` attribute; feed it to :meth:`Accumulator.update`.
        Perturbation is vectorised over the whole batch.
        """

    @abc.abstractmethod
    def accumulator(self, domain: Domain) -> Accumulator:
        """A fresh, empty aggregation state for this protocol over ``domain``."""

    def spec_options(self) -> Dict[str, Any]:
        """Constructor options beyond ``(budget, max_width)``.

        Protocols with extra knobs (``InpRR``'s probability variant,
        ``InpHTCMS``'s sketch shape, ...) override this so
        :meth:`spec` can describe the instance completely.
        """
        return {}

    def tuning_options(self) -> frozenset:
        """Names of :meth:`spec_options` that are pure performance knobs.

        These have no effect on the estimates, so spec comparisons that
        gate merging (e.g. ``AggregationSession.merge``) ignore them —
        collectors tuned for different hardware still combine.
        """
        return frozenset()

    def spec(self):
        """This instance's declarative :class:`~repro.service.ProtocolSpec`.

        The spec is JSON-round-trippable and ``spec().build()`` reconstructs
        an identically configured protocol, which is how configurations are
        agreed out-of-band between clients and an aggregation service.
        """
        from ..service.spec import ProtocolSpec

        return ProtocolSpec.from_protocol(self)

    def decode_reports(self, data):
        """Decode one wire frame of this protocol's reports (see ``to_bytes``).

        Validates the frame's magic/version/kind and every field's dtype and
        shape; a frame from a different protocol raises
        :class:`~repro.core.exceptions.WireFormatError` naming both kinds.
        """
        return decode_reports(data, expected_kind=self.name)

    def session(self, domain: Domain):
        """A fresh :class:`~repro.service.AggregationSession` over ``domain``.

        Convenience for the server side of the split deployment: the session
        wraps this protocol's accumulator with byte-level ``submit``,
        non-destructive ``snapshot`` and ``checkpoint``/``restore``.
        """
        from ..service.session import AggregationSession

        return AggregationSession(self.spec(), domain)

    def run(self, dataset: BinaryDataset, rng: RngLike = None) -> MarginalEstimator:
        """Simulate the whole protocol on a dataset and return the estimator.

        Compatibility wrapper over the streaming pipeline: the dataset is
        encoded as a single batch and aggregated by one accumulator.
        """
        return self.run_streaming(dataset, rng=rng)

    def run_streaming(
        self,
        dataset: BinaryDataset,
        rng: RngLike = None,
        batch_size: Optional[int] = None,
        shards: int = 1,
        executor=None,
    ) -> MarginalEstimator:
        """Run the protocol as a batched, shardable, parallelisable pipeline.

        The dataset is consumed in record batches of ``batch_size`` (the
        whole dataset when ``None``); each batch is encoded client-side and
        folded into one of ``shards`` accumulators round-robin, and the
        shards are merged before finalising.  Each batch perturbs with its
        own child generator spawned from ``rng``, so for a fixed seed the
        estimates depend only on ``batch_size`` — never on ``shards``, the
        execution backend or its worker count — which is what makes the
        aggregation embarrassingly parallel.  A single batch is encoded with
        the caller's generator directly, so ``run()`` is exactly the
        ``batch_size=None`` special case.

        ``executor`` selects who evaluates the shards: ``None`` (in-process
        serial, the default), a backend name (``"serial"``, ``"thread"``,
        ``"process"``) or a ready-made
        :class:`~repro.execution.Executor` instance.  A bare name builds a
        *single-worker* backend (execution semantics without parallelism);
        pass an instance — ``make_executor("process", workers=4)`` — to
        actually fan shards out.  Executors created here from a name are
        closed before returning; instances are left open for reuse.  ``shards`` beyond ``num_batches`` cannot receive any work
        and are dropped; the clamp is recorded in the returned estimator's
        :attr:`~MarginalEstimator.metadata` (``effective_shards``) and
        logged at DEBUG level.
        """
        from ..execution import Executor, ShardWork, resolve_executor

        if shards < 1:
            raise ProtocolConfigurationError(
                f"shard count must be >= 1, got {shards}"
            )
        owns_executor = not isinstance(executor, Executor)
        runner = resolve_executor(executor)
        try:
            generator = ensure_rng(rng)
            num_batches = dataset.num_batches(batch_size)
            if num_batches == 1:
                batch_rngs = [generator]
            else:
                batch_rngs = spawn_rngs(generator, num_batches)
            effective_shards = min(shards, num_batches)
            if effective_shards < shards:
                _logger.debug(
                    "%s.run_streaming: clamping %d shards to the %d "
                    "available batches",
                    self.name,
                    shards,
                    num_batches,
                )
            assignments: List[List] = [[] for _ in range(effective_shards)]
            for position, chunk in enumerate(dataset.iter_batches(batch_size)):
                assignments[position % effective_shards].append(
                    (chunk, batch_rngs[position])
                )
            works = [
                ShardWork(
                    protocol=self,
                    domain=dataset.domain,
                    batches=tuple(chunk for chunk, _ in assigned),
                    rngs=tuple(chunk_rng for _, chunk_rng in assigned),
                )
                for assigned in assignments
            ]
            accumulators = runner.run_shards(works)
            merged = accumulators[0]
            for other in accumulators[1:]:
                merged.merge(other)
            estimator = merged.finalize()
            estimator.metadata.update(
                {
                    "protocol": self.name,
                    "spec": self.spec().to_dict(),
                    "batch_size": batch_size,
                    "num_batches": num_batches,
                    "requested_shards": shards,
                    "effective_shards": effective_shards,
                    "executor": runner.name,
                    "workers": runner.workers,
                }
            )
            return estimator
        finally:
            if owns_executor:
                runner.close()

    @abc.abstractmethod
    def communication_bits(self, dimension: int) -> int:
        """Bits each user sends, as reported in Table 2 of the paper."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(epsilon={self.epsilon:.3f}, "
            f"k={self.max_width})"
        )
