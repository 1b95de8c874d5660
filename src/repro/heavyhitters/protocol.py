"""The ``HH`` protocol: LDP heavy-hitter discovery over frequency oracles.

Full-domain frequency oracles (``InpOLH``, ``InpHT``, ``InpHTCMS``) estimate
every cell of ``{0,1}^d`` but drown rare cells in noise; heavy-hitter
discovery only needs the *frequent* cells, which a prefix tree finds with
far better signal.  ``HH`` partitions the population across
``L = ceil(d / fanout)`` levels: a user on level ``l`` runs the configured
oracle over the prefix domain of their first ``b_l = min((l+1) * fanout, d)``
record bits.  Each user still sends exactly one report, so the whole
protocol is ``epsilon``-LDP with no composition — the cost is that each
level sees only ``~N/L`` users.

Aggregation keeps one inner oracle accumulator per level.  Every inner
update is an exact integer sum (OLH support counts, sampled-coefficient
bincounts, ±1 sign sums), so the per-level state inherits the library's
merge algebra unchanged: any batch/shard/socket/topology grouping of the
same reports finalizes bit-for-bit identically.  ``finalize`` reconstructs
each level's prefix distribution and returns a
:class:`~repro.heavyhitters.discovery.HeavyHitterEstimator` — a regular
full-domain :class:`~repro.protocols.base.DistributionEstimator` (built
from the last level, which covers all ``d`` bits) that additionally walks
the levels to :meth:`~repro.heavyhitters.discovery.HeavyHitterEstimator.discover`
the top-k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from ..core.backends import resolve_backend
from ..core.domain import Domain
from ..core.exceptions import (
    AggregationError,
    ProtocolConfigurationError,
)
from ..core.hadamard import coefficient_index_set
from ..core.marginals import MarginalWorkload
from ..core.privacy import PrivacyBudget
from ..core.rng import RngLike, ensure_rng
from ..mechanisms.local_hashing import DEFAULT_DECODE_BATCH_SIZE
from ..protocols.base import (
    Accumulator,
    MarginalReleaseProtocol,
    as_record_matrix,
    record_indices,
)
from ..protocols.inp_ht import InpHT, InpHTReports
from ..protocols.inp_htcms import InpHTCMS, InpHTCMSReports
from ..protocols.inp_olh import InpOLH, InpOLHReports
from ..protocols.wire import ReportField, WireCodableReports, register_report_schema
from .discovery import DiscoveryConfig, HeavyHitterEstimator

__all__ = ["HeavyHitters", "HeavyHitterReports", "HeavyHittersAccumulator"]

#: Per-oracle packed report layout: (int64 columns, float64 columns).
_REPORT_COLUMNS: Dict[str, Tuple[int, int]] = {
    "InpOLH": (2, 0),  # seeds, noisy_buckets
    "InpHT": (1, 1),  # choices | noisy_values
    "InpHTCMS": (2, 1),  # hash_indices, coefficient_indices | noisy_signs
}


@dataclass(frozen=True)
class HeavyHitterReports(WireCodableReports):
    """One encoded batch: each user's level plus their inner oracle report.

    ``levels[i]`` names the prefix level user ``i`` was partitioned onto;
    ``int_data[i]`` / ``float_data[i]`` pack that user's inner report
    columns (the layout per oracle is ``_REPORT_COLUMNS``; unused float
    columns are width 0, e.g. OLH reports carry no float payload).
    """

    levels: np.ndarray
    int_data: np.ndarray
    float_data: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.levels.shape[0])


register_report_schema(
    "HH",
    HeavyHitterReports,
    fields=(
        ReportField("levels", np.int64),
        ReportField("int_data", np.int64, ndim=2),
        ReportField("float_data", np.float64, ndim=2, sign=True),
    ),
)


def _unpack_reports(oracle: str, ints: np.ndarray, floats: np.ndarray):
    """Rebuild the inner report batch an oracle accumulator expects."""
    if oracle == "InpOLH":
        return InpOLHReports(
            seeds=np.ascontiguousarray(ints[:, 0]),
            noisy_buckets=np.ascontiguousarray(ints[:, 1]),
        )
    if oracle == "InpHT":
        return InpHTReports(
            choices=np.ascontiguousarray(ints[:, 0]),
            noisy_values=np.ascontiguousarray(floats[:, 0]),
        )
    return InpHTCMSReports(
        hash_indices=np.ascontiguousarray(ints[:, 0]),
        coefficient_indices=np.ascontiguousarray(ints[:, 1]),
        noisy_signs=np.ascontiguousarray(floats[:, 0]),
    )


@functools.lru_cache(maxsize=64)
def _coefficient_table(plan: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Every InpHT level's coefficient set, concatenated in plan order, and
    each level's offset into it: level ``l``'s choice ``c`` samples
    ``table[offsets[l] + c]``."""
    sets = [coefficient_index_set(bits, bits) for bits in plan]
    table = np.concatenate(sets)
    offsets = np.cumsum([0] + [len(alphas) for alphas in sets[:-1]])
    table.flags.writeable = False
    offsets.flags.writeable = False
    return table, offsets


class HeavyHittersAccumulator(Accumulator):
    """One mergeable inner oracle accumulator per prefix level.

    State keys are namespaced ``level{l:02d}__{inner key}`` (including each
    level's ``num_reports``), so checkpoints carry the full per-level
    partition and a restored accumulator finalizes identically.
    """

    def __init__(
        self,
        workload: MarginalWorkload,
        level_bits: Tuple[int, ...],
        inner: Tuple[Accumulator, ...],
        oracle: str,
        config: DiscoveryConfig,
    ):
        super().__init__(workload)
        self._level_bits = tuple(level_bits)
        self._inner = tuple(inner)
        self._oracle_name = oracle
        self._config = config
        # Each level's prefix-domain size, for the OLH level scan.
        self._domains = np.array([1 << bits for bits in level_bits], np.int64)

    def _ingest(self, reports: HeavyHitterReports) -> None:
        levels = np.asarray(reports.levels, dtype=np.int64)
        int_data = np.asarray(reports.int_data, dtype=np.int64)
        float_data = np.asarray(reports.float_data, dtype=np.float64)
        num_levels = len(self._inner)
        if (
            levels.ndim != 1
            or int_data.ndim != 2
            or float_data.ndim != 2
            or not levels.shape[0] == int_data.shape[0] == float_data.shape[0]
        ):
            raise AggregationError(
                f"HH reports need one level, one int row and one float row "
                f"per user, got shapes {levels.shape}, {int_data.shape} and "
                f"{float_data.shape}"
            )
        if levels.size and (levels.min() < 0 or levels.max() >= num_levels):
            raise AggregationError(
                f"report levels must lie in [0, {num_levels})"
            )
        int_columns, float_columns = _REPORT_COLUMNS[self._oracle_name]
        if int_data.shape[1] != int_columns or float_data.shape[1] != float_columns:
            raise AggregationError(
                f"HH/{self._oracle_name} reports must pack "
                f"({int_columns} int, {float_columns} float) columns, got "
                f"({int_data.shape[1]}, {float_data.shape[1]})"
            )
        if not levels.size:
            return
        if self._oracle_name == "InpOLH":
            self._ingest_olh(levels, int_data)
            return
        for index, accumulator in enumerate(self._inner):
            members = levels == index
            if not members.any():
                continue
            accumulator.update(
                _unpack_reports(
                    self._oracle_name, int_data[members], float_data[members]
                )
            )

    def _ingest_olh(self, levels: np.ndarray, pairs: np.ndarray) -> None:
        """Every level's OLH support counts from one backend call (the
        levels share g)."""
        support = resolve_backend().support_counts_levels(
            levels,
            pairs,
            self._domains,
            self._inner[0].oracle.num_buckets,
            DEFAULT_DECODE_BATCH_SIZE,
        )
        members = np.bincount(levels, minlength=len(self._inner))
        counts = np.split(support, np.cumsum(self._domains)[:-1])
        for accumulator, users, level in zip(self._inner, members, counts):
            accumulator.add_support(level, int(users))

    def _absorb(self, other: "HeavyHittersAccumulator") -> None:
        for mine, theirs in zip(self._inner, other._inner):
            mine.merge(theirs)

    def _export_state(self):
        state = {}
        for index, accumulator in enumerate(self._inner):
            for key, value in accumulator.state_dict().items():
                state[f"level{index:02d}__{key}"] = value
        return state

    def _import_state(self, state: Mapping[str, object]) -> None:
        remaining = dict(state)
        for index, accumulator in enumerate(self._inner):
            prefix = f"level{index:02d}__"
            inner_state = {}
            for key in list(remaining):
                if key.startswith(prefix):
                    inner_state[key[len(prefix):]] = remaining.pop(key)
            accumulator.load_state(inner_state)
        if remaining:
            raise AggregationError(
                f"accumulator state has unexpected fields "
                f"{sorted(remaining)}"
            )

    def _merge_signature(self):
        return (
            self._oracle_name,
            self._level_bits,
            tuple(accumulator._merge_signature() for accumulator in self._inner),
        )

    def __repr__(self) -> str:
        # The registry name is "HH", not the class-name-derived default.
        return (
            f"{type(self).__name__}(protocol='HH', d={self.domain.dimension}, "
            f"k={self._workload.max_width}, num_reports={self._num_reports})"
        )

    def finalize(self) -> HeavyHitterEstimator:
        self._require_reports()
        distributions = []
        for bits, accumulator in zip(self._level_bits, self._inner):
            if accumulator.num_reports == 0:
                # A level nobody reported to estimates nothing; discovery
                # sees an infinite threshold there and falls back to its
                # keep-the-top rule instead of trusting these zeros.
                distributions.append(np.zeros(1 << bits, dtype=np.float64))
                continue
            estimator = accumulator.finalize()
            full_mask = (1 << bits) - 1
            distributions.append(
                np.asarray(estimator.query(full_mask).values, dtype=np.float64)
            )
        return HeavyHitterEstimator(
            self._workload,
            self._level_bits,
            distributions,
            tuple(accumulator.num_reports for accumulator in self._inner),
            self._config,
        )


class HeavyHitters(MarginalReleaseProtocol):
    """Prefix-tree heavy-hitter discovery as a registry protocol family.

    ``oracle`` picks the per-level frequency oracle (``InpOLH``, ``InpHT``
    or ``InpHTCMS``); ``fanout`` sets how many new prefix bits each level
    adds; ``threshold`` is the pruning bar (``0`` = adaptive, each level
    prunes at its oracle's confidence half-width) and ``top_k`` how many
    hitters :meth:`HeavyHitterEstimator.discover` emits by default.
    ``num_buckets`` forwards to the OLH oracle and ``num_hashes``/``width``
    to the HCMS sketch, mirroring those protocols' own options.
    """

    name = "HH"

    def __init__(
        self,
        budget: PrivacyBudget,
        max_width: int,
        oracle: str = "InpOLH",
        fanout: int = 2,
        threshold: float = 0.0,
        top_k: int = 8,
        num_buckets: int = 0,
        num_hashes: int = 5,
        width: int = 256,
    ):
        super().__init__(budget, max_width)
        oracle = str(oracle)
        if oracle not in _REPORT_COLUMNS:
            raise ProtocolConfigurationError(
                f"unknown heavy-hitter oracle {oracle!r}; expected one of "
                f"{sorted(_REPORT_COLUMNS)}"
            )
        fanout = int(fanout)
        if fanout < 1:
            raise ProtocolConfigurationError(
                f"level fanout must be >= 1 prefix bit, got {fanout}"
            )
        threshold = float(threshold)
        if not 0.0 <= threshold < 1.0:
            raise ProtocolConfigurationError(
                f"pruning threshold must lie in [0, 1), got {threshold}"
            )
        top_k = int(top_k)
        if top_k < 1:
            raise ProtocolConfigurationError(
                f"top-k must be >= 1, got {top_k}"
            )
        self._oracle_name = oracle
        self._fanout = fanout
        self._threshold = threshold
        self._top_k = top_k
        self._num_buckets = int(num_buckets)
        self._num_hashes = int(num_hashes)
        self._width = int(width)
        self._clients: Dict[Tuple[int, ...], tuple] = {}

    def spec_options(self):
        return {
            "oracle": self._oracle_name,
            "fanout": self._fanout,
            "threshold": self._threshold,
            "top_k": self._top_k,
            "num_buckets": self._num_buckets,
            "num_hashes": self._num_hashes,
            "width": self._width,
        }

    @property
    def oracle_name(self) -> str:
        return self._oracle_name

    @property
    def fanout(self) -> int:
        return self._fanout

    @property
    def top_k(self) -> int:
        return self._top_k

    def level_plan(self, dimension: int) -> Tuple[int, ...]:
        """Prefix bits covered by each level: ``min((l+1)*fanout, d)``."""
        if dimension < 1:
            raise ProtocolConfigurationError(
                f"dimension must be >= 1, got {dimension}"
            )
        plan = []
        bits = 0
        while bits < dimension:
            bits = min(bits + self._fanout, dimension)
            plan.append(bits)
        return tuple(plan)

    def discovery_config(self) -> DiscoveryConfig:
        return DiscoveryConfig(
            oracle=self._oracle_name,
            epsilon=self.epsilon,
            fanout=self._fanout,
            threshold=self._threshold,
            top_k=self._top_k,
            num_hashes=self._num_hashes,
            width=self._width,
        )

    def level_protocol(self, bits: int) -> MarginalReleaseProtocol:
        """The inner oracle protocol over a ``bits``-bit prefix domain.

        Built at ``max_width=bits`` so the full prefix joint is answerable
        (for ``InpHT`` that makes the coefficient set complete and the
        reconstruction exact in expectation).
        """
        if self._oracle_name == "InpOLH":
            return InpOLH(self.budget, bits, num_buckets=self._num_buckets)
        if self._oracle_name == "InpHT":
            return InpHT(self.budget, bits)
        return InpHTCMS(
            self.budget,
            bits,
            num_hashes=self._num_hashes,
            width=self._width,
        )

    def encode_batch(self, records, rng: RngLike = None) -> HeavyHitterReports:
        generator = ensure_rng(rng)
        records = as_record_matrix(records)
        users, dimension = records.shape
        plan = self.level_plan(dimension)
        int_columns, float_columns = _REPORT_COLUMNS[self._oracle_name]
        # One draw partitions the batch across levels; then each level, in
        # plan order, takes its users' draws from the same generator (no
        # draw depends on a record), and one apply perturbs the whole batch.
        # The reports are a deterministic function of (records, rng state),
        # so every shard/socket/topology invariance the pipeline proves
        # carries over.
        levels = generator.integers(0, len(plan), size=users)
        int_data = np.empty((users, int_columns), dtype=np.int64)
        float_data = np.empty((users, float_columns), dtype=np.float64)
        if users:
            # The batch grouped by level, in batch order within a level:
            # the order the draws come in.
            order = np.argsort(levels, kind="stable")
            bounds = np.cumsum(np.bincount(levels, minlength=len(plan)))
            prefixes, draws = self._draw(plan, records[order], bounds, generator)
            columns = self._apply(plan, levels[order], prefixes, draws)
            for column, values in enumerate(columns[:int_columns]):
                int_data[order, column] = values
            for column, values in enumerate(columns[int_columns:]):
                float_data[order, column] = values
        return HeavyHitterReports(
            levels=levels, int_data=int_data, float_data=float_data
        )

    def _draw(self, plan, grouped_records, bounds, generator):
        """Every level's prefix indices and draws, each concatenated in
        plan order.  Level ``l``'s users are rows ``bounds[l-1]:bounds[l]``
        of the grouped records, and their prefix indices are
        ``record_indices`` of their first ``plan[l]`` bits; a level refuses
        an out-of-range prefix before it draws, as its own oracle does."""
        prefixes, parts = [], []
        start = 0
        for bits, client, stop in zip(plan, self._level_clients(plan), bounds):
            if stop == start:
                continue
            prefix = record_indices(grouped_records[start:stop, :bits])
            size = int(stop - start)
            if self._oracle_name == "InpHT":
                parts.append(client.draw((1 << bits) - 1, size, generator))
            else:
                client.check_values(prefix)
                parts.append(client.draw(size, generator))
            prefixes.append(prefix)
            start = stop
        return (
            np.concatenate(prefixes),
            [np.concatenate(column) for column in zip(*parts)],
        )

    def _apply(self, plan, grouped_levels, prefixes, draws):
        """The report columns of the grouped batch, from one apply over
        every level.  The levels' oracles differ only in their domain (and
        InpHT's coefficient set), so the widest level's hashes and perturbs
        every prefix alike."""
        widest = self._level_clients(plan)[-1]
        if self._oracle_name == "InpHT":
            choices, uniforms = draws
            table, offsets = _coefficient_table(plan)
            alphas = table[offsets[grouped_levels] + choices]
            return choices, widest.apply(prefixes, alphas, uniforms)
        return widest.apply(prefixes, *draws)

    def _level_clients(self, plan: Tuple[int, ...]) -> tuple:
        """Each level's client, built once per plan: the OLH or HCMS oracle,
        or the InpHT protocol (whose draw and apply are the client step)."""
        clients = self._clients.get(plan)
        if clients is None:
            clients = [self.level_protocol(bits) for bits in plan]
            if self._oracle_name != "InpHT":
                clients = [
                    protocol.oracle(bits) for protocol, bits in zip(clients, plan)
                ]
            clients = self._clients[plan] = tuple(clients)
        return clients

    def accumulator(self, domain: Domain) -> HeavyHittersAccumulator:
        workload = self.workload_for(domain)
        plan = self.level_plan(domain.dimension)
        inner = tuple(
            self.level_protocol(bits).accumulator(Domain.binary(bits))
            for bits in plan
        )
        return HeavyHittersAccumulator(
            workload, plan, inner, self._oracle_name, self.discovery_config()
        )

    def report_bounds(self, dimension: int):
        """A level below the level count; each inner column below the bound
        of the widest level's oracle, which every level's bound is within
        (:meth:`_check_report_values` checks InpHT's choices per level)."""
        plan = self.level_plan(dimension)
        inner = self.level_protocol(plan[-1]).report_bounds(plan[-1])
        # The inner bounds come in the order the report columns are packed.
        return {
            "levels": (len(plan),),
            "int_data": tuple(bound for name in inner for bound in inner[name]),
            "float_data": (2,) * _REPORT_COLUMNS[self._oracle_name][1],
        }

    def _check_report_values(self, reports, dimension: int, error) -> None:
        """An InpHT oracle's choice must also index its own level's
        coefficient set, which is narrower than the widest level's bound
        :meth:`report_bounds` gives: level ``l`` runs InpHT at
        ``max_width`` = its prefix bits ``b``, so its set holds the
        ``2^b - 1`` nonzero coefficients.  (OLH's buckets and InpHTCMS's
        indices have one bound for every level.)
        """
        if self._oracle_name != "InpHT" or not reports.num_users:
            return
        plan = self.level_plan(dimension)
        sizes = np.array([(1 << bits) - 1 for bits in plan], dtype=np.int64)
        outside = reports.int_data[:, 0] >= sizes[reports.levels]
        if outside.any():
            user = int(outside.argmax())
            level = int(reports.levels[user])
            raise error(
                f"HH field 'int_data' holds InpHT choice "
                f"{int(reports.int_data[user, 0])} at level {level}, "
                f"outside the bound [0, {int(sizes[level])}) of that "
                f"level's coefficient set"
            )

    def communication_bits(self, dimension: int) -> int:
        """The level tag plus the final (widest) level's oracle report."""
        plan = self.level_plan(dimension)
        level_bits = max(1, (len(plan) - 1).bit_length())
        inner = self.level_protocol(plan[-1])
        return level_bits + inner.communication_bits(plan[-1])
