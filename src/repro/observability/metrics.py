"""Dependency-free metrics core with mergeable snapshots.

Three instrument families — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — each optionally labelled, registered in a
process-local :class:`MetricsRegistry`.  A registry can be frozen into a
:class:`MetricsSnapshot` at any time; snapshots obey the same merge
algebra as the protocol accumulators (``state_dict`` round trips, an
associative and commutative :meth:`MetricsSnapshot.merge`), which is what
lets the multi-process collector fold per-worker metrics exactly like
per-worker checkpoints and the fan-in tree roll up a whole topology.

Merge semantics are additive across the board: counters and histogram
buckets sum, and gauges sum too — a deliberate restriction to *additive*
gauges (active connections, reports per shard) so the merge stays
associative.  A non-additive fact (a state) is modelled as one 0/1
gauge per state, which sums into a fleet-wide count.

Enablement is one module-level boolean, resolved once from the
``REPRO_METRICS`` environment variable (anything but ``off``, ``0``,
``false``, ``no``, ``disabled`` means on) and flippable at runtime via
:func:`set_enabled`.  Every mutator checks it first, so a disabled
process pays one predictable branch per call site — no clock reads, no
dict updates, and never any rng interaction.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_BUCKETS",
    "get_registry",
    "metrics_enabled",
    "set_enabled",
]

#: Latency-shaped default histogram buckets (seconds), Prometheus-style.
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

_DISABLED_VALUES = frozenset({"off", "0", "false", "no", "disabled"})


class _State:
    __slots__ = ("enabled",)

    def __init__(self) -> None:
        raw = os.environ.get("REPRO_METRICS", "on")
        self.enabled = raw.strip().lower() not in _DISABLED_VALUES


_STATE = _State()


def metrics_enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _STATE.enabled


def set_enabled(flag: bool) -> None:
    """Flip instrumentation on or off process-wide (tests, benchmarks)."""
    _STATE.enabled = bool(flag)


def _label_values(
    family: "_Family", labels: Mapping[str, str]
) -> Tuple[str, ...]:
    # Hot path: pull values in declared order and let a missing name
    # raise, instead of building two sets per call just to compare keys.
    try:
        values = tuple(str(labels[name]) for name in family.label_names)
    except KeyError:
        values = None
    if values is None or len(labels) != len(family.label_names):
        raise ValueError(
            f"metric {family.name!r} takes labels "
            f"{sorted(family.label_names)}, got {sorted(labels)}"
        )
    return values


class _Family:
    """Shared machinery: a named instrument plus its labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._default = None
        self._lock = threading.Lock()

    def labels(self, **labels: str):
        """The child series for one label-value combination (created lazily)."""
        key = _label_values(self, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def _default_child(self):
        child = self._default
        if child is None:
            if self.label_names:
                raise ValueError(
                    f"metric {self.name!r} is labelled "
                    f"{sorted(self.label_names)}; call .labels(...) first"
                )
            child = self._default = self.labels()
        return child

    def _series(self) -> List[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return list(self._children.items())


class _CounterChild:
    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.enabled:
            return
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Counter(_Family):
    """A monotonically increasing sum (events, reports, bytes)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _GaugeChild:
    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Family):
    """A settable level.  Merges by *sum*, so model additive quantities
    (depths, active counts, 0/1 state flags) — not arbitrary readings."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _HistogramChild:
    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, bounds: Tuple[float, ...]):
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if not _STATE.enabled:
            return
        # Buckets are sorted upper bounds; bisect_left finds the first
        # bound >= value, which is exactly Prometheus ``le`` semantics
        # (falling past the end lands in the trailing +Inf bucket).
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    @property
    def bucket_counts(self) -> List[int]:
        return list(self._counts)


class Histogram(_Family):
    """A bucketed distribution (latencies, sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, label_names)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} buckets must be non-empty, sorted, "
                f"and distinct, got {list(buckets)}"
            )
        self.buckets = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def sum(self) -> float:
        return self._default_child().sum

    @property
    def count(self) -> int:
        return self._default_child().count


_FAMILY_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Process-local home for metric families.

    Getter methods are idempotent: asking twice for the same name with a
    compatible signature returns the same family, a conflicting signature
    raises — so far-apart call sites can share series without plumbing
    objects through every constructor.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help: str, labels: Sequence[str], **extra):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, labels, **extra)
                self._families[name] = family
                return family
        if not isinstance(family, cls):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested {cls.kind}"
            )
        if tuple(labels) != family.label_names:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{list(family.label_names)}, requested {list(labels)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> "MetricsSnapshot":
        """Freeze every series into a mergeable, serializable snapshot."""
        data: Dict[str, Any] = {}
        for family in self.families():
            series = []
            for key, child in family._series():
                if family.kind == "histogram":
                    value: Any = {
                        "counts": child.bucket_counts,
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    value = child.value
                series.append([list(key), value])
            entry: Dict[str, Any] = {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": series,
            }
            if family.kind == "histogram":
                entry["buckets"] = list(family.buckets)
            data[family.name] = entry
        return MetricsSnapshot(data)


class MetricsSnapshot:
    """An immutable point-in-time copy of a registry's series.

    Follows the accumulator contract: :meth:`state_dict` /
    :meth:`from_state_dict` round-trip through JSON, and :meth:`merge` is
    associative and commutative (counters, gauges, and histogram buckets
    all sum), so snapshots from workers, collectors, and whole subtrees
    combine in any grouping to the same totals.
    """

    def __init__(self, families: Dict[str, Any]):
        self._families = families

    @property
    def families(self) -> Dict[str, Any]:
        return self._families

    def state_dict(self) -> Dict[str, Any]:
        return {"format": "repro-metrics/v1", "families": self._families}

    def to_json(self) -> str:
        return json.dumps(self.state_dict(), sort_keys=True)

    @classmethod
    def from_state_dict(cls, state: Mapping[str, Any]) -> "MetricsSnapshot":
        if state.get("format") != "repro-metrics/v1":
            raise ValueError(
                "not a metrics snapshot: expected format 'repro-metrics/v1', "
                f"got {state.get('format')!r}"
            )
        families = state.get("families")
        if not isinstance(families, dict):
            raise ValueError("metrics snapshot 'families' must be an object")
        return cls(json.loads(json.dumps(families)))

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        return cls.from_state_dict(json.loads(text))

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls({})

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[Any]:
        """One series' value (histograms: the ``counts/sum/count`` dict)."""
        entry = self._families.get(name)
        if entry is None:
            return None
        wanted = [str(labels.get(label, "")) for label in entry["labels"]] if labels else []
        for key, value in entry["series"]:
            if list(key) == wanted:
                return value
        return None

    def total(self, name: str) -> float:
        """Sum of one counter/gauge family across all label combinations."""
        entry = self._families.get(name)
        if entry is None:
            return 0.0
        if entry["type"] == "histogram":
            return float(sum(value["count"] for _, value in entry["series"]))
        return float(sum(value for _, value in entry["series"]))

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots additively into a new one."""
        merged = json.loads(json.dumps(self._families))
        for name, entry in other._families.items():
            mine = merged.get(name)
            if mine is None:
                merged[name] = json.loads(json.dumps(entry))
                continue
            if mine["type"] != entry["type"]:
                raise ValueError(
                    f"cannot merge metric {name!r}: {mine['type']} vs "
                    f"{entry['type']}"
                )
            if mine["labels"] != entry["labels"]:
                raise ValueError(
                    f"cannot merge metric {name!r}: labels {mine['labels']} "
                    f"vs {entry['labels']}"
                )
            if mine["type"] == "histogram" and mine.get("buckets") != entry.get(
                "buckets"
            ):
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket bounds differ"
                )
            series = {tuple(key): value for key, value in mine["series"]}
            for key, value in entry["series"]:
                key = tuple(key)
                current = series.get(key)
                if current is None:
                    series[key] = json.loads(json.dumps(value))
                elif mine["type"] == "histogram":
                    series[key] = {
                        "counts": [
                            a + b
                            for a, b in zip(current["counts"], value["counts"])
                        ],
                        "sum": current["sum"] + value["sum"],
                        "count": current["count"] + value["count"],
                    }
                else:
                    series[key] = current + value
            mine["series"] = [
                [list(key), value] for key, value in sorted(series.items())
            ]
        return MetricsSnapshot(merged)

    @classmethod
    def merge_all(
        cls, snapshots: Iterable["MetricsSnapshot"]
    ) -> "MetricsSnapshot":
        merged = cls.empty()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __repr__(self) -> str:
        return f"MetricsSnapshot({len(self._families)} families)"


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (deep instrumentation lands here)."""
    return _DEFAULT_REGISTRY
