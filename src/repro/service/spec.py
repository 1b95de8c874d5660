"""Declarative, JSON-round-trippable protocol configurations.

A :class:`ProtocolSpec` is the out-of-band contract of the collection
service: the server publishes one, every client builds the identical
protocol from it (``spec.build()``), and any configuration disagreement is
caught as a *spec mismatch with a readable diff* instead of a deep
merge-signature error inside an accumulator.  The spec is a plain
dataclass — name, epsilon, workload width, per-protocol options — that
round-trips through ``to_dict``/``from_dict`` and ``to_json``/``from_json``
unchanged, so it can live in config files, HTTP headers or checkpoints.
"""

from __future__ import annotations

import inspect
import json
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from ..core.exceptions import ProtocolConfigurationError
from ..core.privacy import PrivacyBudget

__all__ = ["SPEC_FORMAT_VERSION", "ProtocolSpec"]

#: Version stamp carried by every serialized spec.  Bump on layout changes.
SPEC_FORMAT_VERSION = 1

_DICT_KEYS = frozenset({"format_version", "protocol", "epsilon", "max_width", "options"})


@dataclass(frozen=True)
class ProtocolSpec:
    """A complete, serializable description of one protocol configuration.

    Attributes
    ----------
    protocol:
        The paper name of the protocol (``"InpHT"``, ``"MargPS"``, ...).
    epsilon:
        The per-user privacy budget.
    max_width:
        The workload parameter ``k``.
    options:
        Extra constructor options (e.g. ``{"width": 512}`` for ``InpHTCMS``).

    The spec validates its own shape on construction; whether ``protocol``
    names a registered implementation (and whether ``options`` are accepted
    by it) is checked by :meth:`build`, so specs for unknown protocols can
    still be parsed, compared and diffed.
    """

    protocol: str
    epsilon: float
    max_width: int
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.protocol, str) or not self.protocol:
            raise ProtocolConfigurationError(
                f"spec protocol must be a non-empty string, got {self.protocol!r}"
            )
        try:
            epsilon = float(self.epsilon)
        except (TypeError, ValueError):
            raise ProtocolConfigurationError(
                f"spec epsilon must be a number, got {self.epsilon!r}"
            ) from None
        # PrivacyBudget owns the numeric validation (positive, finite).
        budget = PrivacyBudget(epsilon)
        object.__setattr__(self, "epsilon", budget.epsilon)
        if isinstance(self.max_width, bool):
            raise ProtocolConfigurationError(
                f"spec max_width must be an integer, got {self.max_width!r}"
            )
        try:
            max_width = operator.index(self.max_width)
        except TypeError:
            raise ProtocolConfigurationError(
                f"spec max_width must be an integer, got {self.max_width!r}"
            ) from None
        object.__setattr__(self, "max_width", max_width)
        if self.max_width < 1:
            raise ProtocolConfigurationError(
                f"spec max_width must be >= 1, got {self.max_width}"
            )
        if not isinstance(self.options, Mapping):
            raise ProtocolConfigurationError(
                f"spec options must be a mapping, got {type(self.options).__name__}"
            )
        options = dict(self.options)
        for key in options:
            if not isinstance(key, str):
                raise ProtocolConfigurationError(
                    f"spec option names must be strings, got {key!r}"
                )
        object.__setattr__(self, "options", options)

    @classmethod
    def from_protocol(cls, protocol) -> "ProtocolSpec":
        """The fully explicit spec of a live protocol instance.

        ``from_protocol(p).build()`` reconstructs a protocol configured
        identically to ``p``.  All of the protocol's options are spelled
        out, including ones left at their defaults.
        """
        return cls(
            protocol=protocol.name,
            epsilon=protocol.epsilon,
            max_width=protocol.max_width,
            options=protocol.spec_options(),
        )

    def build(self):
        """Instantiate the described protocol.

        Unknown protocol names and unknown constructor options raise
        :class:`~repro.core.exceptions.ProtocolConfigurationError` naming
        the protocol and the offending keys.
        """
        from ..protocols.registry import PROTOCOL_CLASSES, available_protocols

        try:
            protocol_class = PROTOCOL_CLASSES[self.protocol]
        except KeyError:
            raise ProtocolConfigurationError(
                f"unknown protocol {self.protocol!r}; available: "
                f"{available_protocols()}"
            ) from None
        accepted = self.accepted_options(protocol_class)
        unknown = sorted(set(self.options) - set(accepted))
        if unknown:
            raise ProtocolConfigurationError(
                f"protocol {self.protocol!r} does not accept the "
                f"option(s) {unknown}; valid options: {sorted(accepted)}"
            )
        budget = PrivacyBudget(self.epsilon)
        try:
            return protocol_class(budget, self.max_width, **self.options)
        except (TypeError, ValueError) as error:
            # Specs are often parsed from untrusted JSON; option values the
            # constructor cannot coerce must surface as configuration
            # errors, not raw tracebacks.
            raise ProtocolConfigurationError(
                f"protocol {self.protocol!r} rejected its options "
                f"{self.options!r}: {error}"
            ) from error

    def canonical(self) -> "ProtocolSpec":
        """The fully explicit equivalent of this spec.

        Options left at their defaults are spelled out (via
        :meth:`from_protocol` on the built instance), so two specs that
        build identically configured protocols have equal canonical forms —
        the comparison :meth:`AggregationSession.merge` relies on.
        """
        return ProtocolSpec.from_protocol(self.build())

    @staticmethod
    def accepted_options(protocol_class) -> List[str]:
        """Constructor keywords beyond the shared ``(budget, max_width)``.

        Public because it defines the ``options`` half of the machine-
        readable protocol listing (``repro list --json``) that external
        tooling validates configs against.
        """
        parameters = inspect.signature(protocol_class.__init__).parameters
        return [
            name
            for name, parameter in parameters.items()
            if name not in ("self", "budget", "max_width")
            and parameter.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        ]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-value form, stable under ``from_dict`` round trips."""
        return {
            "format_version": SPEC_FORMAT_VERSION,
            "protocol": self.protocol,
            "epsilon": self.epsilon,
            "max_width": self.max_width,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProtocolSpec":
        """Parse a :meth:`to_dict` payload, rejecting malformed shapes."""
        if not isinstance(payload, Mapping):
            raise ProtocolConfigurationError(
                f"a protocol spec must be a mapping, got {type(payload).__name__}"
            )
        version = payload.get("format_version")
        if version != SPEC_FORMAT_VERSION:
            raise ProtocolConfigurationError(
                f"unsupported protocol-spec format version {version!r}; "
                f"this library speaks version {SPEC_FORMAT_VERSION}"
            )
        unexpected = sorted(set(payload) - _DICT_KEYS)
        if unexpected:
            raise ProtocolConfigurationError(
                f"protocol spec has unexpected field(s) {unexpected}; "
                f"expected {sorted(_DICT_KEYS)}"
            )
        missing = sorted(_DICT_KEYS - set(payload))
        if missing:
            raise ProtocolConfigurationError(
                f"protocol spec is missing field(s) {missing}"
            )
        max_width = payload["max_width"]
        if isinstance(max_width, float) and max_width.is_integer():
            max_width = int(max_width)
        return cls(
            protocol=payload["protocol"],
            epsilon=payload["epsilon"],
            max_width=max_width,
            options=payload["options"],
        )

    def to_json(self, indent: int = None) -> str:
        """Serialize to JSON (keys sorted, so equal specs serialize equally)."""
        try:
            return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        except (TypeError, ValueError) as error:
            raise ProtocolConfigurationError(
                f"protocol spec options are not JSON-serializable: {error}"
            ) from error

    @classmethod
    def from_json(cls, text: str) -> "ProtocolSpec":
        """Parse a :meth:`to_json` string."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ProtocolConfigurationError(
                f"protocol spec is not valid JSON: {error}"
            ) from error
        return cls.from_dict(payload)

    def diff(self, other: "ProtocolSpec") -> List[str]:
        """Readable, per-field differences against another spec.

        Empty when the specs agree; otherwise one line per disagreement,
        options compared key by key.  This is the message body of every
        spec-mismatch error in the service layer.
        """
        if not isinstance(other, ProtocolSpec):
            raise ProtocolConfigurationError(
                f"can only diff against another ProtocolSpec, "
                f"got {type(other).__name__}"
            )
        lines: List[str] = []
        if self.protocol != other.protocol:
            lines.append(f"protocol: {self.protocol!r} != {other.protocol!r}")
        if self.epsilon != other.epsilon:
            lines.append(f"epsilon: {self.epsilon!r} != {other.epsilon!r}")
        if self.max_width != other.max_width:
            lines.append(f"max_width: {self.max_width} != {other.max_width}")
        for key in sorted(set(self.options) | set(other.options)):
            if key not in self.options:
                lines.append(f"option {key!r}: absent != {other.options[key]!r}")
            elif key not in other.options:
                lines.append(f"option {key!r}: {self.options[key]!r} != absent")
            elif self.options[key] != other.options[key]:
                lines.append(
                    f"option {key!r}: {self.options[key]!r} != "
                    f"{other.options[key]!r}"
                )
        return lines

    def describe(self) -> str:
        """One-line human-readable summary (``InpHT(eps=1.099, k=2)``)."""
        details = [f"eps={self.epsilon:.4g}", f"k={self.max_width}"]
        details.extend(f"{key}={value!r}" for key, value in sorted(self.options.items()))
        return f"{self.protocol}({', '.join(details)})"
