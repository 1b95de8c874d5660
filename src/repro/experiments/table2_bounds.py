"""Table 2 — analytic communication and error bounds, and an empirical check.

The analytic half of this experiment simply evaluates the Table 2 expressions
at concrete (d, k).  The empirical half runs the six protocols once and
reports the *measured* communication per user — the bytes ``to_bytes()``
puts on the wire for ``FRAME_USERS``-user frames, header and CRC-32
amortised — beside the analytic bit counts, and the *measured* error, whose
ordering should follow the analytic error factors (the paper's headline
claim that the bounds predict practice).  :func:`wire_rows` measures the
same column for every registered protocol, heavy-hitter discovery included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.privacy import PrivacyBudget
from ..datasets.movielens import make_movielens_dataset
from ..protocols.registry import CORE_PROTOCOL_NAMES, available_protocols, make_protocol
from ..theory.bounds import communication_bits, error_exponent_factor
from .config import LN3
from .metrics import mean_total_variation
from .reporting import format_table

__all__ = [
    "FRAME_USERS",
    "Table2Config",
    "Table2Result",
    "default_config",
    "run",
    "render",
    "wire_bits_per_user",
    "wire_rows",
    "wire_markdown",
]

#: Users per wire frame when measuring the communication column (the
#: frame size the collection benchmark sends).
FRAME_USERS = 500


@dataclass(frozen=True)
class Table2Config:
    """Configuration of the Table 2 regeneration."""

    dimension: int = 8
    width: int = 2
    population: int = 2**15
    epsilon: float = LN3
    seed: int = 20180610


@dataclass(frozen=True)
class Table2Result:
    """Analytic bounds alongside one empirical measurement per method."""

    config: Table2Config
    rows: Tuple[Dict[str, object], ...]

    def row(self, method: str) -> Dict[str, object]:
        for entry in self.rows:
            if entry["method"] == method:
                return entry
        raise KeyError(method)


def default_config(quick: bool = True) -> Table2Config:
    return Table2Config(population=2**13 if quick else 2**18)


def run(config: Table2Config | None = None) -> Table2Result:
    """Evaluate the analytic bounds and measure one run of each protocol."""
    config = config or default_config()
    rng = np.random.default_rng(config.seed)
    dataset = make_movielens_dataset(config.population, d=config.dimension, rng=rng)
    budget = PrivacyBudget(config.epsilon)

    # The wire measurement draws from its own generator, so it leaves the
    # error measurement's random stream as it was.
    wire_rng = np.random.default_rng([config.seed, 1])
    rows: List[Dict[str, object]] = []
    for name in CORE_PROTOCOL_NAMES:
        protocol = make_protocol(name, budget, config.width)
        estimator = protocol.run(dataset, rng=rng)
        measured_error = mean_total_variation(dataset, estimator, widths=[config.width])
        rows.append(
            {
                "method": name,
                "comm_bits_analytic": communication_bits(
                    name, config.dimension, config.width
                ),
                "comm_bits_protocol": round(
                    wire_bits_per_user(protocol, dataset, wire_rng), 2
                ),
                "error_factor": round(
                    error_exponent_factor(name, config.dimension, config.width), 2
                ),
                "measured_mean_tv": round(measured_error, 4),
            }
        )
    return Table2Result(config=config, rows=tuple(rows))


def wire_bits_per_user(protocol, dataset, rng) -> float:
    """Bits per user ``to_bytes()`` sends for ``dataset`` in
    :data:`FRAME_USERS`-user frames, each frame's header and CRC-32
    amortised over its users."""
    total = sum(
        len(protocol.encode_batch(chunk, rng=rng).to_bytes())
        for chunk in dataset.iter_batches(FRAME_USERS)
    )
    return 8.0 * total / dataset.size


def wire_rows(config: Table2Config | None = None) -> List[Dict[str, object]]:
    """Measured wire bits per user for every registered protocol, beside
    Table 2's figure (the paper's six) and the protocol's own count."""
    config = config or default_config()
    rng = np.random.default_rng(config.seed)
    dataset = make_movielens_dataset(config.population, d=config.dimension, rng=rng)
    rows = []
    for name in available_protocols():
        protocol = make_protocol(name, PrivacyBudget(config.epsilon), config.width)
        rows.append(
            {
                "method": name,
                "wire_bits": round(wire_bits_per_user(protocol, dataset, rng), 2),
                "table2_bits": (
                    communication_bits(name, config.dimension, config.width)
                    if name in CORE_PROTOCOL_NAMES
                    else None
                ),
                "protocol_bits": protocol.communication_bits(config.dimension),
            }
        )
    return rows


def wire_markdown(config: Table2Config | None = None) -> str:
    """:func:`wire_rows` as a Markdown table (CI's job summary)."""
    config = config or default_config()
    lines = [
        f"### Wire bits per user (d={config.dimension}, k={config.width}, "
        f"{FRAME_USERS}-user frames)",
        "",
        "| protocol | wire bits/user | Table 2 | protocol's count |",
        "|---|---|---|---|",
    ]
    for row in wire_rows(config):
        table2 = "—" if row["table2_bits"] is None else row["table2_bits"]
        lines.append(
            f"| {row['method']} | {row['wire_bits']:.2f} | {table2} | "
            f"{row['protocol_bits']} |"
        )
    return "\n".join(lines)


def render(result: Table2Result) -> str:
    return format_table(
        list(result.rows),
        title=(
            f"Table 2: bounds and one measurement "
            f"(d={result.config.dimension}, k={result.config.width}, "
            f"N={result.config.population}, eps={result.config.epsilon:.2f})"
        ),
    )
