"""Compare two sets of end-to-end benchmark runs, parent against change.

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out`` appends, one JSON line per
workload run.  Prints one row per workload and end-to-end metric with a
verdict against the bound BENCHMARK.json fixes for that metric:

* ``within bound`` -- the change's median is worse than the parent's by no
  more than the bound (or better);
* ``regressed`` -- it is worse by more than the bound;
* ``unresolved`` -- the parent's own spread (the distance between its
  quartiles, as a share of its median) is wider than the bound, so the
  samples cannot tell; unless every change sample reads better than every
  parent sample, which counts as within bound.

Samples are the per-run values when a side has several runs of a workload,
and the per-pass samples of its single run otherwise.  With at least ten
runs on each side, paired in file order (run them alternating which side
goes first), the ``gain`` column applies the rule for claiming a gain: the
change wins at least nine tenths of the pairs, ties counting for neither,
and the medians differ by more than the parent's quartile distance.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Pairs needed before a gain may be claimed, and the share the change must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(samples: Sequence[float]):
    if len(samples) < 2:
        value = samples[0]
        return value, value, value
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse the change is, as a share of the parent (< 0: better)."""
    gap = (change - parent) / parent
    return gap if better == "lower" else -gap


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    q1, median, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(median) if median else 0.0
    if spread > bound:
        if better == "lower":
            clearly_better = max(change) < min(parent)
        else:
            clearly_better = min(change) > max(parent)
        return "within bound" if clearly_better else "unresolved"
    if worse_by(median, statistics.median(change), better) > bound:
        return "regressed"
    return "within bound"


def gain(parent: Sequence[float], change: Sequence[float], better: str) -> bool:
    """The choosing-metrics gain rule over runs paired in order."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return False
    wins = sum(
        (mine < theirs) if better == "lower" else (mine > theirs)
        for theirs, mine in pairs
    )
    q1, median, q3 = quartiles(parent)
    gap = statistics.median(change) - median
    moved = gap < 0 if better == "lower" else gap > 0
    return wins >= WIN_SHARE * len(pairs) and moved and abs(gap) > q3 - q1


def load(path: Path) -> Dict[str, List[dict]]:
    """End-to-end records by workload, in file order."""
    runs: Dict[str, List[dict]] = {}
    with path.open() as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def samples(records: List[dict], name: str) -> List[float]:
    if len(records) > 1:
        return [record["metrics"][name]["value"] for record in records]
    metric = records[0]["metrics"][name]
    return metric.get("samples", [metric["value"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    arguments = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = load(arguments.parent), load(arguments.change)
    regressed = False
    print(
        f"{'workload':12s} {'metric':24s} {'parent [q1, q3]':>34s} "
        f"{'change':>12s} {'worse':>8s} {'bound':>6s}  verdict       gain"
    )
    for workload in sorted(set(parent) & set(change)):
        for metric in metrics:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            mine = samples(parent[workload], name)
            theirs = samples(change[workload], name)
            q1, median, q3 = quartiles(mine)
            outcome = verdict(mine, theirs, better, bound)
            regressed |= outcome == "regressed"
            claimed = "gain" if gain(mine, theirs, better) else "-"
            print(
                f"{workload:12s} {name:24s} "
                f"{median:>12.5g} [{q1:>9.5g}, {q3:>9.5g}] "
                f"{statistics.median(theirs):>12.5g} "
                f"{worse_by(median, statistics.median(theirs), better):>+8.1%} "
                f"{bound:>6.0%}  {outcome:13s} {claimed}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
