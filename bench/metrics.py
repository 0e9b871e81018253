"""The benchmark's declaration and the summary statistics it reports.

Metric names, units, workloads and the run length are declared once, in
BENCHMARK.json at the root of the checkout. Imported by the parent process
and by every child, so it uses the standard library only.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def units(metrics: list[dict]) -> dict:
    """name -> unit, in the order BENCHMARK.json lists the metrics."""
    return {m["name"]: m["unit"] for m in metrics}


def percentile(values, q: int) -> float:
    """q-th percentile (1..99), linear between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tagged(values: dict, declared: dict) -> dict:
    """Attach the declared units; every declared metric must have a value."""
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {extra}; "
                       f"declared but not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
