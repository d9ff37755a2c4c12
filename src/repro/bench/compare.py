"""Baseline comparison: the regression gate behind ``repro bench --compare``.

A committed baseline (``BENCH_pr26.json``, schema ``repro.bench/2``) pins
the perf trajectory; comparing a fresh run against it answers two
questions per benchmark — *how much faster/slower is the tree now* and
*does the slowdown exceed the tolerance*.  Tolerances are percentages on
the median: with ``--tolerance 40``, a benchmark regresses when its
median exceeds the baseline median by more than 40% (loose by design in
CI, where runner noise is real; tighten locally).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .runner import BENCH_SCHEMA


class BenchCompareError(ValueError):
    """Raised on unreadable or schema-mismatched baselines."""


@dataclass(frozen=True)
class Comparison:
    """One benchmark's current-vs-baseline verdict."""

    name: str
    median_sec: float
    baseline_median_sec: Optional[float]
    tolerance_pct: float

    @property
    def in_baseline(self) -> bool:
        return self.baseline_median_sec is not None

    @property
    def speedup(self) -> Optional[float]:
        """Baseline median over current median (>1 means faster now)."""
        if self.baseline_median_sec is None or self.median_sec <= 0:
            return None
        return self.baseline_median_sec / self.median_sec

    @property
    def regressed(self) -> bool:
        """True when the median slowed beyond the tolerance."""
        if self.baseline_median_sec is None:
            return False
        limit = self.baseline_median_sec * (1.0 + self.tolerance_pct / 100.0)
        return self.median_sec > limit


def load_baseline(path: str) -> Dict[str, Any]:
    """Load + schema-check a baseline document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise BenchCompareError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchCompareError(f"unparsable baseline {path}: {exc}") from exc
    if not isinstance(document, dict) or document.get("schema") != BENCH_SCHEMA:
        raise BenchCompareError(
            f"baseline {path} is not a {BENCH_SCHEMA} document"
        )
    return document


def baseline_medians(document: Mapping[str, Any]) -> Dict[str, float]:
    """name -> median_sec from a baseline document."""
    medians: Dict[str, float] = {}
    for entry in document.get("results", []):
        medians[str(entry["name"])] = float(entry["median_sec"])
    return medians


def compare_documents(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance_pct: float,
) -> List[Comparison]:
    """Compare two ``repro.bench/2`` documents, in current-result order.

    Benchmarks absent from the baseline are reported (``in_baseline``
    False) but can never regress; baseline entries absent from the
    current run (e.g. a filtered ``repro bench NAME`` invocation) are
    simply not compared.
    """
    if tolerance_pct < 0:
        raise BenchCompareError(
            f"tolerance must be >= 0 percent, got {tolerance_pct}"
        )
    medians = baseline_medians(baseline)
    comparisons: List[Comparison] = []
    for entry in current.get("results", []):
        name = str(entry["name"])
        comparisons.append(
            Comparison(
                name=name,
                median_sec=float(entry["median_sec"]),
                baseline_median_sec=medians.get(name),
                tolerance_pct=tolerance_pct,
            )
        )
    return comparisons


def annotate_document(
    document: Dict[str, Any],
    comparisons: Sequence[Comparison],
    baseline_path: str,
) -> None:
    """Embed before/after numbers into a results document, in place.

    This is what makes a committed ``BENCH_pr26.json`` self-documenting:
    each result carries the baseline median and the measured speedup of
    the run that produced it.
    """
    by_name = {comparison.name: comparison for comparison in comparisons}
    document["baseline"] = baseline_path
    for entry in document.get("results", []):
        comparison = by_name.get(str(entry["name"]))
        if comparison is None or not comparison.in_baseline:
            continue
        entry["baseline_median_sec"] = round(
            comparison.baseline_median_sec or 0.0, 6
        )
        if comparison.speedup is not None:
            entry["speedup"] = round(comparison.speedup, 3)


def format_comparisons(
    comparisons: Sequence[Comparison], tolerance_pct: float
) -> str:
    """Human-readable comparison table + verdict line."""
    lines = [
        f"{'benchmark':<24} {'median':>12} {'baseline':>12} "
        f"{'speedup':>8}  verdict"
    ]
    regressions = 0
    for comparison in comparisons:
        median = f"{comparison.median_sec * 1e3:.2f} ms"
        if not comparison.in_baseline:
            baseline = "-"
            speedup = "-"
            verdict = "new (no baseline)"
        else:
            baseline = f"{(comparison.baseline_median_sec or 0.0) * 1e3:.2f} ms"
            speedup = f"{comparison.speedup:.2f}x" if comparison.speedup else "-"
            if comparison.regressed:
                verdict = f"REGRESSED (> {tolerance_pct:g}% slower)"
                regressions += 1
            else:
                verdict = "ok"
        lines.append(
            f"{comparison.name:<24} {median:>12} {baseline:>12} "
            f"{speedup:>8}  {verdict}"
        )
    if regressions:
        lines.append(
            f"{regressions} benchmark(s) regressed beyond "
            f"{tolerance_pct:g}% tolerance"
        )
    else:
        lines.append(f"no regressions beyond {tolerance_pct:g}% tolerance")
    return "\n".join(lines)
