"""Fig 4 — Equation 1 vs LLC misses: which indicator for llc_cap?

Runs the Section 4.2 campaign over the ten applications: each measured
alone for its LLCM and equation-1 indicators, then in parallel with every
other application for its *real* aggressiveness (average degradation
caused).  Each unordered pair co-runs once and both VMs are measured, so
the ten solos are followed by 45 co-runs.  Kendall's tau decides which
indicator's ordering is closer to the real one.

Expected result (paper): real order o1 = (blockie, lbm, mcf, soplex,
milc, omnetpp, gcc, xalan, astar, bzip); LLCM order o2 puts milc first;
equation-1 order o3 = (lbm, blockie, milc, mcf, soplex, ...).  o3 is
closer to o1 than o2 — equation 1 is the better indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.aggressiveness import (
    AggressivenessReport,
    CampaignConfig,
    OrderingComparison,
    compare_orderings,
    run_campaign,
)
from repro.analysis.reporting import format_table
from repro.workloads.profiles import FIG4_APPLICATIONS


@dataclass
class Fig04Result:
    reports: Dict[str, AggressivenessReport]
    comparison: OrderingComparison


def run(
    warmup_ticks: int = 20, measure_ticks: int = 60
) -> Fig04Result:
    config = CampaignConfig(warmup_ticks=warmup_ticks, measure_ticks=measure_ticks)
    reports = run_campaign(FIG4_APPLICATIONS, config)
    return Fig04Result(reports=reports, comparison=compare_orderings(reports))


def format_report(result: Fig04Result) -> str:
    rows: List[List] = []
    for app in result.comparison.real_order:
        report = result.reports[app]
        rows.append(
            [
                app,
                report.real_aggressiveness,
                report.solo.llcm,
                report.solo.equation1,
            ]
        )
    table = format_table(
        ["app", "avg aggressivity %", "LLCM (mpki)", "equation 1 (miss/ms)"],
        rows,
        title="Fig 4: aggressiveness vs indicators (descending real order)",
    )
    cmp = result.comparison
    footer = (
        f"\no1 (real)      : {', '.join(cmp.real_order)}"
        f"\no2 (LLCM)      : {', '.join(cmp.llcm_order)}"
        f"\no3 (equation 1): {', '.join(cmp.equation1_order)}"
        f"\nKendall tau(o1,o2) = {cmp.tau_llcm:.3f}; "
        f"tau(o1,o3) = {cmp.tau_equation1:.3f}; "
        f"equation 1 {'wins' if cmp.equation1_wins else 'loses'}"
    )
    return table + footer
