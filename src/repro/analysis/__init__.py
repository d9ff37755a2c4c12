"""Analysis: Kendall's tau, degradation metrics, aggressiveness campaigns,
downsampling and plain-text reporting.

Every name below is importable from this package; its submodule is
imported on first access (:mod:`repro.lazy`), so ``repro.analysis.kendall``
does not pull the scenario layer in through ``aggressiveness``.

The ``repro report`` engine lives in :mod:`repro.analysis.report` and is
*not* re-exported here: it imports the experiments layer, so the CLI
imports it directly.
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "aggressiveness": (
        "AggressivenessReport",
        "CampaignConfig",
        "OrderingComparison",
        "SoloProfile",
        "compare_orderings",
        "run_campaign",
        "run_pair_degradation",
        "run_solo",
    ),
    "calibration": (
        "CalibrationEntry",
        "CalibrationReport",
        "SOLO_TARGETS",
        "format_calibration",
        "run_calibration",
    ),
    "downsample": ("DownsampleError", "downsample_lttb", "downsample_stride_mean"),
    "kendall": ("kendall_tau", "ranking_from_scores"),
    "metrics": (
        "SeriesStats",
        "degradation_percent",
        "normalized_performance",
        "slowdown_percent",
    ),
    "reporting": ("format_series", "format_table"),
    "statistics": (
        "LinearFit",
        "linear_fit",
        "mean_confidence_interval",
        "student_t_critical",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
