"""Workloads: calibrated SPEC CPU2006 / blockie profiles, the pointer-chase
micro-benchmark and synthetic address-trace generation.

Every name below is importable from this package; its submodule is
imported on first access (:mod:`repro.lazy`).
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "base": ("LINE_BYTES", "Workload", "WorkloadProgress", "bytes_to_lines"),
    "micro": (
        "CacheFitCategory",
        "MicroVmPair",
        "category_pairs",
        "classify_working_set",
        "micro_workload",
        "pointer_chase_behavior",
    ),
    "profiles": (
        "DISRUPTIVE_APPS",
        "FIG4_APPLICATIONS",
        "PAPER_ORDER_EQUATION1",
        "PAPER_ORDER_LLCM",
        "PAPER_ORDER_REAL",
        "SENSITIVE_APPS",
        "application_behavior",
        "application_names",
        "application_workload",
        "vm_application",
        "vm_workload",
    ),
    "tracegen": (
        "TraceConfig",
        "generate_trace",
        "pointer_chain_addresses",
        "walk_pointer_chain",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
