"""kyotolint: repo-specific static analysis, paired with runtime contracts.

The reproduction's credibility rests on two properties no general-purpose
linter checks: **determinism** (every stochastic stream derives from
``(seed, name)``; nothing reads the wall clock or leaks set order into
results) and **unit correctness** (equation 1 mixes kHz, cycles and
milliseconds — by conversion, never by accident).  ``kyotolint`` enforces
both statically over the AST (:mod:`repro.lint.walker`,
:mod:`repro.lint.rules`) and dynamically via invariant contracts
(:mod:`repro.contracts`).

Run it as ``repro lint [paths] [--format json] [--baseline FILE]``, or
programmatically::

    from repro.lint import lint_paths, exit_code
    findings = lint_paths(["src/repro"])
    assert exit_code(findings) == 0
"""

from .analyzer import analyze_paths
from .baseline import Baseline, BaselineError
from .facts import FACTS_VERSION, ModuleFacts, Program, extract_facts
from .report import exit_code, failing_findings, format_json, format_text
from .rules import (
    ALL_PROGRAM_RULES,
    ALL_RULES,
    RULES_BY_ID,
    RULES_VERSION,
    Finding,
    ProgramRule,
    Rule,
)
from .walker import (
    clear_cache,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)

__all__ = [
    "ALL_PROGRAM_RULES",
    "ALL_RULES",
    "Baseline",
    "BaselineError",
    "FACTS_VERSION",
    "Finding",
    "ModuleFacts",
    "Program",
    "ProgramRule",
    "RULES_BY_ID",
    "RULES_VERSION",
    "Rule",
    "analyze_paths",
    "clear_cache",
    "exit_code",
    "extract_facts",
    "failing_findings",
    "format_json",
    "format_text",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]
