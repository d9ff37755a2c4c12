"""Registry of runnable experiments (built-in and file-backed).

``repro.cli`` used to hold a private table of lambdas; the campaign
runner needs *picklable* runner functions (``multiprocessing`` ships the
work to workers by qualified name), and other tools want to enumerate
experiments without importing the CLI.  Each runner is a module-level
zero-argument function returning the experiment's printable report; all
stochastic inputs derive from fixed seeds through
:mod:`repro.simulation.rng`, so a runner's report is byte-identical no
matter which process (or how many processes) executes it.

Beyond the built-in names, any ``*.toml`` / ``*.json`` scenario file
(:mod:`repro.scenario`) is a runnable experiment: ``repro run
path/to/scenario.toml`` behaves exactly like a registered name.  A file
with a ``[sweep]`` table expands (via :func:`expand_names`) into one
*point token* per grid point — ``path.toml#3`` is the fourth point —
and each point runs as its own experiment with its own artifact.
Tokens stay plain strings precisely so the multiprocessing fan-out can
pickle them.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenario import ScenarioSpec

#: File suffixes that mark a name as a scenario-file token.
SCENARIO_SUFFIXES = (".toml", ".json")


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: name, description, report producer.

    ``module`` names the driver submodule of :mod:`repro.experiments`
    the runner imports (``""`` for none); :func:`resolve` imports it, so
    whoever resolves before running pays the import up front.
    """

    name: str
    description: str
    runner: Callable[[], str]
    module: str = ""


def table1_report() -> str:
    from . import tables

    return tables.format_table1(tables.run_table1())


def table2_report() -> str:
    from . import tables

    return tables.format_table2(tables.run_table2())


def fig01_report() -> str:
    from . import fig01

    return fig01.format_report(fig01.run())


def fig02_report() -> str:
    from . import fig02

    return fig02.format_report(fig02.run())


def fig03_report() -> str:
    from . import fig03

    return fig03.format_report(fig03.run())


def fig04_report() -> str:
    from . import fig04

    return fig04.format_report(fig04.run())


def fig05_report() -> str:
    from . import fig05

    return fig05.format_report(fig05.run())


def fig06_report() -> str:
    from . import fig06

    return fig06.format_report(fig06.run())


def fig07_report() -> str:
    from . import fig07

    return fig07.format_report(fig07.run())


def fig08_report() -> str:
    from . import fig08

    return fig08.format_report(fig08.run())


def fig09_report() -> str:
    from . import fig09

    return fig09.format_report(fig09.run())


def fig10_report() -> str:
    from . import fig10

    return fig10.format_report(fig10.run())


def fig11_report() -> str:
    from . import fig11

    return fig11.format_report(fig11.run())


def fig12_report() -> str:
    from . import fig12

    return fig12.format_report(fig12.run())


def chaos_report() -> str:
    from . import chaos

    return chaos.format_report(chaos.run())


def abl_quota_report() -> str:
    from . import ablations

    return ablations.format_quota(ablations.run_quota())


def abl_period_report() -> str:
    from . import ablations

    return ablations.format_period(ablations.run_period())


def abl_policy_report() -> str:
    from . import ablations

    return ablations.format_policy(ablations.run_policy())


def abl_model_report() -> str:
    from . import ablations

    return ablations.format_model(ablations.run_model())


def abl_enforce_report() -> str:
    from . import ablations

    return ablations.format_enforce(ablations.run_enforce())


#: Canonical experiment order — the order ``run all`` executes.
_SPECS: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec("table1", "experimental machine", table1_report, "tables"),
    ExperimentSpec("table2", "experimental VMs", table2_report, "tables"),
    ExperimentSpec("fig01", "LLC contention impact matrix", fig01_report, "fig01"),
    ExperimentSpec("fig02", "LLC misses per tick (v2_rep)", fig02_report, "fig02"),
    ExperimentSpec("fig03", "the processor is a good lever", fig03_report, "fig03"),
    ExperimentSpec("fig04", "equation 1 vs LLCM indicators", fig04_report, "fig04"),
    ExperimentSpec("fig05", "KS4Xen effectiveness", fig05_report, "fig05"),
    ExperimentSpec("fig06", "KS4Xen scalability", fig06_report, "fig06"),
    ExperimentSpec("fig07", "Pisces architecture audit", fig07_report, "fig07"),
    ExperimentSpec("fig08", "Kyoto vs Pisces", fig08_report, "fig08"),
    ExperimentSpec("fig09", "vCPU migration overhead", fig09_report, "fig09"),
    ExperimentSpec("fig10", "when isolation can be skipped", fig10_report, "fig10"),
    ExperimentSpec("fig11", "dedication vs no dedication", fig11_report, "fig11"),
    ExperimentSpec("fig12", "KS4Xen overhead", fig12_report, "fig12"),
)

#: Runnable by name but *not* part of ``run all``: the chaos sweep
#: exercises the fault-injection path (repro.faults) and the ``abl-*``
#: design-choice ablations go beyond the paper; keeping them out of
#: ``all`` keeps the paper-reproduction artifact set byte-stable.
_EXTRA_SPECS: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        "chaos", "resilient monitoring under fault injection", chaos_report,
        "chaos",
    ),
    ExperimentSpec(
        "abl-quota", "ablation: pollution-quota bank size", abl_quota_report,
        "ablations",
    ),
    ExperimentSpec(
        "abl-period", "ablation: monitoring period", abl_period_report,
        "ablations",
    ),
    ExperimentSpec(
        "abl-policy", "ablation: replacement policies vs a scan", abl_policy_report,
        "ablations",
    ),
    ExperimentSpec(
        "abl-model", "ablation: occupancy model vs set-assoc cache", abl_model_report,
        "ablations",
    ),
    ExperimentSpec(
        "abl-enforce", "ablation: Kyoto vs partitioning and MemGuard",
        abl_enforce_report, "ablations",
    ),
)

#: name -> spec, in canonical order (dicts preserve insertion order).
REGISTRY: Dict[str, ExperimentSpec] = {
    spec.name: spec for spec in _SPECS + _EXTRA_SPECS
}


def experiment_names() -> List[str]:
    """Experiment names ``all`` expands to, in canonical order."""
    return [spec.name for spec in _SPECS]


def is_scenario_token(name: str) -> bool:
    """True when ``name`` names a scenario file or one of its points."""
    path, _, _index = name.partition("#")
    return path.endswith(SCENARIO_SUFFIXES) and name.count("#") <= 1


def scenario_points(path: str) -> List[Tuple[str, ScenarioSpec]]:
    """Parse + expand a scenario file into ``(token, spec)`` pairs.

    A sweep-free file yields a single pair whose token is ``path``
    itself; a ``[sweep]`` file yields ``path#0 .. path#N-1`` in grid
    order.  Raises :class:`ScenarioError` on unreadable, malformed or
    invalid files — every point of a sweep is validated up front, so a
    campaign never discovers a bad grid point halfway through.
    """
    from repro.scenario import expand_document, parse_scenario_file

    points = expand_document(parse_scenario_file(path))
    if len(points) == 1 and points[0][0] is None:
        return [(path, points[0][1])]
    return [(f"{path}#{i}", spec) for i, (_, spec) in enumerate(points)]


def scenario_spec_of(token: str) -> ScenarioSpec:
    """The single :class:`ScenarioSpec` a point token denotes."""
    from repro.scenario import ScenarioError

    path, sep, index = token.partition("#")
    points = scenario_points(path)
    if not sep:
        if len(points) > 1:
            raise ScenarioError(
                [
                    f"{path}: sweep file with {len(points)} points; run "
                    f"the file itself (it expands) or pick one with "
                    f"{path}#<index>"
                ]
            )
        return points[0][1]
    try:
        chosen = int(index)
    except ValueError:
        raise ScenarioError([f"{token}: sweep index {index!r} is not an integer"])
    if not 0 <= chosen < len(points):
        raise ScenarioError(
            [
                f"{token}: sweep index {chosen} out of range "
                f"(file has {len(points)} points)"
            ]
        )
    return points[chosen][1]


def _run_scenario_token(token: str) -> str:
    """Module-level (hence picklable) runner for one scenario token."""
    from repro.scenario import run_spec

    return run_spec(scenario_spec_of(token))


def resolve(name: str) -> ExperimentSpec:
    """Look up a registry name or build a spec for a scenario token.

    For tokens, the returned :class:`ExperimentSpec` carries the
    *scenario's* name (sweep points already embed their ``@axis=value``
    label), so campaign artifacts are named after the scenario, not the
    file path.  Raises ``KeyError`` for unrecognised names and
    :class:`ScenarioError` for unloadable/invalid scenario files.
    Resolving a registry name imports its driver module, so the import
    is paid here and the runner's own import finds it loaded.
    """
    if name in REGISTRY:
        entry = REGISTRY[name]
        if entry.module:
            importlib.import_module(f"{__package__}.{entry.module}")
        return entry
    if is_scenario_token(name):
        spec = scenario_spec_of(name)
        description = spec.description or f"scenario {name.partition('#')[0]}"
        return ExperimentSpec(
            name=spec.name,
            description=description,
            runner=functools.partial(_run_scenario_token, name),
        )
    raise KeyError(name)


def expand_names(names: Sequence[str]) -> Tuple[List[str], List[str]]:
    """Resolve a user-supplied experiment list.

    ``"all"`` expands to the canonical registry order and a scenario
    *sweep* file expands to its point tokens (``path#0``, ``path#1``,
    ...); duplicates are dropped keeping the first occurrence, so the
    result is deterministic for any input.  Returns ``(known,
    unknown)`` — ``known`` preserves request order and is ready to run,
    ``unknown`` preserves the order the unrecognised names first
    appeared.  A scenario file that fails to load stays in ``known``:
    the error belongs to the run (or ``repro scenario validate``), not
    to name resolution.
    """
    requested: List[str] = []
    for name in names:
        if name == "all":
            requested.extend(experiment_names())
        elif is_scenario_token(name) and "#" not in name:
            from repro.scenario import ScenarioError

            try:
                requested.extend(token for token, _ in scenario_points(name))
            except ScenarioError:
                requested.append(name)
        else:
            requested.append(name)
    seen = set()
    known: List[str] = []
    unknown: List[str] = []
    for name in requested:
        if name in seen:
            continue
        seen.add(name)
        if name in REGISTRY or is_scenario_token(name):
            known.append(name)
        else:
            unknown.append(name)
    return known, unknown
