"""Workload ``paper_figures``: every paper table and figure, one campaign.

Runs each registered driver (``expand_names(["all"])``: the 12 figures and
2 tables, ``chaos`` excluded) serially through ``run_campaign(jobs=1)``
with JSON artifacts.  This is what a reproducer waits for.  The drivers
pin their own seeds, so the benchmark seed does not apply here.

Check: the sha256 of every report equals its entry in
``tests/goldens/experiment_goldens.json``.  One operation is one driver.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from typing import Any, Dict

from repro.experiments import campaign
from repro.experiments.registry import expand_names, resolve

from tracing import TickClock

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(_ROOT, "tests", "goldens", "experiment_goldens.json")


def build(seed: int, workdir: str) -> Dict[str, Any]:
    """Resolve the campaign; ``seed`` is ignored (the drivers are pinned).

    Artifacts go to ``workdir``, an empty directory owned by the episode.
    """
    names, unknown = expand_names(["all"])
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}")
    for name in names:
        resolve(name)
    return {"names": names, "json_dir": workdir}


def run(state: Dict[str, Any], clock: TickClock) -> None:
    with clock.every_system():
        campaign.run_campaign(
            state["names"], jobs=1, json_dir=state["json_dir"], out=io.StringIO()
        )


def operations() -> int:
    return len(expand_names(["all"])[0])


def check(state: Dict[str, Any]) -> Dict[str, Any]:
    with open(GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)["reports"]
    problems = []
    digests = {}
    for name in state["names"]:
        path = os.path.join(state["json_dir"], campaign.artifact_filename(name))
        try:
            with open(path, encoding="utf-8") as handle:
                artifact = json.load(handle)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: unreadable artifact ({exc})")
            continue
        digest = hashlib.sha256(artifact["report"].encode("utf-8")).hexdigest()
        digests[name] = digest
        if not artifact["ok"]:
            problems.append(f"{name}: failed: {artifact['error']}")
        elif digest != goldens.get(name):
            problems.append(f"{name}: report sha256 {digest} differs from the golden")
    return {
        "evidence": digests,
        "attempted": len(state["names"]),
        "failed": len(problems),
        "problems": problems,
        "extras": {},
    }
