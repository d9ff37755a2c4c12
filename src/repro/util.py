"""Small shared utilities.

This module is the repo's **one sanctioned wall-clock entry point**:
kyotolint rule D003 forbids ``time.time()`` / ``datetime.now()`` anywhere
else under ``src/repro``, so reporting code that genuinely needs elapsed
real time (the CLI's per-experiment timing) must route through
:func:`wall_clock`.  Simulation code must never need it — simulated time
lives in :mod:`repro.simulation.clock`.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, List, Tuple


def wall_clock() -> float:
    """Seconds since the epoch, for *reporting only*.

    Never feed this into simulation logic: results must be a function of
    the experiment seed alone.
    """
    return time.time()


def elapsed_since(start: float) -> float:
    """Wall-clock seconds elapsed since ``start`` (a wall_clock() value)."""
    return wall_clock() - start


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically; returns ``path``.

    The content lands in a temp file in the destination directory and is
    ``os.replace``d into place, so a kill mid-write can never leave a
    truncated file behind — readers see the old content or the new
    content, never half a document.  Every CLI artifact write routes
    through here (or :func:`repro.experiments.campaign.write_artifact`,
    which follows the same discipline).
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    handle_fd, tmp_path = tempfile.mkstemp(
        dir=parent or ".", prefix=".atomic-", suffix=".tmp"
    )
    try:
        with os.fdopen(handle_fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return path


def atomic_write_json(path: str, document: Any) -> str:
    """Serialise ``document`` (sorted keys, 2-space indent) atomically."""
    return atomic_write_text(
        path, json.dumps(document, indent=2, sort_keys=True) + "\n"
    )


def jsonl_line(record: Dict[str, Any]) -> str:
    """Encode one JSONL record: compact, sorted keys, newline-terminated.

    The one encoder behind every append-only JSONL file in the repo (the
    herd journal, telemetry stream chunks), so each record is a single
    ``write`` of a complete line and identical records encode to
    identical bytes.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def scan_jsonl(path: str) -> Tuple[List[Dict[str, Any]], bool]:
    """Read the longest valid record prefix of a JSONL file.

    Returns ``(records, clean)``.  Blank lines are skipped; scanning
    stops at the first line that does not decode, is not a JSON object,
    or lacks an ``"event"`` field, and ``clean`` is then False.  An
    append-only writer can only leave a torn *last* line when killed
    mid-write, so the records returned are always a prefix of what was
    written and recovery never needs a repair step.  Durability (when
    to fsync) is the writer's policy, not this reader's.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                return records, False
            if not isinstance(record, dict) or "event" not in record:
                return records, False
            records.append(record)
    return records, True
