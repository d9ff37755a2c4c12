"""Durable append-only campaign journal (schema ``repro.herd/1``).

The herd orchestrator records every point's lifecycle in one JSONL file
(``journal.jsonl`` inside the campaign's artifact directory).  Each line
is a self-contained JSON record appended with a single ``write`` call
followed by flush + fsync, so a crash — of the orchestrator or the whole
host — can only ever leave a *partial last line*.  Recovery therefore
never needs a repair step: :func:`scan_journal` reads the longest valid
prefix with the repo's shared torn-line reader
(:func:`repro.util.scan_jsonl`, also behind the telemetry stream
reader), and :func:`replay_journal` folds the surviving prefix into a
consistent queue state (done points stay done, an in-flight attempt
becomes ``orphaned``, retry-eligible points come back as pending).

Lifecycle of one point::

    enqueued -> started attempt=1 -> done
                                  -> failed   (deterministic; terminal)
                                  -> crash | timeout  (transient)
                                       -> retry -> started attempt=2 ...
                                       -> quarantined (budget spent)

Event order within the file is the orchestrator's decision order, which
makes the journal a replayable trace as well as a recovery log.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.util import jsonl_line, scan_jsonl

#: Schema identifier of one journal record (first field of every line).
JOURNAL_SCHEMA = "repro.herd/1"

#: Journal filename inside a herd campaign directory.
JOURNAL_FILENAME = "journal.jsonl"

#: Terminal point statuses — never re-enqueued by resume.
TERMINAL_STATUSES = ("done", "failed", "quarantined")

#: Statuses resume re-enqueues (the point never reached a terminal event).
RESUMABLE_STATUSES = ("pending", "running", "attempt_failed", "retry_scheduled")

#: Transient outcome kinds that are retried under backoff.
TRANSIENT_KINDS = ("crash", "timeout")


class JournalError(ValueError):
    """Raised on unreadable journals or structurally invalid replays."""


def journal_path(json_dir: str) -> str:
    """The journal file of a herd campaign directory."""
    return os.path.join(json_dir, JOURNAL_FILENAME)


class JournalWriter:
    """Append-only JSONL writer with atomic, durable appends.

    One record is one ``write()`` of a complete line; the handle is
    flushed and fsynced before :meth:`append` returns, so a record
    either fully exists on disk or (after a crash mid-write) is a
    partial *last* line that recovery skips.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record durably."""
        self._handle.write(jsonl_line(record))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def scan_journal(path: str) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse a journal into ``(records, clean)`` via :func:`scan_jsonl`.

    ``clean`` is False when the file ends in a partial/corrupt line (the
    signature of a crash mid-append); scanning stops there, so the
    returned records are always a valid prefix.  A missing file raises
    :class:`JournalError` — an empty campaign directory is an error, a
    truncated journal is not.
    """
    if not os.path.isfile(path):
        raise JournalError(f"no such journal: {path}")
    return scan_jsonl(path)


@dataclass
class PointRecord:
    """Replayed lifecycle state of one campaign point."""

    point_id: str
    name: str
    #: pending | running | attempt_failed | retry_scheduled | done |
    #: failed | quarantined
    status: str = "pending"
    #: Attempts started so far (an orphaned in-flight attempt counts).
    attempts_used: int = 0
    #: One entry per concluded attempt: {"attempt", "outcome", ...}.
    history: List[Dict[str, Any]] = field(default_factory=list)
    last_error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES


@dataclass
class HerdState:
    """Everything a resume (or ``herd status``) needs from the journal."""

    header: Dict[str, Any]
    #: point_id -> record, in campaign (grid) order.
    points: Dict[str, PointRecord]
    #: Number of ``resumed`` markers seen (0 for an uninterrupted run).
    resumes: int = 0
    #: False when the journal ended in a partial line (crash signature).
    clean: bool = True

    def counts(self) -> Dict[str, int]:
        """Points per status, every known status always present."""
        counts = {
            status: 0
            for status in (
                "pending",
                "running",
                "attempt_failed",
                "retry_scheduled",
                "done",
                "failed",
                "quarantined",
            )
        }
        for record in self.points.values():
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    def resumable(self) -> List[PointRecord]:
        """Points a resume must re-enqueue, in campaign order."""
        return [
            record
            for record in self.points.values()
            if record.status in RESUMABLE_STATUSES
        ]


def replay_records(records: List[Dict[str, Any]], clean: bool = True) -> HerdState:
    """Fold scanned journal records into a consistent :class:`HerdState`.

    The fold is total: any *prefix* of a valid journal replays without
    error (the crash-recovery property pinned by the truncation tests).
    An in-flight ``started`` with no concluding event is closed as an
    ``orphaned`` attempt — it consumed one attempt from the budget, so a
    poison point cannot dodge quarantine by killing the orchestrator.
    """
    if not records:
        raise JournalError("journal holds no complete records")
    header = records[0]
    if header.get("event") != "campaign" or header.get("schema") != JOURNAL_SCHEMA:
        raise JournalError(
            f"journal does not start with a {JOURNAL_SCHEMA} campaign header"
        )
    state = HerdState(header=header, points={}, clean=clean)
    for entry in header.get("points", []):
        state.points[entry["id"]] = PointRecord(
            point_id=entry["id"], name=entry["name"]
        )
    for record in records[1:]:
        event = record.get("event")
        if event == "resumed":
            state.resumes += 1
            continue
        point = state.points.get(record.get("point", ""))
        if point is None:
            continue  # unknown point id: stale record from a changed grid
        if event == "enqueued":
            if not point.terminal:
                point.status = "pending"
        elif event == "started":
            point.status = "running"
            point.attempts_used = max(
                point.attempts_used, int(record.get("attempt", 1))
            )
        elif event == "done":
            point.status = "done"
            point.history.append(_attempt_entry(record, "done"))
        elif event == "failed":
            point.status = "failed"
            point.last_error = record.get("error")
            point.history.append(_attempt_entry(record, "failed"))
        elif event in TRANSIENT_KINDS:
            point.status = "attempt_failed"
            point.last_error = record.get("error")
            point.history.append(_attempt_entry(record, str(event)))
        elif event == "retry":
            point.status = "retry_scheduled"
        elif event == "quarantined":
            point.status = "quarantined"
            point.last_error = record.get("error", point.last_error)
    for point in state.points.values():
        if point.status == "running":
            # The journal ends mid-attempt: the orchestrator died while
            # this point was in flight.  The attempt is spent.
            point.history.append(
                {"attempt": point.attempts_used, "outcome": "orphaned"}
            )
    return state


def _attempt_entry(record: Dict[str, Any], outcome: str) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "attempt": int(record.get("attempt", 0)),
        "outcome": outcome,
    }
    if record.get("wall_time_sec") is not None:
        entry["wall_time_sec"] = record["wall_time_sec"]
    if record.get("error") is not None:
        entry["error"] = record["error"]
    return entry


def replay_journal(path: str) -> HerdState:
    """Scan + replay a journal file into a :class:`HerdState`."""
    records, clean = scan_journal(path)
    return replay_records(records, clean)
