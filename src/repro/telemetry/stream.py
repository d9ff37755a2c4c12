"""Streaming telemetry sink (schema ``repro.telemetry.stream/1``).

The in-memory :class:`~repro.telemetry.recorder.BoundedSeries` trades
resolution for memory: past ``max_points`` it decimates, which is
exactly wrong for the figure-class evidence this repo exists to produce
— Kyoto's claims rest on *per-tick* pollution/quota traces, and a
100k-tick ``repro serve`` soak under a 4096-point reservoir keeps one
point in 25.  A :class:`StreamingSink` removes the trade: every offered
point is spooled to disk at full resolution while memory stays
O(batch), and the in-memory recorder keeps serving its bounded live
view unchanged.

On-disk format — herd-journal-style chunked JSONL:

* a *stream directory* holds ``chunk-000000.jsonl``,
  ``chunk-000001.jsonl``, ... in strictly increasing order;
* every line is one self-contained JSON record; the first line of every
  chunk is a ``header`` record carrying the schema tag and chunk index;
* series points travel in ``points`` records — one series name plus
  parallel ``ticks`` / ``values`` batches — so the per-point framing
  overhead is amortised;
* :meth:`StreamingSink.close` appends a ``final`` record with the
  recorder's counters and gauges, marking a complete stream.

Records are encoded by :func:`repro.util.jsonl_line`, the encoder the
herd journal uses.  Durability is the sink's own policy: a chunk is
flushed and fsynced before the sink rolls to its successor (and again
at close), never per record, so a crash can only ever leave a *partial
last line in the last chunk*.  Recovery therefore never repairs
anything: :func:`read_stream` reads each chunk with the shared
torn-line reader :func:`repro.util.scan_jsonl`, which stops at the
first torn line, returning the longest valid prefix (the property the
truncation tests pin byte by byte).

Nothing in here draws randomness or reads the wall clock — a stream is
a pure function of the points offered to it, so two identical runs
write byte-identical chunks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.util import jsonl_line, scan_jsonl

#: Schema identifier carried by every chunk header.
STREAM_SCHEMA = "repro.telemetry.stream/1"

#: Chunk filename pattern (index is zero-padded so sort order == age).
CHUNK_PREFIX = "chunk-"
CHUNK_SUFFIX = ".jsonl"

#: Default chunk-roll threshold (bytes written to the current chunk).
DEFAULT_MAX_CHUNK_BYTES = 4 * 1024 * 1024

#: Default per-series buffered points before a batch record is written.
DEFAULT_BATCH_POINTS = 512


class StreamError(ValueError):
    """Raised on unreadable stream directories or invalid sink usage."""


def chunk_filename(index: int) -> str:
    """Filename of chunk ``index`` inside a stream directory."""
    return f"{CHUNK_PREFIX}{index:06d}{CHUNK_SUFFIX}"


def is_stream_dir(path: str) -> bool:
    """True when ``path`` is a directory holding at least one chunk."""
    if not os.path.isdir(path):
        return False
    return os.path.isfile(os.path.join(path, chunk_filename(0)))


class StreamingSink:
    """Append-only, bounded-memory spool for full-resolution series.

    ``append`` buffers points per series and writes one batched
    ``points`` record whenever a series accumulates ``batch_points`` of
    them, so memory stays O(live series x batch) regardless of run
    length.  ``flush_series`` force-writes one series' buffer — the
    retire-time hook :meth:`MetricsRecorder.compact_retired_series`
    uses it so a retired VM's history is on disk before the in-memory
    reservoir drops it.  ``close`` flushes everything, appends the
    ``final`` counters/gauges record and fsyncs.
    """

    def __init__(
        self,
        directory: str,
        *,
        max_chunk_bytes: int = DEFAULT_MAX_CHUNK_BYTES,
        batch_points: int = DEFAULT_BATCH_POINTS,
    ) -> None:
        if max_chunk_bytes < 4096:
            raise StreamError(
                f"max_chunk_bytes must be >= 4096, got {max_chunk_bytes}"
            )
        if batch_points < 1:
            raise StreamError(
                f"batch_points must be >= 1, got {batch_points}"
            )
        self.directory = directory
        self.max_chunk_bytes = max_chunk_bytes
        self.batch_points = batch_points
        os.makedirs(directory, exist_ok=True)
        #: Points accepted over the sink's lifetime (buffered or written).
        self.points_streamed = 0
        #: Chunks opened so far (== index of the current chunk + 1).
        self.chunks_rolled = 0
        self._buffers: Dict[str, Tuple[List[int], List[float]]] = {}
        self._handle: Optional[Any] = None
        self._chunk_bytes = 0
        self._closed = False
        self._open_chunk()

    # -- writing ---------------------------------------------------------------

    def append(self, name: str, tick: int, value: float) -> None:
        """Accept one series point (buffered; never lost once closed)."""
        if self._closed:
            raise StreamError("append() on a closed StreamingSink")
        buffer = self._buffers.get(name)
        if buffer is None:
            buffer = self._buffers[name] = ([], [])
        buffer[0].append(tick)
        buffer[1].append(value)
        self.points_streamed += 1
        if len(buffer[0]) >= self.batch_points:
            self._write_batch(name, buffer)

    def flush_series(self, name: str) -> int:
        """Write ``name``'s buffered points now; returns points written."""
        if self._closed:
            raise StreamError("flush_series() on a closed StreamingSink")
        buffer = self._buffers.get(name)
        if not buffer or not buffer[0]:
            return 0
        count = len(buffer[0])
        self._write_batch(name, buffer)
        return count

    def flush(self) -> None:
        """Write every buffered batch (deterministic sorted-name order)."""
        if self._closed:
            raise StreamError("flush() on a closed StreamingSink")
        for name in sorted(self._buffers):
            buffer = self._buffers[name]
            if buffer[0]:
                self._write_batch(name, buffer)
        assert self._handle is not None
        self._handle.flush()

    def close(self, recorder: Optional[Any] = None) -> None:
        """Flush, append the ``final`` record, fsync and close.

        ``recorder`` (a :class:`~repro.telemetry.recorder.MetricsRecorder`)
        contributes its counters and gauges to the ``final`` record so a
        stream directory is self-contained: series at full resolution
        plus the run's scalar outcomes.  Closing twice is a no-op.
        """
        if self._closed:
            return
        self.flush()
        final: Dict[str, Any] = {"event": "final"}
        if recorder is not None:
            final["counters"] = {
                name: recorder.counters[name]
                for name in sorted(recorder.counters)
            }
            final["gauges"] = {
                name: recorder.gauges[name]
                for name in sorted(recorder.gauges)
            }
            final["max_series_points"] = recorder.max_series_points
        self._write_record(final)
        handle = self._handle
        assert handle is not None
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        self._handle = None
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "StreamingSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- chunk mechanics -------------------------------------------------------

    def _open_chunk(self) -> None:
        index = self.chunks_rolled
        path = os.path.join(self.directory, chunk_filename(index))
        if os.path.exists(path):
            raise StreamError(
                f"stream directory {self.directory!r} already holds "
                f"{chunk_filename(index)}; streams are never appended to "
                "after the fact — write into a fresh directory"
            )
        self._handle = open(path, "w", encoding="utf-8")
        self._chunk_bytes = 0
        self.chunks_rolled += 1
        self._write_record(
            {"event": "header", "schema": STREAM_SCHEMA, "chunk": index}
        )

    def _roll_chunk(self) -> None:
        """Seal the current chunk durably and open its successor."""
        handle = self._handle
        assert handle is not None
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        self._open_chunk()

    def _write_batch(
        self, name: str, buffer: Tuple[List[int], List[float]]
    ) -> None:
        self._write_record(
            {"event": "points", "series": name,
             "ticks": buffer[0], "values": buffer[1]}
        )
        buffer[0].clear()
        buffer[1].clear()

    def _write_record(self, record: Dict[str, Any]) -> None:
        handle = self._handle
        assert handle is not None
        line = jsonl_line(record)
        handle.write(line)
        self._chunk_bytes += len(line)
        if record.get("event") == "points" and (
            self._chunk_bytes >= self.max_chunk_bytes
        ):
            self._roll_chunk()


# -- reading -----------------------------------------------------------------


@dataclass
class StreamSeries:
    """One fully-resolved series read back from a stream directory."""

    name: str
    ticks: List[int] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ticks)


@dataclass
class StreamData:
    """Everything :func:`read_stream` recovered from a stream directory."""

    directory: str
    #: name -> full-resolution series, insertion-ordered by first point.
    series: Dict[str, StreamSeries]
    counters: Dict[str, float]
    gauges: Dict[str, float]
    #: Chunks successfully opened (valid header seen).
    chunks_read: int
    #: False when reading stopped at a torn/corrupt line (crash signature).
    clean: bool
    #: True when the ``final`` record was seen (the sink closed cleanly).
    finalized: bool

    def series_names(self) -> List[str]:
        return sorted(self.series)


def stream_chunks(directory: str) -> List[str]:
    """Sorted chunk paths of a stream directory (may be empty)."""
    if not os.path.isdir(directory):
        raise StreamError(f"no such stream directory: {directory}")
    return [
        os.path.join(directory, entry)
        for entry in sorted(os.listdir(directory))
        if entry.startswith(CHUNK_PREFIX) and entry.endswith(CHUNK_SUFFIX)
    ]


def read_stream(directory: str) -> StreamData:
    """Recover a stream directory's longest valid prefix.

    Chunks are consumed in index order; inside a chunk, records are
    consumed line by line and reading stops *entirely* at the first
    torn or undecodable line — everything after a tear is untrusted
    (the tear marks where a crash cut the stream).  A chunk whose
    header is missing, torn or carries the wrong schema likewise ends
    the read.  The result is always a consistent prefix of what the
    sink accepted; ``clean`` reports whether the whole stream survived
    and ``finalized`` whether the sink closed properly.
    """
    chunk_paths = stream_chunks(directory)
    if not chunk_paths:
        raise StreamError(f"no stream chunks in {directory}")
    data = StreamData(
        directory=directory,
        series={},
        counters={},
        gauges={},
        chunks_read=0,
        clean=True,
        finalized=False,
    )
    expected_index = 0
    for path in chunk_paths:
        records, clean = scan_jsonl(path)
        if not records:
            data.clean = False
            return data
        header = records[0]
        if (
            header.get("event") != "header"
            or header.get("schema") != STREAM_SCHEMA
            or header.get("chunk") != expected_index
        ):
            data.clean = False
            return data
        data.chunks_read += 1
        expected_index += 1
        for record in records[1:]:
            _fold_record(data, record)
        if not clean:
            data.clean = False
            return data
    return data


def _fold_record(data: StreamData, record: Dict[str, Any]) -> None:
    event = record.get("event")
    if event == "points":
        name = record.get("series")
        ticks = record.get("ticks")
        values = record.get("values")
        if (
            not isinstance(name, str)
            or not isinstance(ticks, list)
            or not isinstance(values, list)
            or len(ticks) != len(values)
        ):
            data.clean = False
            return
        series = data.series.get(name)
        if series is None:
            series = data.series[name] = StreamSeries(name=name)
        series.ticks.extend(int(t) for t in ticks)
        series.values.extend(float(v) for v in values)
    elif event == "final":
        for key, value in record.get("counters", {}).items():
            data.counters[key] = float(value)
        for key, value in record.get("gauges", {}).items():
            data.gauges[key] = float(value)
        data.finalized = True
    # Unknown events are tolerated for forward compatibility: a reader
    # of repro.telemetry.stream/1 skips what it does not understand.


__all__ = [
    "CHUNK_PREFIX",
    "CHUNK_SUFFIX",
    "DEFAULT_BATCH_POINTS",
    "DEFAULT_MAX_CHUNK_BYTES",
    "STREAM_SCHEMA",
    "StreamData",
    "StreamError",
    "StreamSeries",
    "StreamingSink",
    "chunk_filename",
    "is_stream_dir",
    "read_stream",
    "stream_chunks",
]
