"""Typed event timelines recorded during a training simulation.

The :class:`Recorder` is written to by workers as the simulation runs and
read by the figure/table harnesses afterwards.  Three record kinds:

* :class:`GpuInterval` — one contiguous GPU-busy span (forward or backward
  compute of one layer run, or a whole backward pass);
* :class:`IterationRecord` — per-worker iteration boundaries;
* :class:`GradientRecord` — the paper's per-gradient quantities: ready
  time ``c``, push start ``t``, push end, pull end ``u`` (Fig. 11's wait
  time is ``t − c``; its transfer time is push end − push start).

The recorder is a typed view over the structured trace layer
(:mod:`repro.trace`): every write is mirrored into the attached trace
recorder (compute spans on the ``worker{N}/gpu`` track, iteration-boundary
instants, per-gradient lifecycle instants), so the Chrome trace and the
numeric timelines are produced by one write path.
:func:`recorder_from_trace` inverts the mapping — rebuilding the typed
views from a trace event list (e.g. one re-read from an exported Chrome
JSON file), which is what makes the trace the authoritative record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.trace.events import INSTANT, SPAN, TraceEvent
from repro.trace.recorder import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = [
    "GpuInterval",
    "IterationRecord",
    "GradientRecord",
    "Recorder",
    "recorder_from_trace",
]


@dataclass(frozen=True, slots=True)
class GpuInterval:
    """One GPU-busy span on one worker."""

    worker: int
    iteration: int
    kind: str  # "fwd" | "bwd"
    start: float
    end: float


@dataclass(slots=True)
class IterationRecord:
    """Per-worker iteration boundaries (bwd starts when fwd ends)."""

    worker: int
    iteration: int
    fwd_start: float = np.nan
    fwd_end: float = np.nan
    bwd_end: float = np.nan


@dataclass(slots=True)
class GradientRecord:
    """Per-gradient communication timeline on one worker, one iteration."""

    worker: int
    iteration: int
    grad: int
    ready: float = np.nan       # c(i): flushed by the KV store
    push_start: float = np.nan  # t(i): first byte enters the channel
    push_end: float = np.nan    # last byte pushed
    pull_end: float = np.nan    # u(i): parameters updated locally

    @property
    def wait_time(self) -> float:
        """Queueing delay before transmission (Fig. 11's wait time)."""
        return self.push_start - self.ready

    @property
    def transfer_time(self) -> float:
        """Push duration, first to last byte (Fig. 11's transfer time)."""
        return self.push_end - self.push_start


class _GradientIndex(dict):
    """``(worker, iteration, grad) -> GradientRecord``; a missing key
    creates its record, so a lookup that writes is one dict access."""

    def __missing__(self, key: tuple[int, int, int]) -> GradientRecord:
        rec = self[key] = GradientRecord(*key)
        return rec


class Recorder:
    """Accumulates simulation timelines.

    ``record_gradients=False`` drops per-gradient records (the most
    memory-hungry signal) for large sweeps that only need rates.

    ``trace`` mirrors every write into a structured trace recorder
    (default: the shared no-op), putting the numeric timelines and the
    exportable Chrome trace on one write path.
    """

    def __init__(
        self,
        record_gradients: bool = True,
        trace: TraceRecorder | NullRecorder = NULL_RECORDER,
    ):
        self.record_gradients = record_gradients
        self.trace = trace
        self.gpu_intervals: list[GpuInterval] = []
        self.iterations: list[IterationRecord] = []
        self._gradients = _GradientIndex()
        #: ``(worker, iteration) -> IterationRecord`` index over
        #: ``iterations`` — lets the fast-forward replay address rows
        #: created in an earlier cycle window (a row is created at
        #: forward start but its ``bwd_end`` lands one window later).
        self._iter_index: dict[tuple[int, int], IterationRecord] = {}
        #: Fast-forward journal; a list while one steady-state cycle is
        #: being recorded (repro.sim.fastforward), else None.
        self._ff_journal: list | None = None

    # ------------------------------------------------------------------
    # Write side (workers)
    # ------------------------------------------------------------------
    def gpu_busy(
        self, worker: int, iteration: int, kind: str, start: float, end: float
    ) -> None:
        if end > start:
            self.gpu_intervals.append(GpuInterval(worker, iteration, kind, start, end))
            journal = self._ff_journal
            if journal is not None:
                journal.append(("gpu", worker, iteration, kind, start, end))
            if self.trace.enabled:
                self.trace.complete(
                    kind,
                    "compute",
                    start,
                    end,
                    f"worker{worker}/gpu",
                    {"iteration": iteration},
                )

    def iteration_record(self, worker: int, iteration: int) -> IterationRecord:
        rec = IterationRecord(worker=worker, iteration=iteration)
        self.iterations.append(rec)
        self._iter_index[(worker, iteration)] = rec
        journal = self._ff_journal
        if journal is not None:
            journal.append(("row", worker, iteration))
        if self.trace.enabled:
            self.trace.instant(
                f"iter {iteration}",
                "iteration",
                self.trace.now(),
                f"worker{worker}/gpu",
                {"worker": worker, "iteration": iteration},
            )
        return rec

    def iter_field(self, rec: IterationRecord, field: str, t: float) -> None:
        """Set one boundary field on an iteration row.

        The journalable write path for ``fwd_start``/``fwd_end``/
        ``bwd_end`` — workers route row mutations through here so a
        recorded steady-state cycle can be replayed bit-identically.
        """
        setattr(rec, field, t)
        journal = self._ff_journal
        if journal is not None:
            journal.append(("rowset", rec.worker, rec.iteration, field, t))

    def gradient(self, worker: int, iteration: int, grad: int) -> GradientRecord | None:
        """The (mutable) gradient record, or ``None`` when recording is off."""
        if not self.record_gradients:
            return None
        return self._gradients[(worker, iteration, grad)]

    # ------------------------------------------------------------------
    # Per-gradient lifecycle marks (the paper's c, t, push end, u)
    # ------------------------------------------------------------------
    def _mark(
        self, worker: int, iteration: int, grad: int, field: str, t: float
    ) -> None:
        if self.trace.enabled:
            self.trace.instant(
                field,
                "gradient",
                t,
                f"worker{worker}/grad",
                {"worker": worker, "iteration": iteration, "grad": grad},
            )
        if self.record_gradients:
            setattr(self._gradients[(worker, iteration, grad)], field, t)
            journal = self._ff_journal
            if journal is not None:
                journal.append(("grad", worker, iteration, grad, field, t))

    def mark_ready(self, worker: int, iteration: int, grad: int, t: float) -> None:
        """Gradient flushed by the KV store (the paper's ``c(i)``)."""
        self._mark(worker, iteration, grad, "ready", t)

    def mark_push_start(self, worker: int, iteration: int, grad: int, t: float) -> None:
        """First byte entered the channel (the paper's ``t(i)``)."""
        self._mark(worker, iteration, grad, "push_start", t)

    def mark_push_end(self, worker: int, iteration: int, grad: int, t: float) -> None:
        """Last byte pushed."""
        self._mark(worker, iteration, grad, "push_end", t)

    def mark_pull_end(self, worker: int, iteration: int, grad: int, t: float) -> None:
        """Updated parameters applied locally (the paper's ``u(i)``)."""
        self._mark(worker, iteration, grad, "pull_end", t)

    # ------------------------------------------------------------------
    # Read side (harnesses)
    # ------------------------------------------------------------------
    def worker_iterations(self, worker: int) -> list[IterationRecord]:
        """Iteration records of one worker, ordered by iteration."""
        return sorted(
            (r for r in self.iterations if r.worker == worker),
            key=lambda r: r.iteration,
        )

    def gradient_records(
        self, worker: int | None = None, iteration: int | None = None
    ) -> list[GradientRecord]:
        """Gradient records filtered by worker and/or iteration."""
        out = [
            r
            for r in self._gradients.values()
            if (worker is None or r.worker == worker)
            and (iteration is None or r.iteration == iteration)
        ]
        return sorted(out, key=lambda r: (r.worker, r.iteration, r.grad))

    def gpu_busy_intervals(self, worker: int) -> np.ndarray:
        """(N, 2) array of one worker's busy spans, sorted by start."""
        spans = sorted(
            (iv.start, iv.end) for iv in self.gpu_intervals if iv.worker == worker
        )
        if not spans:
            return np.empty((0, 2))
        return np.asarray(spans, dtype=float)


def _worker_of(track: str) -> int | None:
    """``"worker3/gpu"`` → 3; ``None`` for non-worker tracks."""
    if not track.startswith("worker"):
        return None
    head = track.partition("/")[0][len("worker"):]
    return int(head) if head.isdigit() else None


def recorder_from_trace(events: Iterable[TraceEvent]) -> Recorder:
    """Rebuild the typed timelines from a trace event list.

    The inverse of the recorder's write-through: compute spans become
    :class:`GpuInterval` records, iteration instants (together with the
    compute spans they bracket) become :class:`IterationRecord` rows, and
    per-gradient lifecycle instants repopulate :class:`GradientRecord`
    fields.  Accepts events straight from a live
    :class:`~repro.trace.recorder.TraceRecorder` or re-read from an
    exported Chrome JSON file via
    :func:`repro.trace.export.read_chrome_trace`.
    """
    rec = Recorder(record_gradients=True)
    iter_rows: dict[tuple[int, int], IterationRecord] = {}
    ordered = sorted(events, key=TraceEvent.sort_key)
    for ev in ordered:
        worker = _worker_of(ev.track)
        if worker is None:
            continue
        if ev.ph == SPAN and ev.cat == "compute":
            iteration = int(ev.args["iteration"])
            rec.gpu_busy(worker, iteration, ev.name, ev.ts, ev.end)
            row = iter_rows.get((worker, iteration))
            if row is not None:
                if ev.name == "fwd":
                    row.fwd_end = max(
                        ev.end,
                        row.fwd_end if np.isfinite(row.fwd_end) else -np.inf,
                    )
                elif ev.name == "bwd":
                    row.bwd_end = ev.end
        elif ev.ph == INSTANT and ev.cat == "iteration":
            iteration = int(ev.args["iteration"])
            row = rec.iteration_record(worker, iteration)
            row.fwd_start = ev.ts
            iter_rows[(worker, iteration)] = row
        elif ev.ph == INSTANT and ev.cat == "gradient":
            if ev.name in ("ready", "push_start", "push_end", "pull_end"):
                rec._mark(
                    worker,
                    int(ev.args["iteration"]),
                    int(ev.args["grad"]),
                    ev.name,
                    ev.ts,
                )
    return rec
