"""Serialized network links with time-varying available bandwidth.

A :class:`Link` is the unit resource that communication schedulers contend
for.  It enforces the paper's Constraint (8): at most one transfer occupies
a link at a time ("to ensure that each gradient is transferred with the full
available network bandwidth ... avoids the concurrent gradient transfer").
Preemption is therefore only possible at transfer boundaries, which is
exactly why partition / block sizing matters.

Bandwidth may vary over time via a piecewise-constant
:class:`BandwidthSchedule` — this is how the "dynamic network environments"
experiments (paper Sec. 5.3) are driven.  Each transfer's duration is
computed from the bandwidth available at its start time through the TCP
model of :mod:`repro.net.tcp`, optionally with multiplicative measurement
noise to represent cross-traffic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.net.tcp import TCPParams, _slow_start_table, is_warm, transfer_time
from repro.sim.engine import Engine

__all__ = ["BandwidthSchedule", "TransferRecord", "Link", "send_batch"]


class BandwidthSchedule:
    """Piecewise-constant available bandwidth (bytes/second) over time.

    ``points`` is a sequence of ``(start_time, bandwidth)`` pairs; the first
    segment is extended back to t=0 and the last forward to infinity.  A
    constant schedule is just ``BandwidthSchedule.constant(B)``.
    """

    def __init__(self, points: Sequence[tuple[float, float]]):
        if not points:
            raise ConfigurationError("BandwidthSchedule needs at least one point")
        times = [float(t) for t, _ in points]
        values = [float(b) for _, b in points]
        if any(b <= 0 for b in values):
            raise ConfigurationError("bandwidth values must be positive")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigurationError("schedule times must be strictly increasing")
        self._times = times
        self._values = values
        # Segment of the most recent lookup.  Simulation time only moves
        # forward, so nearly every ``value()`` call lands in the cached
        # segment (or the next one) and resolves without a bisect.
        self._cursor = 0
        # Mutation counter, bumped by set_level().  Consumers that cache
        # derived state off the breakpoints (a Link's constant-schedule
        # shortcut) compare this to detect in-place mutation — rebinding
        # the schedule object is already caught by identity.
        self._version = 0

    @classmethod
    def constant(cls, bandwidth: float) -> "BandwidthSchedule":
        """A schedule that never changes."""
        return cls([(0.0, bandwidth)])

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The ``(start_time, bandwidth)`` breakpoints, in time order."""
        return tuple(zip(self._times, self._values))

    @property
    def times(self) -> tuple[float, ...]:
        """Breakpoint start times, strictly increasing."""
        return tuple(self._times)

    @property
    def values(self) -> tuple[float, ...]:
        """Bandwidth level of each breakpoint segment (bytes/s)."""
        return tuple(self._values)

    def capped(self, limit: float) -> "BandwidthSchedule":
        """A copy of this schedule with every level capped at ``limit``.

        Used to layer a shared-resource ceiling (e.g. a parameter server's
        NIC share) onto a worker's own bandwidth schedule.
        """
        if limit <= 0:
            raise ConfigurationError(f"cap limit must be positive, got {limit}")
        return BandwidthSchedule(
            [(t, min(v, float(limit))) for t, v in zip(self._times, self._values)]
        )

    def set_level(self, time: float, bandwidth: float) -> None:
        """Re-level the schedule from ``time`` onward to ``bandwidth``.

        Breakpoints at or after ``time`` are dropped and (unless the
        preceding segment already sits at ``bandwidth``) one breakpoint
        ``(time, bandwidth)`` is appended.  This is the mutation used by
        live bandwidth division — the fleet fabric re-levels every
        tenant's schedule whenever a job arrives or finishes — and it is
        why :meth:`value` clamps its cursor: a truncation can leave the
        cached segment index pointing past the end of the breakpoint
        list, and the behind-cursor prefix bisect would then scan (and
        index) beyond the freshly shortened list.
        """
        if bandwidth <= 0:
            raise ConfigurationError(
                f"bandwidth values must be positive, got {bandwidth}"
            )
        if not (time >= 0.0) or time != time or time == float("inf"):
            raise ConfigurationError(f"set_level time must be finite and >= 0, got {time}")
        times = self._times
        values = self._values
        bandwidth = float(bandwidth)
        idx = bisect_left(times, float(time))
        if idx == len(times) and values[-1] == bandwidth:
            return  # Tail already at this level: nothing changes.
        del times[idx:]
        del values[idx:]
        if not times or values[-1] != bandwidth:
            times.append(float(time))
            values.append(bandwidth)
        self._version += 1
        if self._cursor >= len(times):
            self._cursor = len(times) - 1

    def value(self, time: float) -> float:
        """Available bandwidth at ``time``."""
        times = self._times
        idx = self._cursor
        if idx >= len(times):
            # Stale cursor (set_level truncated the breakpoints since the
            # last lookup): clamp before indexing.
            idx = len(times) - 1
            self._cursor = idx
        if times[idx] <= time:
            nxt = idx + 1
            if nxt == len(times) or time < times[nxt]:
                return self._values[idx]
            idx = bisect_right(times, time, lo=nxt) - 1
        else:
            # Query behind the cursor (replay, fault-injection probes):
            # fall back to a bisect over the prefix.
            idx = bisect_right(times, time, hi=idx) - 1
            if idx < 0:
                idx = 0
        self._cursor = idx
        return self._values[idx]

    @property
    def mean(self) -> float:
        """Unweighted mean of the schedule's levels (for summaries)."""
        return float(np.mean(self._values))


class TransferRecord(NamedTuple):
    """One completed transfer on a link (for timelines and throughput).

    A named tuple rather than a dataclass: one is built per completed
    transfer, so C-speed construction matters in fleet-scale runs.
    """

    start: float
    end: float
    nbytes: float
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Achieved bytes/second (0 for an instantaneous record)."""
        return self.nbytes / self.duration if self.duration > 0 else 0.0


# In-flight transfer state, a plain ``(record, on_complete)`` pair: the
# completed transfer's record is built at launch and appended as-is, so
# send_batch can share one record (and one pair) across a step's links.
_RECORD, _ON_COMPLETE = 0, 1
_tuple_new = tuple.__new__  # builds a TransferRecord without its Python-level __new__


class Link:
    """A serialized, unidirectional link driven by a simulation engine.

    The owner starts transfers with :meth:`send`; exactly one transfer may
    be in flight.  When it completes, the link records it, fires the
    transfer's ``on_complete`` callback, and then the link-level ``on_idle``
    callback (the scheduler's cue to pick the next transfer).
    """

    def __init__(
        self,
        engine: Engine,
        schedule: BandwidthSchedule,
        tcp: TCPParams,
        name: str = "link",
        noise_rng: np.random.Generator | None = None,
        noise_std: float = 0.0,
    ):
        if noise_std < 0 or noise_std >= 1:
            raise ConfigurationError(f"noise_std must be in [0, 1), got {noise_std}")
        self.engine = engine
        self.schedule = schedule
        self.tcp = tcp
        self.name = name
        self._noise_rng = noise_rng
        self._noise_std = noise_std
        self._inflight: tuple | None = None
        self._finish_event = None
        self.records: list[TransferRecord] = []
        self.total_bytes = 0.0
        #: Transfers cut short by :meth:`abort` (worker crashes) — the
        #: bytes never arrive and are not credited anywhere.
        self.aborted_transfers = 0
        self.on_idle: Callable[[], None] | None = None
        self._last_end: float | None = None
        # Running busy-time total: O(1) utilization for the trace counter.
        self._busy_accum = 0.0
        # Hot-path caches: the warm-gap threshold, the pre-bound completion
        # callback (building a bound method per send is measurable), and the
        # slow-start table for the bandwidth seen by the last send.  The
        # table only changes at schedule breakpoints (or every send, under
        # noise), so this skips the memo-dict lookup that hashes TCPParams.
        self._warm_threshold = tcp.warm_threshold
        self._finish_cb = self._finish
        self._tbl = None
        self._tbl_bw = -1.0
        # Delay grid (see Engine): transfer durations are snapped before
        # ``end = start + duration`` so completion times stay exact grid
        # multiples.  Cached off the engine once; None disables snapping.
        self._quantum = engine._quantum
        self._inv_quantum = engine._inv_quantum
        #: Fast-forward journal (repro.sim.fastforward); a list while one
        #: steady-state cycle is being recorded, else None.
        self._ff_journal: list | None = None
        # Constant-schedule hint: most links never change bandwidth, so
        # their sends can skip the segment lookup entirely.  Keyed by
        # identity so rebinding ``self.schedule`` (fault injection wraps
        # it in a FlappedSchedule) silently disables the shortcut, and by
        # the schedule's mutation version so an in-place ``set_level``
        # (the fleet fabric re-levelling a tenant share) disables it too.
        if len(schedule._times) == 1:
            self._const_sched = schedule
            self._const_bw = schedule._values[0]
            self._const_ver = schedule._version
        else:
            self._const_sched = None
            self._const_bw = 0.0
            self._const_ver = -1

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether a transfer is currently in flight."""
        return self._inflight is not None

    @property
    def busy_until(self) -> float:
        """Completion time of the in-flight transfer (``now`` if idle)."""
        if self._inflight is None:
            return self.engine.now
        return self._inflight[_RECORD].end

    def current_bandwidth(self) -> float:
        """Available (configured) bandwidth right now, before TCP effects."""
        return self.schedule.value(self.engine.now)

    def estimate_time(self, nbytes: float) -> float:
        """Transfer time ``nbytes`` would take if started now (no noise)."""
        return float(
            transfer_time(
                nbytes, self.current_bandwidth(), self.tcp, warm=self._is_warm()
            )
        )

    def _is_warm(self) -> bool:
        """Whether a send starting now rides an already-open window."""
        if self._last_end is None:
            return False
        return is_warm(self.engine.now - self._last_end, self.tcp)

    # ------------------------------------------------------------------
    def send(
        self,
        nbytes: float,
        tag: object = None,
        on_complete: Callable[[], None] | None = None,
        extra_time: float = 0.0,
    ) -> float:
        """Start a transfer; returns its completion time.

        ``extra_time`` adds strategy-level blocking overhead (e.g. P3's
        per-partition stop-and-wait synchronization) during which the link
        stays occupied.  Raises :class:`SimulationError` if the link is
        busy — callers must serialize via the ``on_idle`` callback,
        mirroring Constraint (8).
        """
        end = self._start(nbytes, tag, on_complete, extra_time)
        self._finish_event = self.engine.schedule(end, self._finish_cb)
        return end

    def _start(
        self,
        nbytes: float,
        tag: object,
        on_complete: Callable[[], None] | None,
        extra_time: float,
    ) -> float:
        """Start a transfer without scheduling its completion event — the
        body of :meth:`send`; :func:`send_batch` defers the event so
        same-instant completions share one."""
        if self._inflight is not None:
            raise SimulationError(
                f"link {self.name!r} is busy until t={self._inflight[_RECORD].end:.6f}"
            )
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes!r}")
        if extra_time < 0:
            raise SimulationError(f"negative extra_time {extra_time!r}")
        start = self.engine._now
        sched = self.schedule
        bandwidth = (
            self._const_bw
            if sched is self._const_sched and sched._version == self._const_ver
            else sched.value(start)
        )
        if self._noise_rng is not None and self._noise_std > 0:
            factor = 1.0 + self._noise_std * float(self._noise_rng.standard_normal())
            bandwidth *= min(max(factor, 0.1), 2.0)
        # Inlined transfer_time(): schedule validation guarantees a positive
        # bandwidth, and nbytes was checked above, so the scalar fast path
        # reduces to one table replay.  Same IEEE-754 sequence as the
        # wrapper — durations are bit-identical.
        if bandwidth != self._tbl_bw:
            self._tbl = _slow_start_table(bandwidth, self.tcp)
            self._tbl_bw = bandwidth
        last_end = self._last_end
        warm = last_end is not None and (start - last_end) <= self._warm_threshold
        duration = self._tbl.transfer_time(nbytes, warm) + extra_time
        quantum = self._quantum
        if quantum is not None:
            duration = round(duration * self._inv_quantum) * quantum
        end = start + duration
        self._inflight = (_tuple_new(TransferRecord, (start, end, nbytes, tag)), on_complete)
        self._finish_event = None
        return end

    def abort(self) -> object | None:
        """Abort the in-flight transfer (the sender crashed mid-send).

        The bytes are lost: no record is appended, no ``on_complete`` or
        ``on_idle`` callback fires, and the completion event is cancelled.
        Returns the aborted transfer's tag, or ``None`` if the link was
        idle.  TCP state is reset (the next send pays a cold start).
        """
        inflight = self._inflight
        if inflight is None:
            return None
        record = inflight[_RECORD]
        if self._finish_event is not None:
            self._finish_event.cancel()
            self._finish_event = None
        self._inflight = None
        self._last_end = None
        self.aborted_transfers += 1
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(
                "transfer.aborted",
                "fault",
                self.engine.now,
                f"net/{self.name}",
                {"nbytes": record.nbytes, "started": record.start},
            )
        return record.tag

    def _finish(self) -> None:
        inflight = self._inflight
        if inflight is None:  # pragma: no cover - defensive
            raise SimulationError(f"link {self.name!r} finished with no transfer")
        record, on_complete = inflight
        start, end, nbytes, tag = record
        self._inflight = None
        self._finish_event = None
        self._last_end = end
        self.records.append(record)
        self.total_bytes += nbytes
        self._busy_accum += end - start
        journal = self._ff_journal
        if journal is not None:
            journal.append(("link", self, start, end, nbytes, tag))
        trace = self.engine.trace
        if trace.enabled:
            name = (
                f"{tag[0]} i{tag[1]}"
                if isinstance(tag, tuple) and len(tag) == 2
                else "transfer"
            )
            track = f"net/{self.name}"
            trace.complete(
                name,
                "transfer",
                start,
                end,
                track,
                {"nbytes": nbytes},
            )
            now = self.engine.now
            if now > 0:
                trace.counter(
                    "link.utilization",
                    "net",
                    now,
                    track,
                    {"busy_fraction": self._busy_accum / now},
                )
        if on_complete is not None:
            on_complete()
        if self.on_idle is not None:
            self.on_idle()

    # ------------------------------------------------------------------
    # Steady-state fast-forward protocol (repro.sim.fastforward)
    # ------------------------------------------------------------------
    def ff_state(self, ctx) -> tuple:
        """Canonical time-relative link state for the cycle fingerprint.

        The warm/cold TCP state is exactly the gap to the previous
        transfer's completion (see :func:`repro.net.tcp.is_warm`), so
        exposing ``_last_end`` relative to the boundary instant — plus
        the in-flight transfer, if any — captures everything a future
        send's duration can depend on under a constant schedule.
        """
        inflight = self._inflight
        if inflight is None:
            return (ctx.rel_opt(self._last_end), None)
        start, end, nbytes, tag = inflight[_RECORD]
        return (
            ctx.rel_opt(self._last_end),
            (
                nbytes,
                ctx.tag(tag),
                ctx.rel(start),
                ctx.rel(end),
                ctx.callback(inflight[_ON_COMPLETE]),
            ),
        )

    def ff_shift(self, shift) -> None:
        """Translate absolute times (and iteration tags) by the shift."""
        dt = shift.dt
        if self._last_end is not None:
            self._last_end += dt
        inflight = self._inflight
        if inflight is not None:
            (start, end, nbytes, tag), on_complete = inflight
            self._inflight = (
                TransferRecord(start + dt, end + dt, nbytes, shift.tag(tag)),
                shift.callback(on_complete),
            )

    # ------------------------------------------------------------------
    def busy_time(self, until: float | None = None) -> float:
        """Total time the link spent transferring, up to ``until``.

        O(1) for the common case: completed records all lie in the past,
        so the maintained ``_busy_accum`` already is their sum.  Only a
        horizon strictly before ``now`` (retrospective queries) needs the
        per-record clamp.
        """
        horizon = self.engine.now if until is None else until
        if horizon >= self.engine.now:
            total = self._busy_accum
        else:
            total = sum(
                max(0.0, min(r.end, horizon) - min(r.start, horizon))
                for r in self.records
            )
        inflight = self._inflight
        if inflight is not None and inflight[_RECORD].start < horizon:
            total += min(inflight[_RECORD].end, horizon) - inflight[_RECORD].start
        return total


# ----------------------------------------------------------------------
def _drain_batch(links: tuple[Link, ...], on_complete: Callable[[], None] | None) -> None:
    """Finish the batched transfers in launch order, then fire the step's
    one barrier callback.

    A link whose transfer was aborted after the batch launched has no
    in-flight state any more and is skipped — exactly what cancelling its
    individual completion event would have done.
    """
    for link in links:
        if link._inflight is not None:
            link._finish()
    if on_complete is not None:
        on_complete()


def send_batch(
    links: Sequence[Link],
    nbytes: float,
    tag: object = None,
    on_complete: Callable[[], None] | None = None,
    extra_time: float = 0.0,
) -> float:
    """Start the same ``nbytes`` transfer on every link at once.

    This is the barrier-step entry point (collective chunk steps): all
    ``links`` start at the current instant, and ``on_complete`` fires
    **once**, after every link of the step has finished.

    The duration is computed once, on the first link, and reused for every
    other link whose duration inputs equal the first's: idle, a constant
    schedule at the same level and version, the same TCP parameters, the
    same warm gap (``_last_end``), no noise, the same time quantum.  Those
    links share the first's in-flight state, so one immutable
    :class:`TransferRecord` lands in all their ``records``.  Any other
    link takes the full per-link path (which raises
    :class:`SimulationError` on a busy link): durations are bit-identical
    to N :meth:`Link.send` calls.

    When all completion times are equal (the common case) ONE engine event
    finishes the links in launch order and then fires ``on_complete``.
    That is the order N individual sends would have produced: their
    completion events would sit at one timestamp with consecutive sequence
    numbers, so nothing can interleave them.  When completion times differ
    (noisy or heterogeneous links), each link keeps its own event, in
    launch order, and the last one to fire carries ``on_complete`` as its
    transfer callback.  Returns the latest completion time.
    """
    first = links[0]
    end = first._start(nbytes, tag, None, extra_time)
    shared = first._inflight
    sched = first.schedule
    key = (
        (first._const_bw, first.tcp, first._last_end, first._quantum, 0.0)
        if sched is first._const_sched
        and sched._version == first._const_ver
        and not first._noise_std
        else None
    )
    same = True
    for link in links[1:]:
        sched = link.schedule
        if (
            key is not None
            and link._inflight is None
            and sched is link._const_sched
            and sched._version == link._const_ver
            and (link._const_bw, link.tcp, link._last_end, link._quantum, link._noise_std) == key
        ):
            link._inflight = shared  # idle: no finish event to clear
        elif link._start(nbytes, tag, None, extra_time) != end:
            same = False
    engine = first.engine
    if same:
        engine.schedule(end, _drain_batch, tuple(links), on_complete)
        return end
    last = first
    for link in links:
        link_end = link._inflight[_RECORD].end
        link._finish_event = engine.schedule(link_end, link._finish_cb)
        if link_end >= end:
            end, last = link_end, link
    last._inflight = (last._inflight[_RECORD], on_complete)
    return end
