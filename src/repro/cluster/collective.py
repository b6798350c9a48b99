"""Collective worker tier: one negotiated scheduler drives the ring.

In the PS backend every worker owns a scheduler instance and its private
uplink — decisions are local.  A collective operation is inherently
global: one allreduce occupies *every* worker's link for the same span,
and it can only start once **all** workers have produced the gradients it
carries.  Real collective engines solve this with a coordinator
negotiation (Horovod's controller, ByteScheduler's rank-0 Core): workers
announce readiness, the coordinator decides the launch order, everybody
executes the same sequence.

This module mirrors that shape.  A :class:`CollectiveController` owns the
single :class:`~repro.sched.base.CommScheduler` instance for the job and
the collective executor (the :class:`~repro.net.transport.Transport`).
:class:`CollectiveWorker` is a :class:`~repro.cluster.worker.Worker`
(forward gating, bucket flushes, iteration bookkeeping) whose one port, a
:class:`CollectivePort`, *reports* to the controller instead of driving a
private scheduler the way a parameter-server port does:

* ``begin_iteration(k)`` fires on the scheduler when the **last** worker
  enters backward ``k`` (the negotiated backward start);
* ``gradient_ready(g)`` fires when the **last** worker flushes ``g``
  (the negotiated generation time — the max over workers, which is what
  the allreduce must wait for anyway);
* a completed operation credits push **and** pull bytes on every worker
  simultaneously (each worker both contributed its chunk and received
  the reduced result), unblocking their next forward passes together.

Because the scheduler still speaks propose/commit against a transport, it
cannot tell the backends apart — FIFO, P3, ByteScheduler, MG-WFBP and
Prophet all run unchanged, which is the point of the topology/scheduler
split.  ``pull_completed`` fires per segment at operation completion so
credit-based flow control (ByteScheduler) replenishes exactly as on the
PS path, where the PS mirrors every pushed byte back as a pull.

**Fault mode.**  With a :class:`~repro.faults.injector.FaultInjector`
wired, a worker crash triggers an *elastic shrink* — the collective
analogue of Horovod Elastic: the in-flight operation is aborted, the
executor rebuilds its ring over the survivors
(:meth:`~repro.net.collective._StepExecutor.remove_worker`), the
scheduler's effective-bandwidth view rescales to the shrunk ring's
``2(k-1)/k`` cost, and the aborted operation resends over the new ring.
Negotiation switches from plain counters to report *sets* so a rank that
dies mid-negotiation cannot wedge the barrier — its removal recounts
every pending negotiation and fires any that the dead rank was the last
holdout of.  A crashed rank never rejoins (ring rebuild is a one-way
door; the restart event logs ``collective.rejoin_refused``), mirroring
how elastic collectives fold a recovered host back in only at the next
job-level rendezvous.  Sustained bandwidth collapse needs no new
machinery: the monitor-fed view sinks, and Prophet's own degradation
ladder (``prophet.fallback`` trace instants) drops the plan back to
PS-star-style FIFO ordering.  Without an injector every fault branch is
behind an ``is None`` check and the event sequence is bit-identical.
"""

from __future__ import annotations

from functools import partial

from repro.agg.kvstore import GenerationSchedule
from repro.cluster.worker import Worker
from repro.errors import SimulationError
from repro.metrics.timeline import Recorder
from repro.net.transport import Transport
from repro.sched.base import CommScheduler, TransferUnit
from repro.sim.engine import Engine

__all__ = [
    "CollectiveController",
    "CollectivePort",
    "CollectiveWorker",
    "EffectiveBandwidthView",
]

_TOL = 1e-9


class EffectiveBandwidthView:
    """Monitor proxy scaling samples by the collective's per-byte cost.

    A flat ring serializes ``2(N-1)/N`` bytes on each link per payload
    byte, so a scheduler that predicts transfer times as ``S / B``
    (Prophet's planner) must see ``B / factor`` — the rate at which
    *payload* actually clears the collective.  Duck-types the subset of
    :class:`~repro.net.monitor.BandwidthMonitor` that scheduler factories
    consume.
    """

    def __init__(self, monitor, factor: float):
        self._monitor = monitor
        self._factor = factor if factor > 0 else 1.0

    def set_factor(self, factor: float) -> None:
        """Rescale after an elastic shrink changed the collective's
        per-byte cost (``2(k-1)/k`` over ``k`` survivors)."""
        self._factor = factor if factor > 0 else 1.0

    @property
    def bandwidth(self) -> float:
        return self._monitor.bandwidth / self._factor

    @property
    def last_sample_time(self) -> float:
        return self._monitor.last_sample_time

    def sample_age(self) -> float:
        return self._monitor.sample_age()


class CollectiveController:
    """Coordinator: negotiates worker readiness, drives the one scheduler.

    The controller is the collective analogue of the worker's channel
    pump: whenever the executor goes idle (or new gradients become ready
    cluster-wide) it asks the scheduler for the next unit and launches it
    as one allreduce operation.
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: CommScheduler,
        executor: Transport,
        recorder: Recorder,
        n_workers: int,
        stall_timeout: float = 5e-3,
        faults=None,
        view: "EffectiveBandwidthView | None" = None,
    ):
        self.engine = engine
        self.scheduler = scheduler
        self.executor = executor
        self.recorder = recorder
        self.n_workers = n_workers
        self.workers: list[CollectiveWorker] = []
        self._stall_timeout = stall_timeout
        self._stall_timer = None
        self._iteration = -1
        self._begin_count = 0
        self._end_count = 0
        self._end_span = 0.0
        self._ready_counts: dict[int, int] = {}
        # Fault mode: negotiation by report *sets* over the active
        # membership (a dead rank's removal recounts pending barriers),
        # plus in-flight-operation tracking for abort-and-resend.
        self._faults = faults
        self._view = view
        self._active: set[int] = set(range(n_workers))
        self._begin_reports: set[int] = set()
        self._pending_begin: tuple[int, GenerationSchedule] | None = None
        self._end_reports: set[int] = set()
        self._pending_end: int | None = None
        self._ready_sets: dict[int, set[int]] = {}
        self._inflight: tuple[int, TransferUnit, dict | None] | None = None

    def attach_workers(self, workers: list["CollectiveWorker"]) -> None:
        if len(workers) != self.n_workers:
            raise SimulationError(
                f"controller wired for {self.n_workers} workers, "
                f"got {len(workers)}"
            )
        self.workers = list(workers)

    # ------------------------------------------------------------------
    # Negotiation: worker reports → scheduler hooks at the Nth report
    # ------------------------------------------------------------------
    def worker_begin_iteration(
        self, worker_id: int, iteration: int, sched: GenerationSchedule, now: float
    ) -> None:
        """A worker entered backward ``iteration``.

        BSP guarantees report order: every worker's iteration-``k`` report
        precedes any iteration-``k+1`` report (forward ``k+1`` gates on
        the last ``k`` operation completing), so a plain counter suffices.
        The scheduler sees the *last* reporter's scaled schedule — the
        negotiated backward start, which is when cluster-wide generation
        actually begins.
        """
        if iteration != self._iteration + 1:
            raise SimulationError(
                f"worker {worker_id} reported backward {iteration} while the "
                f"collective is negotiating iteration {self._iteration + 1}"
            )
        if self._faults is None:
            self._begin_count += 1
            if self._begin_count == self.n_workers:
                self._begin_count = 0
                self._iteration = iteration
                self.scheduler.begin_iteration(iteration, sched, now)
            return
        self._begin_reports.add(worker_id)
        self._pending_begin = (iteration, sched)
        self._maybe_fire_begin(now)

    def _maybe_fire_begin(self, now: float) -> None:
        if self._pending_begin is None or not self._begin_reports >= self._active:
            return
        iteration, sched = self._pending_begin
        self._pending_begin = None
        self._begin_reports.clear()
        self._iteration = iteration
        self.scheduler.begin_iteration(iteration, sched, now)

    def worker_end_iteration(
        self, worker_id: int, iteration: int, span: float, now: float
    ) -> None:
        """A worker crossed its iteration boundary; the scheduler hears the
        slowest span once all have (the BSP-binding iteration time)."""
        if self._faults is None:
            self._end_count += 1
            self._end_span = max(self._end_span, span)
            if self._end_count == self.n_workers:
                span, self._end_span = self._end_span, 0.0
                self._end_count = 0
                self.scheduler.end_iteration(iteration, span, now)
            return
        self._end_reports.add(worker_id)
        self._end_span = max(self._end_span, span)
        self._pending_end = iteration
        self._maybe_fire_end(now)

    def _maybe_fire_end(self, now: float) -> None:
        if self._pending_end is None or not self._end_reports >= self._active:
            return
        iteration = self._pending_end
        self._pending_end = None
        span, self._end_span = self._end_span, 0.0
        self._end_reports.clear()
        self.scheduler.end_iteration(iteration, span, now)

    def worker_gradient_ready(self, worker_id: int, grad: int, now: float) -> None:
        """A worker flushed ``grad``; it is collectively ready (and hence
        schedulable) once every worker has."""
        if self._faults is None:
            count = self._ready_counts.get(grad, 0) + 1
            if count < self.n_workers:
                self._ready_counts[grad] = count
                return
            self._ready_counts[grad] = 0
            self.scheduler.gradient_ready(grad, now)
            for worker in self.workers:
                self.recorder.mark_ready(worker.worker_id, self._iteration, grad, now)
            self.pump()
            return
        self._ready_sets.setdefault(grad, set()).add(worker_id)
        self._maybe_fire_ready(grad, now)

    def _maybe_fire_ready(self, grad: int, now: float) -> None:
        ready = self._ready_sets.get(grad)
        if ready is None or not ready >= self._active:
            return
        del self._ready_sets[grad]
        self.scheduler.gradient_ready(grad, now)
        for worker in self.workers:
            if worker.worker_id not in self._active:
                continue
            self.recorder.mark_ready(worker.worker_id, self._iteration, grad, now)
        self.pump()

    # ------------------------------------------------------------------
    # Elastic shrink (fault mode): a rank crashed and leaves for good
    # ------------------------------------------------------------------
    def worker_crashed(self, worker_id: int) -> None:
        """Remove a crashed rank from the collective.

        Aborts the in-flight operation (its chunks are lost), rebuilds
        the executor's ring over the survivors, rescales the scheduler's
        effective-bandwidth view, recounts every pending negotiation
        barrier the dead rank may have been the last holdout of, and
        resends the aborted operation on the shrunk ring.
        """
        faults = self._faults
        assert faults is not None
        if worker_id not in self._active:
            raise SimulationError(
                f"worker {worker_id} crashed but is not an active member"
            )
        resume: tuple[int, TransferUnit, dict | None] | None = None
        if self.executor.busy and self._inflight is not None:
            resume = self._inflight
            self._inflight = None
            self.executor.abort()
        self.executor.remove_worker(worker_id)
        self._active.discard(worker_id)
        if self._view is not None:
            self._view.set_factor(self.executor.efficiency_factor)
        faults.count("shrinks")
        faults.record(
            "collective.shrink",
            "collective/faults",
            {
                "worker": worker_id,
                "active": sorted(self._active),
                "factor": self.executor.efficiency_factor,
            },
        )
        now = self.engine.now
        # Resend the aborted (already-committed) operation over the shrunk
        # ring *before* recounting barriers — a recount may pump, and the
        # committed unit owns the executor's next slot.
        if resume is not None:
            iteration, unit, desc = resume
            self._launch_unit(iteration, unit, desc, now)
            faults.record(
                "collective.resumed",
                "collective/faults",
                {"iteration": iteration, "nbytes": unit.total_bytes},
            )
        self._maybe_fire_begin(now)
        for grad in sorted(self._ready_sets):
            self._maybe_fire_ready(grad, now)
        self._maybe_fire_end(now)
        self.pump()

    # ------------------------------------------------------------------
    # Driving the executor
    # ------------------------------------------------------------------
    def pump(self) -> None:
        if self.executor.busy or self._all_done():
            return
        now = self.engine.now
        unit = self.scheduler.propose_unit(now)
        if unit is not None:
            self._send_unit(unit, now)
        elif self.scheduler.pending_bytes > 0:
            self._arm_stall_timer()

    def _all_done(self) -> bool:
        return bool(self.workers) and all(w.done for w in self.workers)

    def _arm_stall_timer(self) -> None:
        if self._stall_timer is not None and self._stall_timer.alive:
            return
        self._stall_timer = self.engine.schedule_after(
            self._stall_timeout, self._stall_check
        )

    def _stall_check(self) -> None:
        self._stall_timer = None
        if (
            self._all_done()
            or self.executor.busy
            or self.scheduler.pending_bytes <= 0
        ):
            return
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(
                "stall.probe",
                "sched",
                self.engine.now,
                "collective/comm",
                {"pending_bytes": self.scheduler.pending_bytes},
            )
        self.scheduler.grant_probe(self.engine.now)
        self.pump()

    def _send_unit(self, unit: TransferUnit, now: float) -> None:
        self.scheduler.commit_unit(unit, now)
        iteration = self._iteration
        for seg in unit.segments:
            if seg.offset <= _TOL:
                for worker in self.workers:
                    if self._faults is not None and worker.worker_id not in self._active:
                        continue
                    self.recorder.mark_push_start(
                        worker.worker_id, iteration, seg.grad, now
                    )
        desc: dict[str, object] | None = None
        if self.engine.trace.enabled:
            desc = self.scheduler.describe_unit(unit)
        self._launch_unit(iteration, unit, desc, now)

    def _launch_unit(
        self,
        iteration: int,
        unit: TransferUnit,
        desc: dict[str, object] | None,
        now: float,
    ) -> None:
        if self._faults is not None:
            self._inflight = (iteration, unit, desc)
        self.executor.send_unit(
            unit.total_bytes,
            tag=("allreduce", iteration),
            on_complete=partial(self._op_done, iteration, unit, now, desc),
            extra_time=self.scheduler.unit_sync_rtts * self.executor.tcp.rtt,
        )

    # ------------------------------------------------------------------
    # Steady-state fast-forward protocol (repro.sim.fastforward)
    # ------------------------------------------------------------------
    def ff_state(self, ctx) -> tuple:
        """Canonical snapshot of the negotiation barriers (the scheduler
        and the executor snapshot themselves)."""
        return (
            ctx.rel_iter(self._iteration),
            self._begin_count,
            self._end_count,
            self._end_span,
            tuple(sorted(self._ready_counts.items())),
        )

    def ff_shift(self, shift) -> None:
        self._iteration += shift.diter

    def _op_done(
        self,
        iteration: int,
        unit: TransferUnit,
        start: float,
        desc: dict[str, object] | None,
    ) -> None:
        now = self.engine.now
        self._inflight = None
        trace = self.engine.trace
        if trace.enabled:
            trace.complete(
                f"allreduce i{iteration}",
                "comm",
                start,
                now,
                "collective/comm",
                desc if desc is not None else {},
            )
        self.scheduler.unit_sent(unit, now)
        # The reduced result is now resident on every worker: the unit's
        # bytes count as both pushed and pulled, and credit-based flow
        # control replenishes as if the PS had mirrored the bytes back.
        for seg in unit.segments:
            self.scheduler.pull_completed(seg.grad, seg.nbytes, now)
        for worker in self.workers:
            if self._faults is not None and worker.worker_id not in self._active:
                continue
            worker._collective_credit(unit, iteration, now)
        self.pump()


class CollectivePort:
    """A worker's port onto the collective: reports to the controller.

    Where a :class:`~repro.cluster.worker.PSPort` drives a private
    scheduler, this port forwards every compute-side event to the
    :class:`CollectiveController` that negotiates the one shared
    scheduler; completed operations come back through
    :meth:`CollectiveWorker._collective_credit`.
    """

    def __init__(self, controller: CollectiveController, worker_id: int):
        self.controller = controller
        self.worker_id = worker_id

    def begin_iteration(self, iteration: int, sched, now: float) -> None:
        self.controller.worker_begin_iteration(self.worker_id, iteration, sched, now)

    def end_iteration(self, iteration: int, span: float, now: float) -> None:
        self.controller.worker_end_iteration(self.worker_id, iteration, span, now)

    def gradient_ready(self, grad: int, now: float) -> None:
        self.controller.worker_gradient_ready(self.worker_id, grad, now)

    def pump(self) -> None:
        self.controller.pump()

    def clear_pull_attempts(self) -> None:
        """No per-pull retry state: collective ops carry pushes and pulls
        in one operation, retried at the chunk level by the executor."""

    def ff_state(self, ctx) -> tuple:
        # The controller snapshots the shared communication state.
        return ()

    def ff_shift(self, shift) -> None:
        pass


class CollectiveWorker(Worker):
    """Worker whose communication is a negotiated collective (no PS)."""

    def __init__(self, *args, controller: CollectiveController, **kwargs):
        super().__init__(*args, **kwargs)
        self.controller = controller
        self.ports.append(CollectivePort(controller, self.worker_id))
        # Fault-free, the controller overwrites every member's ready mark;
        # under faults a rank can crash between its flush and that write.
        self._own_ready_mark = self._faults is not None

    # ------------------------------------------------------------------
    # Operation-completion credit (called by the controller)
    # ------------------------------------------------------------------
    def _collective_credit(
        self, unit: TransferUnit, iteration: int, now: float
    ) -> None:
        if iteration != self._comm_iter:
            raise SimulationError(
                f"worker {self.worker_id} credited for iteration {iteration} "
                f"while communicating iteration {self._comm_iter}"
            )
        forward_was_blocked = (
            self._fwd_layer < len(self.compute.fwd_times)
            and not self._fwd_chunk_pending
        )
        for seg in unit.segments:
            self._pushed[seg.grad] += seg.nbytes
            self._pulled[seg.grad] += seg.nbytes
            if self._pulled[seg.grad] >= self._sizes[seg.grad] - _TOL:
                self.recorder.mark_push_end(self.worker_id, iteration, seg.grad, now)
                self.recorder.mark_pull_end(self.worker_id, iteration, seg.grad, now)
                layer = self._layer_of[seg.grad]
                self._layer_pending[layer] -= 1
                self._pending_updates -= 1
                if self._layer_pending[layer] < 0:
                    raise SimulationError(
                        f"worker {self.worker_id}: layer {layer} over-updated"
                    )
        if forward_was_blocked and self._iter == self._comm_iter + 1:
            self._advance_forward()
        self._check_done()

    # ------------------------------------------------------------------
    # Faults: a crashed rank leaves the ring for good
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """A crashed rank leaves the collective permanently.

        Ring membership is a one-way door here (rejoin would need a
        job-level rendezvous — re-splitting chunks, re-warming every
        link): the controller shrinks the ring over the survivors, this
        rank's pending compute events are dropped, and the rank counts as
        done so the surviving BSP group can finish without it.
        """
        if self._faults is None:  # pragma: no cover - wiring guard
            raise SimulationError(
                "CollectiveWorker.crash() without a fault injector"
            )
        if self._done:
            return
        self._suspended = True
        self._deferred.clear()
        self._done = True
        self.controller.worker_crashed(self.worker_id)
        if self._on_done is not None:
            self._on_done(self.worker_id)

    def restart(self) -> None:
        """Rejoin is refused: the ring already rebuilt without this rank
        (see :meth:`crash`); the restart event is logged and ignored."""
        if self._faults is not None:
            self._faults.record(
                "collective.rejoin_refused",
                f"worker{self.worker_id}/faults",
                {"worker": self.worker_id},
            )
