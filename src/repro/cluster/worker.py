"""Worker node: the compute pipeline plus one communication port per PS.

The worker is where the paper's dataflow comes together.  Per iteration:

1. **Forward** — layers run in order; layer ``l`` may only start once all
   of its parameter tensors were updated by the previous iteration's pull
   (this gating is the source of all GPU wait time — Eq. (2)).
2. **Backward** — runs uninterrupted (it depends on nothing remote); the
   KV store flushes gradient buckets at the stepwise times of the
   iteration's :class:`~repro.agg.kvstore.GenerationSchedule`.
3. **Push/pull** — every flushed gradient is handed to the worker's
   *ports*.  A :class:`PSPort` is the communication agent towards one
   parameter server: the scheduler under test proposes push units, the PS
   mirrors each one back as a pull once BSP aggregation completes.  In the
   default shared-channel mode both directions serialize on one link
   (Constraint (8); ``u = t + 2E``), and the port arbitrates pending pulls
   against the scheduler's proposed push: by gradient priority for
   priority schedulers, by arrival order for the MXNet FIFO engine.  In
   the full-duplex ablation pulls use a separate downlink.

The paper's star is a worker with one port; the key-sharded tier
(:mod:`repro.cluster.sharded`) gives it one port per shard server, each
with its own scheduler instance, link pair, pull queue and stall timer,
so a head-of-line block on one shard never delays another.  Ports run on
the server's **local** piece indices (see :mod:`repro.cluster.sharding`;
on a one-server tier every index maps to itself) and credit the worker's
**global** per-gradient counters, so the recorder's push/pull marks fire
once per gradient per iteration however its bytes were split.  The
collective backend (:mod:`repro.cluster.collective`) plugs in a port that
reports to its negotiating controller instead.

Per-iteration compute jitter is a log-normal factor applied to both passes
(and to the generation schedule), independent per worker — this is what
desynchronizes workers and exercises BSP straggler effects.

**Fault mode.**  When the trainer wires a
:class:`~repro.faults.injector.FaultInjector`, every port runs a
reliable-delivery protocol against its server: each committed push
becomes a sequence-numbered :class:`~repro.cluster.messages.PushMessage`,
delivery and acknowledgement legs can each be dropped (or lost wholesale
while the PS is inside a :class:`~repro.faults.plan.ServerCrash` outage),
and unacknowledged messages retransmit under the plan's exponential-backoff
:class:`~repro.cluster.messages.RetryPolicy` (the PS applies each sequence
number at most once, so retries never double-credit bytes).  A crash
suspends the worker: compute completions occurring during the outage are
deferred and replayed at restart, every port's in-flight transfer is
aborted (its bytes lost and later retransmitted), and queued pulls
survive.  With no injector every fault branch is behind a single ``is
None`` check and the event sequence is bit-identical to the fault-free
build.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from functools import partial
from heapq import heapify, heappop, heappush
from typing import Callable

import numpy as np

from repro.agg.kvstore import GenerationSchedule
from repro.cluster.messages import PullUnit, PushMessage
from repro.cluster.ps import ParameterServer
from repro.cluster.sharding import ShardAssignment
from repro.errors import SimulationError
from repro.metrics.timeline import Recorder
from repro.models.compute import ComputeProfile
from repro.models.gradients import gradient_table
from repro.net.link import Link
from repro.net.transport import LinkTransport
from repro.sched.base import CommScheduler, TransferUnit
from repro.sim.engine import Engine

__all__ = ["Worker", "PSPort"]

_TOL = 1e-9


class Worker:
    """One worker node: the compute pipeline driving a list of ports."""

    #: Steady-state fast-forward detector (repro.sim.fastforward); class
    #: attribute so the fault-free hot path pays one attribute load.
    _ff = None
    #: Whether a flush records this worker's own ready mark (a collective
    #: worker's is overwritten by the controller's collective-ready mark).
    _own_ready_mark = True

    def __init__(
        self,
        engine: Engine,
        worker_id: int,
        compute: ComputeProfile,
        gen_schedule: GenerationSchedule,
        recorder: Recorder,
        n_iterations: int,
        jitter_rng: np.random.Generator,
        jitter_std: float = 0.0,
        compute_scale: float = 1.0,
        on_done: Callable[[int], None] | None = None,
        stall_timeout: float = 5e-3,
        faults=None,
    ):
        self.engine = engine
        self.worker_id = worker_id
        self._quantum = engine._quantum
        self._inv_quantum = engine._inv_quantum
        self.compute = compute
        self.gen_schedule = gen_schedule
        self.recorder = recorder
        self.n_iterations = n_iterations
        self._jitter_rng = jitter_rng
        self._jitter_std = jitter_std
        self._compute_scale = compute_scale
        self._on_done = on_done
        self._stall_timeout = stall_timeout
        #: Communication agents, attached by the backend's wiring
        #: (:func:`repro.cluster.sharded.build_ps_tier`, or the collective
        #: controller's port).
        self.ports: list = []

        grads = gradient_table(compute.model)
        self._n_grads = len(grads)
        self._layer_of = [g.layer_index for g in grads]
        self._layer_tensor_counts = [0] * len(compute.model.layers)
        for g in grads:
            self._layer_tensor_counts[g.layer_index] += 1
        self._total_tensor_count = sum(self._layer_tensor_counts)
        self._sizes = [float(s) for s in gen_schedule.sizes]

        # Per-iteration state (set in _begin_forward/_begin_backward).
        self._iter = -1
        self._comm_iter = -1
        self._factor = 1.0
        self._fwd_layer = 0
        self._fwd_chunk_pending = False
        self._fwd_start_times: list[float] = []
        self._layer_pending = [0] * len(self._layer_tensor_counts)
        self._pending_updates = 0
        self._pulled = [0.0] * self._n_grads
        self._pushed = [0.0] * self._n_grads
        self._ready_time: list[float | None] = [None] * self._n_grads
        self._iter_rec = None
        self._compute_done = False
        self._done = False

        # Crash state is worker-wide (one compute pipeline); delivery state
        # lives per port.  All unused when faults is None.
        self._faults = faults
        self._suspended = False
        self._deferred: list[tuple[Callable, tuple]] = []

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """All iterations computed and the final parameters pulled."""
        return self._done

    @property
    def fwd_start_times(self) -> list[float]:
        """Forward-start timestamps (iteration boundaries)."""
        return list(self._fwd_start_times)

    def start(self) -> None:
        """Kick off iteration 0 at the current simulation time."""
        self.engine.schedule(self.engine.now, self._begin_forward, 0)

    # ------------------------------------------------------------------
    # Fault handling: crash/restart and deferred-event plumbing
    # ------------------------------------------------------------------
    def _snap(self, duration: float) -> float:
        """Round a compute/flush duration onto the engine's time-quantum
        grid (identity when no quantum is configured).  Workers snap
        durations *once* and use the snapped value for both the recorded
        interval and the scheduled completion, so recorded timelines stay
        translation-invariant under fast-forward."""
        inv = self._inv_quantum
        if inv:
            return round(duration * inv) * self._quantum
        return duration

    def _schedule_after(self, delay: float, fn: Callable[..., None], *args):
        """Engine schedule that respects crash suspension in fault mode."""
        if self._faults is None:
            return self.engine.schedule_after(delay, fn, *args)
        return self.engine.schedule_after(delay, self._guarded, fn, *args)

    def _guarded(self, fn: Callable[..., None], *args) -> None:
        """During an outage, completions queue up and replay at restart."""
        if self._suspended:
            self._deferred.append((fn, args))
        else:
            fn(*args)

    def crash(self) -> None:
        """Crash the worker: abort every port's in-flight traffic, freeze
        compute.  Compute events that complete during the outage are
        deferred by :meth:`_guarded` and replayed, in order, at
        :meth:`restart`."""
        self._suspended = True
        for port in self.ports:
            port.abort()

    def restart(self) -> None:
        """Return from an outage: replay deferred completions, resume
        communication (retransmits first)."""
        self._suspended = False
        deferred, self._deferred = self._deferred, []
        for fn, args in deferred:
            fn(*args)
        for port in self.ports:
            port.resume()

    # ------------------------------------------------------------------
    # Forward propagation
    # ------------------------------------------------------------------
    def _begin_forward(self, iteration: int) -> None:
        now = self.engine.now
        if iteration > 0:
            self._end_comm_iteration(iteration - 1, now)
        self._iter = iteration
        self._fwd_start_times.append(now)
        self._factor = self._compute_scale * math.exp(
            self._jitter_std * float(self._jitter_rng.standard_normal())
        )
        self._iter_rec = self.recorder.iteration_record(self.worker_id, iteration)
        self.recorder.iter_field(self._iter_rec, "fwd_start", now)
        self._fwd_layer = 0
        self._advance_forward()

    def _end_comm_iteration(self, iteration: int, now: float) -> None:
        span = now - self._fwd_start_times[-1]
        for port in self.ports:
            port.end_iteration(iteration, span, now)

    def _advance_forward(self) -> None:
        """Run consecutive layers whose parameters are ready; else wait."""
        if self._fwd_chunk_pending:
            return
        n_layers = len(self.compute.fwd_times)
        start = self._fwd_layer
        if start >= n_layers:
            return
        end = start
        while end < n_layers and self._layer_pending[end] == 0:
            end += 1
        if end == start:
            return  # GPU idles until the gating pull completes
        duration = self._snap(float(self.compute.fwd_times[start:end].sum()) * self._factor)
        now = self.engine.now
        self.recorder.gpu_busy(self.worker_id, self._iter, "fwd", now, now + duration)
        self._fwd_chunk_pending = True
        self._schedule_after(duration, self._forward_chunk_done, end)

    def _forward_chunk_done(self, next_layer: int) -> None:
        self._fwd_chunk_pending = False
        self._fwd_layer = next_layer
        if next_layer >= len(self.compute.fwd_times):
            self._begin_backward()
        else:
            self._advance_forward()

    # ------------------------------------------------------------------
    # Backward propagation
    # ------------------------------------------------------------------
    def _begin_backward(self) -> None:
        now = self.engine.now
        iteration = self._iter
        assert self._iter_rec is not None
        self.recorder.iter_field(self._iter_rec, "fwd_end", now)

        sched = self.gen_schedule.scaled(self._factor)
        self._comm_iter = iteration
        # Reset pull gating for the *next* forward pass.
        self._layer_pending = list(self._layer_tensor_counts)
        self._pending_updates = self._total_tensor_count
        self._pulled = [0.0] * self._n_grads
        self._pushed = [0.0] * self._n_grads
        self._ready_time = [None] * self._n_grads

        for port in self.ports:
            port.begin_iteration(iteration, sched, now)
        backward_time = self._snap(sched.backward_time)
        self.recorder.gpu_busy(
            self.worker_id, iteration, "bwd", now, now + backward_time
        )
        if self._faults is not None:
            # Previous iteration fully applied: reset per-pull retry counts.
            for port in self.ports:
                port.clear_pull_attempts()
        for bucket in sched.buckets:
            flush_time = self._snap(float(sched.c[bucket[0]]))
            self._schedule_after(flush_time, self._bucket_ready, iteration, bucket)
        self._schedule_after(backward_time, self._backward_done, iteration)
        ff = self._ff
        if ff is not None:
            ff.iteration_boundary(iteration)

    def _bucket_ready(self, iteration: int, bucket: tuple[int, ...]) -> None:
        now = self.engine.now
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(
                f"flush g{bucket[0]}" if len(bucket) == 1 else f"flush g{bucket[0]}+",
                "kv",
                now,
                f"worker{self.worker_id}/assembly",
                {"iteration": iteration, "grads": list(bucket)},
            )
        ports = self.ports
        for grad in bucket:
            for port in ports:
                port.gradient_ready(grad, now)
            self._ready_time[grad] = now
            if self._own_ready_mark:
                self.recorder.mark_ready(self.worker_id, iteration, grad, now)
        for port in ports:
            port.pump()

    def _backward_done(self, iteration: int) -> None:
        assert self._iter_rec is not None
        self.recorder.iter_field(self._iter_rec, "bwd_end", self.engine.now)
        if iteration + 1 < self.n_iterations:
            self._begin_forward(iteration + 1)
        else:
            self._end_comm_iteration(iteration, self.engine.now)
            self._compute_done = True
            self._check_done()

    # ------------------------------------------------------------------
    # Port callbacks: translate a port's local piece indices to gradients
    # ------------------------------------------------------------------
    def _credit_push(
        self, port: "PSPort", unit: TransferUnit, iteration: int, now: float
    ) -> None:
        pieces = port.pieces
        for seg in unit.segments:
            grad = pieces[seg.grad].grad
            self._pushed[grad] += seg.nbytes
            if self._pushed[grad] >= self._sizes[grad] - _TOL:
                self.recorder.mark_push_end(self.worker_id, iteration, grad, now)

    def _credit_pulls(
        self, port: "PSPort", batch: list[PullUnit], start: float, now: float
    ) -> None:
        forward_was_blocked = (
            self._fwd_layer < len(self.compute.fwd_times)
            and not self._fwd_chunk_pending
        )
        pieces = port.pieces
        for pull in batch:
            if pull.iteration != self._comm_iter:
                raise SimulationError(
                    f"worker {self.worker_id} pulled iteration {pull.iteration} "
                    f"while communicating iteration {self._comm_iter}"
                )
            seg = pull.segment
            grad = pieces[seg.grad].grad
            self._pulled[grad] += seg.nbytes
            if self._pulled[grad] >= self._sizes[grad] - _TOL:
                self.recorder.mark_pull_end(
                    self.worker_id, pull.iteration, grad, now
                )
                layer = self._layer_of[grad]
                self._layer_pending[layer] -= 1
                self._pending_updates -= 1
                if self._layer_pending[layer] < 0:
                    raise SimulationError(
                        f"worker {self.worker_id}: layer {layer} over-updated"
                    )
        trace = self.engine.trace
        if trace.enabled:
            args: dict[str, object] = {
                "grads": [pieces[p.segment.grad].grad for p in batch]
            }
            if port.sharded:
                args["shard"] = port.shard
            args["nbytes"] = sum(p.total_bytes for p in batch)
            args["unblocked_forward"] = forward_was_blocked
            trace.complete(
                f"pull i{batch[0].iteration}", "comm", start, now,
                f"{port.track}/comm", args,
            )
        if forward_was_blocked and self._iter == self._comm_iter + 1:
            self._advance_forward()
        self._check_done()

    def _check_done(self) -> None:
        if self._done or not self._compute_done:
            return
        if self._pending_updates == 0:
            self._done = True
            if self._on_done is not None:
                self._on_done(self.worker_id)

    # ------------------------------------------------------------------
    # Steady-state fast-forward protocol (repro.sim.fastforward)
    # ------------------------------------------------------------------
    def ff_state(self, ctx) -> tuple:
        """Canonical time-relative snapshot of all behaviour-bearing state:
        the compute pipeline plus each port's.  Absolute times become
        offsets from the boundary timestamp and iteration labels offsets
        from the boundary iteration."""
        return (
            ctx.rel_iter(self._iter),
            ctx.rel_iter(self._comm_iter),
            self._factor,
            self._fwd_layer,
            self._fwd_chunk_pending,
            None if not self._fwd_start_times else ctx.rel(self._fwd_start_times[-1]),
            tuple(self._layer_pending),
            self._pending_updates,
            tuple(self._pulled),
            tuple(self._pushed),
            tuple(ctx.rel_opt(t) for t in self._ready_time),
            self._compute_done,
            self._done,
        ) + tuple(port.ff_state(ctx) for port in self.ports)

    def ff_shift(self, shift) -> None:
        """Translate the worker by ``shift.dt`` seconds / ``shift.diter``
        iterations.  ``_fwd_start_times`` needs no translation: the journal
        replay already appended the skipped cycles' (shifted) forward-start
        values, and entries before the replay window are real history."""
        dt = shift.dt
        self._iter += shift.diter
        self._comm_iter += shift.diter
        self._ready_time = [
            None if t is None else t + dt for t in self._ready_time
        ]
        for port in self.ports:
            port.ff_shift(shift)


class PSPort:
    """Communication agent of one worker towards one parameter server.

    Drives the worker's link pair to that server: shared-channel
    arbitration between the scheduler's proposed push and pending pulls,
    priority-prefix pull batching, the stall-probe escape hatch, and (in
    fault mode) the reliable-delivery protocol with its own sequence
    numbers, retry queue and drop rolls — a drop on one shard never
    delays another shard's traffic.  The server calls :meth:`enqueue_pull`
    on the port directly (ports are what ``attach_workers`` receives).

    *The one-shard rule.*  On a one-server tier the port keeps the star's
    trace labels: comm/assembly/wait rows on ``worker{w}/...`` and span
    arguments without shard fields.  With several servers each port's
    rows live under ``worker{w}/s{shard}/...`` and spans name the shard.
    """

    def __init__(
        self,
        worker: Worker,
        assignment: ShardAssignment,
        shard: int,
        schedule: GenerationSchedule,
        scheduler: CommScheduler,
        channel: Link,
        downlink: Link | None,
        ps: ParameterServer,
    ):
        self.worker = worker
        self.engine = worker.engine
        self.worker_id = worker.worker_id
        self._faults = worker._faults
        self.shard = shard
        #: Local index -> :class:`~repro.cluster.sharding.ShardPiece`.
        self.pieces = assignment.by_shard[shard]
        # Global gradient -> this port's local piece indices, slice order.
        self._locals_of = assignment.local_indices[shard]
        #: The server's local generation-schedule template.
        self.schedule = schedule
        self.scheduler = scheduler
        self.channel = channel
        self.transport = LinkTransport(channel)
        self.downlink = downlink
        self.ps = ps
        self.sharded = assignment.n_servers > 1
        self.track = (
            f"worker{self.worker_id}/s{shard}" if self.sharded
            else f"worker{self.worker_id}"
        )
        # Heap of (key, pull, arrival).  The key replicates a linear
        # ``min``/stable-``sorted`` selection exactly: priority order with
        # arrival and an insertion counter as tie-breakers, except in the
        # shared-channel FIFO mode where arrival order rules.  (A duplex
        # downlink always drains by priority, whatever the scheduler.)
        self._pull_heap: list[tuple[tuple, PullUnit, float]] = []
        self._pull_seq = itertools.count()
        self._pull_by_priority = (downlink is not None) or not scheduler.fifo_channel
        self._stall_timer = None
        # Reliable-delivery state (unused — but cheap — without faults).
        self._push_seq = itertools.count()
        self._outstanding: dict[int, PushMessage] = {}
        self._retry_queue: deque[PushMessage] = deque()
        self._retry_timers: dict[int, object] = {}
        self._inflight_push: PushMessage | None = None
        self._inflight_pulls: dict[Link, list[PullUnit]] = {}
        self._pull_attempts: dict[PullUnit, int] = {}
        self._push_desc: dict[int, dict[str, object] | None] = {}
        channel.on_idle = self.pump
        if downlink is not None:
            downlink.on_idle = self._pump_downlink

    # ------------------------------------------------------------------
    # Worker hooks
    # ------------------------------------------------------------------
    def begin_iteration(self, iteration: int, sched, now: float) -> None:
        # ``sched`` is the worker's scaled global schedule; this server's
        # scheduler gets its local view scaled by the same jitter factor.
        self.scheduler.begin_iteration(
            iteration, self.schedule.scaled(self.worker._factor), now
        )

    def end_iteration(self, iteration: int, span: float, now: float) -> None:
        self.scheduler.end_iteration(iteration, span, now)

    def gradient_ready(self, grad: int, now: float) -> None:
        for local in self._locals_of[grad]:
            self.scheduler.gradient_ready(local, now)

    def clear_pull_attempts(self) -> None:
        self._pull_attempts.clear()

    def abort(self) -> None:
        """Worker crashed: abort this port's in-flight traffic.

        The in-flight push's bytes are lost (the PS never credits a
        partial message) and the message re-enters the retry queue; an
        in-flight pull batch is re-queued for redelivery.
        """
        if self._stall_timer is not None:
            self._stall_timer.cancel()
            self._stall_timer = None
        for link in (self.channel, self.downlink):
            if link is None:
                continue
            tag = link.abort()
            if tag is None:
                continue
            kind = tag[0] if isinstance(tag, tuple) else None
            if kind == "push" and self._inflight_push is not None:
                self._retry_queue.append(self._inflight_push)
                self._inflight_push = None
            elif kind == "pull":
                batch = self._inflight_pulls.pop(link, None)
                if batch:
                    now = self.engine.now
                    for pull in batch:
                        self._enqueue_pull_item(pull, now)

    def resume(self) -> None:
        """Worker restarted: drain the downlink, then the channel."""
        if self.downlink is not None:
            self._pump_downlink()
        self.pump()

    # ------------------------------------------------------------------
    # Pull queue
    # ------------------------------------------------------------------
    def enqueue_pull(self, pull: PullUnit) -> None:
        """The server released updated parameters for this worker."""
        self._enqueue_pull_item(pull, self.engine.now)
        if self.downlink is not None:
            self._pump_downlink()
        else:
            self.pump()

    def _enqueue_pull_item(self, pull: PullUnit, arrival: float) -> None:
        if self._pull_by_priority:
            key = (pull.priority, arrival, next(self._pull_seq))
        else:
            key = (arrival, next(self._pull_seq))
        heappush(self._pull_heap, (key, pull, arrival))

    def _push_arrival(self, unit: TransferUnit) -> float:
        """Arrival time of a proposed push = when its head gradient flushed."""
        ready = self.worker._ready_time[self.pieces[unit.segments[0].grad].grad]
        return ready if ready is not None else self.engine.now

    # ------------------------------------------------------------------
    # Channel pumps
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Drive the (shared) channel: arbitrate pulls vs the proposed push."""
        worker = self.worker
        if worker._done or self.channel.busy:
            return
        if self._faults is not None:
            if worker._suspended:
                return
            # Retransmissions go first: they carry the oldest committed
            # bytes, which every BSP peer is already gated on.
            if self._transmit_next_retry():
                return
        now = self.engine.now
        heap = self._pull_heap if self.downlink is None else None
        push = self.scheduler.propose_unit(now)

        choose_pull = False
        if heap and push is None:
            choose_pull = True
        elif heap and push is not None:
            _, pull, arrival = heap[0]
            if self.scheduler.fifo_channel:
                choose_pull = arrival <= self._push_arrival(push)
            else:
                choose_pull = pull.priority <= push.priority

        if choose_pull:
            self._send_pull_batch(self.channel)
        elif push is not None:
            self._send_push(push)
        elif self.scheduler.pending_bytes > 0:
            # Idle with unsent gradients and nothing to receive: arm the
            # stall timer so window-based flow control cannot wedge the
            # whole BSP ring (see CommScheduler.grant_probe).
            self._arm_stall_timer()

    def _arm_stall_timer(self) -> None:
        if self._stall_timer is not None and self._stall_timer.alive:
            return
        self._stall_timer = self.engine.schedule_after(
            self.worker._stall_timeout, self._stall_check
        )

    def _stall_check(self) -> None:
        self._stall_timer = None
        worker = self.worker
        if (
            worker._done
            or worker._suspended
            or self.channel.busy
            or self._pull_heap
            or self.scheduler.pending_bytes <= 0
        ):
            return
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(
                "stall.probe",
                "sched",
                self.engine.now,
                f"{self.track}/comm",
                {"pending_bytes": self.scheduler.pending_bytes},
            )
        self.scheduler.grant_probe(self.engine.now)
        self.pump()

    def _pump_downlink(self) -> None:
        """Duplex ablation: pulls on their own link, by priority."""
        assert self.downlink is not None
        worker = self.worker
        if (
            worker._done
            or worker._suspended
            or self.downlink.busy
            or not self._pull_heap
        ):
            return
        self._send_pull_batch(self.downlink)

    # ------------------------------------------------------------------
    # Sends and completions
    # ------------------------------------------------------------------
    def _send_pull_batch(self, link: Link) -> None:
        """Send the head pull (the heap front), coalescing more pending
        pulls if the strategy batches responses (``pull_batch_limit``)."""
        _, head_pull, _ = heappop(self._pull_heap)
        batch = [head_pull]
        total = head_pull.total_bytes
        limit = self.scheduler.pull_batch_limit(self.engine.now)
        if limit is not None and self._pull_heap:
            # Strict priority prefix: stop at the first unit that does not
            # fit, so no lower-priority parameter overtakes a pending one.
            if self._pull_by_priority:
                heap = self._pull_heap
                while heap:
                    pull = heap[0][1]
                    if total + pull.total_bytes > limit:
                        break
                    heappop(heap)
                    batch.append(pull)
                    total += pull.total_bytes
            else:
                # Arrival-keyed queue asked to batch by priority: no
                # shipped scheduler hits this (FIFO engines never batch),
                # but the contract is kept via a sorted snapshot.
                candidates = sorted(
                    self._pull_heap, key=lambda e: (e[1].priority, e[2], e[0])
                )
                taken: set = set()
                for entry in candidates:
                    pull = entry[1]
                    if total + pull.total_bytes > limit:
                        break
                    batch.append(pull)
                    total += pull.total_bytes
                    taken.add(entry)
                if taken:
                    self._pull_heap = [
                        e for e in self._pull_heap if e not in taken
                    ]
                    heapify(self._pull_heap)
        if self._faults is not None:
            self._inflight_pulls[link] = batch
        link.send(
            total,
            tag=("pull", batch[0].iteration),
            on_complete=partial(self._pulls_done, link, batch, self.engine.now),
            extra_time=self._unit_sync_time(),
        )

    def _unit_sync_time(self) -> float:
        """Strategy-level blocking sync per message (see CommScheduler)."""
        return self.scheduler.unit_sync_rtts * self.channel.tcp.rtt

    def _send_push(self, unit: TransferUnit) -> None:
        worker = self.worker
        now = self.engine.now
        iteration = worker._comm_iter
        self.scheduler.commit_unit(unit, now)
        for seg in unit.segments:
            piece = self.pieces[seg.grad]
            # The gradient's true first byte: global offset 0, which lives
            # in slice 0 on exactly one shard — the mark fires once.
            if seg.offset <= _TOL and piece.offset <= _TOL:
                worker.recorder.mark_push_start(
                    self.worker_id, iteration, piece.grad, now
                )
        desc: dict[str, object] | None = None
        if self.engine.trace.enabled:
            desc = self.scheduler.describe_unit(unit)
            self._trace_push_spans(unit, desc, now)
        if self._faults is None:
            self.transport.send_unit(
                unit.total_bytes,
                tag=("push", iteration),
                on_complete=partial(self._push_done, iteration, unit, now, desc),
                extra_time=self._unit_sync_time(),
            )
            return
        msg = PushMessage(seq=next(self._push_seq), iteration=iteration, unit=unit)
        self._outstanding[msg.seq] = msg
        self._push_desc[msg.seq] = desc
        self._transmit_push(msg)

    def _trace_push_spans(
        self, unit: TransferUnit, desc: dict[str, object], now: float
    ) -> None:
        """Block-assembly and per-gradient queue-wait spans for one push.

        The assembly span stretches from the first flush of any gradient in
        the unit to the send — the window the scheduler spent packing (or
        deliberately idling, for Prophet).  Each gradient entering the
        channel for the first time additionally gets a wait span (the
        paper's ``t(i) − c(i)``, Fig. 11's wait time) on its own track.
        """
        trace = self.engine.trace
        ready_time = self.worker._ready_time
        readies = [
            ready_time[self.pieces[seg.grad].grad]
            for seg in unit.segments
            if ready_time[self.pieces[seg.grad].grad] is not None
        ]
        trace.complete(
            f"assemble p{unit.priority}",
            "assembly",
            min(readies) if readies else now,
            now,
            f"{self.track}/assembly",
            desc,
        )
        for seg in unit.segments:
            if seg.offset > _TOL:
                continue
            piece = self.pieces[seg.grad]
            ready = ready_time[piece.grad]
            if ready is not None and now > ready:
                args: dict[str, object] = {"grad": piece.grad}
                if self.sharded:
                    args["part"] = piece.part
                    args["shard"] = self.shard
                args["iteration"] = self.worker._comm_iter
                trace.complete(
                    f"wait g{piece.grad}", "wait", ready, now,
                    f"{self.track}/wait", args,
                )

    def _trace_push_done(
        self, iteration: int, start: float, now: float, desc: dict | None
    ) -> None:
        self.engine.trace.complete(
            f"push i{iteration}",
            "comm",
            start,
            now,
            f"{self.track}/comm",
            desc if desc is not None else {},
        )

    def _push_done(
        self,
        iteration: int,
        unit: TransferUnit,
        start: float,
        desc: dict[str, object] | None,
    ) -> None:
        now = self.engine.now
        self.worker._credit_push(self, unit, iteration, now)
        if self.engine.trace.enabled:
            self._trace_push_done(iteration, start, now, desc)
        self.scheduler.unit_sent(unit, now)
        self.ps.receive_push(self.worker_id, iteration, unit)
        # Link on_idle already re-pumps; nothing else to do here.

    def _pulls_done(self, link: Link, batch: list[PullUnit], start: float) -> None:
        now = self.engine.now
        if self._faults is not None:
            self._inflight_pulls.pop(link, None)
            if self._faults.roll_drop("pull", self.worker_id):
                self._schedule_pull_retry(batch)
                return
        for pull in batch:
            self.scheduler.pull_completed(pull.segment.grad, pull.segment.nbytes, now)
        self.worker._credit_pulls(self, batch, start, now)
        # Link on_idle already re-pumps the channel.

    # ------------------------------------------------------------------
    # Reliable push delivery (fault mode)
    # ------------------------------------------------------------------
    def _transmit_next_retry(self) -> bool:
        """Pop and retransmit the oldest pending retry.  Returns whether a
        transmission was started (the channel is now busy)."""
        while self._retry_queue:
            msg = self._retry_queue.popleft()
            if msg.acked:
                continue
            self._transmit_push(msg)
            return True
        return False

    def _transmit_push(self, msg: PushMessage) -> None:
        msg.attempts += 1
        self._inflight_push = msg
        start = self.engine.now
        self.channel.send(
            msg.unit.total_bytes,
            tag=("push", msg.iteration),
            on_complete=partial(self._push_attempt_done, msg, start),
            extra_time=self._unit_sync_time(),
        )

    def _push_attempt_done(self, msg: PushMessage, start: float) -> None:
        """One transmission finished occupying the link: roll the delivery
        and acknowledgement legs, apply at most once, arm retries."""
        self._inflight_push = None
        faults = self._faults
        assert faults is not None
        if self.ps.down:
            # ServerCrash outage: the message reaches a dead endpoint and
            # is lost wholesale; the retransmit finds the warm standby.
            faults.count("lost_pushes")
            self._arm_retry(msg)
            return
        if faults.roll_drop("push", self.worker_id):
            self._arm_retry(msg)
            return
        if self.ps.deliver_push(self.worker_id, msg.iteration, msg.unit, msg.seq):
            msg.delivered = True
            self._account_push(msg, start)
        else:
            faults.count("duplicate_pushes")
        if faults.roll_drop("ack", self.worker_id):
            # Delivered but unacknowledged: the retransmission will reach
            # the PS as a duplicate and exercise the at-most-once filter.
            self._arm_retry(msg)
        else:
            self.worker._schedule_after(self.channel.tcp.rtt, self._push_acked, msg)

    def _account_push(self, msg: PushMessage, start: float) -> None:
        """First delivery of a push: the fault-free completion bookkeeping,
        minus the PS hand-off (which
        :meth:`~repro.cluster.ps.ParameterServer.deliver_push` performed).

        BSP/ASP/SSP all gate forward ``k+1`` on iteration-``k`` pulls, which
        require this delivery — so the first delivery always happens while
        the worker still communicates ``msg.iteration`` and the
        per-gradient crediting matches the fault-free path exactly.
        """
        now = self.engine.now
        if msg.iteration == self.worker._comm_iter:
            self.worker._credit_push(self, msg.unit, msg.iteration, now)
        if self.engine.trace.enabled:
            self._trace_push_done(msg.iteration, start, now, self._push_desc.get(msg.seq))
        self.scheduler.unit_sent(msg.unit, now)

    def _push_acked(self, msg: PushMessage) -> None:
        if msg.acked:
            return
        msg.acked = True
        self._outstanding.pop(msg.seq, None)
        self._push_desc.pop(msg.seq, None)
        timer = self._retry_timers.pop(msg.seq, None)
        if timer is not None:
            timer.cancel()

    def _arm_retry(self, msg: PushMessage) -> None:
        policy = self._faults.retry
        if msg.attempts > policy.max_retries:
            raise SimulationError(
                f"worker {self.worker_id} push seq {msg.seq} exhausted "
                f"{policy.max_retries} retries (iteration {msg.iteration})"
            )
        delay = policy.timeout_for(msg.attempts - 1)
        self._retry_timers[msg.seq] = self.engine.schedule_after(
            delay, self._retry_timeout, msg
        )

    def _retry_timeout(self, msg: PushMessage) -> None:
        self._retry_timers.pop(msg.seq, None)
        if msg.acked or self.worker._done:
            return
        self._faults.count("push_retries")
        self._retry_queue.append(msg)
        self.pump()

    # ------------------------------------------------------------------
    # Reliable pull delivery (fault mode)
    # ------------------------------------------------------------------
    def _schedule_pull_retry(self, batch: list[PullUnit]) -> None:
        """A pull response was lost: re-request the whole batch after the
        policy's backoff (the PS already released it; nothing re-credits)."""
        policy = self._faults.retry
        self._faults.count("pull_retries")
        attempt = 1
        for pull in batch:
            n = self._pull_attempts.get(pull, 0) + 1
            if n > policy.max_retries:
                raise SimulationError(
                    f"worker {self.worker_id} pull for gradient "
                    f"{pull.segment.grad} (iteration {pull.iteration}) "
                    f"exhausted {policy.max_retries} retries"
                )
            self._pull_attempts[pull] = n
            attempt = max(attempt, n)
        delay = policy.timeout_for(attempt - 1)
        self.engine.schedule_after(delay, self._requeue_pulls, batch)

    def _requeue_pulls(self, batch: list[PullUnit]) -> None:
        if self.worker._done:
            return
        now = self.engine.now
        for pull in batch:
            self._enqueue_pull_item(pull, now)
        self.resume()

    # ------------------------------------------------------------------
    # Steady-state fast-forward protocol (repro.sim.fastforward)
    # ------------------------------------------------------------------
    def ff_state(self, ctx) -> tuple:
        """Canonical form of the pull queue (the scheduler and links
        snapshot themselves).  Drain order is fully determined by the
        sorted key order (keys are unique: each carries a fresh insertion
        counter), so the canonical form is the sorted entry list with
        absolute times re-based and the raw counters dropped — two
        boundary snapshots one period apart then compare equal even though
        the counters kept climbing."""
        entries = sorted(self._pull_heap, key=lambda e: e[0])
        return tuple((ctx.rel(arrival), ctx.pull(pull)) for _, pull, arrival in entries)

    def ff_shift(self, shift) -> None:
        """Translate every pull-queue entry by ``shift``.  Adding one
        constant to the time component of each key is order-preserving, so
        the heap invariant survives without re-heapifying."""
        if not self._pull_heap:
            return
        dt = shift.dt
        if self._pull_by_priority:
            self._pull_heap = [
                ((k[0], k[1] + dt, k[2]), shift.pull(p), a + dt)
                for k, p, a in self._pull_heap
            ]
        else:
            self._pull_heap = [
                ((k[0] + dt, k[1]), shift.pull(p), a + dt)
                for k, p, a in self._pull_heap
            ]
