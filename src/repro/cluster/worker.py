"""Worker node: forward/backward compute plus the communication agent.

The worker is where the paper's dataflow comes together.  Per iteration:

1. **Forward** — layers run in order; layer ``l`` may only start once all
   of its parameter tensors were updated by the previous iteration's pull
   (this gating is the source of all GPU wait time — Eq. (2)).
2. **Backward** — runs uninterrupted (it depends on nothing remote); the
   KV store flushes gradient buckets at the stepwise times of the
   iteration's :class:`~repro.agg.kvstore.GenerationSchedule`.
3. **Push/pull** — the scheduler under test proposes push units; the PS
   mirrors each one back as a pull once BSP aggregation completes.  In the
   default shared-channel mode both directions serialize on one link
   (Constraint (8); ``u = t + 2E``), and the worker arbitrates pending
   pulls against the scheduler's proposed push: by gradient priority for
   priority schedulers, by arrival order for the MXNet FIFO engine.  In
   the full-duplex ablation pulls use a separate downlink.

Per-iteration compute jitter is a log-normal factor applied to both passes
(and to the generation schedule), independent per worker — this is what
desynchronizes workers and exercises BSP straggler effects.

**Fault mode.**  When the trainer wires a
:class:`~repro.faults.injector.FaultInjector`, the worker switches its
transport to a reliable-delivery protocol: every committed push becomes a
sequence-numbered :class:`~repro.cluster.messages.PushMessage`, delivery
and acknowledgement legs can each be dropped, and unacknowledged messages
retransmit under the plan's exponential-backoff
:class:`~repro.cluster.messages.RetryPolicy` (the PS applies each sequence
number at most once, so retries never double-credit bytes).  Crashes
suspend the worker: compute completions occurring during the outage are
deferred and replayed at restart, the in-flight transfer is aborted (its
bytes lost and later retransmitted), and queued pulls survive.  With no
injector every fault branch is behind a single ``is None`` check and the
event sequence is bit-identical to the fault-free build.
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
from repro.errors import SimulationError
from repro.metrics.timeline import Recorder
from repro.models.compute import ComputeProfile
from repro.models.gradients import gradient_table
from repro.net.link import Link
from repro.net.transport import LinkTransport, Transport
from repro.sched.base import CommScheduler, TransferUnit
from repro.sim.engine import Engine

__all__ = ["Worker", "ReliableDeliveryMixin"]

_TOL = 1e-9


def _ff_pull_heap_state(heap, ctx) -> tuple:
    """Canonical form of a pull heap for fast-forward fingerprints.

    Drain order is fully determined by the sorted key order (keys are
    unique: each carries a fresh insertion counter), so the canonical form
    is the sorted entry list with absolute times re-based and the raw
    counters dropped — two boundary snapshots one period apart then
    compare equal even though the counters kept climbing.
    """
    entries = sorted(heap, key=lambda e: e[0])
    return tuple((ctx.rel(arrival), ctx.pull(pull)) for _, pull, arrival in entries)


def _ff_shift_pull_heap(heap, shift, by_priority: bool) -> list:
    """Translate every heap entry by ``shift``.  Adding one constant to
    the time component of each key is order-preserving, so the heap
    invariant survives without re-heapifying."""
    dt = shift.dt
    if by_priority:
        return [
            ((k[0], k[1] + dt, k[2]), shift.pull(p), a + dt)
            for k, p, a in heap
        ]
    return [
        ((k[0] + dt, k[1]), shift.pull(p), a + dt)
        for k, p, a in heap
    ]


class ReliableDeliveryMixin:
    """Sequence-numbered reliable push/pull delivery (fault mode only).

    Shared by the single-PS :class:`Worker` and the sharded tier's
    per-shard ``_ShardPort`` agents: each host owns one ``channel`` towards
    one ``ps`` and runs the same protocol — every committed push becomes a
    :class:`~repro.cluster.messages.PushMessage` with a per-host sequence
    number, the delivery and acknowledgement legs can each be dropped (or
    lost wholesale while the PS is inside a
    :class:`~repro.faults.plan.ServerCrash` outage), and unacknowledged
    messages retransmit under the plan's exponential-backoff
    :class:`~repro.cluster.messages.RetryPolicy`.  Lost pull responses
    re-enter the host's pull queue after the same backoff.

    Hosts provide: ``engine``, ``worker_id``, ``channel``, ``ps``,
    ``downlink``, ``_faults``, ``_done``, ``_schedule_after``, ``_pump``,
    ``_pump_downlink``, ``_enqueue_pull_item``, ``_unit_sync_time`` and
    ``_account_push`` (the host-specific first-delivery bookkeeping), plus
    the state initialised by :meth:`_init_reliable_state`.
    """

    def _init_reliable_state(self) -> None:
        """Per-host delivery state (unused — but cheap — without faults)."""
        self._push_seq = itertools.count()
        self._outstanding: dict[int, PushMessage] = {}
        self._retry_queue: deque[PushMessage] = deque()
        self._retry_timers: dict[int, object] = {}
        self._inflight_push: PushMessage | None = None
        self._inflight_pulls: dict[Link, list[PullUnit]] = {}
        self._pull_attempts: dict[PullUnit, int] = {}
        self._push_desc: dict[int, dict[str, object] | None] = {}

    # ------------------------------------------------------------------
    # Reliable push delivery
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
        assert self._faults is not None
        if self.ps.down:
            # ServerCrash outage: the message reaches a dead endpoint and
            # is lost wholesale; the retransmit finds the warm standby.
            self._faults.count("lost_pushes")
            self._arm_retry(msg)
            return
        if self._faults.roll_drop("push", self.worker_id):
            self._arm_retry(msg)
            return
        applied = self.ps.deliver_push(
            self.worker_id, msg.iteration, msg.unit, msg.seq
        )
        if applied:
            msg.delivered = True
            self._account_push(msg, start)
        else:
            self._faults.count("duplicate_pushes")
        if self._faults.roll_drop("ack", self.worker_id):
            # Delivered but unacknowledged: the retransmission will reach
            # the PS as a duplicate and exercise the at-most-once filter.
            self._arm_retry(msg)
        else:
            self._schedule_after(self.channel.tcp.rtt, self._push_acked, msg)

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
        assert self._faults is not None
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
        if msg.acked or self._done:
            return
        assert self._faults is not None
        self._faults.count("push_retries")
        self._retry_queue.append(msg)
        self._pump()

    # ------------------------------------------------------------------
    # Reliable pull delivery
    # ------------------------------------------------------------------
    def _schedule_pull_retry(self, batch: list[PullUnit]) -> None:
        """A pull response was lost: re-request the whole batch after the
        policy's backoff (the PS already released it; nothing re-credits)."""
        assert self._faults is not None
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
        if self._done:
            return
        now = self.engine.now
        for pull in batch:
            self._enqueue_pull_item(pull, now)
        if self.downlink is not None:
            self._pump_downlink()
        self._pump()


class Worker(ReliableDeliveryMixin):
    """One worker node of the training cluster."""

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
        scheduler: CommScheduler,
        channel: Link,
        downlink: Link | None,
        ps: ParameterServer,
        recorder: Recorder,
        n_iterations: int,
        jitter_rng: np.random.Generator,
        jitter_std: float = 0.0,
        compute_scale: float = 1.0,
        on_done: Callable[[int], None] | None = None,
        stall_timeout: float = 5e-3,
        faults=None,
        transport: Transport | None = None,
    ):
        self.engine = engine
        self.worker_id = worker_id
        self._quantum = engine._quantum
        self._inv_quantum = engine._inv_quantum
        self.compute = compute
        self.gen_schedule = gen_schedule
        self.scheduler = scheduler
        self.channel = channel
        # Committed push units leave through the transport abstraction;
        # the default wraps the shared channel and is a pure pass-through
        # (bit-identical to calling ``channel.send`` directly).
        self.transport: Transport = (
            transport if transport is not None else LinkTransport(channel)
        )
        self.downlink = downlink
        self.ps = ps
        self.recorder = recorder
        self.n_iterations = n_iterations
        self._jitter_rng = jitter_rng
        self._jitter_std = jitter_std
        self._compute_scale = compute_scale
        self._on_done = on_done

        grads = gradient_table(compute.model)
        self._n_grads = len(grads)
        self._layer_of = [g.layer_index for g in grads]
        self._layer_tensor_counts = [0] * len(compute.model.layers)
        for g in grads:
            self._layer_tensor_counts[g.layer_index] += 1
        self._total_tensor_count = sum(self._layer_tensor_counts)
        self._sizes = [float(s) for s in gen_schedule.sizes]

        # Channel pumps re-enter via engine callbacks; wire link idleness.
        self.channel.on_idle = self._pump
        if self.downlink is not None:
            self.downlink.on_idle = self._pump_downlink

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
        # Heap of (key, pull, arrival).  The key replicates the old linear
        # ``min``/stable-``sorted`` selection exactly: priority order with
        # arrival and an insertion counter as tie-breakers, except in the
        # shared-channel FIFO mode where arrival order rules.  (A duplex
        # downlink always drains by priority, whatever the scheduler.)
        self._pull_heap: list[tuple[tuple, PullUnit, float]] = []
        self._pull_seq = itertools.count()
        self._pull_by_priority = (downlink is not None) or not scheduler.fifo_channel
        self._compute_done = False
        self._done = False
        self._stall_timeout = stall_timeout
        self._stall_timer = None

        # Fault-mode transport state (all unused when faults is None; the
        # fault-free event sequence must stay bit-identical).
        self._faults = faults
        self._suspended = False
        self._deferred: list[tuple[Callable, tuple]] = []
        self._init_reliable_state()

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
    # Scheduler fan-out hooks.  The single-PS worker drives exactly one
    # scheduler over one channel; the sharded worker
    # (:class:`~repro.cluster.sharded.ShardedWorker`) overrides these to
    # fan every compute-side event out to its per-shard comm agents.
    # ------------------------------------------------------------------
    def _sched_begin_iteration(self, iteration: int, sched, now: float) -> None:
        self.scheduler.begin_iteration(iteration, sched, now)

    def _sched_end_iteration(self, iteration: int, span: float, now: float) -> None:
        self.scheduler.end_iteration(iteration, span, now)

    def _sched_gradient_ready(self, grad: int, now: float) -> None:
        self.scheduler.gradient_ready(grad, now)

    def _pump_all(self) -> None:
        self._pump()

    def _clear_pull_attempts(self) -> None:
        """Reset per-pull retry counters at an iteration boundary (fault
        mode).  The sharded worker fans this out to its ports."""
        self._pull_attempts.clear()

    # ------------------------------------------------------------------
    # Fault handling: crash/restart and deferred-event plumbing
    # ------------------------------------------------------------------
    def _schedule_at(self, time: float, fn: Callable[..., None], *args):
        """Engine schedule that respects crash suspension in fault mode."""
        if self._faults is None:
            return self.engine.schedule(time, fn, *args)
        return self.engine.schedule(time, self._guarded, fn, *args)

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
        """Crash the worker: abort in-flight traffic, freeze compute.

        The in-flight push's bytes are lost (the PS never credits a
        partial message) and the message re-enters the retry queue; an
        in-flight pull batch is re-queued for redelivery.  Compute events
        that complete during the outage are deferred by :meth:`_guarded`
        and replayed, in order, at :meth:`restart`.
        """
        self._suspended = True
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

    def restart(self) -> None:
        """Return from an outage: replay deferred completions, resume
        communication (retransmits first)."""
        self._suspended = False
        deferred, self._deferred = self._deferred, []
        for fn, args in deferred:
            fn(*args)
        if self.downlink is not None:
            self._pump_downlink()
        self._pump()

    # ------------------------------------------------------------------
    # Forward propagation
    # ------------------------------------------------------------------
    def _begin_forward(self, iteration: int) -> None:
        now = self.engine.now
        if iteration > 0:
            span = now - self._fwd_start_times[-1]
            self._sched_end_iteration(iteration - 1, span, now)
        self._iter = iteration
        self._fwd_start_times.append(now)
        self._factor = self._compute_scale * math.exp(
            self._jitter_std * float(self._jitter_rng.standard_normal())
        )
        self._iter_rec = self.recorder.iteration_record(self.worker_id, iteration)
        self.recorder.iter_field(self._iter_rec, "fwd_start", now)
        self._fwd_layer = 0
        self._advance_forward()

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

        self._sched_begin_iteration(iteration, sched, now)
        backward_time = self._snap(sched.backward_time)
        self.recorder.gpu_busy(
            self.worker_id, iteration, "bwd", now, now + backward_time
        )
        if self._faults is not None:
            self._clear_pull_attempts()  # previous iteration fully applied
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
        for grad in bucket:
            self._sched_gradient_ready(grad, now)
            self._ready_time[grad] = now
            if self._own_ready_mark:
                self.recorder.mark_ready(self.worker_id, iteration, grad, now)
        self._pump_all()

    def _backward_done(self, iteration: int) -> None:
        assert self._iter_rec is not None
        self.recorder.iter_field(self._iter_rec, "bwd_end", self.engine.now)
        if iteration + 1 < self.n_iterations:
            self._begin_forward(iteration + 1)
        else:
            span = self.engine.now - self._fwd_start_times[-1]
            self._sched_end_iteration(iteration, span, self.engine.now)
            self._compute_done = True
            self._check_done()

    # ------------------------------------------------------------------
    # Communication: shared channel (pushes + pulls) or duplex
    # ------------------------------------------------------------------
    def enqueue_pull(self, pull: PullUnit) -> None:
        """The PS released updated parameters for this worker."""
        self._enqueue_pull_item(pull, self.engine.now)
        if self.downlink is not None:
            self._pump_downlink()
        else:
            self._pump()

    def _enqueue_pull_item(self, pull: PullUnit, arrival: float) -> None:
        if self._pull_by_priority:
            key = (pull.priority, arrival, next(self._pull_seq))
        else:
            key = (arrival, next(self._pull_seq))
        heappush(self._pull_heap, (key, pull, arrival))

    def _pick_pull(self) -> tuple[PullUnit, float] | None:
        if not self._pull_heap:
            return None
        entry = self._pull_heap[0]
        return entry[1], entry[2]

    def _push_arrival(self, unit: TransferUnit) -> float:
        """Arrival time of a proposed push = when its head gradient flushed."""
        ready = self._ready_time[unit.segments[0].grad]
        return ready if ready is not None else self.engine.now

    def _pump(self) -> None:
        """Drive the (shared) channel: arbitrate pulls vs the proposed push."""
        if self._done or self.channel.busy:
            return
        if self._faults is not None:
            if self._suspended:
                return
            # Retransmissions go first: they carry the oldest committed
            # bytes, which every BSP peer is already gated on.
            if self._transmit_next_retry():
                return
        now = self.engine.now
        pull_item = self._pick_pull() if self.downlink is None else None
        push = self.scheduler.propose_unit(now)

        choose_pull = False
        if pull_item is not None and push is None:
            choose_pull = True
        elif pull_item is not None and push is not None:
            if self.scheduler.fifo_channel:
                choose_pull = pull_item[1] <= self._push_arrival(push)
            else:
                choose_pull = pull_item[0].priority <= push.priority

        if choose_pull:
            assert pull_item is not None
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
            self._stall_timeout, self._stall_check
        )

    def _stall_check(self) -> None:
        self._stall_timer = None
        if (
            self._done
            or self._suspended
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
                f"worker{self.worker_id}/comm",
                {"pending_bytes": self.scheduler.pending_bytes},
            )
        self.scheduler.grant_probe(self.engine.now)
        self._pump()

    def _pump_downlink(self) -> None:
        """Duplex ablation: pulls on their own link, by priority."""
        assert self.downlink is not None
        if self._done or self._suspended or self.downlink.busy or not self._pull_heap:
            return
        self._send_pull_batch(self.downlink)

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
        now = self.engine.now
        self.scheduler.commit_unit(unit, now)
        for seg in unit.segments:
            if seg.offset <= _TOL:
                self.recorder.mark_push_start(
                    self.worker_id, self._comm_iter, seg.grad, now
                )
        desc: dict[str, object] | None = None
        if self.engine.trace.enabled:
            desc = self.scheduler.describe_unit(unit)
            self._trace_push_spans(unit, desc, now)
        if self._faults is None:
            self.transport.send_unit(
                unit.total_bytes,
                tag=("push", self._comm_iter),
                on_complete=partial(self._push_done, self._comm_iter, unit, now, desc),
                extra_time=self._unit_sync_time(),
            )
            return
        msg = PushMessage(seq=next(self._push_seq), iteration=self._comm_iter, unit=unit)
        self._outstanding[msg.seq] = msg
        self._push_desc[msg.seq] = desc
        self._transmit_push(msg)

    def _account_push(self, msg: PushMessage, start: float) -> None:
        """First delivery of a push: the fault-free completion bookkeeping.

        BSP/ASP/SSP all gate forward ``k+1`` on iteration-``k`` pulls, which
        require this delivery — so the first delivery always happens while
        ``_comm_iter == msg.iteration`` and the per-gradient accounting
        below matches the fault-free path exactly.
        """
        now = self.engine.now
        if msg.iteration == self._comm_iter:
            for seg in msg.unit.segments:
                self._pushed[seg.grad] += seg.nbytes
                if self._pushed[seg.grad] >= self._sizes[seg.grad] - _TOL:
                    self.recorder.mark_push_end(
                        self.worker_id, msg.iteration, seg.grad, now
                    )
        trace = self.engine.trace
        if trace.enabled:
            desc = self._push_desc.get(msg.seq)
            trace.complete(
                f"push i{msg.iteration}",
                "comm",
                start,
                now,
                f"worker{self.worker_id}/comm",
                desc if desc is not None else {},
            )
        self.scheduler.unit_sent(msg.unit, now)

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
        prefix = f"worker{self.worker_id}"
        readies = [
            self._ready_time[seg.grad]
            for seg in unit.segments
            if self._ready_time[seg.grad] is not None
        ]
        trace.complete(
            f"assemble p{unit.priority}",
            "assembly",
            min(readies) if readies else now,
            now,
            f"{prefix}/assembly",
            desc,
        )
        for seg in unit.segments:
            if seg.offset > _TOL:
                continue
            ready = self._ready_time[seg.grad]
            if ready is not None and now > ready:
                trace.complete(
                    f"wait g{seg.grad}",
                    "wait",
                    ready,
                    now,
                    f"{prefix}/wait",
                    {"grad": seg.grad, "iteration": self._comm_iter},
                )

    def _push_done(
        self,
        iteration: int,
        unit: TransferUnit,
        start: float,
        desc: dict[str, object] | None,
    ) -> None:
        now = self.engine.now
        for seg in unit.segments:
            self._pushed[seg.grad] += seg.nbytes
            if self._pushed[seg.grad] >= self._sizes[seg.grad] - _TOL:
                self.recorder.mark_push_end(self.worker_id, iteration, seg.grad, now)
        trace = self.engine.trace
        if trace.enabled:
            trace.complete(
                f"push i{iteration}",
                "comm",
                start,
                now,
                f"worker{self.worker_id}/comm",
                desc if desc is not None else {},
            )
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
        forward_was_blocked = (
            self._fwd_layer < len(self.compute.fwd_times)
            and not self._fwd_chunk_pending
        )
        for pull in batch:
            if pull.iteration != self._comm_iter:
                raise SimulationError(
                    f"worker {self.worker_id} pulled iteration {pull.iteration} "
                    f"while communicating iteration {self._comm_iter}"
                )
            seg = pull.segment
            self.scheduler.pull_completed(seg.grad, seg.nbytes, now)
            self._pulled[seg.grad] += seg.nbytes
            if self._pulled[seg.grad] >= self._sizes[seg.grad] - _TOL:
                self.recorder.mark_pull_end(
                    self.worker_id, pull.iteration, seg.grad, now
                )
                layer = self._layer_of[seg.grad]
                self._layer_pending[layer] -= 1
                self._pending_updates -= 1
                if self._layer_pending[layer] < 0:
                    raise SimulationError(
                        f"worker {self.worker_id}: layer {layer} over-updated"
                    )
        trace = self.engine.trace
        if trace.enabled:
            trace.complete(
                f"pull i{batch[0].iteration}",
                "comm",
                start,
                now,
                f"worker{self.worker_id}/comm",
                {
                    "grads": [p.segment.grad for p in batch],
                    "nbytes": sum(p.total_bytes for p in batch),
                    "unblocked_forward": forward_was_blocked,
                },
            )
        if forward_was_blocked and self._iter == self._comm_iter + 1:
            self._advance_forward()
        self._check_done()
        # Link on_idle already re-pumps the channel.

    # ------------------------------------------------------------------
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
    def _ff_compute_state(self, ctx) -> tuple:
        """Canonical snapshot of the compute pipeline (shared with the
        sharded subclass).  Absolute times become offsets from the
        boundary timestamp and iteration labels offsets from the boundary
        iteration."""
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
        )

    def _ff_shift_compute(self, shift) -> None:
        """Translate the compute pipeline by ``shift.dt`` seconds /
        ``shift.diter`` iterations.  ``_fwd_start_times`` needs no
        translation: the journal replay already appended the skipped
        cycles' (shifted) forward-start values, and entries before the
        replay window are real history."""
        dt = shift.dt
        self._iter += shift.diter
        self._comm_iter += shift.diter
        self._ready_time = [
            None if t is None else t + dt for t in self._ready_time
        ]

    def ff_state(self, ctx) -> tuple:
        """Canonical time-relative snapshot of all behaviour-bearing state."""
        return self._ff_compute_state(ctx) + (
            _ff_pull_heap_state(self._pull_heap, ctx),
        )

    def ff_shift(self, shift) -> None:
        self._ff_shift_compute(shift)
        if self._pull_heap:
            self._pull_heap = _ff_shift_pull_heap(
                self._pull_heap, shift, self._pull_by_priority
            )
