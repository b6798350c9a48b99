"""Parameter server: gradient aggregation under BSP, ASP, or SSP.

The PS keeps, per ``(iteration, gradient)``, the cumulative bytes received
from each worker, and releases each worker's pull (the mirrored response
for a pushed segment, after the update cost) according to the
synchronization model:

* **BSP** (the paper's setting): a byte range is released once *every*
  worker has delivered it — the slowest worker gates every update, at the
  finest granularity the strategy produced.  (Workers push a gradient's
  bytes strictly in order, so cumulative counts describe ranges exactly.)
* **ASP** (the paper's future-work item 1): the server applies each
  worker's gradient as it arrives and responds immediately — a worker's
  pull waits only for its *own* push.  Workers drift freely.
* **SSP** (bounded staleness, cf. the paper's Sec. 6.2 discussion of
  R2SP/DSSP): like ASP, but worker ``w``'s pull for iteration ``k``
  waits until every worker has *completed pushing that gradient* for
  iteration ``k - staleness - 1`` — i.e. the fastest worker's clock
  (completed iterations) may exceed the slowest by at most ``staleness``.

Each pushed segment costs O(1) aggregation work.  Per ``(iteration,
gradient)`` the PS keeps the *coverage*, the minimum of the per-worker
counts, re-reducing it only when the pusher held the minimum.  A waiting
pull records the level its key must reach (BSP: the coverage its range
needs; SSP: the slowest progress its staleness bound needs), and each
key's waiting pulls stay sorted by that need: a push releases a prefix,
and a key still below its smallest need is skipped outright.  Releases
leave in arrival order within a key, keys in the order the push touched
them, the pusher's own pull first.  Consecutive releases at one update
delay form a *release wave*, handed to the workers by one engine event
(:meth:`ParameterServer._deliver`) — bit-identical to one event per
pull, since those would have fired back to back at the same instant.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right, insort
from collections import defaultdict
from operator import itemgetter

import numpy as np

from repro.cluster.messages import PullUnit
from repro.errors import ConfigurationError, SimulationError
from repro.sched.base import TransferUnit
from repro.sim.engine import Engine

__all__ = ["ParameterServer", "SYNC_MODES"]

_TOL = 1e-9

# Fields of a waiting entry ``(need, arrival, pull)``.
_NEED = itemgetter(0)
_ARRIVAL = itemgetter(1)

SYNC_MODES = ("bsp", "asp", "ssp")


class ParameterServer:
    """Aggregates pushes from ``n_workers`` and releases per-key pulls."""

    #: Fast-forward journal (repro.sim.fastforward); a shared list while a
    #: steady-state cycle is being recorded, else None.
    _ff_journal = None

    def __init__(
        self,
        engine: Engine,
        n_workers: int,
        sizes: np.ndarray,
        update_fixed: float = 100e-6,
        update_per_byte: float = 0.0,
        sync_mode: str = "bsp",
        staleness: int = 2,
        faults=None,
        name: str = "ps",
        server_index: int | None = None,
    ):
        if sync_mode not in SYNC_MODES:
            raise ConfigurationError(
                f"sync_mode must be one of {SYNC_MODES}, got {sync_mode!r}"
            )
        if staleness < 0:
            raise ConfigurationError(f"staleness must be >= 0, got {staleness}")
        self.engine = engine
        self.n_workers = n_workers
        #: Trace-track label; shard ``s`` of a sharded tier is ``"ps{s}"``.
        self.name = name
        self.sizes = np.asarray(sizes, dtype=float)
        # Scalar-indexed copy for the per-segment hot loop (indexing a
        # numpy array boxes a fresh np.float64 per lookup).
        self._sizes_list: list[float] = self.sizes.tolist()
        self.update_fixed = update_fixed
        self.update_per_byte = update_per_byte
        self.sync_mode = sync_mode
        self.staleness = staleness
        #: Optional :class:`~repro.faults.injector.FaultInjector`; when set,
        #: pushes arrive through :meth:`deliver_push` with sequence numbers
        #: and pull releases absorb PS-stall windows.
        self._faults = faults
        #: Server index in the PS tier (scopes per-server PS stalls);
        #: ``None`` for a server built outside a tier.
        self.server_index = server_index
        # ServerCrash outage state: while down, the delivery layer treats
        # in-flight pushes as lost (workers retry them against the warm
        # standby once it answers).  Durable (acked) aggregation state
        # survives the hand-off untouched.
        self._down = False
        # Reliable-delivery receiver state (fault mode): next sequence
        # number to apply per worker, plus a reorder buffer for messages
        # that arrived ahead of a dropped predecessor.
        self._next_seq: list[int] = [0] * n_workers
        self._reorder: dict[int, dict[int, tuple[int, TransferUnit]]] = defaultdict(
            dict
        )
        # (iteration, grad) -> per-worker cumulative bytes received.
        # Plain lists: the hot loop only ever does scalar reads/writes and
        # min() reductions, where numpy's per-element boxing dominates.
        self._received: dict[tuple[int, int], list[float]] = {}
        # (iteration, grad) -> min(_received[key]), kept incrementally:
        # re-reduced only when the pushing worker held the minimum.
        self._cover: dict[tuple[int, int], float] = {}
        # grad -> per-worker latest iteration fully pushed (-1 = none).
        self._progress: dict[int, list[int]] = {}
        # Wait key -> ``(need, arrival, pull)`` entries sorted by need:
        # the level the key must reach before ``pull`` is released.  BSP
        # keys are ``(iteration, grad)`` (level: their ``_cover``); SSP
        # keys are ``grad`` (level: the slowest worker's progress).
        self._waiting: dict = {}
        self._arrivals = itertools.count()
        # Pending release wave: consecutive releases at one delay inside
        # a single receive_push, delivered by ONE engine event
        # (:meth:`_deliver`).  ``[delay, [pulls...]]``.
        self._wave: list | None = None
        # Count of units across _waiting — O(1) pending_pulls.
        self._n_waiting = 0
        self._workers: list = []
        # Highest iteration any push has carried — drives BSP pruning of
        # settled ``_received`` entries (see receive_push).
        self._max_push_iteration = -1
        #: Total gradient bytes pushed to the PS (all workers, all iters).
        self.total_push_bytes = 0.0
        #: Observed gradient staleness (iterations) at each pull release
        #: under ASP/SSP: how far the slowest contributor lagged the
        #: pulling worker.  Always 0 under BSP (not recorded).  Feeds the
        #: convergence analysis (:mod:`repro.convergence`).
        self.staleness_samples: list[int] = []

    @property
    def down(self) -> bool:
        """True inside a :class:`~repro.faults.plan.ServerCrash` outage."""
        return self._down

    def fail(self) -> None:
        """Enter a ServerCrash outage: stop answering pushes."""
        self._down = True

    def recover(self) -> None:
        """Warm standby takes over with the durable (acked) state."""
        self._down = False

    def attach_workers(self, workers: list) -> None:
        """Late-bind the worker objects (they need the PS at construction)."""
        if len(workers) != self.n_workers:
            raise SimulationError(
                f"expected {self.n_workers} workers, got {len(workers)}"
            )
        self._workers = list(workers)

    # ------------------------------------------------------------------
    def deliver_push(
        self, worker: int, iteration: int, unit: TransferUnit, seq: int
    ) -> bool:
        """Reliable-delivery entry point: receive ``unit`` at most once,
        apply strictly in per-worker sequence order.

        A retransmission whose original was already received (its ack was
        lost) is recognised by ``seq`` and **not** re-credited — the
        conservation laws hold across arbitrary retries.  A message that
        overtook a dropped predecessor (the worker slices gradients, so a
        later partition may carry a higher offset) is parked in a reorder
        buffer and applied once the gap fills, preserving the cumulative
        per-gradient offset invariant of :meth:`receive_push`.  Returns
        ``True`` when the push was newly received (applied or buffered),
        ``False`` for a duplicate.
        """
        trace = self.engine.trace
        pending = self._reorder[worker]
        if seq < self._next_seq[worker] or seq in pending:
            if trace.enabled:
                trace.instant(
                    "push.duplicate",
                    "fault",
                    self.engine.now,
                    self.name,
                    {"worker": worker, "seq": seq, "iteration": iteration},
                )
            return False
        if seq != self._next_seq[worker]:
            pending[seq] = (iteration, unit)
            if trace.enabled:
                trace.instant(
                    "push.reordered",
                    "fault",
                    self.engine.now,
                    self.name,
                    {"worker": worker, "seq": seq, "expected": self._next_seq[worker]},
                )
            return True
        self._next_seq[worker] = seq + 1
        self.receive_push(worker, iteration, unit)
        while self._next_seq[worker] in pending:
            queued_iter, queued_unit = pending.pop(self._next_seq[worker])
            self._next_seq[worker] += 1
            self.receive_push(worker, queued_iter, queued_unit)
        return True

    def receive_push(self, worker: int, iteration: int, unit: TransferUnit) -> None:
        """A push message from ``worker`` arrived: credit bytes, respond
        per key."""
        mode = self.sync_mode
        bsp = mode == "bsp"
        if bsp and iteration > self._max_push_iteration:
            # Under BSP a push for iteration k implies every worker fully
            # pushed (and was released for) iteration k-1: the pusher's
            # forward pass gated on its k-1 pulls, which gate on full
            # coverage by all workers.  Keys at or below k-2 can never be
            # written or queried again — drop them so the aggregation
            # state stays bounded by two iterations' keys.
            self._max_push_iteration = iteration
            cutoff = iteration - 2
            if cutoff >= 0:
                stale = [key for key in self._received if key[0] <= cutoff]
                for key in stale:
                    del self._received[key]
                    del self._cover[key]
        cover = self._cover
        now = self.engine.now
        touched: set[int] = set()
        for seg in unit.segments:
            grad = seg.grad
            key = (iteration, grad)
            received = self._received.get(key)
            if received is None:
                received = [0.0] * self.n_workers
                self._received[key] = received
                cover[key] = 0.0
            size = self._sizes_list[grad]
            before = received[worker]
            if abs(before - seg.offset) > max(_TOL, 1e-6 * seg.nbytes):
                raise SimulationError(
                    f"worker {worker} pushed gradient {grad} (iter {iteration}) "
                    f"at offset {seg.offset}, expected {before}"
                )
            got = received[worker] = before + seg.nbytes
            if got > size * (1 + 1e-9) + _TOL:
                raise SimulationError(
                    f"worker {worker} over-pushed gradient {grad}: "
                    f"{got} of {size} bytes"
                )
            if before == cover[key]:
                # The pusher held the minimum: only then can it move.
                cover[key] = min(received)
            if got >= size - _TOL:
                progress = self._progress.get(grad)
                if progress is None:
                    progress = [-1] * self.n_workers
                    self._progress[grad] = progress
                if iteration > progress[worker]:
                    progress[worker] = iteration
            self.total_push_bytes += seg.nbytes
            journal = self._ff_journal
            if journal is not None:
                journal.append(("ps", self, seg.nbytes))
            touched.add(grad)

            pull = PullUnit(worker, iteration, seg, now)
            if bsp:
                wait_key, need, level = key, seg.offset + seg.nbytes - _TOL, cover[key]
            elif mode == "ssp":
                # Clock convention: a worker that completed iteration i
                # has clock i+1; iteration k may proceed when the slowest
                # clock >= k - s.
                wait_key, need = grad, iteration - self.staleness - 1
                level = self._slowest(grad)
            else:
                # ASP: the pull waits only for its own bytes, which
                # arrived with this very push.
                self._release(pull)
                continue
            if level >= need:
                self._release(pull)
            else:
                entry = (need, next(self._arrivals), pull)
                insort(self._waiting.setdefault(wait_key, []), entry)
                self._n_waiting += 1

        # Newly credited bytes may unblock waiting pulls for these keys
        # (other workers under BSP; stale followers under SSP).  Those
        # whose need the key's level now meets form a prefix; they are
        # released in arrival order.
        for grad in touched:
            wait_key = (iteration, grad) if bsp else grad
            waiting = self._waiting.get(wait_key)
            if waiting is None:
                continue
            level = cover[wait_key] if bsp else self._slowest(grad)
            n = bisect_right(waiting, level, key=_NEED)
            if n == 0:
                continue
            released = waiting[:n]
            if n == len(waiting):
                del self._waiting[wait_key]
            else:
                del waiting[:n]
            self._n_waiting -= n
            if n > 1:
                released.sort(key=_ARRIVAL)
            for entry in released:
                self._release(entry[2])
        self._flush_releases()

        trace = self.engine.trace
        if trace.enabled:
            trace.counter(
                "ps.pending_pulls",
                "ps",
                self.engine.now,
                self.name,
                {"pending": self.pending_pulls},
            )

    # ------------------------------------------------------------------
    def _slowest(self, grad: int) -> int:
        """Latest iteration every worker has fully pushed ``grad`` (-1 = none)."""
        progress = self._progress.get(grad)
        return min(progress) if progress is not None else -1

    def _release(self, pull: PullUnit) -> None:
        if self.sync_mode != "bsp":
            slowest = self._slowest(pull.segment.grad)
            self.staleness_samples.append(max(0, pull.iteration - 1 - slowest))
        trace = self.engine.trace
        if trace.enabled:
            trace.instant(
                f"release g{pull.segment.grad}",
                "ps",
                self.engine.now,
                self.name,
                {
                    "worker": pull.worker,
                    "iteration": pull.iteration,
                    "grad": pull.segment.grad,
                    "nbytes": pull.segment.nbytes,
                },
            )
        delay = self.update_fixed + self.update_per_byte * pull.total_bytes
        if self._faults is not None:
            # An active PS stall defers the release to the window's end;
            # queued releases keep their relative order (engine tie-break).
            delay += self._faults.ps_release_delay(
                self.engine.now, self.server_index
            )
        # Consecutive releases at one delay form a wave, whatever their
        # workers.  Within a ``receive_push`` nothing else schedules
        # between two releases, so per-pull events would have occupied
        # consecutive sequence numbers at one timestamp: delivering the
        # wave from one event, in release order, is bit-identical.
        wave = self._wave
        if wave is not None and wave[0] == delay:
            wave[1].append(pull)
        else:
            self._flush_releases()
            self._wave = [delay, [pull]]

    def _flush_releases(self) -> None:
        """Schedule the pending release wave (if any) as one engine event."""
        wave = self._wave
        if wave is not None:
            self._wave = None
            self.engine.schedule_after(wave[0], self._deliver, wave[1])

    def _deliver(self, batch: list[PullUnit]) -> None:
        """One release wave arrives: hand each pull to its worker, in order."""
        workers = self._workers
        for pull in batch:
            workers[pull.worker].enqueue_pull(pull)

    # ------------------------------------------------------------------
    def aggregated_bytes(self, iteration: int, grad: int) -> float:
        """Bytes of ``grad`` aggregated from all workers in ``iteration``."""
        return self._cover.get((iteration, grad), 0.0)

    @property
    def pending_pulls(self) -> int:
        """Pull units still waiting on aggregation/staleness.  O(1)."""
        return self._n_waiting

    # ------------------------------------------------------------------
    # Steady-state fast-forward protocol (repro.sim.fastforward)
    # ------------------------------------------------------------------
    def ff_state(self, ctx) -> tuple:
        """Canonical time-relative snapshot of the aggregation state.

        ``total_push_bytes`` is deliberately absent: it is a monotone
        accumulator, replayed op-for-op from the cycle journal so its
        floating-point rounding matches the unrolled run bit for bit.
        ``_cover`` is derived from ``_received``, and arrival numbers
        matter only through their order, so waiting pulls appear in
        arrival order per ``(iteration, grad)`` key (fast-forward runs
        are BSP only).
        """
        received = tuple(
            sorted(
                ((ctx.rel_iter(it), grad), tuple(counts))
                for (it, grad), counts in self._received.items()
            )
        )
        progress = tuple(
            sorted(
                (grad, tuple(it if it < 0 else ctx.rel_iter(it) for it in its))
                for grad, its in self._progress.items()
            )
        )
        waiting = tuple(
            sorted(
                (
                    (ctx.rel_iter(it), grad),
                    tuple(ctx.pull(e[2]) for e in sorted(entries, key=_ARRIVAL)),
                )
                for (it, grad), entries in self._waiting.items()
            )
        )
        max_push = self._max_push_iteration
        if max_push >= 0:
            max_push = ctx.rel_iter(max_push)
        return (received, progress, waiting, self._n_waiting, max_push)

    def ff_shift(self, shift) -> None:
        """Translate iteration labels and pull timestamps by the skipped
        cycles.  Byte counts are label-relative already."""
        assert self._wave is None, "release wave pending across boundary"
        diter = shift.diter
        if self._max_push_iteration >= 0:
            self._max_push_iteration += diter
        self._received = {
            (it + diter, grad): counts
            for (it, grad), counts in self._received.items()
        }
        self._cover = {
            (it + diter, grad): level for (it, grad), level in self._cover.items()
        }
        for its in self._progress.values():
            for w, it in enumerate(its):
                if it >= 0:
                    its[w] = it + diter
        self._waiting = {
            (it + diter, grad): [
                (need, seq, shift.pull(pull)) for need, seq, pull in entries
            ]
            for (it, grad), entries in self._waiting.items()
        }
