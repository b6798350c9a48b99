"""Allreduce collective topologies and their transport executors.

The PS star moves a gradient twice over one worker NIC (push up, pull
down).  A ring allreduce instead moves it as ``2(N-1)`` pipelined chunk
steps of ``S/N`` bytes around a ring of worker-to-neighbor links — the
reduce-scatter then all-gather decomposition — so each worker NIC carries
``2(N-1)/N · S`` bytes per operation regardless of cluster size.  The
hierarchical variant splits the ring into ``m`` groups of ``g`` workers
(``N = m·g``): an intra-group reduce-scatter (``g-1`` steps of ``S/g``),
an inter-group ring allreduce among the group leaders (``2(m-1)`` steps of
``S/(g·m)``), and an intra-group all-gather (``g-1`` steps of ``S/g``) —
fewer inter-node steps at the cost of extra intra-group traffic, the
classic two-level NCCL/Horovod shape.

Every chunk step is a real message on a real :class:`~repro.net.link.Link`
through the same TCP model as the PS path: it pays the Eq. 10 handshake +
slow-start setup unless it rides a warm window (back-to-back steps within
``warm_threshold`` keep the connection warm, exactly like consecutive PS
pushes).  Small transfer units therefore suffer the paper's small-message
penalty **per step**, which makes the tensor-fusion tradeoff the
MG-WFBP policy optimizes genuinely present in the collective backend.

The executors implement the :class:`~repro.net.transport.Transport`
interface, so the worker tier hands them scheduler-committed
:class:`~repro.sched.base.TransferUnit`s exactly as it hands them to a PS
uplink.  Steps are barrier-synchronized: a step completes when its
slowest link finishes (synchronous ring semantics), which is how a
heterogeneous or noisy link slows the whole collective.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.net.link import BandwidthSchedule, Link, send_batch
from repro.net.tcp import TCPParams
from repro.sim.engine import Engine
from repro.sim.rng import spawn_rng
from repro.net.transport import Transport

__all__ = [
    "RingTopology",
    "HierarchicalTopology",
    "RingExecutor",
    "HierarchicalExecutor",
]


def _worker_schedules(
    n_workers: int,
    bandwidth: float | BandwidthSchedule,
    overrides: Mapping[int, float | BandwidthSchedule],
) -> list[BandwidthSchedule]:
    out: list[BandwidthSchedule] = []
    for w in range(n_workers):
        b = overrides.get(w, bandwidth)
        out.append(
            b if isinstance(b, BandwidthSchedule) else BandwidthSchedule.constant(float(b))
        )
    return out


class RingTopology:
    """``n_workers`` in a ring; one next-neighbor link per worker.

    ``links[w]`` is worker ``w``'s transmit link towards worker
    ``(w+1) % n_workers``.  Chunk steps occupy every ring link at once, so
    the slowest link paces the collective — the ring analogue of the
    star's "slowest worker gates BSP".
    """

    def __init__(
        self,
        engine: Engine,
        n_workers: int,
        bandwidth: float | BandwidthSchedule,
        tcp: TCPParams | None = None,
        worker_bandwidth: Mapping[int, float | BandwidthSchedule] | None = None,
        seed: int | None = 0,
        noise_std: float = 0.0,
    ):
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        overrides = dict(worker_bandwidth or {})
        for idx in overrides:
            if not 0 <= idx < n_workers:
                raise ConfigurationError(
                    f"worker_bandwidth override for unknown worker {idx}"
                )
        self.engine = engine
        self.n_workers = n_workers
        self.tcp = tcp if tcp is not None else TCPParams()
        self.links: list[Link] = []
        for w, sched in enumerate(
            _worker_schedules(n_workers, bandwidth, overrides)
        ):
            rng: np.random.Generator | None = None
            if noise_std > 0:
                rng = spawn_rng(seed, "link", w, "ring")
            self.links.append(
                Link(
                    engine,
                    sched,
                    self.tcp,
                    name=f"worker{w}-ring",
                    noise_rng=rng,
                    noise_std=noise_std,
                )
            )

    # ------------------------------------------------------------------
    def ring_link(self, worker: int) -> Link:
        """Worker ``worker``'s transmit link to its next ring neighbor."""
        return self.links[worker]

    def worker_uplinks(self, worker: int) -> list[Link]:
        """All transmit links of ``worker`` (topology-generic accessor)."""
        return [self.links[worker]]

    def worker_downlinks(self, worker: int) -> list[Link]:
        """Receive side: ring traffic is accounted on the transmit links
        (every byte sent is a byte received by the neighbor), so this is
        empty — mirroring the half-duplex PS accounting."""
        return []

    def min_bandwidth(self) -> float:
        """Lowest configured bandwidth on the ring right now (the pace of
        every barrier-synchronized chunk step)."""
        return min(link.current_bandwidth() for link in self.links)


class HierarchicalTopology:
    """Two-level ring: ``m`` groups of ``group_size`` workers each.

    Groups are contiguous blocks (group ``i`` holds workers
    ``[i·g, (i+1)·g)``); worker ``i·g`` is group ``i``'s leader.  Every
    worker gets a *local* link for the intra-group phases; every leader
    additionally gets a *global* link for the inter-group ring.
    """

    def __init__(
        self,
        engine: Engine,
        n_workers: int,
        group_size: int,
        bandwidth: float | BandwidthSchedule,
        tcp: TCPParams | None = None,
        worker_bandwidth: Mapping[int, float | BandwidthSchedule] | None = None,
        seed: int | None = 0,
        noise_std: float = 0.0,
    ):
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if group_size < 1:
            raise ConfigurationError(f"group_size must be >= 1, got {group_size}")
        if n_workers % group_size != 0:
            raise ConfigurationError(
                f"group_size {group_size} does not divide n_workers {n_workers}"
            )
        overrides = dict(worker_bandwidth or {})
        for idx in overrides:
            if not 0 <= idx < n_workers:
                raise ConfigurationError(
                    f"worker_bandwidth override for unknown worker {idx}"
                )
        self.engine = engine
        self.n_workers = n_workers
        self.group_size = group_size
        self.n_groups = n_workers // group_size
        self.tcp = tcp if tcp is not None else TCPParams()
        schedules = _worker_schedules(n_workers, bandwidth, overrides)

        def _mk(w: int, kind: str) -> Link:
            rng: np.random.Generator | None = None
            if noise_std > 0:
                rng = spawn_rng(seed, "link", w, kind)
            return Link(
                engine,
                schedules[w],
                self.tcp,
                name=f"worker{w}-{kind}",
                noise_rng=rng,
                noise_std=noise_std,
            )

        #: Intra-group transmit link of every worker.
        self.local_links: list[Link] = [_mk(w, "local") for w in range(n_workers)]
        #: Inter-group transmit link of each group leader, group order.
        self.global_links: list[Link] = [
            _mk(i * group_size, "global") for i in range(self.n_groups)
        ]

    # ------------------------------------------------------------------
    def group_of(self, worker: int) -> int:
        return worker // self.group_size

    def leader_of(self, group: int) -> int:
        return group * self.group_size

    def worker_uplinks(self, worker: int) -> list[Link]:
        """All transmit links of ``worker`` (local; plus global for a
        group leader)."""
        links = [self.local_links[worker]]
        if worker % self.group_size == 0:
            links.append(self.global_links[worker // self.group_size])
        return links

    def worker_downlinks(self, worker: int) -> list[Link]:
        """Receive side — empty, as for :class:`RingTopology`."""
        return []

    def min_bandwidth(self) -> float:
        """Lowest configured bandwidth across every collective link."""
        return min(
            link.current_bandwidth()
            for link in (*self.local_links, *self.global_links)
        )


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------

#: Step watchdog: a chunk step is declared stalled once it has run for
#: this multiple of its expected time (slowest participating link's
#: estimate at launch).  A flap that bites mid-step, or a dropped chunk
#: awaiting its retransmit backoff, pushes the step past this bound.
_STEP_TIMEOUT_FACTOR = 3.0
#: Straggler mitigation cap: after this many abort-and-resend rounds the
#: watchdog stops interfering and lets the step drain at link speed.
_MAX_STEP_RETRIES = 2


class _StepExecutor(Transport):
    """Shared machinery: run a unit as barrier-synchronized link steps.

    Subclasses provide :meth:`_plan`, the list of ``(links, chunk_bytes)``
    steps for one operation of ``nbytes``.  Each step launches one chunk
    send on every participating link; the step's barrier releases when the
    slowest send finishes, and the next step starts inside that completion
    callback — so back-to-back steps on the same link are gap-free and the
    TCP window stays warm, while idle gaps (a busy scheduler, a slow peer
    phase) cool it down exactly as on the PS path.

    **Fault mode** (:meth:`set_faults`) adds three behaviours, all behind
    ``self._faults is None`` checks so the fault-free event sequence is
    untouched:

    * every chunk completion rolls the plan's ``push`` drop probability
      (the ``chunk`` leg); a lost chunk retransmits on the same link after
      the :class:`~repro.cluster.messages.RetryPolicy` backoff, without
      releasing the step barrier;
    * a per-step watchdog detects stragglers — steps exceeding
      ``_STEP_TIMEOUT_FACTOR ×`` their launch-time estimate — and
      mitigates with bounded abort-and-resend rounds on the lagging links;
    * :meth:`remove_worker` (subclasses) shrinks the membership after a
      rank crash, rebuilding the step plan over the survivors; the
      in-flight operation must be :meth:`abort`-ed first.
    """

    def __init__(self, engine: Engine, tcp: TCPParams):
        self.engine = engine
        self.tcp = tcp
        self._inflight_tag: object | None = None
        self._steps: list[tuple[Sequence[Link], float]] = []
        self._step_idx = 0
        self._step_pending = 0
        self._extra_time = 0.0
        self._on_complete: Callable[[], None] | None = None
        #: Completed chunk steps across the executor's lifetime (the
        #: micro-benchmark counts these per wall second).
        self.steps_completed = 0
        self.ops_completed = 0
        # Step plans keyed by operation size: the plan is a pure function
        # of (nbytes, membership) and the steps list is never mutated in
        # place (abort/op-done rebind it), so repeat operations of the
        # same size — every iteration of a training run — reuse it.
        # Cleared on membership changes; bounded like the TCP table memo.
        self._plan_cache: dict[float, list[tuple[Sequence[Link], float]]] = {}
        # Fault mode (inert in fault-free builds).
        self._faults = None
        self._owner_of: dict[Link, int] = {}
        #: Ranks removed by elastic shrink (never rejoin).
        self.removed: set[int] = set()
        self._watchdog = None
        self._step_retries = 0
        self._chunk_attempts: dict[Link, int] = {}
        self._resend_timers: dict[Link, object] = {}
        self._zero_event = None

    def set_faults(self, faults) -> None:
        """Attach a :class:`~repro.faults.injector.FaultInjector` and build
        the link→owner map that attributes chunk drops to workers."""
        self._faults = faults
        self._owner_of = self._link_owners()

    def _link_owners(self) -> dict[Link, int]:
        raise NotImplementedError

    def remove_worker(self, worker_id: int) -> None:
        """Elastic shrink: permanently drop ``worker_id`` from the
        membership and rebuild future step plans over the survivors.  The
        executor must be idle (:meth:`abort` any in-flight operation
        first)."""
        if self.busy:
            raise SimulationError(
                "remove_worker() while an operation is in flight; abort() first"
            )
        if worker_id not in self._members:
            raise SimulationError(
                f"worker {worker_id} is not an active collective member"
            )
        self._members.remove(worker_id)
        self.removed.add(worker_id)
        self._plan_cache.clear()
        self._shrunk()
        if self._faults is not None:
            self._owner_of = self._link_owners()

    def _shrunk(self) -> None:
        """Subclass hook run after a membership change."""

    # -- Transport interface -------------------------------------------
    @property
    def busy(self) -> bool:
        return self._inflight_tag is not None or self._on_complete is not None

    def send_unit(
        self,
        nbytes: float,
        tag: object = None,
        on_complete: Callable[[], None] | None = None,
        extra_time: float = 0.0,
    ) -> float | None:
        if self.busy:
            raise SimulationError("collective executor is busy")
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes!r}")
        size = float(nbytes)
        steps = self._plan_cache.get(size)
        if steps is None:
            if len(self._plan_cache) >= 64:
                del self._plan_cache[next(iter(self._plan_cache))]
            steps = self._plan(size)
            self._plan_cache[size] = steps
        self._steps = steps
        self._step_idx = 0
        self._extra_time = extra_time
        self._on_complete = on_complete
        self._inflight_tag = tag
        if not self._steps:
            # Single-worker degenerate ring: the allreduce is the identity
            # and moves no bytes.  Completion still goes through the event
            # loop (zero simulated time) so callback ordering matches the
            # multi-worker path.
            self._zero_event = self.engine.schedule(self.engine.now, self._op_done)
            return self.engine.now
        self._launch_step()
        return None

    def abort(self) -> None:
        """Abort the in-flight operation (a rank crashed mid-collective).

        Every busy participating link drops its chunk (the bytes are lost,
        no completion fires), pending chunk retransmits are cancelled, and
        the executor returns to idle without invoking ``on_complete`` —
        the caller owns resending the operation over the shrunk ring.
        """
        if self._inflight_tag is None and self._on_complete is None:
            return
        self._cancel_watchdog()
        for timer in self._resend_timers.values():
            timer.cancel()
        self._resend_timers.clear()
        self._chunk_attempts.clear()
        if self._zero_event is not None:
            self._zero_event.cancel()
            self._zero_event = None
        if self._steps:
            links, _ = self._steps[self._step_idx]
            for link in links:
                if link.busy:
                    link.abort()
        self._steps = []
        self._step_idx = 0
        self._step_pending = 0
        self._inflight_tag = None
        self._on_complete = None

    # -- steady-state fast-forward protocol (repro.sim.fastforward) -----
    #: Monotone counters extrapolated linearly at engagement.
    ff_counters = ("steps_completed", "ops_completed")

    def ff_state(self, ctx) -> tuple:
        """Canonical snapshot of the in-flight operation's step machinery.

        ``steps_completed``/``ops_completed`` are monotone counters —
        excluded here and extrapolated linearly at engagement.  The step
        plan itself is a pure function of (size, membership), so its
        shape (per-step fan-out and chunk bytes) is all that matters.
        """
        return (
            ctx.tag(self._inflight_tag),
            tuple((len(links), chunk) for links, chunk in self._steps),
            self._step_idx,
            self._step_pending,
            self._extra_time,
            ctx.callback(self._on_complete),
        )

    def ff_shift(self, shift) -> None:
        self._inflight_tag = shift.tag(self._inflight_tag)
        if self._on_complete is not None:
            self._on_complete = shift.callback(self._on_complete)

    # -- step machinery -------------------------------------------------
    def _plan(self, nbytes: float) -> list[tuple[Sequence[Link], float]]:
        raise NotImplementedError

    def _launch_step(self) -> None:
        links, chunk = self._steps[self._step_idx]
        tag = self._inflight_tag
        if self._faults is None:
            # Barrier step: all chunk sends start this instant, and on a
            # homogeneous quiet ring they share one duration and finish in
            # one engine event; send_batch fires _step_done once, after
            # the slowest link (bit-identical; see its docstring).
            send_batch(
                links,
                chunk,
                tag=tag,
                on_complete=self._step_done,
                extra_time=self._extra_time,
            )
            return
        self._step_pending = len(links)
        self._step_retries = 0
        self._chunk_attempts.clear()
        for link in links:
            link.send(
                chunk,
                tag=tag,
                on_complete=partial(self._chunk_done_reliable, link, chunk),
                extra_time=self._extra_time,
            )
        self._arm_watchdog(links, chunk)

    def _step_done(self) -> None:
        self.steps_completed += 1
        self._step_idx += 1
        if self._step_idx < len(self._steps):
            self._launch_step()
        else:
            self._op_done()

    def _op_done(self) -> None:
        on_complete = self._on_complete
        self._on_complete = None
        self._inflight_tag = None
        self._steps = []
        self._zero_event = None
        self.ops_completed += 1
        if on_complete is not None:
            on_complete()

    # -- fault-mode step machinery --------------------------------------
    def _chunk_done_reliable(self, link: Link, chunk: float) -> None:
        """Fault-mode chunk completion: roll the drop leg, retransmit a
        lost chunk on the same link after backoff, else count towards the
        step barrier."""
        faults = self._faults
        assert faults is not None
        if faults.roll_drop("chunk", self._owner_of.get(link, -1)):
            attempt = self._chunk_attempts.get(link, 0)
            self._chunk_attempts[link] = attempt + 1
            faults.count("chunk_retries")
            self._resend_timers[link] = self.engine.schedule_after(
                faults.retry.timeout_for(attempt), self._resend_chunk, link, chunk
            )
            return
        self._chunk_attempts.pop(link, None)
        self._step_pending -= 1
        if self._step_pending > 0:
            return
        self._cancel_watchdog()
        faults.count("ring_steps")
        self.steps_completed += 1
        self._step_idx += 1
        if self._step_idx < len(self._steps):
            self._launch_step()
        else:
            self._op_done()

    def _resend_chunk(self, link: Link, chunk: float) -> None:
        self._resend_timers.pop(link, None)
        if self._inflight_tag is None:
            return  # operation aborted while the backoff timer was armed
        link.send(
            chunk,
            tag=self._inflight_tag,
            on_complete=partial(self._chunk_done_reliable, link, chunk),
            extra_time=0.0,
        )

    def _arm_watchdog(self, links: Sequence[Link], chunk: float) -> None:
        """Arm the straggler timeout for the step just launched: the
        slowest link's estimate now, scaled by the timeout factor, plus
        the retry policy's backoff for this mitigation round.  A flap that
        starts mid-step slows the transfer below the launch-time estimate
        and trips the timeout — exactly the observable a real straggler
        detector keys on."""
        assert self._faults is not None
        expected = max(link.estimate_time(chunk) for link in links)
        timeout = (
            _STEP_TIMEOUT_FACTOR * (expected + self._extra_time)
            + self._faults.retry.timeout_for(self._step_retries)
        )
        self._watchdog = self.engine.schedule_after(
            timeout, self._step_timeout, self._step_idx
        )

    def _cancel_watchdog(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None

    def _step_timeout(self, step_idx: int) -> None:
        self._watchdog = None
        if self._inflight_tag is None or step_idx != self._step_idx:
            return  # stale timer: the op was aborted or the step advanced
        faults = self._faults
        assert faults is not None
        faults.count("stalled_steps")
        links, chunk = self._steps[self._step_idx]
        lagging = [link for link in links if link.busy]
        faults.record(
            "collective.straggler",
            "collective/faults",
            {
                "step": step_idx,
                "lagging": sorted(self._owner_of.get(l, -1) for l in lagging),
                "retries": self._step_retries,
            },
        )
        if self._step_retries >= _MAX_STEP_RETRIES or not lagging:
            # Mitigation exhausted (or the step is only waiting out a
            # chunk-retransmit backoff): stop interfering and let the
            # barrier drain at whatever pace the links manage.
            return
        self._step_retries += 1
        for link in lagging:
            link.abort()
            faults.count("chunk_retries")
            link.send(
                chunk,
                tag=self._inflight_tag,
                on_complete=partial(self._chunk_done_reliable, link, chunk),
                extra_time=0.0,
            )
        self._arm_watchdog(links, chunk)


class RingExecutor(_StepExecutor):
    """Flat ring allreduce: ``2(N-1)`` steps of ``S/N`` bytes each.

    ``N`` is the *active* membership: after an elastic shrink
    (:meth:`remove_worker`) the ring rebuilds over the ``k`` survivors —
    ``2(k-1)`` steps of ``S/k`` on the survivors' links, and the
    efficiency factor rescales to ``2(k-1)/k``.
    """

    def __init__(self, topology: RingTopology):
        super().__init__(topology.engine, topology.tcp)
        self.topology = topology
        #: Active ring members, ascending rank order.
        self._members = list(range(topology.n_workers))

    @property
    def members(self) -> list[int]:
        return list(self._members)

    def _link_owners(self) -> dict[Link, int]:
        return {self.topology.links[w]: w for w in self._members}

    @property
    def efficiency_factor(self) -> float:
        """Serialized bytes per payload byte on one link: ``2(N-1)/N``.

        Schedulers that plan transfer times from a bandwidth estimate
        (Prophet) divide the link bandwidth by this factor to get the
        collective's *effective* per-byte rate.
        """
        n = len(self._members)
        if n == 1:
            return 0.0
        return 2.0 * (n - 1) / n

    def _plan(self, nbytes: float) -> list[tuple[Sequence[Link], float]]:
        members = self._members
        n = len(members)
        if n == 1 or nbytes <= 0.0:
            return []
        chunk = nbytes / n
        links = tuple(self.topology.links[w] for w in members)
        return [(links, chunk)] * (2 * (n - 1))


class HierarchicalExecutor(_StepExecutor):
    """Two-level allreduce: intra reduce-scatter, inter ring, intra
    all-gather (``2(g-1) + 2(m-1)`` steps total).

    The two-level shape assumes full groups; a crashed rank punches a
    hole in its group, so an elastic shrink degrades the executor to a
    **flat ring over the survivors' local links** — the simple shape that
    tolerates arbitrary membership, at flat-ring cost ``2(k-1)/k``.
    """

    def __init__(self, topology: HierarchicalTopology):
        super().__init__(topology.engine, topology.tcp)
        self.topology = topology
        self._members = list(range(topology.n_workers))
        # Set by the first removal: plan as a flat ring over survivors.
        self._flat = False

    @property
    def members(self) -> list[int]:
        return list(self._members)

    @property
    def degraded_flat(self) -> bool:
        """Whether a shrink degraded the two-level shape to a flat ring."""
        return self._flat

    def _shrunk(self) -> None:
        self._flat = True

    def _link_owners(self) -> dict[Link, int]:
        topo = self.topology
        owners = {topo.local_links[w]: w for w in self._members}
        for i, link in enumerate(topo.global_links):
            owners[link] = topo.leader_of(i)
        return owners

    @property
    def efficiency_factor(self) -> float:
        """Critical-path bytes per payload byte: intra phases move
        ``2(g-1)/g``, the inter-group ring ``2(m-1)/(g·m)`` (flat-ring
        ``2(k-1)/k`` after an elastic shrink)."""
        topo = self.topology
        n = len(self._members)
        if n == 1:
            return 0.0
        if self._flat:
            return 2.0 * (n - 1) / n
        g = topo.group_size
        m = topo.n_groups
        return 2.0 * (g - 1) / g + 2.0 * (m - 1) / (g * m)

    def _plan(self, nbytes: float) -> list[tuple[Sequence[Link], float]]:
        topo = self.topology
        n = len(self._members)
        if n == 1 or nbytes <= 0.0:
            return []
        if self._flat:
            chunk = nbytes / n
            links = tuple(topo.local_links[w] for w in self._members)
            return [(links, chunk)] * (2 * (n - 1))
        g = topo.group_size
        m = topo.n_groups
        steps: list[tuple[Sequence[Link], float]] = []
        intra = [(tuple(topo.local_links), nbytes / g)] * (g - 1)
        steps.extend(intra)  # reduce-scatter within every group
        if m > 1:
            steps.extend(
                [(tuple(topo.global_links), nbytes / (g * m))] * (2 * (m - 1))
            )
        steps.extend(intra)  # all-gather within every group
        return steps
