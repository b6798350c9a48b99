"""Training-run configuration.

One frozen :class:`TrainingConfig` fully determines a simulated training
run (together with the scheduler factory passed to the trainer).  Defaults
mirror the paper's testbed: g3.8xlarge-class compute, 1 PS + 3 workers,
ResNet-50 at batch 64, module-boundary aggregation, and the single shared
worker↔PS channel implied by the paper's Constraint (8) / Eq. (4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, TYPE_CHECKING

from repro.agg.policies import AggregationPolicy, ModulePrefixPolicy
from repro.errors import ConfigurationError
from repro.models.device import DeviceSpec, TESLA_M60
from repro.net.link import BandwidthSchedule
from repro.net.tcp import TCPParams
from repro.quantities import Gbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.profiler import JobProfile
    from repro.faults.plan import FaultPlan
    from repro.net.monitor import BandwidthMonitor
    from repro.sched.base import CommScheduler
    from repro.sim.engine import Engine

__all__ = ["SchedulerConfig", "TrainingConfig", "WorkerContext", "SchedulerFactory"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Worker-side communication-agent knobs shared by every strategy.

    ``stall_timeout`` is the stall-probe delay: how long a worker tolerates
    an idle channel with unsent gradients before prodding the scheduler's
    flow control (:meth:`repro.sched.base.CommScheduler.grant_probe`) — the
    escape hatch for ByteScheduler-style credit pipelines whose divergent
    send orders can otherwise deadlock the BSP ring.
    """

    stall_timeout: float = 5e-3

    def __post_init__(self) -> None:
        if self.stall_timeout <= 0:
            raise ConfigurationError(
                f"stall_timeout must be positive, got {self.stall_timeout}"
            )


@dataclass(frozen=True)
class TrainingConfig:
    """Everything that defines one simulated DDNN training run.

    Attributes mirror the experimental knobs of the paper's Sec. 5:
    model/batch size (Fig. 8, Table 3), per-worker bandwidth caps
    (Table 2, the heterogeneity experiment), worker count (Fig. 12), and
    the substrate parameters (TCP path, device, aggregation policy).

    ``duplex=False`` (default) models push and pull sharing one serialized
    channel per worker — the network model the paper's Eq. (4)
    (``u = t + 2E``) and Constraint (8) describe.  ``duplex=True`` is the
    full-duplex ablation.

    ``sync_mode`` selects the parameter-synchronization model: ``"bsp"``
    (the paper's setting), ``"asp"`` (future-work item 1: fully
    asynchronous), or ``"ssp"`` with ``ssp_staleness`` bounding how far
    the fastest worker may run ahead.

    ``faults`` optionally attaches a :class:`~repro.faults.plan.FaultPlan`
    (crashes, link flaps, message drops, PS stalls).  ``None`` — or an
    empty plan — leaves the fault machinery entirely uninstantiated: the
    run's event sequence is bit-identical to a build without the faults
    subsystem.
    """

    model: str = "resnet50"
    batch_size: int = 64
    n_workers: int = 3
    #: Communication backend.  ``"ps"`` (default) is the paper's
    #: parameter-server star (or the sharded tier with ``n_servers > 1``);
    #: ``"allreduce"`` replaces the PS with a collective tier — a single
    #: negotiated scheduler instance driving ring (or hierarchical)
    #: allreduce operations over :mod:`repro.net.collective` topologies.
    backend: str = "ps"
    #: Collective topology for ``backend="allreduce"``: ``"ring"`` (flat
    #: ring, ``2(N-1)`` chunk steps) or ``"hierarchical"`` (two-level
    #: reduce-scatter / all-gather with ``collective_group_size`` workers
    #: per group).
    collective: str = "ring"
    #: Workers per group of the hierarchical collective; must divide
    #: ``n_workers``.  Ignored by the flat ring.
    collective_group_size: int = 2
    #: Number of key-sharded parameter servers.  1 (default) runs the
    #: paper's single-PS star; >1 builds a BytePS-style sharded tier —
    #: a :class:`~repro.net.topology.StarTopology` with per-shard
    #: links, one :class:`~repro.cluster.ps.ParameterServer` per shard,
    #: and per-shard scheduler instances (see DESIGN.md).  With a
    #: sharded tier, ``ps_bandwidth`` is each server's own NIC capacity.
    n_servers: int = 1
    #: Optional P3-style slicing threshold for the key→shard assignment:
    #: gradients larger than this are split into equal slices across
    #: shards.  ``None`` (default) keeps whole tensors (BytePS keying).
    #: Only meaningful with ``n_servers > 1``.
    shard_slice_bytes: float | None = None
    n_iterations: int = 30
    bandwidth: float | BandwidthSchedule = 3 * Gbps
    worker_bandwidth: Mapping[int, float | BandwidthSchedule] | None = None
    ps_bandwidth: float | None = None
    tcp: TCPParams = field(default_factory=TCPParams)
    device: DeviceSpec = TESLA_M60
    agg_policy: AggregationPolicy | None = None
    kv_flush_fixed: float = 0.3e-3
    kv_flush_per_byte: float = 0.0
    duplex: bool = False
    seed: int = 0
    jitter_std: float = 0.02
    bandwidth_noise_std: float = 0.0
    monitor_interval: float = 5.0
    ps_update_fixed: float = 100e-6
    ps_update_per_byte: float = 0.0
    record_gradients: bool = True
    #: Enable the structured trace layer (:mod:`repro.trace`): spans for
    #: compute, block assembly, queue waits, and every transfer, plus link
    #: and queue-depth counters.  Off by default — the no-op recorder keeps
    #: hot-path event processing at full speed.
    trace: bool = False
    #: Arm the steady-state fast-forward detector
    #: (:mod:`repro.sim.fastforward`): once the per-iteration state
    #: fingerprint repeats, the remaining iterations are replayed from
    #: the recorded cycle instead of being re-simulated event by event.
    #: Requires ``time_quantum``; silently ignored (the run unrolls in
    #: full) under fault plans, non-constant bandwidth schedules, compute
    #: jitter, bandwidth noise, non-BSP sync, or adaptive schedulers.
    fastforward: bool = True
    #: Time grid in seconds — a positive power of two (e.g. ``2**-20``,
    #: ~1 µs) — that every event *delay* is snapped to.  Snapping only
    #: delays (never absolute times) keeps all event times exact grid
    #: multiples, making time arithmetic exactly translation-invariant;
    #: this is the precondition for bit-exact fast-forward.  ``None``
    #: (default) disables snapping and fast-forward entirely, leaving
    #: every existing run byte-identical.
    time_quantum: float | None = None
    worker_compute_scale: Mapping[int, float] | None = None
    dtype_bytes: int = 4
    sched: SchedulerConfig = field(default_factory=SchedulerConfig)
    sync_mode: str = "bsp"
    ssp_staleness: int = 2
    faults: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.n_iterations < 1:
            raise ConfigurationError(
                f"n_iterations must be >= 1, got {self.n_iterations}"
            )
        if self.jitter_std < 0:
            raise ConfigurationError(f"jitter_std must be >= 0, got {self.jitter_std}")
        if self.monitor_interval <= 0:
            raise ConfigurationError(
                f"monitor_interval must be positive, got {self.monitor_interval}"
            )
        if self.ps_update_fixed < 0 or self.ps_update_per_byte < 0:
            raise ConfigurationError("PS update costs must be >= 0")
        if not isinstance(self.sched, SchedulerConfig):
            raise ConfigurationError(
                f"sched must be a SchedulerConfig, got {type(self.sched).__name__}"
            )
        if self.sync_mode not in ("bsp", "asp", "ssp"):
            raise ConfigurationError(
                f"sync_mode must be 'bsp', 'asp' or 'ssp', got {self.sync_mode!r}"
            )
        if self.ssp_staleness < 0:
            raise ConfigurationError(
                f"ssp_staleness must be >= 0, got {self.ssp_staleness}"
            )
        if self.n_servers < 1:
            raise ConfigurationError(
                f"n_servers must be >= 1, got {self.n_servers}"
            )
        if self.time_quantum is not None:
            quantum = self.time_quantum
            if not (quantum > 0 and math.isfinite(quantum)):
                raise ConfigurationError(
                    f"time_quantum must be a positive finite float, got {quantum!r}"
                )
            if math.frexp(quantum)[0] != 0.5:
                raise ConfigurationError(
                    f"time_quantum must be a power of two (e.g. 2**-20) so "
                    f"grid arithmetic is exact, got {quantum!r}"
                )
        if self.shard_slice_bytes is not None and self.shard_slice_bytes <= 0:
            raise ConfigurationError(
                f"shard_slice_bytes must be positive, got {self.shard_slice_bytes}"
            )
        if self.backend not in ("ps", "allreduce"):
            raise ConfigurationError(
                f"backend must be 'ps' or 'allreduce', got {self.backend!r}"
            )
        if self.collective not in ("ring", "hierarchical"):
            raise ConfigurationError(
                f"collective must be 'ring' or 'hierarchical', "
                f"got {self.collective!r}"
            )
        if self.collective_group_size < 1:
            raise ConfigurationError(
                f"collective_group_size must be >= 1, "
                f"got {self.collective_group_size}"
            )
        if self.backend == "allreduce":
            if self.n_servers > 1:
                raise ConfigurationError(
                    "backend='allreduce' has no PS tier; n_servers must be 1"
                )
            if self.duplex:
                raise ConfigurationError(
                    "backend='allreduce' has no pull direction; duplex "
                    "links only apply to the PS backend"
                )
            if self.ps_bandwidth is not None:
                raise ConfigurationError(
                    "ps_bandwidth only applies to the PS backend"
                )
            if self.sync_mode != "bsp":
                raise ConfigurationError(
                    "the allreduce backend is inherently bulk-synchronous; "
                    f"sync_mode must be 'bsp', got {self.sync_mode!r}"
                )
            if (
                self.collective == "hierarchical"
                and self.n_workers % self.collective_group_size != 0
            ):
                raise ConfigurationError(
                    f"collective_group_size {self.collective_group_size} "
                    f"does not divide n_workers {self.n_workers}"
                )
        if self.worker_compute_scale:
            for w, scale in self.worker_compute_scale.items():
                if not 0 <= w < self.n_workers:
                    raise ConfigurationError(f"compute scale for unknown worker {w}")
                if scale <= 0:
                    raise ConfigurationError(
                        f"compute scale must be positive, got {scale} for worker {w}"
                    )
        if self.faults is not None:
            # Plan-vs-topology validation (replaces the old blanket
            # "faults are not supported on this backend" rejections):
            # every referenced worker/server must exist, and fault kinds
            # with no counterpart on the backend are configuration errors.
            self.faults.validate_topology(
                self.n_workers, n_servers=self.n_servers, backend=self.backend
            )

    def effective_policy(self) -> AggregationPolicy:
        """The aggregation policy, defaulting to module-boundary grouping.

        The default prefix depth follows the model's naming convention:
        ResNet-style tensors (``layer3.4.conv2.weight``) group per residual
        block at depth 2, while Inception tensors
        (``Mixed_5b.branch1x1.conv.weight``) group per Inception module at
        depth 1 — depth 2 would split every branch conv into its own
        micro-bucket and destroy the stepwise block structure.
        """
        if self.agg_policy is not None:
            return self.agg_policy
        depth = 1 if self.model.startswith("inception") else 2
        return ModulePrefixPolicy(depth)


@dataclass
class WorkerContext:
    """Per-worker wiring handed to a scheduler factory.

    Gives factories what Prophet's prototype components need: the
    bandwidth monitor, an oracle job profile (for skip-warmup runs), the
    TCP path parameters for transfer-time estimation, and a seeded RNG for
    stochastic tuners (ByteScheduler's Bayesian optimizer).  ``engine``
    lets a factory wire scheduler-internal events (Prophet's degradation
    notifications) into the run's trace recorder.
    """

    worker_id: int
    monitor: "BandwidthMonitor"
    oracle_profile: "JobProfile"
    tcp: TCPParams
    rng: "np.random.Generator"
    engine: "Engine | None" = None


SchedulerFactory = Callable[[WorkerContext], "CommScheduler"]
