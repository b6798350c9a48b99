"""The benchmark's four workloads and the operations they run.

Each workload turns a seed into a list of *operations*: simulated runs,
each built during set-up (a ``Trainer`` or a ``FleetSimulator``) and
executed during the timed phase.  Workloads reach the program only
through its public entry points, on the ``repro`` module handed in by
the caller.

An operation's outcome carries a digest of the simulated outputs the
correctness gate compares against the reference (training rate,
per-iteration times, fleet summary, fast-forward's skipped iterations)
plus the counts the metrics need.  The outputs are simulated-time
quantities: they are checks, never metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable

#: Significant digits kept when digesting simulated outputs.
DIGITS = 12


@dataclass
class Outcome:
    """What one executed operation produced."""

    #: Simulated worker-iterations completed (fast-forwarded ones count).
    worker_iterations: int
    #: Events the operation's engine processed.
    events: int
    #: Whether steady-state fast-forward engaged.
    ff_engaged: bool
    #: Iterations fast-forward skipped (0 when it did not engage).
    iterations_skipped: int
    #: Configured iterations (per job, summed over a fleet's jobs).
    iterations: int
    #: :func:`digest` of the simulated outputs.
    digest: str
    #: Host seconds inside the program's run call.
    host_s: float
    #: Mean host seconds of the calibration probes taken just before and
    #: just after the operation (0 when none ran).
    probe_s: float = 0.0


@dataclass
class Operation:
    """One simulated run: built in set-up, executed in the timed phase."""

    name: str
    execute: Callable[[], Outcome]


@dataclass(frozen=True)
class Workload:
    """Turns a seed into operations; ``README.md`` says why each exists."""

    name: str
    build: Callable[[object, int], list[Operation]]
    #: Whether fast-forward must engage on every operation (else it must
    #: stay disengaged).
    fastforward: bool = False
    #: Layers predicted to top the traced ledger (any one of them may).
    hot_layers: tuple[str, ...] = ()


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.{DIGITS}g}")
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return value


def digest(outputs: dict) -> str:
    """Short stable hash of simulated outputs rounded to :data:`DIGITS`."""
    text = json.dumps(_round(outputs), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _ff(stats: dict | None) -> tuple[bool, int]:
    if not stats:
        return False, 0
    return bool(stats["engaged"]), int(stats["iterations_skipped"])


def _trainer_op(name: str, trainer) -> Operation:
    def execute() -> Outcome:
        start = time.perf_counter()
        result = trainer.run()
        host_s = time.perf_counter() - start
        config = trainer.config
        engaged, skipped = _ff(result.fastforward_stats)
        spans = [
            [float(s) for s in result.iteration_spans(w, skip=0)]
            for w in range(config.n_workers)
        ]
        return Outcome(
            worker_iterations=config.n_workers * config.n_iterations,
            events=trainer.engine.events_processed,
            ff_engaged=engaged,
            iterations_skipped=skipped,
            iterations=config.n_iterations,
            digest=digest(
                {
                    "training_rate": result.training_rate(),
                    "iteration_s": spans,
                    "iterations_skipped": skipped,
                }
            ),
            host_s=host_s,
        )

    return Operation(name, execute)


def _fleet_op(name: str, simulator) -> Operation:
    def execute() -> Outcome:
        start = time.perf_counter()
        result = simulator.run()
        host_s = time.perf_counter() - start
        engaged = False
        skipped = 0
        for handle in simulator.handles:
            job_engaged, job_skipped = _ff(handle.result.fastforward_stats)
            engaged |= job_engaged
            skipped += job_skipped
        jobs = [handle.job.config for handle in simulator.handles]
        return Outcome(
            worker_iterations=sum(c.n_workers * c.n_iterations for c in jobs),
            events=result.events_processed,
            ff_engaged=engaged,
            iterations_skipped=skipped,
            iterations=sum(c.n_iterations for c in jobs),
            digest=digest(
                {
                    "summary": result.summary(),
                    "jobs": [
                        [
                            r.name,
                            r.training_rate,
                            r.placed_at,
                            r.finished_at,
                            list(r.iteration_s),
                        ]
                        for r in result.records
                    ],
                    "iterations_skipped": skipped,
                }
            ),
            host_s=host_s,
        )

    return Operation(name, execute)


# ----------------------------------------------------------------------
# ps-star: the per-push/per-pull path of a single-PS star.
# ----------------------------------------------------------------------
PS_STAR_MODELS = (("resnet50", 64), ("vgg19", 32))
PS_STAR_STRATEGIES = ("mxnet-fifo", "p3", "bytescheduler", "prophet")
PS_STAR_WORKERS = 8
PS_STAR_ITERATIONS = 6


def build_ps_star(repro, seed: int) -> list[Operation]:
    gbps = repro.quantities.Gbps
    ops = []
    for model, batch in PS_STAR_MODELS:
        config = repro.paper_config(
            model,
            batch,
            bandwidth=3 * gbps,
            n_workers=PS_STAR_WORKERS,
            n_iterations=PS_STAR_ITERATIONS,
            seed=seed,
        )
        for strategy in PS_STAR_STRATEGIES:
            trainer = repro.Trainer(config, repro.EXTENDED_FACTORIES[strategy])
            ops.append(_trainer_op(f"{model}/{strategy}", trainer))
    return ops


# ----------------------------------------------------------------------
# ring-allreduce: the per-chunk barrier-step path, no parameter server.
# ----------------------------------------------------------------------
RING_MODEL = ("resnet50", 64)
RING_RUNS = (
    ("mxnet-fifo", "ring", None),
    ("mg-wfbp", "ring", None),
    ("prophet", "ring", None),
    ("prophet", "hierarchical", 4),
)
RING_WORKERS = 8
RING_ITERATIONS = 16


def build_ring(repro, seed: int) -> list[Operation]:
    gbps = repro.quantities.Gbps
    model, batch = RING_MODEL
    ops = []
    for strategy, collective, group in RING_RUNS:
        extra = {"collective_group_size": group} if group else {}
        config = repro.paper_config(
            model,
            batch,
            bandwidth=3 * gbps,
            n_workers=RING_WORKERS,
            n_iterations=RING_ITERATIONS,
            seed=seed,
            backend="allreduce",
            collective=collective,
            **extra,
        )
        trainer = repro.Trainer(config, repro.EXTENDED_FACTORIES[strategy])
        ops.append(_trainer_op(f"{collective}/{strategy}", trainer))
    return ops


# ----------------------------------------------------------------------
# fleet-mixed: many tenants on one engine over an oversubscribed core.
# ----------------------------------------------------------------------
FLEET_JOBS = 64
FLEET_HOSTS = 8
FLEET_SLOTS = 4
FLEET_WORKERS = 4
FLEET_ITERATIONS = 4
FLEET_STRATEGIES = ("prophet", "mxnet-fifo", "mg-wfbp")
#: Backend overrides, rotated every ``len(FLEET_STRATEGIES)`` jobs so
#: every strategy meets every backend.
FLEET_BACKENDS = ({}, {"n_servers": 2}, {"backend": "allreduce"})


def build_fleet(repro, seed: int) -> list[Operation]:
    fleet = repro.fleet
    gbps = repro.quantities.Gbps
    spec = fleet.FleetSpec(
        n_jobs=FLEET_JOBS,
        policy="fair",
        n_hosts=FLEET_HOSTS,
        slots_per_host=FLEET_SLOTS,
        core_bandwidth=20 * gbps,
        nic_bandwidth=3 * gbps,
        model="resnet18",
        batch_size=32,
        n_workers=FLEET_WORKERS,
        n_iterations=FLEET_ITERATIONS,
        strategies=FLEET_STRATEGIES,
        seed=seed,
    )
    jobs = []
    for j, job in enumerate(fleet.build_fleet_jobs(spec)):
        backend = FLEET_BACKENDS[(j // len(FLEET_STRATEGIES)) % len(FLEET_BACKENDS)]
        jobs.append(
            dataclasses.replace(job, config=dataclasses.replace(job.config, **backend))
        )
    simulator = fleet.FleetSimulator(
        jobs,
        core_bandwidth=spec.core_bandwidth,
        n_hosts=spec.n_hosts,
        slots_per_host=spec.slots_per_host,
        policy=spec.policy,
        skip=spec.skip,
    )
    return [_fleet_op("fleet", simulator)]


# ----------------------------------------------------------------------
# long-horizon: a jitter-free star on the time grid, so fast-forward runs.
# ----------------------------------------------------------------------
LONG_MODEL = ("resnet18", 32)
LONG_WORKERS = 32
LONG_ITERATIONS = 500
LONG_QUANTUM = 2.0**-24


def build_long_horizon(repro, seed: int) -> list[Operation]:
    model, batch = LONG_MODEL
    config = repro.paper_config(
        model,
        batch,
        bandwidth=3 * repro.quantities.Gbps,
        n_workers=LONG_WORKERS,
        n_iterations=LONG_ITERATIONS,
        seed=seed,
        jitter_std=0.0,
        time_quantum=LONG_QUANTUM,
        record_gradients=False,
    )
    trainer = repro.Trainer(config, repro.EXTENDED_FACTORIES["prophet"])
    return [_trainer_op(f"{model}/prophet", trainer)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ps-star",
            build_ps_star,
            hot_layers=("cluster.worker", "cluster.ps"),
        ),
        Workload(
            "ring-allreduce",
            build_ring,
            hot_layers=("net.link",),
        ),
        Workload(
            "fleet-mixed",
            build_fleet,
        ),
        Workload(
            "long-horizon",
            build_long_horizon,
            fastforward=True,
            hot_layers=("sim.fastforward",),
        ),
    )
}
