"""PS-tier wiring: key assignment, servers, and one port per worker and server.

The parameter-server backend is one construction for any tier width.
:func:`build_ps_tier` assigns every gradient byte to one of
``n_servers`` servers (:mod:`repro.cluster.sharding`), builds one
:class:`~repro.cluster.ps.ParameterServer` per server over its local
piece sizes, and gives every worker one
:class:`~repro.cluster.worker.PSPort` per server — each with its own
scheduler instance over the server's locally re-indexed generation
schedule, its own link pair, and a bandwidth monitor on its uplink.  The
paper's star is the one-server case: the assignment maps every gradient
to itself, so the worker drives exactly one port over the whole model.

Synchronization semantics are preserved across servers: each server
applies BSP/ASP/SSP per piece, and the worker's forward pass for
iteration ``k+1`` still gates on *all* global parameter updates of
iteration ``k`` — so global BSP is exactly the conjunction of the
per-server BSP conditions.

**The one-shard rule.**  A one-server tier keeps the star's labels: the
PS is named ``ps``, scheduler RNG streams are ``("sched", w)``, links
``worker{w}-up``/``-down`` with noise streams ``("link", w, dir)`` (see
:class:`~repro.net.topology.StarTopology`), and trace rows
``worker{w}/comm``; ``shard_slice_bytes`` is ignored.  With two or more
servers the PSs are ``ps{s}``, streams carry the shard index, and every
port's rows live under ``worker{w}/s{s}``.

**Fault mode.**  Every port runs the reliable-delivery protocol against
its own server, so a drop on one shard never delays another shard's
traffic; a :class:`~repro.faults.plan.ServerCrash` takes one server down
while the others stream on undisturbed.
"""

from __future__ import annotations

from repro.agg.kvstore import GenerationSchedule
from repro.cluster.ps import ParameterServer
from repro.cluster.sharding import (
    ShardAssignment,
    assign_shards,
    restrict_generation_schedule,
)
from repro.cluster.worker import PSPort, Worker
from repro.config import SchedulerFactory, TrainingConfig, WorkerContext
from repro.core.profiler import JobProfile
from repro.net.monitor import BandwidthMonitor
from repro.sim.engine import Engine
from repro.sim.rng import spawn_rng

__all__ = ["build_ps_tier"]


def build_ps_tier(
    engine: Engine,
    config: TrainingConfig,
    gen_schedule: GenerationSchedule,
    topology,
    workers: list[Worker],
    scheduler_factory: SchedulerFactory,
    faults=None,
) -> tuple[ShardAssignment, list[ParameterServer], list, list[BandwidthMonitor]]:
    """Attach the PS tier to ``workers``.

    Returns ``(assignment, servers, schedulers, monitors)``; schedulers
    and monitors are listed worker-major, server-minor.
    """
    n = config.n_servers
    sharded = n > 1
    assignment = assign_shards(
        gen_schedule.sizes, n, config.shard_slice_bytes if sharded else None
    )
    templates = [
        restrict_generation_schedule(gen_schedule, assignment, s) for s in range(n)
    ]
    servers = [
        ParameterServer(
            engine,
            n_workers=config.n_workers,
            sizes=template.sizes,
            update_fixed=config.ps_update_fixed,
            update_per_byte=config.ps_update_per_byte,
            sync_mode=config.sync_mode,
            staleness=config.ssp_staleness,
            faults=faults,
            name=f"ps{s}" if sharded else "ps",
            server_index=s,
        )
        for s, template in enumerate(templates)
    ]
    profiles = [JobProfile.from_generation_schedule(t) for t in templates]

    compute_scale = dict(config.worker_compute_scale or {})
    schedulers: list = []
    monitors: list[BandwidthMonitor] = []
    for worker in workers:
        w = worker.worker_id
        # Each worker's oracle profile reflects *its own* compute pace
        # (the real profiler runs per worker) — a compute straggler's
        # generation times are proportionally later.
        scale = compute_scale.get(w, 1.0)
        for s in range(n):
            uplink = topology.uplink(w, s)
            monitor = BandwidthMonitor(engine, uplink, interval=config.monitor_interval)
            monitors.append(monitor)
            profile = profiles[s]
            if scale != 1.0:
                profile = JobProfile(c=profile.c * scale, sizes=profile.sizes, iterations=0)
            stream = ("sched", w, s) if sharded else ("sched", w)
            scheduler = scheduler_factory(
                WorkerContext(
                    worker_id=w,
                    monitor=monitor,
                    oracle_profile=profile,
                    tcp=config.tcp,
                    rng=spawn_rng(config.seed, *stream),
                    engine=engine,
                )
            )
            schedulers.append(scheduler)
            worker.ports.append(
                PSPort(
                    worker,
                    assignment,
                    shard=s,
                    schedule=templates[s],
                    scheduler=scheduler,
                    channel=uplink,
                    downlink=topology.downlink(w, s) if config.duplex else None,
                    ps=servers[s],
                )
            )
    for s, ps in enumerate(servers):
        ps.attach_workers([worker.ports[s] for worker in workers])
    return assignment, servers, schedulers, monitors
