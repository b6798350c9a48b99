"""Cluster network topology.

The paper's testbed is a star: one parameter server, N workers, each worker
connected by its own (EC2 instance) NIC.  The binding resource in every
experiment is the *worker* NIC — the paper caps "worker bandwidth limit" in
Table 2 and caps a single worker to 500 Mbps in the heterogeneity
experiment — so the topology materializes one uplink (worker→PS, used by
push) and one downlink (PS→worker, used by pull) per worker.

An optional ``ps_bandwidth`` models a PS-side NIC cap (the regime where the
PS becomes the bottleneck; used by the scalability ablation).  The cap is
divided among workers with **water-filling** (max-min fair) semantics: a
worker whose own NIC is already slower than the fair share keeps its NIC
rate, and the share it cannot use is redistributed to the faster workers —
the steady state competing TCP flows converge to.  A static
``ps_bandwidth / n_workers`` split would instead strand the slow worker's
unused share (over-capping heterogeneous clusters).

With ``n_servers > 1`` the :class:`StarTopology` becomes a BytePS-style
sharded PS tier: ``n_servers`` key-sharded parameter servers, each with
its own ``ps_bandwidth`` NIC, and per-``(worker, shard)`` duplex links so
a worker pushes to (and pulls from) every shard concurrently.  Each
shard's NIC is water-filled across the workers independently.  In this
model the worker NIC caps each individual shard flow but not their sum —
the sharded regime of interest is the one where the PS tier, not the
worker NIC, is the bottleneck (see DESIGN.md).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.net.link import BandwidthSchedule, Link
from repro.net.tcp import TCPParams
from repro.sim.engine import Engine
from repro.sim.rng import spawn_rng

__all__ = [
    "StarTopology",
    "ClusterFabric",
    "water_fill_level",
    "water_fill_shares",
]


def water_fill_level(demands: Sequence[float], capacity: float) -> float:
    """Max-min fair water level ``L`` for ``demands`` sharing ``capacity``.

    ``L`` solves ``sum(min(d, L)) == capacity``; each flow's fair share is
    ``min(d, L)``.  Returns ``inf`` when the demands fit entirely
    (``sum(demands) <= capacity`` — nobody needs capping).
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    if any(d <= 0 for d in demands):
        raise ConfigurationError("demands must be positive")
    ordered = sorted(demands)
    if sum(ordered) <= capacity:
        return math.inf
    remaining = capacity
    for i, d in enumerate(ordered):
        level = remaining / (len(ordered) - i)
        if d >= level:
            return level
        remaining -= d
    # Unreachable: sum(demands) > capacity guarantees some demand >= level.
    return remaining  # pragma: no cover - defensive


def water_fill_shares(demands: Sequence[float], capacity: float) -> list[float]:
    """Per-flow max-min fair shares of ``capacity`` (``min(d, L)`` each)."""
    level = water_fill_level(demands, capacity)
    return [min(float(d), level) for d in demands]


def _merged_times(schedules: Sequence[BandwidthSchedule]) -> list[float]:
    """Union of all breakpoint times across ``schedules``, sorted."""
    times: set[float] = set()
    for sched in schedules:
        times.update(sched.times)
    times.add(0.0)
    return sorted(times)


def _ps_capped_schedules(
    schedules: Sequence[BandwidthSchedule], ps_bandwidth: float
) -> list[BandwidthSchedule]:
    """Water-fill ``ps_bandwidth`` across per-worker bandwidth schedules.

    Piecewise: at every union breakpoint the water level is recomputed from
    the workers' instantaneous demands, and each worker's capped schedule
    takes ``min(demand, level)`` there.  For a homogeneous cluster this
    reduces exactly to the classic ``min(b, ps_bandwidth / n)`` split.

    The evaluation is incremental: only schedules that actually break at
    ``t`` update their demand (everyone else's value cannot have changed),
    and the shares are memoized on the demand vector — a repeated vector
    replays the cached result of the same sorted-order,
    sequential-subtraction arithmetic, so every share is bit-identical to
    the full per-breakpoint recomputation.  Fleet-scale dynamic
    environments (many links, few of which flap at any instant) drop from
    O(breakpoints x n log n) to O(breakpoints + distinct vectors x
    n log n).  Breakpoints where a worker's share repeats its previous
    segment are elided from that worker's capped schedule — transparent to
    ``value()``, which is piecewise-constant either way.
    """
    merged = _merged_times(schedules)
    start = merged[0]
    breaks_at: dict[float, list[int]] = {t: [] for t in merged}
    for i, sched in enumerate(schedules):
        for t in sched.times:
            if t != start:
                breaks_at[t].append(i)
    demands = [sched.value(start) for sched in schedules]
    share_cache: dict[tuple[float, ...], list[float]] = {}
    capped_points: list[list[tuple[float, float]]] = [[] for _ in schedules]
    for t in merged:
        for i in breaks_at[t]:
            demands[i] = schedules[i].value(t)
        key = tuple(demands)
        shares = share_cache.get(key)
        if shares is None:
            shares = water_fill_shares(demands, ps_bandwidth)
            share_cache[key] = shares
        for points, share in zip(capped_points, shares):
            if not points or points[-1][1] != share:
                points.append((t, share))
    return [BandwidthSchedule(points) for points in capped_points]


class ClusterFabric:
    """Shared datacenter fabric: per-host NICs feeding an oversubscribed core.

    The multi-tenant counterpart of the PS-side water-filling above.  Each
    *tenant* (one training job of the fleet simulator) brings ``n_links``
    worker NICs of ``nic_bandwidth`` bytes/s each; the core carries
    ``core_bandwidth`` bytes/s in aggregate, typically less than the sum
    of all NICs (oversubscription).  Core capacity is divided across the
    currently *active* tenants by water-filling over their aggregate NIC
    demand (``n_links x nic_bandwidth``) — max-min fairness at tenant
    granularity, the steady state of per-tenant congestion control — and
    each tenant's per-link bandwidth is its core share divided evenly
    over its links, never above its own NIC rate.

    :meth:`admit` hands back a **live** :class:`BandwidthSchedule`: the
    tenant builds its job topology on it, and on every membership change
    the fabric re-levels it in place via
    :meth:`BandwidthSchedule.set_level`.  While the fleet is uncontended
    (or has a single tenant) every schedule keeps its single breakpoint,
    so the links' constant-schedule fast path — and hence bit-identity
    with a directly built single job — is preserved.
    """

    def __init__(self, core_bandwidth: float):
        if core_bandwidth <= 0:
            raise ConfigurationError(
                f"core_bandwidth must be positive, got {core_bandwidth}"
            )
        self.core_bandwidth = float(core_bandwidth)
        # name -> (n_links, nic_bandwidth, live schedule); insertion order
        # is the (deterministic) water-filling evaluation order.
        self._tenants: dict[str, tuple[int, float, BandwidthSchedule]] = {}

    # ------------------------------------------------------------------
    @property
    def tenants(self) -> tuple[str, ...]:
        """Names of the currently admitted tenants, admission order."""
        return tuple(self._tenants)

    def demand(self) -> float:
        """Aggregate NIC demand of the active tenants (bytes/s)."""
        return sum(n * nic for n, nic, _ in self._tenants.values())

    def oversubscription(self) -> float:
        """Current demand-to-core ratio (> 1 means contended)."""
        return self.demand() / self.core_bandwidth

    def share(self, name: str) -> float:
        """The per-link bandwidth ``name`` currently gets (bytes/s)."""
        n_links, nic, sched = self._tenants[name]
        return sched._values[-1]

    # ------------------------------------------------------------------
    def admit(
        self, name: str, n_links: int, nic_bandwidth: float, now: float = 0.0
    ) -> BandwidthSchedule:
        """Add a tenant; returns its live per-link bandwidth schedule.

        The schedule starts at the tenant's fair share as of ``now`` and
        is re-levelled in place on every later membership change.  Every
        already-admitted tenant's schedule is re-levelled too.
        """
        if name in self._tenants:
            raise ConfigurationError(f"tenant {name!r} already admitted")
        if n_links < 1:
            raise ConfigurationError(f"n_links must be >= 1, got {n_links}")
        if nic_bandwidth <= 0:
            raise ConfigurationError(
                f"nic_bandwidth must be positive, got {nic_bandwidth}"
            )
        sched = BandwidthSchedule.constant(float(nic_bandwidth))
        self._tenants[name] = (n_links, float(nic_bandwidth), sched)
        self._relevel(now)
        return sched

    def release(self, name: str, now: float = 0.0) -> None:
        """Remove a tenant and redistribute its core share."""
        if name not in self._tenants:
            raise ConfigurationError(f"unknown tenant {name!r}")
        del self._tenants[name]
        self._relevel(now)

    def _relevel(self, now: float) -> None:
        """Water-fill the core over the active tenants' NIC demands.

        An unconstrained tenant (its whole demand fits under the water
        level) keeps its exact NIC rate — not ``demand / n_links``, whose
        float division could differ in the last ulp — so an uncontended
        fleet stays bit-identical to dedicated links.
        """
        tenants = self._tenants.values()
        if not tenants:
            return
        demands = [n * nic for n, nic, _ in tenants]
        level = water_fill_level(demands, self.core_bandwidth)
        for (n_links, nic, sched), demand in zip(tenants, demands):
            if demand <= level:
                per_link = nic
            else:
                per_link = min(nic, level / n_links)
            sched.set_level(now, per_link)


def _as_schedule(bandwidth: float | BandwidthSchedule) -> BandwidthSchedule:
    if isinstance(bandwidth, BandwidthSchedule):
        return bandwidth
    return BandwidthSchedule.constant(float(bandwidth))


def _effective_schedules(
    n_workers: int,
    bandwidth: float | BandwidthSchedule,
    overrides: Mapping[int, float | BandwidthSchedule],
    ps_bandwidth: float | None,
) -> list[BandwidthSchedule]:
    """Per-worker effective bandwidth schedules under the PS-side cap."""
    raw = [_as_schedule(overrides.get(w, bandwidth)) for w in range(n_workers)]
    if ps_bandwidth is None:
        return raw
    return _ps_capped_schedules(raw, ps_bandwidth)


class StarTopology:
    """Workers around a tier of ``n_servers`` parameter servers.

    Every worker gets one uplink and one downlink **per server**, so
    pushes to different shards proceed concurrently (no head-of-line
    blocking between shards — the BytePS deployment model).  The paper's
    star is ``n_servers=1``: one duplex link pair per worker.

    Parameters
    ----------
    engine:
        The simulation engine all links schedule on.
    n_workers:
        Number of worker nodes (>= 1).
    bandwidth:
        Default per-worker available bandwidth in bytes/s, or a
        :class:`BandwidthSchedule` for dynamic environments.
    tcp:
        TCP path parameters shared by all links.
    worker_bandwidth:
        Optional per-worker overrides, mapping worker index to a bandwidth
        (bytes/s) or schedule.  Used by the heterogeneous-cluster
        experiments (e.g. worker 0 capped to 500 Mbps).
    ps_bandwidth:
        Optional per-server NIC capacity in bytes/s; when set, it is
        divided among the workers with water-filling (max-min fair)
        semantics — see the module docstring.  Every server serves all
        workers, so each server's NIC is water-filled the same way.
    seed / noise_std:
        Optional multiplicative bandwidth noise per transfer, independent
        per link.
    n_servers:
        Width of the PS tier (>= 1).  A one-server tier keeps the star's
        link names ``worker{w}-up``/``-down`` and noise streams
        ``("link", w, dir)``; wider tiers name links
        ``worker{w}-s{s}-up``/``-down`` with streams ``("link", w, s, dir)``.

    The worker NIC caps each shard flow individually but not their sum —
    an accepted simplification for the PS-bound regime the sharded tier
    targets (see DESIGN.md, section 3c).
    """

    def __init__(
        self,
        engine: Engine,
        n_workers: int,
        bandwidth: float | BandwidthSchedule,
        tcp: TCPParams | None = None,
        worker_bandwidth: Mapping[int, float | BandwidthSchedule] | None = None,
        ps_bandwidth: float | None = None,
        seed: int | None = 0,
        noise_std: float = 0.0,
        n_servers: int = 1,
    ):
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if n_servers < 1:
            raise ConfigurationError(f"n_servers must be >= 1, got {n_servers}")
        if ps_bandwidth is not None and ps_bandwidth <= 0:
            raise ConfigurationError(f"ps_bandwidth must be positive, got {ps_bandwidth}")
        overrides = dict(worker_bandwidth or {})
        for idx in overrides:
            if not 0 <= idx < n_workers:
                raise ConfigurationError(
                    f"worker_bandwidth override for unknown worker {idx}"
                )

        self.engine = engine
        self.n_workers = n_workers
        self.n_servers = n_servers
        self.tcp = tcp if tcp is not None else TCPParams()
        # uplinks[worker][server] / downlinks[worker][server]
        self.uplinks: list[list[Link]] = []
        self.downlinks: list[list[Link]] = []

        # Every server serves all workers, so the per-server water-filling
        # is identical across servers; compute it once.
        schedules = _effective_schedules(n_workers, bandwidth, overrides, ps_bandwidth)
        sharded = n_servers > 1
        for w, sched in enumerate(schedules):
            ups: list[Link] = []
            downs: list[Link] = []
            for s in range(n_servers):
                prefix = f"worker{w}-s{s}" if sharded else f"worker{w}"
                stream = ("link", w, s) if sharded else ("link", w)
                for direction, bucket in (("up", ups), ("down", downs)):
                    rng: np.random.Generator | None = None
                    if noise_std > 0:
                        rng = spawn_rng(seed, *stream, direction)
                    bucket.append(
                        Link(
                            engine,
                            sched,
                            self.tcp,
                            name=f"{prefix}-{direction}",
                            noise_rng=rng,
                            noise_std=noise_std,
                        )
                    )
            self.uplinks.append(ups)
            self.downlinks.append(downs)

    # ------------------------------------------------------------------
    def uplink(self, worker: int, server: int = 0) -> Link:
        """The push link of ``worker`` towards ``server``."""
        return self.uplinks[worker][server]

    def downlink(self, worker: int, server: int = 0) -> Link:
        """The pull link of ``server`` towards ``worker``."""
        return self.downlinks[worker][server]

    def worker_uplinks(self, worker: int) -> list[Link]:
        """All push links of ``worker``, server order."""
        return list(self.uplinks[worker])

    def worker_downlinks(self, worker: int) -> list[Link]:
        """All pull links of ``worker``, server order."""
        return list(self.downlinks[worker])

    def min_bandwidth(self) -> float:
        """Lowest configured bandwidth across all worker links right now.

        In BSP the slowest worker gates every parameter update; schedulers
        that need a single cluster-level bandwidth estimate use this.
        """
        return min(
            link.current_bandwidth() for links in self.uplinks for link in links
        )
