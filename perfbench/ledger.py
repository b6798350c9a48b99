"""Per-layer host-time ledger built from a :mod:`cProfile` profile.

A *layer* is a named group of ``repro`` modules (see :data:`LAYER_MAP`).
Every function the profiler saw is either a ``repro`` function, which
belongs to its module's layer, or a *foreign* function: a builtin, a
NumPy or standard-library function, or the benchmark's own code.

* **Self time.**  A ``repro`` function's self time goes to its layer.  A
  foreign function's self time is charged to the layers that called it,
  split exactly per caller edge (cProfile records the inline time of
  every caller -> callee edge).  When that caller is itself foreign, its
  share is split again over *its* callers, weighted by the cumulative
  time each caller spent in it.  Time whose chain of callers never
  reaches a ``repro`` frame (the round script's own code, top-level
  import machinery) is *unattributed*.
* **Calls in.**  A call crosses into layer ``L`` when the caller's layer
  differs from ``L``.  Engine-dispatched callbacks count too: their
  caller is ``Engine.run``.  A foreign caller (``sorted``, ``heapq``,
  ``map``) takes the layer that calls it most often; a call from the
  benchmark itself counts as a crossing.

Nothing here wraps or patches program objects: the profile comes from
the standard-library profiler hook alone, so the program runs the same
code with and without the ledger (fast-forward's callback
canonicalisation, for one, sees the real callbacks).
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Mapping

#: The ledger's layers, in report order.
LAYERS: tuple[str, ...] = (
    "sim.engine",
    "sim.fastforward",
    "net.link",
    "net.tcp",
    "net.collective",
    "net.topology",
    "net.monitor",
    "cluster.worker",
    "cluster.sharded",
    "cluster.collective",
    "cluster.ps",
    "cluster.trainer",
    "sched",
    "agg",
    "core",
    "models",
    "metrics.timeline",
    "fleet",
)

#: Module-name prefix -> layer; the longest matching prefix wins.  Every
#: module under ``src/repro`` must resolve (a self-test walks the tree).
LAYER_MAP: Mapping[str, str] = {
    # The event engine, its package and its seeded RNG streams.
    "repro.sim": "sim.engine",
    "repro.sim.engine": "sim.engine",
    "repro.sim.rng": "sim.engine",
    "repro.sim.fastforward": "sim.fastforward",
    # Network: links (and the transport seam that forwards to them), the
    # TCP cost model, collectives, topologies and bandwidth monitors.
    "repro.net": "net.link",
    "repro.net.link": "net.link",
    "repro.net.transport": "net.link",
    "repro.net.tcp": "net.tcp",
    "repro.net.collective": "net.collective",
    "repro.net.topology": "net.topology",
    "repro.net.monitor": "net.monitor",
    # Cluster: worker-side comm (with its message types), the sharded
    # port path (with its key->shard assignment), the collective
    # controller, the parameter server, and the trainer/result glue.
    "repro.cluster": "cluster.trainer",
    "repro.cluster.trainer": "cluster.trainer",
    "repro.cluster.result": "cluster.trainer",
    "repro.cluster.worker": "cluster.worker",
    "repro.cluster.messages": "cluster.worker",
    "repro.cluster.sharded": "cluster.sharded",
    "repro.cluster.sharding": "cluster.sharded",
    "repro.cluster.collective": "cluster.collective",
    "repro.cluster.ps": "cluster.ps",
    # Communication strategies, including ByteScheduler's credit tuner.
    "repro.sched": "sched",
    "repro.bayesopt": "sched",
    "repro.agg": "agg",
    "repro.models": "models",
    # Recording: the timeline recorder, the metrics read from it, and
    # the structured trace recorder it mirrors into.
    "repro.metrics": "metrics.timeline",
    "repro.trace": "metrics.timeline",
    "repro.fleet": "fleet",
    "repro.metrics.fleet": "fleet",
    # Everything else is the package core: Prophet's profile/plan core,
    # configuration, presets, fault plans, the runner and front ends.
    "repro": "core",
}

#: Simple counters: metric -> (module, function names summed).
COUNTERS: Mapping[str, tuple[str, tuple[str, ...]]] = {
    "cancels": ("repro.sim.engine", ("cancel",)),
    "schedules": ("repro.sim.engine", ("schedule", "schedule_after")),
    "pushes": ("repro.cluster.ps", ("receive_push",)),
    "sends": ("repro.net.link", ("send", "_start")),
    "ticks": ("repro.fleet.scheduler", ("tick",)),
    "relevels": ("repro.net.topology", ("admit", "release")),
}


def layer_of_module(module: str) -> str | None:
    """The layer of a ``repro`` module, or ``None`` for other modules."""
    if module != "repro" and not module.startswith("repro."):
        return None
    probe = module
    while probe:
        layer = LAYER_MAP.get(probe)
        if layer is not None:
            return layer
        probe = probe.rpartition(".")[0]
    return None


class Ledger:
    """Self time and boundary crossings per layer, from pstats data.

    ``stats`` is ``pstats.Stats(profile).stats``: ``func -> (cc, nc, tt,
    ct, callers)`` with ``callers: caller -> (nc, cc, tt, ct)``.
    ``src_root`` is the directory holding the ``repro`` package.
    """

    def __init__(self, stats: Mapping, src_root: str):
        self._stats = stats
        self._root = os.path.realpath(src_root) + os.sep
        self._module_of_file: dict[str, str | None] = {}
        self._layer = {func: self._layer_of_func(func) for func in stats}
        self._time_owner: dict = {}
        self._call_owner: dict = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls_in = {layer: 0 for layer in LAYERS}
        self.total_s = 0.0
        self.unattributed_s = 0.0
        self._tally()

    # ------------------------------------------------------------------
    def module_of(self, filename: str) -> str | None:
        """Dotted ``repro`` module name of a profiled file, else ``None``."""
        cached = self._module_of_file.get(filename, False)
        if cached is not False:
            return cached
        module = None
        path = os.path.realpath(filename) if filename and filename[0] != "~" else ""
        if path.startswith(self._root) and path.endswith(".py"):
            parts = path[len(self._root) : -3].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            if parts and parts[0] == "repro":
                module = ".".join(parts)
        self._module_of_file[filename] = module
        return module

    def _layer_of_func(self, func) -> str | None:
        module = self.module_of(func[0])
        return layer_of_module(module) if module else None

    # ------------------------------------------------------------------
    def _owner(self, func, memo: dict, weight: int, stack: set) -> dict:
        """Layer distribution of a foreign function's callers.

        ``weight`` picks the caller-edge field: 3 (cumulative time) for
        time attribution, 0 (call count) for call attribution.  Cycles
        among foreign functions are cut; the cut edges count as
        unattributed.
        """
        layer = self._layer[func]
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        stack.add(func)
        callers = self._stats[func][4]
        total = sum(edge[weight] for edge in callers.values())
        owner: dict[str, float] = defaultdict(float)
        if total > 0:
            for caller, edge in callers.items():
                if caller in stack or caller not in self._stats:
                    continue
                share = edge[weight] / total
                for lay, frac in self._owner(caller, memo, weight, stack).items():
                    owner[lay] += share * frac
        stack.discard(func)
        memo[func] = dict(owner)
        return memo[func]

    def _tally(self) -> None:
        for func, (_cc, _nc, tt, _ct, callers) in self._stats.items():
            self.total_s += tt
            layer = self._layer[func]
            if layer is not None:
                self.self_s[layer] += tt
                for caller, edge in callers.items():
                    if self._caller_layer(caller) != layer:
                        self.calls_in[layer] += edge[0]
                continue
            charged = 0.0
            for caller, edge in callers.items():
                if caller not in self._stats:
                    continue
                owner = self._owner(caller, self._time_owner, 3, set())
                for lay, frac in owner.items():
                    self.self_s[lay] += edge[2] * frac
                    charged += edge[2] * frac
            self.unattributed_s += tt - charged

    def _caller_layer(self, caller) -> str | None:
        if caller not in self._stats:
            return None
        owner = self._owner(caller, self._call_owner, 0, set())
        if not owner:
            return None
        return max(sorted(owner), key=owner.__getitem__)

    # ------------------------------------------------------------------
    def count(self, module: str, names: tuple[str, ...]) -> int:
        """Total calls of the named functions of one ``repro`` module."""
        calls = 0
        for func, (_cc, nc, _tt, _ct, _callers) in self._stats.items():
            if func[2] in names and self.module_of(func[0]) == module:
                calls += nc
        return calls

    def counters(self) -> dict[str, int]:
        return {
            name: self.count(module, names)
            for name, (module, names) in COUNTERS.items()
        }

    def summary(self) -> dict:
        """Plain-JSON form of the ledger."""
        return {
            "self_s": self.self_s,
            "calls_in": self.calls_in,
            "total_s": self.total_s,
            "unattributed_s": self.unattributed_s,
            "counters": self.counters(),
        }
