"""Integration tests for training over the sharded PS tier.

The star is the one-server case of the same PS tier, and the *one-shard
rule* keeps its labels: at ``n_servers=1`` links, PS, RNG streams and
trace rows carry the star's names (pinned here against values recorded
from the star build before the tiers shared one code path).  Beyond
that, multi-shard runs must complete under every sync mode, honor
P3-style slicing, and label per-shard trace rows.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.trainer import Trainer, run_training
from repro.errors import ConfigurationError
from repro.quantities import Gbps
from repro.workloads.presets import EXTENDED_FACTORIES, bytescheduler_factory

# ----------------------------------------------------------------------
# The one-shard rule: one server keeps the star's names and streams
# ----------------------------------------------------------------------

#: ``(training_rate(), end_time)`` of ``tiny_config`` with bandwidth noise,
#: recorded from the dedicated star build.  Link noise streams
#: (``("link", w, dir)``) and scheduler streams (``("sched", w)``) both
#: feed these numbers: under the sharded labels every value moves.
STAR_RECORDED = {
    "prophet": (11.653449225357505, 4.212572850127287),
    "mxnet-fifo": (11.143994624475852, 4.321455222077307),
    "p3": (12.238820053617271, 4.057419352312361),
    "bytescheduler-auto-tune": (11.321105198338387, 4.259623494848331),
}


def _one_shard_factory(strategy):
    if strategy == "bytescheduler-auto-tune":
        # Auto-tuning draws from the scheduler's own RNG stream.
        return bytescheduler_factory(auto_tune=True, tune_every=2)
    return EXTENDED_FACTORIES[strategy]


@pytest.mark.parametrize("strategy", sorted(STAR_RECORDED))
def test_one_server_reproduces_recorded_star(tiny_config, strategy):
    config = replace(tiny_config, n_servers=1, bandwidth_noise_std=0.05)
    result = run_training(config, _one_shard_factory(strategy))
    assert (result.training_rate(), result.end_time) == STAR_RECORDED[strategy]


@pytest.mark.parametrize("n_servers", [1, 2])
def test_one_shard_rule_names(tiny_config, n_servers):
    config = replace(tiny_config, n_servers=n_servers, trace=True, n_iterations=3)
    trainer = Trainer(config, EXTENDED_FACTORIES["prophet"])
    result = trainer.run()
    links = {link.name for w in range(2) for link in trainer.topology.worker_uplinks(w)}
    links |= {link.name for w in range(2) for link in trainer.topology.worker_downlinks(w)}
    names = [ps.name for ps in trainer.servers]
    tracks = {e.track for e in result.trace.events}
    comm = {e.track for e in result.trace.events if e.cat == "comm"}
    if n_servers == 1:
        assert links == {"worker0-up", "worker0-down", "worker1-up", "worker1-down"}
        assert names == ["ps"]
        assert comm == {"worker0/comm", "worker1/comm"}
        assert not any("/s0" in t for t in tracks)
    else:
        assert links == {
            f"worker{w}-s{s}-{d}" for w in range(2) for s in range(2) for d in ("up", "down")
        }
        assert names == ["ps0", "ps1"]
        assert comm == {f"worker{w}/s{s}/comm" for w in range(2) for s in range(2)}


def test_one_server_ignores_slicing(tiny_config):
    """``shard_slice_bytes`` is a sharding knob: a one-server tier keeps
    whole tensors."""
    sliced = replace(tiny_config, shard_slice_bytes=1e6)
    trainer = Trainer(sliced, EXTENDED_FACTORIES["prophet"])
    assert len(trainer.assignment.pieces) == len(trainer.gen_schedule.sizes)
    assert trainer.run().end_time == run_training(
        tiny_config, EXTENDED_FACTORIES["prophet"]
    ).end_time


# ----------------------------------------------------------------------
# Multi-shard runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("sync_mode", ["bsp", "asp", "ssp"])
def test_multi_shard_completes_under_all_sync_modes(tiny_config, sync_mode):
    config = replace(tiny_config, n_servers=3, sync_mode=sync_mode)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    for w in range(config.n_workers):
        assert len(result.recorder.worker_iterations(w)) == config.n_iterations
    assert result.training_rate() > 0


def test_multi_shard_gradient_records_complete(tiny_config):
    """Every gradient's push/pull marks fire exactly once per iteration
    even though its bytes cross several shard links."""
    config = replace(tiny_config, n_servers=3)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    recs = [
        r for r in result.gradient_records(worker=0)
        if r.iteration >= 2
    ]
    n_grads = len(result.gen_schedule.sizes)
    assert len(recs) == n_grads * (config.n_iterations - 2)
    for r in recs:
        assert np.isfinite(r.ready)
        assert np.isfinite(r.push_start) and np.isfinite(r.push_end)
        assert r.push_start >= r.ready
        assert r.push_end > r.push_start


def test_multi_shard_duplex(tiny_config):
    config = replace(tiny_config, n_servers=2, duplex=True)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    assert result.training_rate() > 0
    # pull traffic rides the per-shard downlinks
    down_bytes = sum(
        r.nbytes
        for link in result.topology.worker_downlinks(0)
        for r in link.records
    )
    assert down_bytes > 0


def test_slicing_spreads_large_tensors(tiny_config):
    config = replace(tiny_config, n_servers=2, shard_slice_bytes=1e6)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    assert result.training_rate() > 0
    # the 8 MB tensor must land on both shards
    from repro.cluster.sharding import assign_shards

    assignment = assign_shards(
        result.gen_schedule.sizes, 2, config.shard_slice_bytes
    )
    big = int(np.argmax(result.gen_schedule.sizes))
    shards = {p.shard for p in assignment.pieces_of(big)}
    assert shards == {0, 1}


def test_sharding_relieves_ps_bottleneck(tiny_config):
    """Under a PS-side NIC cap, widening the tier speeds up iterations."""
    times = []
    for k in (1, 2):
        config = replace(
            tiny_config,
            bandwidth=4 * Gbps,
            ps_bandwidth=1 * Gbps,
            n_servers=k,
            n_iterations=8,
        )
        result = run_training(config, EXTENDED_FACTORIES["prophet"])
        times.append(float(result.iteration_spans(0).mean()))
    assert times[1] < times[0]


def test_per_shard_trace_tracks(tiny_config):
    config = replace(tiny_config, n_servers=2, trace=True)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    tracks = {e.track for e in result.trace.events}
    assert "ps0" in tracks and "ps1" in tracks
    # per-shard worker comm rows
    assert any(t.startswith("worker0/s0") for t in tracks)
    assert any(t.startswith("worker0/s1") for t in tracks)


def test_sharded_monitors_one_per_worker_shard(tiny_config):
    config = replace(tiny_config, n_servers=3)
    trainer = Trainer(config, EXTENDED_FACTORIES["prophet"])
    assert len(trainer.monitors) == config.n_workers * 3
    assert len(trainer.servers) == 3
    assert len(trainer.schedulers) == config.n_workers * 3


# ----------------------------------------------------------------------
# Rejections
# ----------------------------------------------------------------------

def test_faults_with_sharded_tier_accepted(tiny_config):
    # The old blanket rejection is gone: drops on a sharded tier run.
    from repro.faults.plan import FaultPlan, MessageDrops

    plan = FaultPlan(drops=[MessageDrops(push=0.1)])
    config = replace(tiny_config, n_servers=2, faults=plan)
    result = run_training(config, EXTENDED_FACTORIES["prophet"])
    assert result.fault_stats is not None


def test_server_crash_beyond_tier_rejected(tiny_config):
    from repro.faults.plan import FaultPlan, ServerCrash

    plan = FaultPlan(server_crashes=[ServerCrash(server=2, at=1.0, failover_after=0.2)])
    with pytest.raises(ConfigurationError, match="server 2"):
        replace(tiny_config, n_servers=2, faults=plan)


def test_more_servers_than_keys_rejected(tiny_config):
    # the tiny model has 8 gradient tensors
    config = replace(tiny_config, n_servers=9)
    with pytest.raises(ConfigurationError, match="exceeds"):
        run_training(config, EXTENDED_FACTORIES["prophet"])


def test_invalid_n_servers_rejected(tiny_config):
    with pytest.raises(ConfigurationError):
        replace(tiny_config, n_servers=0)
    with pytest.raises(ConfigurationError):
        replace(tiny_config, shard_slice_bytes=-1.0)
