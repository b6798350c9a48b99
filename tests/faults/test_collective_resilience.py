"""Fault tolerance of the allreduce collective backend.

The collective tier has no PS to absorb failures: a crash removes a rank
from a barrier-synchronized ring, so the recovery story is *elastic
shrink* — abort the in-flight operation, rebuild the ring over the
survivors, rescale the 2(N-1)/N traffic factor and resend — and a lost
chunk retransmits on its own link without releasing the step barrier.
These tests pin those semantics end to end: byte conservation on the
shrunk ring, permanent removal (the rejoin door is one-way), watchdog
straggler detection under a deep flap, and the hierarchical topology's
flat-ring degrade.
"""

from dataclasses import replace

import pytest

from repro.cluster.trainer import Trainer, run_training
from repro.faults.plan import FaultPlan, LinkFlap, MessageDrops, WorkerCrash
from repro.workloads.presets import fifo_factory, prophet_factory


@pytest.fixture(scope="module")
def ring_config_module():
    # Module-scoped 4-worker twin of the conftest ``tiny_config``, on the
    # ring allreduce backend.
    from repro.agg.policies import ExplicitGroupsPolicy
    from repro.config import TrainingConfig
    from repro.models.device import DeviceSpec
    from repro.net.tcp import TCPParams
    from repro.quantities import Gbps
    from tests.conftest import TINY_MODEL_NAME

    return TrainingConfig(
        model=TINY_MODEL_NAME,
        batch_size=8,
        n_workers=4,
        n_iterations=6,
        bandwidth=1 * Gbps,
        tcp=TCPParams(rtt=0.2e-3, fixed_overhead=0.1e-3, goodput=0.8),
        device=DeviceSpec(name="test-gpu", peak_flops=4e12, efficiency=0.25),
        agg_policy=ExplicitGroupsPolicy(((5, 6, 7), (3, 4), (2,), (0, 1))),
        seed=7,
        jitter_std=0.01,
        backend="allreduce",
        collective="ring",
    )


@pytest.fixture(scope="module")
def clean_ring(ring_config_module):
    return run_training(ring_config_module, fifo_factory())


def _survivor_iteration_counts(result, config, crashed):
    return {
        w: len(result.recorder.worker_iterations(w))
        for w in range(config.n_workers)
        if w != crashed
    }


class TestElasticShrink:
    def test_crash_before_first_allreduce_conserves_shrunk_ring_bytes(
        self, ring_config_module
    ):
        """Satellite bar: an N-worker ring that loses one rank immediately
        must run the whole job on the survivors' ring, each surviving link
        carrying exactly 2(N-2)/(N-1) of the model bytes per iteration."""
        config = replace(
            ring_config_module,
            faults=FaultPlan(
                crashes=[WorkerCrash(worker=1, at=1e-9, restart_after=0.05)]
            ),
        )
        result = run_training(config, fifo_factory())

        n = config.n_workers
        survivors = n - 1
        factor = 2.0 * (survivors - 1) / survivors  # == 2(N-2)/(N-1)
        model_bytes = float(result.gen_schedule.sizes.sum())
        per_link = factor * model_bytes * config.n_iterations
        for w in range(n):
            total = sum(r.nbytes for r in result.topology.links[w].records)
            if w == 1:
                assert total == 0.0  # the dead rank never transmitted
            else:
                assert total == pytest.approx(per_link)

        counts = _survivor_iteration_counts(result, config, crashed=1)
        assert set(counts.values()) == {config.n_iterations}
        assert result.fault_stats["shrinks"] == 1
        assert result.fault_stats["crashes"] == 1

    def test_mid_training_crash_completes_and_reports_recovery(
        self, ring_config_module, clean_ring
    ):
        t_crash = 0.4 * clean_ring.end_time
        config = replace(
            ring_config_module,
            faults=FaultPlan(
                crashes=[
                    WorkerCrash(
                        worker=2,
                        at=t_crash,
                        restart_after=0.1 * clean_ring.end_time,
                    )
                ]
            ),
        )
        result = run_training(config, prophet_factory())

        counts = _survivor_iteration_counts(result, config, crashed=2)
        assert set(counts.values()) == {config.n_iterations}
        assert len(result.recorder.worker_iterations(2)) < config.n_iterations
        assert result.fault_stats["shrinks"] == 1

        kinds = [kind for _, kind, _ in result.fault_log]
        assert "collective.shrink" in kinds
        # The rejoin door is one-way: the restart is refused, not applied.
        assert "collective.rejoin_refused" in kinds
        assert result.fault_stats["restarts"] == 1

        # Recovery is measurable: the survivors' ring turns again after
        # the crash (fresh iteration starts strictly later than t_crash).
        crash_times = [t for t, kind, _ in result.fault_log if kind == "fault.crash"]
        assert len(crash_times) == 1
        later_starts = [
            r.fwd_start
            for w in (0, 1, 3)
            for r in result.recorder.worker_iterations(w)
            if r.fwd_start > crash_times[0]
        ]
        assert later_starts, "survivors never resumed after the crash"

    def test_crash_after_completion_is_moot(self, ring_config_module, clean_ring):
        config = replace(
            ring_config_module,
            faults=FaultPlan(
                crashes=[
                    WorkerCrash(
                        worker=0, at=10 * clean_ring.end_time, restart_after=0.1
                    )
                ]
            ),
        )
        result = run_training(config, fifo_factory())
        assert result.fault_stats["crashes"] == 0
        assert result.fault_stats["shrinks"] == 0


class TestChunkLoss:
    def test_dropped_chunks_retransmit_and_training_completes(
        self, ring_config_module, clean_ring
    ):
        config = replace(
            ring_config_module,
            faults=FaultPlan(drops=[MessageDrops(push=0.05)]),
        )
        result = run_training(config, fifo_factory())
        stats = result.fault_stats
        assert stats["chunk_drops"] > 0
        assert stats["chunk_retries"] >= stats["chunk_drops"]
        assert stats["ring_steps"] > 0
        for w in range(config.n_workers):
            assert (
                len(result.recorder.worker_iterations(w)) == config.n_iterations
            )
        # Retransmissions add bytes on top of the exact clean total and
        # cost wall-clock time.
        n = config.n_workers
        clean_per_link = (
            2.0 * (n - 1) / n
            * float(result.gen_schedule.sizes.sum())
            * config.n_iterations
        )
        totals = [
            sum(r.nbytes for r in link.records) for link in result.topology.links
        ]
        assert sum(totals) > clean_per_link * n
        assert result.end_time > clean_ring.end_time


class TestStragglerWatchdog:
    def test_repeated_chunk_loss_trips_step_timeouts(
        self, ring_config_module, clean_ring
    ):
        """The watchdog budget is 3x the launch-time estimate plus one
        retry timeout.  Link transfers commit to the bandwidth sampled at
        send time, so a flap alone cannot stretch an in-flight chunk past
        its own estimate — but a chunk lost *twice* accumulates the
        escalating retry backoff and blows the budget, which is exactly
        the stall the watchdog exists to flag."""
        config = replace(
            ring_config_module,
            faults=FaultPlan(drops=[MessageDrops(push=0.15)]),
        )
        result = run_training(config, fifo_factory())
        stats = result.fault_stats
        assert stats["stalled_steps"] > 0
        assert stats["stalled_steps"] < stats["ring_steps"]
        stragglers = [
            detail
            for _, kind, detail in result.fault_log
            if kind == "collective.straggler"
        ]
        assert stragglers
        for w in range(config.n_workers):
            assert (
                len(result.recorder.worker_iterations(w)) == config.n_iterations
            )
        assert result.end_time > clean_ring.end_time

    def test_flap_slows_the_ring_without_false_stalls(
        self, ring_config_module, clean_ring
    ):
        """A clean (lossless) flap re-prices every chunk at launch, so the
        ring slows down but the watchdog — whose budget is set from the
        same launch-time estimate — must not cry wolf."""
        config = replace(
            ring_config_module,
            faults=FaultPlan(
                flaps=[
                    LinkFlap(
                        start=0.3 * clean_ring.end_time,
                        duration=0.3 * clean_ring.end_time,
                        factor=0.05,
                        worker=0,
                    )
                ]
            ),
        )
        result = run_training(config, fifo_factory())
        assert result.fault_stats["link_flaps"] == 1
        assert result.fault_stats["stalled_steps"] == 0
        assert result.end_time > clean_ring.end_time


class TestHierarchicalDegrade:
    def test_crash_degrades_to_flat_ring_over_survivors(self, ring_config_module):
        config = replace(
            ring_config_module,
            n_workers=6,
            collective="hierarchical",
            collective_group_size=3,
            faults=FaultPlan(
                crashes=[WorkerCrash(worker=1, at=1e-9, restart_after=0.05)]
            ),
        )
        trainer = Trainer(config, fifo_factory())
        result = trainer.run()
        assert trainer.executor.degraded_flat
        assert result.fault_stats["shrinks"] == 1
        counts = _survivor_iteration_counts(result, config, crashed=1)
        assert set(counts.values()) == {config.n_iterations}
        # The flat ring runs over the survivors' *local* links only; the
        # two-level plan is gone, so each surviving local link carries the
        # flat-ring share 2(k-1)/k with k = 5 survivors.
        survivors = config.n_workers - 1
        factor = 2.0 * (survivors - 1) / survivors
        per_link = (
            factor * float(result.gen_schedule.sizes.sum()) * config.n_iterations
        )
        for w in range(config.n_workers):
            total = sum(
                r.nbytes for r in result.topology.local_links[w].records
            )
            if w == 1:
                assert total == 0.0
            else:
                assert total == pytest.approx(per_link)


def test_rank_crashing_after_its_flush_keeps_its_own_ready_mark():
    """Under faults a rank can flush a gradient and crash before the rest
    of the group does; the collective-ready mark then only reaches the
    survivors, and the dead rank keeps the ready mark of its own flush."""
    from repro.experiments.chaos import default_plan
    from repro.workloads.presets import paper_config

    config = paper_config(
        "resnet18",
        32,
        n_workers=6,
        n_iterations=6,
        seed=1,
        backend="allreduce",
        collective="hierarchical",
        collective_group_size=3,
        faults=default_plan(crash_at=0.93, restart_after=0.3, drop=0.03, backend="allreduce"),
    )
    result = run_training(config, prophet_factory())
    crash = config.faults.crashes[0]
    rec = result.recorder
    last = max(r.iteration for r in rec.gradient_records(worker=crash.worker))
    survivor = {r.grad: r.ready for r in rec.gradient_records(worker=0, iteration=last)}
    orphaned = [
        r
        for r in rec.gradient_records(worker=crash.worker, iteration=last)
        if r.ready != survivor[r.grad]
    ]
    assert orphaned
    for r in orphaned:
        assert r.ready <= crash.at < survivor[r.grad]
