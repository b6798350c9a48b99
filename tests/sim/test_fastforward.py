"""Unit tests for the steady-state fast-forward subsystem.

Covers the three behaviors the exactness property tests cannot:

* **gating** — every source of aperiodicity (faults, jitter, noise,
  dynamic bandwidth, non-BSP sync, opted-out schedulers, the env-var
  kill-switch, a missing time quantum) must keep the detector off;
* **fallback** — a fingerprint that fails re-verification after one
  recorded period must discard the journal and leave the run exact;
* **config validation and cache identity** — ``time_quantum`` rejects
  non-power-of-two grids, and the runner's cache fingerprint separates
  fast-forwarded from unrolled specs.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.messages import PullUnit
from repro.cluster.ps import ParameterServer
from repro.cluster.trainer import Trainer, run_training
from repro.config import TrainingConfig
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, MessageDrops
from repro.net.collective import RingExecutor, RingTopology
from repro.net.link import BandwidthSchedule, _drain_batch
from repro.quantities import Gbps
from repro.runner.fingerprint import fingerprint
from repro.runner.spec import RunSpec
from repro.sched.base import Segment, TransferUnit
from repro.sim.engine import _ARGS, _FN, Engine
from repro.sim.fastforward import (
    _EVENT_SHIFT,
    NO_FASTFORWARD_ENV,
    FastForwardDetector,
    FFContext,
    FFShift,
)
from repro.workloads.presets import (
    EXTENDED_FACTORIES,
    bytescheduler_factory,
    paper_config,
    prophet_factory,
)

QUANTUM = 2.0**-24


def base_config(**overrides) -> TrainingConfig:
    defaults = dict(
        n_workers=2,
        n_iterations=8,
        jitter_std=0.0,
        time_quantum=QUANTUM,
        record_gradients=False,
    )
    defaults.update(overrides)
    return paper_config("resnet18", 32, **defaults)


def _canon(result) -> tuple:
    rows = [
        tuple(repr(r) for r in result.recorder.worker_iterations(w))
        for w in range(result.config.n_workers)
    ]
    return (repr(result.end_time), rows, {k: repr(v) for k, v in result.summary().items()})


# ----------------------------------------------------------------------
# Engagement and diagnostics
# ----------------------------------------------------------------------
def test_engages_and_reports_stats():
    result = run_training(base_config(), prophet_factory())
    stats = result.fastforward_stats
    assert stats is not None and stats["engaged"]
    assert stats["period"] >= 1
    assert stats["cycles_skipped"] >= 1
    assert stats["iterations_skipped"] == stats["period"] * stats["cycles_skipped"]
    assert stats["fallbacks"] == 0
    assert stats["disabled_reason"] is None


def test_single_iteration_run_never_engages():
    result = run_training(base_config(n_iterations=1), prophet_factory())
    stats = result.fastforward_stats
    assert stats is not None and not stats["engaged"]


# ----------------------------------------------------------------------
# Gating: every aperiodicity source keeps the detector off
# ----------------------------------------------------------------------
GATED_CONFIGS = {
    "no-quantum": dict(time_quantum=None),
    "config-flag": dict(fastforward=False),
    "jitter": dict(jitter_std=0.02),
    "bandwidth-noise": dict(bandwidth_noise_std=0.01),
    "asp": dict(sync_mode="asp"),
    "dynamic-bandwidth": dict(
        bandwidth=BandwidthSchedule([(0.0, 3 * Gbps), (1.0, 1 * Gbps)])
    ),
    "faults": dict(faults=FaultPlan(drops=[MessageDrops(push=0.01)])),
}


@pytest.mark.parametrize("reason", sorted(GATED_CONFIGS))
def test_ineligible_configs_run_unrolled(reason):
    result = run_training(base_config(**GATED_CONFIGS[reason]), prophet_factory())
    assert result.fastforward_stats is None


def test_opted_out_scheduler_runs_unrolled():
    # ByteScheduler's credit feedback loop reads live link state; it
    # declares ff_supported=False and must gate the whole run.
    result = run_training(base_config(), bytescheduler_factory())
    assert result.fastforward_stats is None


def test_env_var_kill_switch(monkeypatch):
    monkeypatch.setenv(NO_FASTFORWARD_ENV, "1")
    result = run_training(base_config(), prophet_factory())
    assert result.fastforward_stats is None


def test_eligibility_reason_is_reported():
    trainer = Trainer(base_config(time_quantum=None), prophet_factory())
    assert trainer.fastforward is None
    assert "time_quantum" in trainer.fastforward_reason


# ----------------------------------------------------------------------
# Conservative fallback on failed re-verification
# ----------------------------------------------------------------------
def test_fingerprint_mismatch_falls_back_exactly():
    factory = EXTENDED_FACTORIES["prophet"]
    trainer = Trainer(base_config(), factory)
    detector = trainer.fastforward
    assert detector is not None
    original = detector._fingerprint
    calls = {"n": 0}

    def lying_fingerprint(ctx):
        # Fake an immediate period-1 match on the first two boundaries;
        # the verification boundary then sees the true fingerprint and
        # must fall back instead of replaying a bogus cycle.
        calls["n"] += 1
        if calls["n"] <= 2:
            return ("forced-collision",)
        return original(ctx)

    detector._fingerprint = lying_fingerprint
    result = trainer.run()
    stats = result.fastforward_stats
    assert stats["fallbacks"] >= 1
    # Detection restarts from genuine fingerprints after the fallback,
    # and the run stays bit-identical to the unrolled path.
    unrolled = run_training(
        replace(base_config(), fastforward=False), EXTENDED_FACTORIES["prophet"]
    )
    assert _canon(result) == _canon(unrolled)


def test_detect_only_mode_never_engages():
    trainer = Trainer(base_config(), prophet_factory())
    trainer.fastforward.detect_only = True
    result = trainer.run()
    stats = result.fastforward_stats
    assert not stats["engaged"]
    assert stats["boundaries_seen"] >= 2
    unrolled = run_training(
        replace(base_config(), fastforward=False), prophet_factory()
    )
    assert _canon(result) == _canon(unrolled)


# ----------------------------------------------------------------------
# Barrier-step callbacks (collective chunk steps) canonicalize and shift
# ----------------------------------------------------------------------
def _ring_step(worker_bandwidth=None):
    engine = Engine(time_quantum=QUANTUM)
    topology = RingTopology(engine, 3, 1 * Gbps, worker_bandwidth=worker_bandwidth)
    executor = RingExecutor(topology)
    tokens = {id(executor): ("executor",)}
    tokens.update({id(link): ("link", i) for i, link in enumerate(topology.links)})
    executor.send_unit(3e6, tag=("allreduce", 5))
    return engine, topology, executor, FFContext(0.0, 4, tokens)


def test_equal_ends_step_is_one_canonical_drain_event():
    engine, topology, executor, ctx = _ring_step()
    (event,) = engine.ff_pending()
    assert event[_FN] is _drain_batch
    assert event[_ARGS][1] == executor._step_done
    canon = FastForwardDetector._canon_event(None, ctx, event)
    step_done = (("executor",), "_StepExecutor._step_done")
    assert canon[3] == ((("link", 0), ("link", 1), ("link", 2)), step_done)
    assert _EVENT_SHIFT[_drain_batch](FFShift(1.0, 1), event[_ARGS]) == event[_ARGS]


def test_unequal_ends_step_stores_the_callback_on_the_slowest_link():
    engine, topology, executor, ctx = _ring_step(worker_bandwidth={1: 0.5 * Gbps})
    # One event per link, in (time, launch) order: the slow link fires last.
    events = engine.ff_pending()
    assert [e[_FN] for e in events] == [topology.links[i]._finish for i in (0, 2, 1)]
    step_done = (("executor",), "_StepExecutor._step_done")
    callbacks = [link.ff_state(ctx)[1][4] for link in topology.links]
    assert callbacks == [None, step_done, None]


# ----------------------------------------------------------------------
# A pending PS release wave is one event, canonicalized and shifted whole
# ----------------------------------------------------------------------
def test_pending_multi_worker_wave_canonicalizes_and_shifts():
    engine = Engine(time_quantum=QUANTUM)
    ps = ParameterServer(engine, 2, np.array([8.0, 4.0]), update_fixed=0.25)
    ps.attach_workers([None, None])  # the wave is inspected, never fired
    g0, g1 = Segment(0, 0.0, 8.0), Segment(1, 0.0, 2.0)
    ps.receive_push(0, 5, TransferUnit((g0,)))
    engine.run(until=1.0)
    # Worker 1 completes gradient 0: its own pull, then worker 0's waiting
    # one, leave in one wave; its gradient-1 pull waits for worker 0.
    ps.receive_push(1, 5, TransferUnit((g0, g1)))
    (event,) = engine.ff_pending()
    assert event[_FN] == ps._deliver
    ctx = FFContext(0.5, 4, {id(ps): ("ps", 0)})
    canon = FastForwardDetector._canon_event(None, ctx, event)
    assert canon == (
        0.75,
        ("ps", 0),
        "ParameterServer._deliver",
        (((1, 1, g0, 0.5), (0, 1, g0, -0.5)),),
    )
    shift = FFShift(2.0, 3)
    assert _EVENT_SHIFT[ParameterServer._deliver](shift, event[_ARGS]) == (
        [PullUnit(1, 8, g0, 3.0), PullUnit(0, 8, g0, 2.0)],
    )
    received, _, waiting, n_waiting, max_push = ps.ff_state(ctx)
    assert received == (((1, 0), (8.0, 8.0)), ((1, 1), (0.0, 2.0)))
    assert waiting == (((1, 1), ((1, 1, g1, 0.5),)),)
    assert (n_waiting, max_push) == (1, 1)
    ps.ff_shift(shift)
    assert ps.aggregated_bytes(8, 0) == 8.0
    assert ps.aggregated_bytes(5, 0) == 0.0
    assert ps.ff_state(FFContext(2.5, 7, {}))[2] == waiting


# ----------------------------------------------------------------------
# time_quantum validation and cache-key identity
# ----------------------------------------------------------------------
def test_time_quantum_must_be_power_of_two():
    with pytest.raises(ConfigurationError, match="power of two"):
        base_config(time_quantum=1e-6)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_time_quantum_must_be_positive_finite(bad):
    with pytest.raises(ConfigurationError):
        base_config(time_quantum=bad)


def test_time_quantum_powers_of_two_accepted():
    for exp in (-30, -24, -10, 0, 3):
        assert base_config(time_quantum=2.0**exp).time_quantum == 2.0**exp


def test_cache_fingerprint_separates_fastforward_specs():
    spec = RunSpec(config=base_config(), strategy="prophet")
    no_ff = RunSpec(config=base_config(fastforward=False), strategy="prophet")
    no_quantum = RunSpec(config=base_config(time_quantum=None), strategy="prophet")
    fps = {fingerprint(spec), fingerprint(no_ff), fingerprint(no_quantum)}
    assert len(fps) == 3
