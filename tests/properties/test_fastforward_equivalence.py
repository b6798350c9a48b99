"""Property-based exactness tests for steady-state fast-forward.

The whole value of :mod:`repro.sim.fastforward` rests on one claim: an
engaged fast-forward run is **bit-identical** to the unrolled run — not
statistically close, identical.  These tests pit the two paths against
each other across seeds, scheduling strategies, and all four backends
(single-PS star, sharded PS tier, ring allreduce, hierarchical
allreduce) and compare every observable artifact: the end time, every
iteration row, every GPU interval, every gradient record, every link
transfer record and byte counter, and the derived summary metrics.

``repr`` is used as the float canonicalizer: it is the shortest exact
form, so two runs compare equal iff they are bit-identical (NaN fields
in warmup rows also compare equal this way).
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.trainer import run_training
from repro.quantities import Gbps
from repro.workloads.presets import EXTENDED_FACTORIES, paper_config

STRATEGIES = ("mxnet-fifo", "p3", "prophet", "mg-wfbp")
BACKENDS = ("star", "sharded", "ring", "hierarchical")

QUANTUM = 2.0**-24


def _links(topology):
    links = []
    for attr in ("uplinks", "downlinks", "links", "local_links", "global_links"):
        group = getattr(topology, attr, None)
        if not group:
            continue
        for item in group:
            links.extend(item) if isinstance(item, list) else links.append(item)
    return links


def canon_result(result) -> tuple:
    """Everything observable about a run, reduced to comparable form."""
    rec = result.recorder
    n = result.config.n_workers
    rows = [tuple(repr(r) for r in rec.worker_iterations(w)) for w in range(n)]
    gpu = [repr(rec.gpu_busy_intervals(w).tolist()) for w in range(n)]
    grads = [tuple(repr(g) for g in rec.gradient_records(worker=w)) for w in range(n)]
    links = [
        (tuple(repr(t) for t in link.records), link.total_bytes, link._busy_accum)
        for link in _links(result.topology)
    ]
    summary = {k: repr(v) for k, v in result.summary().items()}
    return (repr(result.end_time), rows, gpu, grads, links, summary)


def ff_config(backend: str, strategy: str, seed: int, *, fastforward: bool):
    overrides: dict = {}
    n_workers = 2
    n_iterations = 8
    if backend == "sharded":
        overrides["n_servers"] = 2
        # Sharded settles with period 3-4; two-tier detection confirms at
        # 2p and verifies at 3p, so leave room for at least one skipped
        # cycle after that.
        n_iterations = 16
    elif backend == "ring":
        overrides.update(backend="allreduce", collective="ring")
    elif backend == "hierarchical":
        n_workers = 4
        overrides.update(
            backend="allreduce", collective="hierarchical", collective_group_size=2
        )
    config = paper_config(
        "resnet18",
        32,
        n_workers=n_workers,
        n_iterations=n_iterations,
        seed=seed,
        jitter_std=0.0,
        time_quantum=QUANTUM,
        **overrides,
    )
    return config if fastforward else replace(config, fastforward=False)


@given(
    seed=st.integers(0, 3),
    strategy=st.sampled_from(STRATEGIES),
    backend=st.sampled_from(BACKENDS),
)
@settings(max_examples=10, deadline=None)
def test_fastforward_is_bit_identical(seed, strategy, backend):
    factory = EXTENDED_FACTORIES[strategy]
    fast = run_training(ff_config(backend, strategy, seed, fastforward=True), factory)
    slow = run_training(ff_config(backend, strategy, seed, fastforward=False), factory)
    assert slow.fastforward_stats is None
    assert fast.fastforward_stats is not None
    assert canon_result(fast) == canon_result(slow)


def test_fastforward_engages_on_every_backend():
    """The property above holds vacuously if FF never engages — pin that
    each backend actually reaches its periodic fixed point and skips."""
    for backend in BACKENDS:
        factory = EXTENDED_FACTORIES["prophet"]
        fast = run_training(ff_config(backend, "prophet", 0, fastforward=True), factory)
        stats = fast.fastforward_stats
        assert stats is not None and stats["engaged"], (backend, stats)
        assert stats["period"] >= 1
        assert stats["iterations_skipped"] == stats["period"] * stats["cycles_skipped"]
        assert stats["iterations_skipped"] >= 1, (backend, stats)


def test_collective_barrier_steps_keep_fastforward_exact():
    """A barrier step keeps one callback: in a ``_drain_batch`` event when
    its links finish together, on the slowest link's transfer when they do
    not (a slower worker NIC).  Either way fast-forward must still engage
    on a jitter-free ring and hierarchical run on the time grid, and match
    the unrolled run bit for bit.  (The canonical forms of both callbacks
    are pinned in ``tests/sim/test_fastforward.py``.)
    """
    factory = EXTENDED_FACTORIES["prophet"]
    cases = [
        ("ring", None),
        ("hierarchical", None),
        ("ring", {1: 2 * Gbps}),
        ("hierarchical", {2: 2 * Gbps}),
    ]
    for backend, slow_nic in cases:
        runs = []
        for fastforward in (True, False):
            config = ff_config(backend, "prophet", 0, fastforward=fastforward)
            runs.append(run_training(replace(config, worker_bandwidth=slow_nic), factory))
        fast, slow = runs
        stats = fast.fastforward_stats
        assert stats is not None and stats["engaged"], (backend, slow_nic, stats)
        assert stats["iterations_skipped"] >= 1, (backend, slow_nic, stats)
        assert canon_result(fast) == canon_result(slow), (backend, slow_nic)
