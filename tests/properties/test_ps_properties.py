"""Property tests: the parameter server against an independent reference.

:class:`ReferencePS` is the plain algorithm the PS optimises: every
waiting pull sits in one list per gradient, every push rescans the lists
of the gradients it touched with a ``min()`` over all workers, and every
release is its own engine event.  The real
:class:`~repro.cluster.ps.ParameterServer` keeps coverage incrementally,
waits per ``(iteration, grad)`` key in need order, and delivers each
release wave from one event; none of that may be visible.  Both servers
see the same drawn push schedule (random worker counts, sizes,
segmentations and interleavings, iterations mixed on one gradient, BSP,
ASP and SSP, size-dependent update cost, delivery times that tie with
push times) and must produce the same delivery sequence ``(fire time,
worker, iteration, grad, offset, nbytes)``, the same ``aggregated_bytes``
for every key, the same ``staleness_samples`` and the same pending count.
"""

from collections import defaultdict
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ps import _TOL, ParameterServer
from repro.errors import SimulationError
from repro.sched.base import Segment, TransferUnit
from repro.sim.engine import Engine


class FakeWorker:
    """Logs every pull handed to it, with the engine time it arrived."""

    def __init__(self, engine, log):
        self.engine = engine
        self.log = log

    def enqueue_pull(self, pull):
        seg = pull.segment
        self.log.append(
            (self.engine.now, pull.worker, pull.iteration, seg.grad, seg.offset, seg.nbytes)
        )


class ReferencePS:
    """Rescan-everything PS: one waiting list per gradient, one event per release."""

    def __init__(self, engine, n, sizes, fixed, per_byte, mode, staleness, workers):
        self.engine, self.n, self.sizes, self.workers = engine, n, sizes, workers
        self.fixed, self.per_byte, self.mode, self.staleness = fixed, per_byte, mode, staleness
        self.received, self.progress = {}, {}
        self.waiting = defaultdict(list)
        self.staleness_samples, self.max_iter = [], -1

    def receive_push(self, worker, iteration, unit):
        if self.mode == "bsp" and iteration > self.max_iter:
            self.max_iter = iteration
            for key in [k for k in self.received if k[0] <= iteration - 2]:
                del self.received[key]
        touched = set()
        for seg in unit.segments:
            got = self.received.setdefault((iteration, seg.grad), [0.0] * self.n)
            if abs(got[worker] - seg.offset) > max(_TOL, 1e-6 * seg.nbytes):
                raise SimulationError("offset")
            got[worker] += seg.nbytes
            size = self.sizes[seg.grad]
            if got[worker] > size * (1 + 1e-9) + _TOL:
                raise SimulationError("over-push")
            if got[worker] >= size - _TOL:
                its = self.progress.setdefault(seg.grad, [-1] * self.n)
                its[worker] = max(its[worker], iteration)
            touched.add(seg.grad)
            pull = (worker, iteration, seg)
            if self.releasable(pull):
                self.release(pull)
            else:
                self.waiting[seg.grad].append(pull)
        for grad in touched:
            keep = []
            for pull in self.waiting[grad]:
                if self.releasable(pull):
                    self.release(pull)
                else:
                    keep.append(pull)
            self.waiting[grad] = keep

    def slowest(self, grad):
        return min(self.progress.get(grad, [-1]))

    def releasable(self, pull):
        worker, iteration, seg = pull
        if self.mode == "bsp":
            got = self.received.get((iteration, seg.grad))
            return got is not None and min(got) >= seg.offset + seg.nbytes - _TOL
        return self.mode == "asp" or self.slowest(seg.grad) >= iteration - self.staleness - 1

    def release(self, pull):
        worker, iteration, seg = pull
        if self.mode != "bsp":
            self.staleness_samples.append(max(0, iteration - 1 - self.slowest(seg.grad)))
        delay = self.fixed + self.per_byte * seg.nbytes
        unit = SimpleNamespace(worker=worker, iteration=iteration, segment=seg)
        self.engine.schedule_after(delay, self.workers[worker].enqueue_pull, unit)

    def aggregated_bytes(self, iteration, grad):
        return min(self.received.get((iteration, grad), [0.0]))

    @property
    def pending_pulls(self):
        return sum(len(v) for v in self.waiting.values())


@st.composite
def scenarios(draw):
    """Sizes, sync model and a timed, interleaved push schedule."""
    n_workers = draw(st.integers(1, 4))
    sizes = [2.0 * draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 3)))]
    n_iterations = draw(st.integers(1, 3))
    streams = []
    for _ in range(n_workers):
        # Per key, the gradient cut into in-order segments.
        queues = {}
        for it in range(n_iterations):
            for g, size in enumerate(sizes):
                cuts = sorted(set(draw(st.lists(st.integers(1, int(size) - 1), max_size=3))))
                bounds = [0.0] + [float(c) for c in cuts] + [size]
                queues[(it, g)] = [
                    Segment(grad=g, offset=a, nbytes=b - a) for a, b in zip(bounds, bounds[1:])
                ]
        # Keys interleave freely, mostly in iteration order.
        segments = []
        while queues:
            live = sorted(queues)
            key = live[draw(st.integers(0, min(len(live) - 1, draw(st.integers(0, 3)))))]
            segments.append((key[0], queues[key].pop(0)))
            if not queues[key]:
                del queues[key]
        # Consecutive segments of one iteration share a push message.
        units = []
        while segments:
            it = segments[0][0]
            take = 1 + draw(st.integers(0, 2))
            group = []
            while segments and len(group) < take and segments[0][0] == it:
                group.append(segments.pop(0)[1])
            units.append((it, TransferUnit(segments=tuple(group))))
        streams.append(units)
    pushes, now = [], 0.0
    while any(streams):
        worker = draw(st.sampled_from([w for w, s in enumerate(streams) if s]))
        now += draw(st.sampled_from([0.0, 0.5, 1.0]))
        it, unit = streams[worker].pop(0)
        pushes.append((now, worker, it, unit))
    return dict(
        n_workers=n_workers,
        sizes=sizes,
        n_iterations=n_iterations,
        sync_mode=draw(st.sampled_from(["bsp", "asp", "ssp"])),
        staleness=draw(st.integers(0, 1)),
        update_fixed=draw(st.sampled_from([0.0, 0.5, 1.0])),
        update_per_byte=draw(st.sampled_from([0.0, 0.25])),
        pushes=pushes,
    )


def _drive(make, sc):
    """Feed the schedule to one server; returns (log, server, error index)."""
    engine, log = Engine(), []
    workers = [FakeWorker(engine, log) for _ in range(sc["n_workers"])]
    ps = make(engine, workers)
    failed_at = None
    for i, (t, worker, iteration, unit) in enumerate(sc["pushes"]):
        engine.run(until=t)
        try:
            ps.receive_push(worker, iteration, unit)
        except SimulationError:
            failed_at = i
            break
    engine.run()
    return log, ps, failed_at


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_ps_matches_reference(sc):
    def real(engine, workers):
        ps = ParameterServer(
            engine,
            sc["n_workers"],
            np.array(sc["sizes"]),
            update_fixed=sc["update_fixed"],
            update_per_byte=sc["update_per_byte"],
            sync_mode=sc["sync_mode"],
            staleness=sc["staleness"],
        )
        ps.attach_workers(workers)
        return ps

    def reference(engine, workers):
        return ReferencePS(
            engine,
            sc["n_workers"],
            sc["sizes"],
            sc["update_fixed"],
            sc["update_per_byte"],
            sc["sync_mode"],
            sc["staleness"],
            workers,
        )

    got_log, got, got_failed = _drive(real, sc)
    want_log, want, want_failed = _drive(reference, sc)
    assert got_failed == want_failed
    assert got_log == want_log
    assert got.staleness_samples == want.staleness_samples
    assert got.pending_pulls == want.pending_pulls
    for it in range(sc["n_iterations"]):
        for g in range(len(sc["sizes"])):
            assert got.aggregated_bytes(it, g) == want.aggregated_bytes(it, g)
