"""Property tests: :func:`repro.net.link.send_batch` is N independent sends.

A barrier step launched with ``send_batch`` must leave every link exactly
as N :meth:`Link.send` calls with a countdown callback would: the same
per-link transfer records, byte totals, busy time and warm-gap state.  Its
one barrier callback must fire exactly once, at the latest completion,
after every link of the step has finished — the instant the countdown
reaches zero.

The drawn link sets mix the cases ``send_batch`` treats differently:
links whose duration it shares (same constant bandwidth, TCP parameters
and warm gap, no noise) and links it computes one by one (another level,
noise, another warm gap, other TCP parameters), with and without the
time grid, cold and warm, with and without strategy ``extra_time``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.link import BandwidthSchedule, Link, send_batch
from repro.net.tcp import TCPParams
from repro.quantities import Gbps
from repro.sim.engine import Engine

BANDWIDTHS = (1 * Gbps, 2 * Gbps, 2.5 * Gbps)
#: Warm-up transfer sizes (bytes); ``None`` leaves the link cold.
WARMUPS = (None, 1e5, 1e5, 3e6)
TCPS = (TCPParams(), TCPParams(rtt=0.4e-3))


@st.composite
def link_specs(draw):
    n = draw(st.integers(1, 6))
    return [
        dict(
            bandwidth=draw(st.sampled_from(BANDWIDTHS)),
            noisy=draw(st.booleans()),
            warmup=draw(st.sampled_from(WARMUPS)),
            tcp=draw(st.sampled_from(TCPS)),
        )
        for _ in range(n)
    ]


def build(specs, quantum, step_at):
    """A fresh engine and link set, warmed up and advanced to ``step_at``.

    Built identically (same noise seeds, same warm-up) for both sides of
    the comparison.
    """
    engine = Engine(time_quantum=quantum)
    links = []
    for i, spec in enumerate(specs):
        noisy = spec["noisy"]
        links.append(
            Link(
                engine,
                BandwidthSchedule.constant(spec["bandwidth"]),
                spec["tcp"],
                name=f"l{i}",
                noise_rng=np.random.default_rng(i) if noisy else None,
                noise_std=0.2 if noisy else 0.0,
            )
        )
    for link, spec in zip(links, specs):
        if spec["warmup"] is not None:
            link.send(spec["warmup"], tag=("warmup", 0))
    engine.run()
    engine.schedule(max(engine.now, step_at), lambda: None)
    engine.run()
    return engine, links


def observe(links):
    return [
        (
            [repr(r) for r in link.records],
            repr(link.total_bytes),
            repr(link.busy_time()),
            repr(link._last_end),
        )
        for link in links
    ]


@given(
    specs=link_specs(),
    quantum=st.sampled_from([None, 2.0**-24]),
    step_at=st.sampled_from([0.0, 1e-3, 0.05]),
    nbytes=st.floats(0.0, 2e7),
    extra_time=st.sampled_from([0.0, 0.0, 3e-5]),
)
@settings(max_examples=200, deadline=None)
def test_send_batch_matches_independent_sends(specs, quantum, step_at, nbytes, extra_time):
    tag = ("chunk", 3)

    engine_b, links_b = build(specs, quantum, step_at)
    barrier_done = []

    def barrier():
        # Every link has finished (idle, record appended) when it fires.
        assert all(not link.busy for link in links_b)
        assert all(link.records[-1].tag == tag for link in links_b)
        barrier_done.append(engine_b.now)

    returned = send_batch(links_b, nbytes, tag=tag, on_complete=barrier, extra_time=extra_time)
    engine_b.run()

    engine_s, links_s = build(specs, quantum, step_at)
    countdown = [len(links_s)]
    released = []

    def chunk_done():
        countdown[0] -= 1
        if countdown[0] == 0:
            released.append(engine_s.now)

    ends = [
        link.send(nbytes, tag=tag, on_complete=chunk_done, extra_time=extra_time)
        for link in links_s
    ]
    engine_s.run()

    assert observe(links_b) == observe(links_s)
    assert len(barrier_done) == 1
    assert barrier_done == released == [max(ends)]
    assert returned == max(ends)


@given(
    specs=link_specs(),
    busy=st.integers(0, 5),
    quantum=st.sampled_from([None, 2.0**-24]),
)
@settings(max_examples=100, deadline=None)
def test_send_batch_rejects_a_busy_link(specs, busy, quantum):
    engine, links = build(specs, quantum, 0.0)
    links[busy % len(links)].send(1e4)
    with pytest.raises(SimulationError, match="busy"):
        send_batch(links, 1e5, tag=("chunk", 0))


def test_send_batch_validates_sizes():
    engine = Engine()
    links = [Link(engine, BandwidthSchedule.constant(1 * Gbps), TCPParams()) for _ in range(3)]
    with pytest.raises(SimulationError, match="negative transfer size"):
        send_batch(links, -1.0)
    with pytest.raises(SimulationError, match="negative extra_time"):
        send_batch(links, 1.0, extra_time=-1.0)
