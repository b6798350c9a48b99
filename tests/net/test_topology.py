"""Unit tests for the star topology (one PS or a key-sharded tier)."""

import pytest

from repro.errors import ConfigurationError
from repro.net.link import BandwidthSchedule
from repro.net.topology import StarTopology
from repro.quantities import Gbps, Mbps
from repro.sim.engine import Engine


@pytest.fixture
def engine():
    return Engine()


def test_builds_duplex_links_per_worker(engine):
    topo = StarTopology(engine, n_workers=3, bandwidth=1 * Gbps)
    assert len(topo.uplinks) == 3
    assert len(topo.downlinks) == 3
    assert topo.uplink(2).name == "worker2-up"
    assert topo.downlink(0).name == "worker0-down"


def test_per_worker_override(engine):
    topo = StarTopology(
        engine,
        n_workers=3,
        bandwidth=3 * Gbps,
        worker_bandwidth={1: 500 * Mbps},
    )
    assert topo.uplink(0).current_bandwidth() == pytest.approx(3 * Gbps)
    assert topo.uplink(1).current_bandwidth() == pytest.approx(500 * Mbps)


def test_override_unknown_worker_raises(engine):
    with pytest.raises(ConfigurationError):
        StarTopology(engine, n_workers=2, bandwidth=1 * Gbps, worker_bandwidth={5: 1.0})


def test_ps_bandwidth_caps_per_worker_share(engine):
    topo = StarTopology(engine, n_workers=4, bandwidth=10 * Gbps, ps_bandwidth=4 * Gbps)
    assert topo.uplink(0).current_bandwidth() == pytest.approx(1 * Gbps)


def test_ps_cap_does_not_raise_slow_workers(engine):
    topo = StarTopology(
        engine,
        n_workers=2,
        bandwidth=10 * Gbps,
        worker_bandwidth={0: 1 * Gbps},
        ps_bandwidth=40 * Gbps,
    )
    assert topo.uplink(0).current_bandwidth() == pytest.approx(1 * Gbps)


def test_schedule_bandwidth(engine):
    sched = BandwidthSchedule([(0.0, 1 * Gbps), (5.0, 2 * Gbps)])
    topo = StarTopology(engine, n_workers=1, bandwidth=sched)
    assert topo.uplink(0).current_bandwidth() == pytest.approx(1 * Gbps)


def test_min_bandwidth_reflects_slowest_worker(engine):
    topo = StarTopology(
        engine,
        n_workers=3,
        bandwidth=3 * Gbps,
        worker_bandwidth={2: 500 * Mbps},
    )
    assert topo.min_bandwidth() == pytest.approx(500 * Mbps)


def test_invalid_worker_count_raises(engine):
    with pytest.raises(ConfigurationError):
        StarTopology(engine, n_workers=0, bandwidth=1 * Gbps)


def test_invalid_ps_bandwidth_raises(engine):
    with pytest.raises(ConfigurationError):
        StarTopology(engine, n_workers=1, bandwidth=1 * Gbps, ps_bandwidth=0.0)


# ----------------------------------------------------------------------
# Water-filling (max-min fair) division of the PS-side NIC
# ----------------------------------------------------------------------

class TestWaterFilling:
    def test_fitting_demands_are_uncapped(self):
        from repro.net.topology import water_fill_level, water_fill_shares

        assert water_fill_level([1.0, 2.0], capacity=10.0) == float("inf")
        assert water_fill_shares([1.0, 2.0], 10.0) == [1.0, 2.0]

    def test_homogeneous_reduces_to_static_split(self):
        from repro.net.topology import water_fill_shares

        shares = water_fill_shares([10.0, 10.0, 10.0, 10.0], capacity=4.0)
        assert shares == pytest.approx([1.0, 1.0, 1.0, 1.0])

    def test_slow_flow_keeps_rate_and_surplus_is_reclaimed(self):
        from repro.net.topology import water_fill_shares

        # Static split would give each flow 2.0, stranding 1.5 of the
        # slow flow's share; water-filling hands it to the fast flows.
        shares = water_fill_shares([0.5, 10.0, 10.0], capacity=6.0)
        assert shares[0] == pytest.approx(0.5)
        assert shares[1] == shares[2] == pytest.approx(2.75)
        assert sum(shares) == pytest.approx(6.0)

    def test_shares_exhaust_capacity_when_oversubscribed(self):
        from repro.net.topology import water_fill_shares

        shares = water_fill_shares([1.0, 3.0, 5.0, 7.0], capacity=8.0)
        assert sum(shares) == pytest.approx(8.0)
        # max-min: nobody below the level exceeds their demand
        assert shares[0] == pytest.approx(1.0)

    def test_invalid_inputs_raise(self):
        from repro.net.topology import water_fill_level

        with pytest.raises(ConfigurationError):
            water_fill_level([1.0], capacity=0.0)
        with pytest.raises(ConfigurationError):
            water_fill_level([0.0, 1.0], capacity=5.0)


def test_ps_cap_water_fills_heterogeneous_workers(engine):
    """The slow worker's unusable share flows to the fast workers."""
    topo = StarTopology(
        engine,
        n_workers=3,
        bandwidth=10 * Gbps,
        worker_bandwidth={0: 500 * Mbps},
        ps_bandwidth=6 * Gbps,
    )
    assert topo.uplink(0).current_bandwidth() == pytest.approx(500 * Mbps)
    fast = (6 * Gbps - 500 * Mbps) / 2
    assert topo.uplink(1).current_bandwidth() == pytest.approx(fast)
    assert topo.uplink(2).current_bandwidth() == pytest.approx(fast)


def test_schedule_bandwidth_with_ps_cap_regression(engine):
    """Regression: a schedule-valued ``bandwidth`` combined with
    ``ps_bandwidth`` used to reach into the schedule's private attributes;
    it now goes through the public ``capped``/water-fill path and the cap
    is applied piecewise at every breakpoint."""
    sched = BandwidthSchedule([(0.0, 1 * Gbps), (5.0, 8 * Gbps)])
    topo = StarTopology(engine, n_workers=2, bandwidth=sched, ps_bandwidth=4 * Gbps)
    # t=0: both demand 1 Gbps, total 2 <= 4 — uncapped.
    assert topo.uplink(0).current_bandwidth() == pytest.approx(1 * Gbps)
    engine.run(until=6.0)
    # t>5: both demand 8 Gbps; the 4 Gbps PS NIC splits evenly.
    assert topo.uplink(0).current_bandwidth() == pytest.approx(2 * Gbps)
    assert topo.uplink(1).current_bandwidth() == pytest.approx(2 * Gbps)


def test_per_worker_schedule_override_with_ps_cap(engine):
    """Mixed scalar + schedule overrides water-fill piecewise."""
    slow = BandwidthSchedule([(0.0, 4 * Gbps), (2.0, 1 * Gbps)])
    topo = StarTopology(
        engine,
        n_workers=2,
        bandwidth=10 * Gbps,
        worker_bandwidth={0: slow},
        ps_bandwidth=6 * Gbps,
    )
    # t=0: demands (4, 10) vs 6 -> shares (3, 3).
    assert topo.uplink(0).current_bandwidth() == pytest.approx(3 * Gbps)
    assert topo.uplink(1).current_bandwidth() == pytest.approx(3 * Gbps)
    engine.run(until=3.0)
    # t>2: demands (1, 10) vs 6 -> slow keeps 1, fast reclaims to 5.
    assert topo.uplink(0).current_bandwidth() == pytest.approx(1 * Gbps)
    assert topo.uplink(1).current_bandwidth() == pytest.approx(5 * Gbps)


# ----------------------------------------------------------------------
# Sharded tier: the same topology with n_servers > 1
# ----------------------------------------------------------------------

class TestShardedTopology:
    def test_builds_per_shard_duplex_links(self, engine):
        topo = StarTopology(engine, n_workers=2, n_servers=3, bandwidth=1 * Gbps)
        assert len(topo.uplinks) == 2
        assert all(len(links) == 3 for links in topo.uplinks)
        assert topo.uplink(1, 2).name == "worker1-s2-up"
        assert topo.downlink(0, 1).name == "worker0-s1-down"
        assert topo.worker_uplinks(0) == topo.uplinks[0]
        assert topo.worker_downlinks(1) == topo.downlinks[1]

    def test_ps_bandwidth_is_per_server(self, engine):
        topo = StarTopology(
            engine, n_workers=4, n_servers=2,
            bandwidth=10 * Gbps, ps_bandwidth=4 * Gbps,
        )
        # Each server's 4 Gbps NIC is split across the 4 workers — every
        # shard link gets 1 Gbps, independent of the number of shards.
        for w in range(4):
            for s in range(2):
                assert topo.uplink(w, s).current_bandwidth() == pytest.approx(1 * Gbps)

    def test_worker_nic_caps_each_shard_flow(self, engine):
        topo = StarTopology(
            engine, n_workers=2, n_servers=2,
            bandwidth=10 * Gbps, worker_bandwidth={0: 500 * Mbps},
            ps_bandwidth=40 * Gbps,
        )
        assert topo.uplink(0, 1).current_bandwidth() == pytest.approx(500 * Mbps)
        assert topo.min_bandwidth() == pytest.approx(500 * Mbps)

    def test_invalid_counts_raise(self, engine):
        with pytest.raises(ConfigurationError):
            StarTopology(engine, n_workers=0, n_servers=2, bandwidth=1 * Gbps)
        with pytest.raises(ConfigurationError):
            StarTopology(engine, n_workers=2, n_servers=0, bandwidth=1 * Gbps)
        with pytest.raises(ConfigurationError):
            StarTopology(
                engine, n_workers=1, n_servers=1, bandwidth=1 * Gbps,
                ps_bandwidth=-1.0,
            )


class TestClusterFabric:
    def _fabric(self, core=10 * Gbps):
        from repro.net.topology import ClusterFabric

        return ClusterFabric(core)

    def test_rejects_nonpositive_core(self):
        from repro.net.topology import ClusterFabric

        with pytest.raises(ConfigurationError):
            ClusterFabric(0.0)

    def test_single_tenant_gets_exact_nic_rate(self):
        fabric = self._fabric(core=10 * Gbps)
        sched = fabric.admit("job0", n_links=2, nic_bandwidth=3 * Gbps)
        # Bit-exactness contract: an unconstrained tenant keeps its NIC
        # rate with no float division, and the live schedule keeps its
        # single breakpoint (the links' constant-schedule fast path).
        assert sched.points == ((0.0, 3 * Gbps),)
        assert fabric.share("job0") == 3 * Gbps
        assert fabric.oversubscription() == pytest.approx(0.6)

    def test_contended_tenants_split_the_core_evenly(self):
        fabric = self._fabric(core=10 * Gbps)
        a = fabric.admit("a", n_links=2, nic_bandwidth=3 * Gbps, now=0.0)
        b = fabric.admit("b", n_links=2, nic_bandwidth=3 * Gbps, now=1.0)
        # 12 Gbps demand on a 10 Gbps core: each tenant gets 5 Gbps
        # aggregate, 2.5 Gbps per link, from t=1 on.
        assert a.value(0.5) == pytest.approx(3 * Gbps)
        assert a.value(1.0) == pytest.approx(2.5 * Gbps)
        assert b.value(1.0) == pytest.approx(2.5 * Gbps)
        assert fabric.demand() == pytest.approx(12 * Gbps)
        assert fabric.oversubscription() == pytest.approx(1.2)

    def test_water_fill_protects_small_tenants(self):
        fabric = self._fabric(core=10 * Gbps)
        small = fabric.admit("small", n_links=1, nic_bandwidth=1 * Gbps)
        big = fabric.admit("big", n_links=4, nic_bandwidth=10 * Gbps, now=0.0)
        # Max-min: the 1 Gbps tenant is unconstrained and keeps its NIC
        # rate exactly; the big tenant gets the 9 Gbps remainder.
        assert small.value(0.0) == 1 * Gbps
        assert big.value(0.0) == pytest.approx(9 * Gbps / 4)

    def test_share_never_exceeds_own_nic(self):
        fabric = self._fabric(core=100 * Gbps)
        sched = fabric.admit("a", n_links=2, nic_bandwidth=3 * Gbps)
        fabric.admit("b", n_links=2, nic_bandwidth=3 * Gbps)
        assert sched.value(0.0) == 3 * Gbps  # plenty of core: NIC-limited

    def test_release_restores_the_survivors_share(self):
        fabric = self._fabric(core=10 * Gbps)
        a = fabric.admit("a", n_links=2, nic_bandwidth=3 * Gbps, now=0.0)
        fabric.admit("b", n_links=2, nic_bandwidth=3 * Gbps, now=1.0)
        assert a.value(1.0) == pytest.approx(2.5 * Gbps)
        fabric.release("b", now=2.0)
        # Back to unconstrained: the exact NIC rate again.
        assert a.value(2.0) == 3 * Gbps
        assert fabric.tenants == ("a",)

    def test_duplicate_admit_and_unknown_release_raise(self):
        fabric = self._fabric()
        fabric.admit("a", n_links=1, nic_bandwidth=1 * Gbps)
        with pytest.raises(ConfigurationError):
            fabric.admit("a", n_links=1, nic_bandwidth=1 * Gbps)
        with pytest.raises(ConfigurationError):
            fabric.release("ghost")

    def test_admit_validates_arguments(self):
        fabric = self._fabric()
        with pytest.raises(ConfigurationError):
            fabric.admit("a", n_links=0, nic_bandwidth=1 * Gbps)
        with pytest.raises(ConfigurationError):
            fabric.admit("a", n_links=1, nic_bandwidth=0.0)
