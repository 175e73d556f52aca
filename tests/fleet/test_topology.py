"""Tests for the pod/rack topology layer.

Covers the PR's topology contract: pod membership is a pure function
of the NIC id (round-robin for ``pods=N``, sequential fill for
``pod_size=K``, flat default), cross-pod moves carry their own
timed-migration duration, and the rebalance policy's pod-local
preference strictly reduces cross-pod migrations on a churn-heavy
workload.
"""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.churn import ChurnProcess, ServiceRequest
from repro.fleet.cluster import Cluster, ServiceInstance
from repro.fleet.engine import FleetEngine
from repro.fleet.policies import DiagnosisRebalancePolicy, PlacementModel
from repro.fleet.topology import Topology
from repro.fleet.traces import make_trace
from repro.nic.spec import bluefield2_spec
from repro.traffic.profile import TrafficProfile

TRAINED_POOL = ("flowmonitor", "flowstats", "nids")


class TestValidation:
    def test_pods_and_pod_size_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            Topology(pods=2, pod_size=4)

    @pytest.mark.parametrize("kwargs", [
        {"pods": 0},
        {"pod_size": 0},
        {"pods_per_rack": 0},
    ])
    def test_bounds(self, kwargs):
        with pytest.raises(ConfigurationError):
            Topology(**kwargs)

    def test_negative_ids_rejected(self):
        topo = Topology(pods=2)
        with pytest.raises(ConfigurationError):
            topo.pod_of(-1)
        with pytest.raises(ConfigurationError):
            topo.rack_of(-1)


class TestLayout:
    def test_flat_default(self):
        topo = Topology()
        assert topo.is_flat
        assert Topology.flat() == topo
        assert [topo.pod_of(i) for i in range(7)] == [0] * 7
        assert topo.describe() == "flat"

    def test_round_robin_pods(self):
        topo = Topology(pods=3)
        assert [topo.pod_of(i) for i in range(7)] == [0, 1, 2, 0, 1, 2, 0]
        assert topo.describe() == "pods=3"

    def test_sequential_fill_pod_size(self):
        topo = Topology(pod_size=4)
        assert [topo.pod_of(i) for i in range(9)] == [0, 0, 0, 0, 1, 1, 1, 1, 2]
        assert topo.describe() == "pod-size=4"

    def test_racks_group_consecutive_pods(self):
        topo = Topology(pods=20, pods_per_rack=8)
        assert topo.rack_of(0) == 0
        assert topo.rack_of(7) == 0
        assert topo.rack_of(8) == 1
        assert topo.rack_of(19) == 2

    def test_is_cross_pod(self):
        topo = Topology(pods=2)
        assert not topo.is_cross_pod(0, 2)
        assert topo.is_cross_pod(0, 1)

    def test_to_dict_round_trips_the_layout(self):
        topo = Topology(pod_size=5)
        assert topo.to_dict() == {
            "pods": None,
            "pod_size": 5,
            "pods_per_rack": 8,
        }
        assert Topology(**topo.to_dict()) == topo


def _instance(n: int) -> ServiceInstance:
    request = ServiceRequest(
        instance_id=f"svc-0-{n}",
        nf_name="acl",
        sla_drop_fraction=0.1,
        trace=make_trace("static", seed=n),
        arrival_epoch=0,
        departure_epoch=10,
    )
    return ServiceInstance(request=request, traffic=TrafficProfile())


class TestPartition:
    def test_groups_by_pod_in_ascending_order(self):
        cluster = Cluster(bluefield2_spec(), topology=Topology(pods=2))
        first = cluster.place(_instance(0))
        cluster.place(_instance(1))
        cluster.place(_instance(2), first)
        parts = cluster.topology.partition(cluster.nics)
        assert [pod for pod, _ in parts] == [0, 1]
        assert [[n.nic_id for n in nics] for _, nics in parts] == [[0], [1]]

    def test_cluster_pod_of_delegates(self):
        cluster = Cluster(bluefield2_spec(), topology=Topology(pods=3))
        assert cluster.pod_of(5) == 2


class TestCrossPodMigrationCost:
    def _cluster(self) -> Cluster:
        cluster = Cluster(bluefield2_spec(), topology=Topology(pods=2))
        cluster.migration_duration = 0.2
        cluster.cross_pod_migration_duration = 0.7
        for n in range(3):
            cluster.place(_instance(n))  # NICs 0, 1, 2 (pods 0, 1, 0)
        return cluster

    def test_cross_pod_move_takes_longer(self):
        cluster = self._cluster()
        cluster.migrate("svc-0-0", 1, epoch=0)  # pod 0 -> pod 1
        record = cluster.migration_of("svc-0-0")
        assert record is not None and record.duration == pytest.approx(0.7)

    def test_pod_local_move_keeps_base_duration(self):
        cluster = self._cluster()
        cluster.migrate("svc-0-0", 2, epoch=0)  # pod 0 -> pod 0
        record = cluster.migration_of("svc-0-0")
        assert record is not None and record.duration == pytest.approx(0.2)

    def test_fresh_nic_destination_uses_its_predetermined_id(self):
        cluster = self._cluster()
        # The next NIC id is 3 -> pod 1: a None destination is cross-pod.
        cluster.migrate("svc-0-0", None, epoch=0)
        record = cluster.migration_of("svc-0-0")
        assert record is not None and record.duration == pytest.approx(0.7)

    def test_unset_means_no_distinction(self):
        cluster = self._cluster()
        cluster.cross_pod_migration_duration = None
        cluster.migrate("svc-0-0", 1, epoch=0)
        record = cluster.migration_of("svc-0-0")
        assert record is not None and record.duration == pytest.approx(0.2)


class _PermissiveModel(PlacementModel):
    """Admit pairs everywhere so migrations always have candidates.

    Under the real trained model yala's feasibility check vetoes almost
    every candidate NIC (migrations fall through to a fresh NIC), which
    hides the candidate *ordering* this test is about. Capping
    feasibility at two residents keeps the fleet dense in half-full
    NICs: every violator has same-pod and cross-pod candidates, so the
    preference tier in the sort is what decides. The override sits on
    the batched verdict, the entry point the policies' first-fit scan
    calls.
    """

    def predicted_feasible_yala_batch(self, cases):
        return [len(residents) <= 2 for residents, _, _ in cases]


class TestPodLocalPreference:
    def test_strictly_fewer_cross_pod_migrations(self, small_system):
        """The preference is the point of topology-aware placement."""
        model = _PermissiveModel(yala=small_system)
        topo = Topology(pods=2)
        counts = {}
        for pref in (True, False):
            churn = ChurnProcess(
                nf_names=TRAINED_POOL,
                seed=77,
                arrival_rate=6.0,
                mean_lifetime=10.0,
                initial_services=8,
                sla_range=(0.01, 0.05),
            )
            policy = DiagnosisRebalancePolicy(
                max_migrations_per_epoch=8, pod_local_preference=pref
            )
            report = FleetEngine(policy, churn, model, topology=topo).run(10)
            counts[pref] = topo.cross_pod_migrations(report.migrations)
        assert counts[True] < counts[False]

    def test_preference_is_inert_on_flat_topology(self, small_system):
        model = PlacementModel(yala=small_system)
        reports = []
        for pref in (True, False):
            churn = ChurnProcess(
                nf_names=TRAINED_POOL, seed=77, arrival_rate=2.0
            )
            policy = DiagnosisRebalancePolicy(pod_local_preference=pref)
            reports.append(FleetEngine(policy, churn, model).run(5).to_json())
        assert reports[0] == reports[1]
