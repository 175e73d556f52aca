"""Tests for the shared placement model and fleet policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import YalaSystem
from repro.errors import ConfigurationError, PlacementError
from repro.fleet.churn import ServiceRequest
from repro.fleet.cluster import Cluster, ServiceInstance
from repro.fleet.policies import (
    FLEET_POLICY_NAMES,
    DiagnosisRebalancePolicy,
    PlacementModel,
    first_fit,
    make_policy,
)
from repro.fleet.traces import make_trace
from repro.nic.spec import bluefield2_spec
from repro.profiling.collector import ProfilingCollector
from repro.traffic.profile import TrafficProfile
from repro.usecases.scheduling import NfArrival


def _instance(n: int, nf_name: str = "acl", sla: float = 0.1) -> ServiceInstance:
    request = ServiceRequest(
        instance_id=f"svc-0-{n}",
        nf_name=nf_name,
        sla_drop_fraction=sla,
        trace=make_trace("static", seed=n),
        arrival_epoch=0,
        departure_epoch=10,
    )
    return ServiceInstance(request=request, traffic=TrafficProfile())


@pytest.fixture()
def plain_model(noisy_nic) -> PlacementModel:
    """A model without trained predictors (greedy/monopolization)."""
    return PlacementModel(collector=ProfilingCollector(noisy_nic), nic=noisy_nic)


class TestRegistry:
    def test_all_policies_constructible(self):
        for name in FLEET_POLICY_NAMES:
            assert make_policy(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("round-robin")


class TestPlacementModel:
    def test_requires_yala_or_collector(self):
        with pytest.raises(ConfigurationError):
            PlacementModel()

    def test_yala_feasibility_needs_trained_system(self, plain_model):
        with pytest.raises(PlacementError):
            plain_model.predicted_feasible_yala([_instance(0)])

    def test_slomo_feasibility_needs_predictor(self, plain_model):
        with pytest.raises(PlacementError):
            plain_model.predicted_feasible_slomo([_instance(0)])

    def test_greedy_utilisation_additive(self, plain_model):
        one = plain_model.greedy_utilisation([_instance(0)])
        two = plain_model.greedy_utilisation([_instance(0), _instance(1)])
        assert two == pytest.approx(2 * one)
        assert one > 0.0

    def test_shared_with_scheduler(self, small_system):
        """The Table 6 scheduler's greedy view is the shared predicate."""
        from repro.usecases.scheduling import NfArrival, Scheduler

        scheduler = Scheduler(small_system)
        model = PlacementModel(yala=small_system)
        arrivals = [
            NfArrival(nf_name="flowstats", sla_drop_fraction=0.15),
            NfArrival(nf_name="nids", sla_drop_fraction=0.15),
        ]
        assert scheduler._greedy_utilisation(arrivals) == model.greedy_utilisation(
            arrivals
        )


class TestPlacementChoices:
    def test_monopolization_always_new_nic(self, plain_model):
        cluster = Cluster(bluefield2_spec())
        policy = make_policy("monopolization")
        cluster.place(_instance(0))
        assert policy.choose_nic(cluster, _instance(1), plain_model) is None

    def test_greedy_fills_existing_nic(self, plain_model):
        cluster = Cluster(bluefield2_spec())
        policy = make_policy("greedy")
        cluster.place(_instance(0))
        chosen = policy.choose_nic(cluster, _instance(1), plain_model)
        assert chosen == cluster.nics[0].nic_id

    def test_greedy_respects_capacity(self, plain_model):
        cluster = Cluster(bluefield2_spec())
        policy = make_policy("greedy")
        nic_id = cluster.place(_instance(0))
        for n in range(1, cluster.max_residents_per_nic):
            cluster.place(_instance(n), nic_id)
        assert policy.choose_nic(cluster, _instance(9), plain_model) is None


class TestDiagnosisRebalancer:
    def test_migrates_violated_service_to_fresh_nic(self, plain_model):
        cluster = Cluster(bluefield2_spec())
        policy = DiagnosisRebalancePolicy()
        nic_id = cluster.place(_instance(0, sla=0.05))
        cluster.place(_instance(1, sla=0.05), nic_id)
        # svc-0-1 measured far above its SLA; the only NIC is the
        # violating one, so the bottlenecked NF moves to a fresh NIC
        # (no feasibility probe needed).
        moved = policy.rebalance(
            cluster, epoch=3, model=plain_model,
            last_drops={"svc-0-0": 0.01, "svc-0-1": 0.40},
        )
        assert moved == 1
        record = cluster.migration_log[-1]
        assert record.instance_id == "svc-0-1"
        assert record.reason == "sla-violation"
        assert cluster.nics_used == 2

    def test_no_violations_no_moves(self, plain_model):
        cluster = Cluster(bluefield2_spec())
        policy = DiagnosisRebalancePolicy()
        nic_id = cluster.place(_instance(0))
        cluster.place(_instance(1), nic_id)
        moved = policy.rebalance(
            cluster, epoch=1, model=plain_model,
            last_drops={"svc-0-0": 0.02, "svc-0-1": 0.03},
        )
        assert moved == 0
        assert cluster.migration_log == []

    def test_migration_cap(self, plain_model):
        cluster = Cluster(bluefield2_spec())
        policy = DiagnosisRebalancePolicy(max_migrations_per_epoch=1)
        limit = cluster.max_residents_per_nic
        # Two full NICs, one violated service on each: full peers leave
        # no migration candidates, so each violator would go to a fresh
        # NIC — but the per-epoch cap stops after the first.
        for nic in range(2):
            nic_id = cluster.place(_instance(10 * nic, sla=0.05))
            for n in range(1, limit):
                cluster.place(_instance(10 * nic + n, sla=0.05), nic_id)
        drops = {s.instance_id: 0.0 for s in cluster.services}
        drops["svc-0-0"] = 0.5
        drops["svc-0-10"] = 0.5
        moved = policy.rebalance(cluster, 2, plain_model, drops)
        assert moved == 1


class TestFirstFit:
    def test_chunks_grow_geometrically(self):
        chunks = []

        def verdict(chunk):
            chunks.append(len(chunk))
            return [case == 30 for case in chunk]

        assert first_fit(list(range(40)), verdict) == 30
        assert chunks == [1, 4, 16, 19]

    def test_no_fit_and_no_candidates(self):
        assert first_fit(list(range(6)), lambda chunk: [False] * len(chunk)) is None
        assert first_fit([], lambda chunk: [True] * len(chunk)) is None

    def test_generator_verdict_stops_at_the_first_fit(self):
        evaluated = []

        def verdict(chunk):
            for case in chunk:
                evaluated.append(case)
                yield case >= 2

        assert first_fit(list(range(20)), verdict) == 2
        assert evaluated == [0, 1, 2]


_POOL = ("flowmonitor", "flowstats", "nids")
_TRAFFICS = (TrafficProfile(), TrafficProfile(64_000, 512, 300.0))
#: SLA spreads: a wide one (first fits land early) and a tight one
#: (first fits land late in long candidate lists, or nowhere).
_SLA_SPREADS = ((0.01, 0.05, 0.1, 0.2, 0.4, 0.8), (0.001, 0.005, 0.02))


def _cases(slas):
    residents = st.lists(
        st.builds(
            NfArrival,
            nf_name=st.sampled_from(_POOL),
            sla_drop_fraction=st.sampled_from(slas),
            traffic=st.sampled_from(_TRAFFICS),
        ),
        min_size=1,
        max_size=4,
    )
    return st.tuples(
        residents,
        st.sampled_from(("bluefield2", "pensando")),
        st.sampled_from((1.0, 0.9, 0.6, 0.3)),
    )


def _reference_feasible(model, residents, target, capacity):
    """Yala feasibility as one joint call plus one ``predict_solo`` call
    per resident: the per-case probe the batched verdict replaced."""
    yala = model._target(target).yala
    predicted = yala.predict_colocation([(r.nf_name, r.traffic) for r in residents])
    for resident, throughput in zip(residents, predicted):
        if capacity != 1.0:
            throughput = throughput * capacity
        solo = yala.predictor_of(resident.nf_name).predict_solo(resident.traffic)
        if max(0.0, 1.0 - throughput / solo) > resident.sla_drop_fraction:
            return False
    return True


@pytest.fixture(scope="module")
def two_target_model(small_system, pensando_nic) -> PlacementModel:
    """Yala on BlueField-2 (the shared system) plus a Pensando system."""
    pensando = YalaSystem(pensando_nic, seed=606, quota=20).train(list(_POOL))
    model = PlacementModel(yala=small_system)
    model.add_target(yala=pensando)
    return model


class TestBatchedYalaVerdict:
    @pytest.mark.parametrize("count", [0, 1, 5, 21, 22])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_first_fit_matches_a_loop_of_single_verdicts(
        self, two_target_model, count, data
    ):
        """Chunk edges (1 | 4 | 16 | ...) sit at candidates 1, 5 and 21."""
        model = two_target_model
        slas = data.draw(st.sampled_from(_SLA_SPREADS))
        cases = data.draw(st.lists(_cases(slas), min_size=count, max_size=count))
        loop = [model.predicted_feasible_yala(*case) for case in cases]
        assert loop == [_reference_feasible(model, *case) for case in cases]
        expected = loop.index(True) if True in loop else None
        assert first_fit(cases, model.predicted_feasible_yala_batch) == expected
        assert model.predicted_feasible_yala_batch(cases) == loop
