"""Batch prediction APIs must match their single-call counterparts
bit-for-bit: batching is a throughput optimisation, never a numerical
change."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory_model import MemoryContentionModel
from repro.core.predictor import CompetitorSpec, YalaSystem
from repro.errors import ModelNotFittedError, ProfilingError
from repro.nf.catalog import make_nf
from repro.nic.counters import PerfCounters
from repro.profiling.collector import ProfilingCollector
from repro.profiling.contention import ContentionLevel, random_contention
from repro.profiling.dataset import ProfileDataset
from repro.traffic.profile import TrafficProfile


@pytest.fixture(scope="module")
def small_memory_model(noisy_nic):
    """A quickly trained traffic-aware memory model."""
    collector = ProfilingCollector(noisy_nic)
    nf = make_nf("flowmonitor")
    dataset = ProfileDataset(nf.name)
    rng = np.random.default_rng(11)
    profiles = [
        TrafficProfile(),
        TrafficProfile(64_000, 512, 300.0),
        TrafficProfile(4_000, 1500, 900.0),
    ]
    for index in range(36):
        contention = (
            ContentionLevel()
            if index < 4
            else random_contention(seed=rng, memory=True)
        )
        dataset.add(
            collector.profile_one(nf, contention, profiles[index % len(profiles)])
        )
    model = MemoryContentionModel("flowmonitor", n_estimators=40, seed=3)
    return model.fit(dataset), collector


class TestMemoryModelBatch:
    def test_batch_matches_looped_predict_bitwise(self, small_memory_model):
        model, collector = small_memory_model
        rng = np.random.default_rng(21)
        counters, traffics, competitors = [], [], []
        for index in range(12):
            level = random_contention(seed=rng, memory=True)
            counters.append(collector.bench_counters(level))
            traffics.append(
                TrafficProfile(
                    int(rng.uniform(1_000, 300_000)),
                    int(rng.uniform(64, 1500)),
                    float(rng.uniform(0, 1000)),
                )
            )
            competitors.append(int(rng.integers(0, 4)))
        batched = model.predict_batch(counters, traffics, competitors)
        looped = [
            model.predict(c, t, n)
            for c, t, n in zip(counters, traffics, competitors)
        ]
        assert batched.tolist() == looped

    def test_empty_batch(self, small_memory_model):
        model, _ = small_memory_model
        assert model.predict_batch([], [], []).shape == (0,)

    def test_mismatched_lengths_rejected(self, small_memory_model):
        model, _ = small_memory_model
        with pytest.raises(ProfilingError):
            model.predict_batch([PerfCounters.zero()], [], [0])

    def test_unfitted_model_rejected(self):
        model = MemoryContentionModel("acl")
        with pytest.raises(ModelNotFittedError):
            model.predict_batch([PerfCounters.zero()], [TrafficProfile()], [0])


class TestPredictorBatch:
    def test_predict_many_matches_looped_predict(self, trained_flowmonitor):
        requests = [
            (TrafficProfile(), []),
            (
                TrafficProfile(64_000, 512, 300.0),
                [CompetitorSpec.bench(ContentionLevel(mem_car=120.0))],
            ),
            (
                TrafficProfile(8_000, 1500, 800.0),
                [
                    CompetitorSpec.bench(
                        ContentionLevel(mem_car=60.0, regex_rate=0.8)
                    )
                ],
            ),
        ]
        batched = trained_flowmonitor.predict_many(requests)
        looped = [
            trained_flowmonitor.predict(traffic, competitors)
            for traffic, competitors in requests
        ]
        assert batched == looped

    def test_predict_many_empty(self, trained_flowmonitor):
        assert trained_flowmonitor.predict_many([]) == []

    def test_joint_prediction_deterministic(self, small_system):
        traffic = TrafficProfile()
        placements = [("flowmonitor", traffic), ("nids", traffic)]
        assert small_system.predict_colocation(
            placements
        ) == small_system.predict_colocation(placements)


class TestSystemBatch:
    """YalaSystem.predict_batch vs looped YalaSystem.predict."""

    def _cases(self):
        default = TrafficProfile()
        other = TrafficProfile(64_000, 512, 300.0)
        return [
            ("flowmonitor", default, [CompetitorSpec.nf("nids", default)]),
            (
                "nids",
                other,
                [
                    CompetitorSpec.nf("flowstats", other),
                    CompetitorSpec.bench(ContentionLevel(mem_car=90.0)),
                ],
            ),
            ("flowstats", default, []),
            (
                "flowmonitor",
                other,
                [CompetitorSpec.bench(ContentionLevel(mem_car=150.0, regex_rate=0.5))],
            ),
        ]

    def test_batch_matches_looped_predict_bitwise(self, small_system):
        cases = self._cases()
        batched = small_system.predict_batch(cases)
        looped = [
            small_system.predict(target, traffic, competitors)
            for target, traffic, competitors in cases
        ]
        assert batched == looped

    def test_colocation_batch_matches_looped_colocation(self, small_system):
        traffic = TrafficProfile()
        requests = [
            ([("flowmonitor", traffic), ("nids", traffic)], None),
            (
                [("flowstats", traffic)],
                [CompetitorSpec.bench(ContentionLevel(mem_car=120.0))],
            ),
        ]
        batched = small_system.predict_colocation_batch(requests)
        looped = [
            small_system.predict_colocation(placements, benches)
            for placements, benches in requests
        ]
        assert batched == looped

    def test_solo_rows_match_predict_solo_bitwise(self, small_system):
        default = TrafficProfile()
        other = TrafficProfile(64_000, 512, 300.0)
        requests = [
            ([("flowmonitor", default), ("nids", other)], None),
            (
                [("flowstats", other)],
                [CompetitorSpec.bench(ContentionLevel(mem_car=120.0))],
            ),
            (
                [("nids", other), ("flowmonitor", default), ("nids", default)],
                None,
            ),
        ]
        joint, solos = small_system.predict_colocation_batch_with_solos(requests)
        assert joint == small_system.predict_colocation_batch(requests)
        assert solos == [
            [
                small_system.predictor_of(name).predict_solo(traffic)
                for name, traffic in placements
            ]
            for placements, _ in requests
        ]

    def test_empty_batch(self, small_system):
        assert small_system.predict_batch([]) == []
        assert small_system.predict_colocation_batch([]) == []
        assert small_system.predict_colocation_batch_with_solos([]) == ([], [])


#: NFs using both accelerators (ipcomp), regex only (nids) and none
#: (flowstats).
_ACCEL_NFS = ("ipcomp", "nids", "flowstats")
_TRAFFICS = (
    TrafficProfile(),
    TrafficProfile(64_000, 512, 300.0),
    TrafficProfile(4_000, 1500, 900.0),
)
_traffics = st.sampled_from(_TRAFFICS)
_benches = st.builds(
    lambda mem_car, regex_rate, compression_rate: CompetitorSpec.bench(
        ContentionLevel(
            mem_car=mem_car,
            regex_rate=regex_rate,
            compression_rate=compression_rate,
        )
    ),
    st.sampled_from([0.0, 60.0, 150.0]),
    st.sampled_from([0.0, 0.4, 1.5]),
    st.sampled_from([0.0, 0.3, 1.2]),
)
_nf_competitors = st.builds(
    CompetitorSpec.nf, st.sampled_from(_ACCEL_NFS), _traffics
)


@pytest.fixture(scope="module")
def accel_system(noisy_nic):
    """A small system whose NFs use both, one or no accelerators."""
    return YalaSystem(noisy_nic, seed=404, quota=60).train(list(_ACCEL_NFS))


class TestJointPlanProperties:
    """The per-placement plan must not couple cases or change bytes."""

    @pytest.mark.parametrize(
        "target, kind",
        [("nids", "regex_rate"), ("ipcomp", "regex_rate"),
         ("ipcomp", "compression_rate")],
    )
    def test_two_benches_on_one_accelerator(self, accel_system, target, kind):
        """Two benches of a kind are two clients of the water-fill: a
        light one beside a saturating one must not stall it."""
        predictor = accel_system.predictor_of(target)
        light, heavy = (
            CompetitorSpec.bench(ContentionLevel(**{kind: rate}))
            for rate in (0.05, 3.0)
        )
        alone = predictor.predict(TrafficProfile(), [heavy])
        both = predictor.predict(TrafficProfile(), [light, heavy])
        assert 0.0 < both <= alone

    @given(
        requests=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.sampled_from(_ACCEL_NFS), _traffics),
                    min_size=1,
                    max_size=4,
                ),
                st.one_of(st.none(), st.lists(_benches, max_size=2)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_joint_batch_matches_looped_colocation(self, accel_system, requests):
        batched = accel_system.predict_colocation_batch(requests)
        looped = [
            accel_system.predict_colocation(placements, benches)
            for placements, benches in requests
        ]
        assert batched == looped

    @given(
        target=st.sampled_from(_ACCEL_NFS),
        requests=st.lists(
            st.tuples(
                _traffics,
                st.tuples(
                    st.lists(_nf_competitors, max_size=3),
                    st.lists(_benches, max_size=2),
                ).flatmap(lambda parts: st.permutations(parts[0] + parts[1])),
            ),
            min_size=1,
            max_size=4,
        ),
        with_system=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_predict_many_matches_looped_predict(
        self, accel_system, target, requests, with_system
    ):
        predictor = accel_system.predictor_of(target)
        system = accel_system if with_system else None
        batched = predictor.predict_many(requests, system=system)
        looped = [
            predictor.predict(traffic, competitors, system)
            for traffic, competitors in requests
        ]
        assert batched == looped


class TestSlomoBatch:
    """SlomoPredictor.predict_batch vs looped SlomoPredictor.predict."""

    @pytest.fixture(scope="class")
    def trained_slomo(self, small_system):
        from repro.core.slomo import SlomoPredictor

        predictor = SlomoPredictor("flowmonitor", seed=404)
        predictor.train(
            small_system.collector, make_nf("flowmonitor"), n_samples=60
        )
        return predictor

    def _scenarios(self, collector):
        rng = np.random.default_rng(33)
        counters, traffics, competitors = [], [], []
        for index in range(10):
            level = random_contention(seed=rng, memory=True)
            counters.append(collector.bench_counters(level))
            # Mix training-profile rows (no extrapolation branch) with
            # off-profile rows (extrapolated).
            traffics.append(
                TrafficProfile()
                if index % 2 == 0
                else TrafficProfile(
                    int(rng.uniform(1_000, 300_000)),
                    int(rng.uniform(64, 1500)),
                    float(rng.uniform(0, 1000)),
                )
            )
            competitors.append(int(rng.integers(1, 4)))
        return counters, traffics, competitors

    def test_batch_matches_looped_predict_bitwise(
        self, trained_slomo, small_system
    ):
        counters, traffics, competitors = self._scenarios(small_system.collector)
        batched = trained_slomo.predict_batch(counters, traffics, competitors)
        looped = [
            trained_slomo.predict(c, t, n_competitors=n)
            for c, t, n in zip(counters, traffics, competitors)
        ]
        assert batched == looped

    def test_batch_matches_looped_without_extrapolation(
        self, trained_slomo, small_system
    ):
        counters, traffics, competitors = self._scenarios(small_system.collector)
        batched = trained_slomo.predict_batch(
            counters, traffics, competitors, extrapolate=False
        )
        looped = [
            trained_slomo.predict(c, t, extrapolate=False, n_competitors=n)
            for c, t, n in zip(counters, traffics, competitors)
        ]
        assert batched == looped

    def test_empty_batch(self, trained_slomo):
        assert trained_slomo.predict_batch([], [], []) == []

    def test_mismatched_lengths_rejected(self, trained_slomo):
        with pytest.raises(ProfilingError):
            trained_slomo.predict_batch([PerfCounters.zero()], [], [1])

    def test_untrained_rejected(self):
        from repro.core.slomo import SlomoPredictor

        with pytest.raises(ModelNotFittedError):
            SlomoPredictor("acl").predict_batch(
                [PerfCounters.zero()], [TrafficProfile()], [1]
            )
