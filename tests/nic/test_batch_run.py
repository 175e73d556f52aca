"""Equivalence tests: ``SmartNic.run_batch`` == looped ``run``, bit for bit.

The batch engine's contract is that batching is never a numerical
change: throughputs (measured *and* noiseless), counters, stage
reports, bottleneck labels, iteration counts, DRAM utilisation and the
seeded measurement noise must be exactly the scalar solver's. These
tests sweep execution patterns, accelerator mixes, bench shapes, batch
sizes and error cases against the seed solver as the oracle.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import PlacementError, SimulationError
from repro.nf.catalog import EVALUATION_NF_NAMES, make_nf
from repro.nf.synthetic import nf1, nf2
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec, get_spec, pensando_spec
from repro.nic.workload import ExecutionPattern
from repro.profiling.contention import ContentionLevel, random_contention
from repro.rng import derive_seed, make_rng
from repro.traffic.profile import TrafficProfile


def assert_identical(loop_result, batch_result, label=""):
    """Assert two RunResults are bit-for-bit identical."""
    assert batch_result.iterations == loop_result.iterations, label
    assert batch_result.dram_utilisation == loop_result.dram_utilisation, label
    assert set(batch_result.workloads) == set(loop_result.workloads), label
    for name in loop_result.workloads:
        a = loop_result[name]
        b = batch_result[name]
        assert b.throughput_mpps == a.throughput_mpps, (label, name)
        assert b.true_throughput_mpps == a.true_throughput_mpps, (label, name)
        assert b.miss_ratio == a.miss_ratio, (label, name)
        assert b.llc_occupancy_bytes == a.llc_occupancy_bytes, (label, name)
        assert b.bottleneck == a.bottleneck, (label, name)
        assert b.counters == a.counters, (label, name)
        assert b.stages == a.stages, (label, name)


def random_profiling_scenario(nic, rng, index):
    """One profiling-shaped scenario: target NF + bench contention."""
    target = make_nf(str(rng.choice(EVALUATION_NF_NAMES)))
    level = random_contention(
        seed=rng,
        memory=True,
        regex=index % 3 == 0,
        compression=index % 5 == 0,
    )
    traffic = TrafficProfile(
        flow_count=int(rng.integers(1_000, 300_000)),
        packet_size=int(rng.integers(64, 1500)),
        mtbr=float(rng.uniform(0.0, 1100.0)),
    )
    return [target.demand(traffic)] + level.benches(nic.spec.num_cores - 2)


class TestRunBatchEquivalence:
    def test_profiling_shaped_sweep(self):
        nic = SmartNic(bluefield2_spec(), seed=123)
        rng = make_rng(7)
        scenarios = [random_profiling_scenario(nic, rng, i) for i in range(25)]
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"scenario {i}")

    def test_nf_colocations(self):
        nic = SmartNic(bluefield2_spec(), seed=123)
        rng = make_rng(11)
        traffic = TrafficProfile()
        scenarios = []
        for _ in range(12):
            demands = [make_nf("flowstats").demand(traffic)]
            for j in range(int(rng.integers(1, 4))):
                name = str(rng.choice(EVALUATION_NF_NAMES))
                demands.append(
                    make_nf(name).demand(traffic, instance=f"{name}#{j}")
                )
            scenarios.append(demands)
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"colocation {i}")

    @pytest.mark.parametrize(
        "pattern",
        [ExecutionPattern.PIPELINE, ExecutionPattern.RUN_TO_COMPLETION],
    )
    def test_synthetic_patterns_with_accelerators(self, pattern):
        """Both execution patterns, both accelerators, mixed benches."""
        nic = SmartNic(bluefield2_spec(), seed=5)
        rng = make_rng(13)
        traffic = TrafficProfile()
        scenarios = []
        for builder in (nf1, nf2):
            for _ in range(5):
                level = random_contention(
                    seed=rng, memory=True, regex=True, compression=True
                )
                scenarios.append(
                    [builder(pattern).demand(traffic)] + level.benches(6)
                )
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"{pattern} {i}")

    def test_mixed_convergence_batch(self):
        """Fast- and slow-converging scenarios in one batch.

        Heavy DRAM-feedback mixes need 2-3x the iterations of light
        ones; the per-scenario masks must freeze finished scenarios at
        exactly the iteration the scalar solver stops at.
        """
        nic = SmartNic(bluefield2_spec(), seed=3)
        rng = make_rng(17)
        traffic = TrafficProfile()
        scenarios = []
        for i in range(8):
            light = ContentionLevel(mem_car=10.0, mem_wss_mb=1.0)
            heavy = ContentionLevel(
                mem_car=float(rng.uniform(200.0, 260.0)),
                mem_wss_mb=float(rng.uniform(8.0, 12.0)),
                regex_rate=1.5,
            )
            level = light if i % 2 == 0 else heavy
            scenarios.append(
                [make_nf("flowmonitor").demand(traffic)] + level.benches(6)
            )
        batch = nic.run_batch(scenarios)
        iteration_counts = {result.iterations for result in batch}
        assert len(iteration_counts) > 1, "expected a convergence spread"
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"mixed {i}")

    def test_many_clients_on_one_engine(self):
        """>=3 clients sharing one accelerator engine stay bit-exact.

        Regression: the scalar ``capacity_for`` allocates
        ``[saturated_target] + competitors``, so its weight fold starts
        with the target's term; accumulating in engine order instead
        diverged by 1 ulp whenever the target sat at client position
        >= 2 with two saturated competitors.
        """
        nic = SmartNic(bluefield2_spec(), seed=31)
        traffic = TrafficProfile()
        scenarios = []
        for extra in (ContentionLevel(regex_rate=3.0, regex_mtbr=900.0),
                      ContentionLevel(regex_rate=0.3, regex_mtbr=300.0)):
            demands = [
                nf1(ExecutionPattern.RUN_TO_COMPLETION).demand(
                    traffic, instance=f"nf1#{i}"
                )
                for i in range(3)
            ]
            scenarios.append(demands + extra.benches(2))
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"many-clients {i}")

    def test_pensando_spec(self):
        nic = SmartNic(pensando_spec(), seed=9)
        rng = make_rng(19)
        traffic = TrafficProfile()
        scenarios = []
        for i in range(8):
            level = random_contention(seed=rng, memory=True, regex=i % 2 == 0)
            scenarios.append(
                [make_nf("flowstats").demand(traffic)] + level.benches(14)
            )
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"pensando {i}")

    def test_noise_disabled(self):
        nic = SmartNic(bluefield2_spec(), seed=1, noise_std=0.0)
        rng = make_rng(23)
        scenarios = [random_profiling_scenario(nic, rng, i) for i in range(6)]
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            result = batch[i]
            assert_identical(nic.run(scenario), result, f"noiseless {i}")
            for workload in result.workloads.values():
                assert workload.throughput_mpps == workload.true_throughput_mpps

    def test_batch_size_invariance(self):
        """Splitting a batch differently never changes any scenario."""
        nic = SmartNic(bluefield2_spec(), seed=123)
        rng = make_rng(29)
        scenarios = [random_profiling_scenario(nic, rng, i) for i in range(12)]
        whole = nic.run_batch(scenarios)
        singletons = [nic.run_batch([s])[0] for s in scenarios]
        halves = nic.run_batch(scenarios[:6]) + nic.run_batch(scenarios[6:])
        for i in range(len(scenarios)):
            assert_identical(whole[i], singletons[i], f"singleton {i}")
            assert_identical(whole[i], halves[i], f"half {i}")

    def test_run_fast_matches_run(self):
        nic = SmartNic(bluefield2_spec(), seed=123)
        scenario = [make_nf("nids").demand(TrafficProfile())] + ContentionLevel(
            mem_car=120.0
        ).benches(6)
        assert_identical(nic.run(scenario), nic.run_fast(scenario))

    def test_open_loop_arrival_rates(self):
        """Open-loop workloads (finite arrival rate) stay bit-identical."""
        nic = SmartNic(bluefield2_spec(), seed=123)
        traffic = TrafficProfile()
        demand = make_nf("flowstats").demand(traffic)
        capped = type(demand)(
            name=demand.name,
            cores=demand.cores,
            pattern=demand.pattern,
            stages=demand.stages,
            arrival_rate_mpps=0.2,
            queues_per_accelerator=dict(demand.queues_per_accelerator),
            packet_size_bytes=demand.packet_size_bytes,
            hot_access_fraction=demand.hot_access_fraction,
            hot_wss_fraction=demand.hot_wss_fraction,
        )
        scenario = [capped] + ContentionLevel(mem_car=80.0).benches(6)
        batch = nic.run_batch([scenario])
        assert_identical(nic.run(scenario), batch[0])


class TestRunBatchErrors:
    def test_validation_errors_match_run(self):
        nic = SmartNic(bluefield2_spec(), seed=123)
        traffic = TrafficProfile()
        too_many = [
            make_nf(name).demand(traffic, instance=f"x#{i}")
            for i, name in enumerate(EVALUATION_NF_NAMES[:5])
        ]
        duplicate = [make_nf("acl").demand(traffic)] * 2
        good = [make_nf("acl").demand(traffic)]
        results = nic.run_batch(
            [good, too_many, duplicate, []], on_error="return"
        )
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], PlacementError)
        assert isinstance(results[2], SimulationError)
        assert isinstance(results[3], SimulationError)
        with pytest.raises(PlacementError):
            nic.run(too_many)
        with pytest.raises(SimulationError):
            nic.run(duplicate)

    def test_raise_mode_raises_first_error(self):
        nic = SmartNic(bluefield2_spec(), seed=123)
        traffic = TrafficProfile()
        too_many = [
            make_nf(name).demand(traffic, instance=f"x#{i}")
            for i, name in enumerate(EVALUATION_NF_NAMES[:5])
        ]
        with pytest.raises(PlacementError):
            nic.run_batch([[make_nf("acl").demand(traffic)], too_many])

    def test_unknown_on_error_mode(self):
        nic = SmartNic(bluefield2_spec(), seed=123)
        with pytest.raises(SimulationError):
            nic.run_batch([], on_error="ignore")

    def test_empty_batch(self):
        nic = SmartNic(bluefield2_spec(), seed=123)
        assert nic.run_batch([]) == []


class TestNoiseDeterminism:
    def test_noise_matches_scalar_seed_derivation(self):
        """Measured noise is a function of (nic seed, workload set)."""
        spec = bluefield2_spec()
        scenario = [make_nf("acl").demand(TrafficProfile())] + ContentionLevel(
            mem_car=60.0
        ).benches(6)
        first = SmartNic(spec, seed=42).run_batch([scenario])[0]
        second = SmartNic(spec, seed=42).run([scenario[0]] + scenario[1:])
        assert_identical(second, first)
        other_seed = SmartNic(spec, seed=43).run_batch([scenario])[0]
        assert (
            other_seed["acl"].throughput_mpps != first["acl"].throughput_mpps
        )
        assert (
            other_seed["acl"].true_throughput_mpps
            == first["acl"].true_throughput_mpps
        )


def noise_mixes(size: int) -> list[list]:
    """Three same-shape ``size``-workload mixes of one-core catalog NFs.

    Three scenarios per shape put the batch path on a vectorized group
    rather than on its scalar fallback.
    """
    mixes = []
    for flows in (20_000, 90_000, 250_000):
        traffic = TrafficProfile(flow_count=flows)
        mixes.append(
            [
                replace(
                    make_nf(EVALUATION_NF_NAMES[j % len(EVALUATION_NF_NAMES)])
                    .demand(traffic, instance=f"nf{j}"),
                    cores=1,
                )
                for j in range(size)
            ]
        )
    return mixes


class TestNoiseFormula:
    """The measurement noise, pinned on its own against the scalar seed.

    ``run`` and ``run_batch`` share one noise helper, so batch == loop
    parity alone cannot catch a change to the noise itself.
    """

    @pytest.mark.parametrize("target", ["bluefield2", "pensando"])
    @pytest.mark.parametrize("size", [1, 2, 5, 8])
    def test_measured_is_true_times_the_seeded_factor(self, target, size):
        seed, noise_std = 4242, 0.02
        nic = SmartNic(get_spec(target), seed=seed, noise_std=noise_std)
        mixes = noise_mixes(size)
        for path, results in (
            ("run", [nic.run(mix) for mix in mixes]),
            ("run_batch", nic.run_batch(mixes)),
        ):
            for mix, result in zip(mixes, results):
                reprs = tuple(sorted(repr(w) for w in mix))
                for workload in mix:
                    draw = make_rng(
                        derive_seed(seed, repr(workload), reprs)
                    ).normal(0.0, noise_std)
                    measured = result[workload.name]
                    assert measured.throughput_mpps == (
                        measured.true_throughput_mpps * (1.0 + draw)
                    ), (path, workload.name)

    @pytest.mark.parametrize("target", ["bluefield2", "pensando"])
    def test_zero_noise_reports_the_true_rate(self, target):
        nic = SmartNic(get_spec(target), seed=4242, noise_std=0.0)
        mixes = noise_mixes(5)
        for results in ([nic.run(mix) for mix in mixes], nic.run_batch(mixes)):
            for result in results:
                for measured in result.workloads.values():
                    assert (
                        measured.throughput_mpps == measured.true_throughput_mpps
                    )


class TestBatchedSums:
    def test_row_sums_match_1d_sums(self):
        """The occupancy reduction relies on axis-sum == per-row sum."""
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 7, 8, 9, 15, 16, 33, 129):
            block = rng.uniform(1e-9, 1e3, size=(13, n))
            assert np.array_equal(
                block.sum(axis=1),
                np.array([block[i].sum() for i in range(len(block))]),
            )


class TestPaddedSuperGroups:
    """Small signature groups merge into padded super-groups, bit-exact."""

    #: Structurally diverse mixes (A = table-driven, B = regex user) with
    #: at most two scenarios per signature, so every group is below the
    #: scalar-fallback threshold and must merge to vectorize at all.
    MIXES = [
        ("flowstats", "nat", "nids", "acl"),
        ("flowstats", "nids", "nat", "acl"),
        ("nids", "flowstats", "nat", "acl"),
        ("flowstats", "nat", "acl", "nids"),
        ("flowstats", "nids", "nat"),
        ("nids", "flowstats", "nat"),
        ("flowstats", "nat"),
        ("flowstats", "nids"),
        ("nids", "nat"),
        ("flowstats",),
        ("nids",),
        ("flowmonitor", "ipcomp"),  # compression engine in the mix
    ]

    def _scenarios(self, rng):
        scenarios = []
        for mix in self.MIXES:
            for _ in range(2):
                traffic_set = [
                    TrafficProfile(int(rng.integers(5_000, 400_000)), 1500, 600.0)
                    for _ in mix
                ]
                scenarios.append(
                    [
                        make_nf(name).demand(traffic, instance=f"{name}#{j}")
                        for j, (name, traffic) in enumerate(zip(mix, traffic_set))
                    ]
                )
        return scenarios

    def test_padded_merge_matches_scalar_oracle(self):
        nic = SmartNic(bluefield2_spec(), seed=123)
        scenarios = self._scenarios(make_rng(31))
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"padded {i}")

    def test_padded_merge_matches_disabled_padding(self):
        from repro.nic.batch import solve_batch

        nic = SmartNic(pensando_spec(), seed=9)
        scenarios = [s for s in self._scenarios(make_rng(5)) if all(
            stage.accelerator in (None, "regex")
            for demand in s
            for stage in demand.stages
        )]
        padded = solve_batch(nic, scenarios, pad_small_groups=True)
        scalar = solve_batch(nic, scenarios, pad_small_groups=False)
        for i in range(len(scenarios)):
            assert_identical(scalar[i], padded[i], f"scenario {i}")

    def test_padding_engages_on_this_workload(self):
        """The merge must actually form padded families here (the
        equivalence above would pass vacuously on the scalar path)."""
        from repro.nic.batch import (
            _SCALAR_FALLBACK_GROUP_SIZE,
            _ScenarioPlan,
            _merge_small_groups,
        )

        nic = SmartNic(bluefield2_spec(), seed=123)
        groups = {}
        for i, scenario in enumerate(self._scenarios(make_rng(31))):
            plan = _ScenarioPlan(nic, scenario)
            plans, indices = groups.setdefault(plan.signature, ([], []))
            plans.append(plan)
            indices.append(i)
        small = [
            (sig, plans, indices)
            for sig, (plans, indices) in groups.items()
            if len(plans) < _SCALAR_FALLBACK_GROUP_SIZE
        ]
        assert len(small) >= 10  # the workload is genuinely fragmented
        merged, leftovers = _merge_small_groups(small)
        merged_rows = sum(
            len(plans) for _, members in merged for _, plans, _ in members
        )
        assert merged_rows >= 16  # most scenarios vectorize via padding
        for super_sig, members in merged:
            for sig, _, _ in members:
                assert len(sig) <= len(super_sig)

    def test_embedding_helper(self):
        from repro.nic.batch import _embed_signature, _shortest_supersequence

        assert _embed_signature(("a", "b"), ("a", "x", "b")) == [0, 2]
        assert _embed_signature(("a", "a"), ("a", "b", "a")) == [0, 2]
        assert _embed_signature(("b", "a"), ("a", "b")) is None
        assert _embed_signature((), ("a",)) == []
        scs = _shortest_supersequence(("a", "b", "a"), ("b", "a", "b"))
        assert _embed_signature(("a", "b", "a"), scs) is not None
        assert _embed_signature(("b", "a", "b"), scs) is not None
        assert len(scs) <= 4

    def test_mixed_sizes_with_convergence_stragglers(self):
        """Solos merged with slow multi-NF mixes keep scalar iteration
        counts (dummy lanes never perturb a row's residual stream)."""
        nic = SmartNic(bluefield2_spec(), seed=77)
        traffic = TrafficProfile()
        scenarios = [
            [make_nf("nids").demand(traffic, instance="nids#0")],
            [
                make_nf("nids").demand(traffic, instance="nids#0"),
                make_nf("nids").demand(traffic, instance="nids#1"),
                make_nf("flowstats").demand(traffic, instance="flowstats#2"),
            ],
            [
                make_nf("flowstats").demand(traffic, instance="flowstats#0"),
                make_nf("nids").demand(traffic, instance="nids#1"),
            ],
        ]
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"straggler {i}")
