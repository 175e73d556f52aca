"""Cross-epoch incremental solving at the NIC layer.

Two mechanisms and the straggler route, three contracts:

- **Warm-started fixed points** (``run(initial=...)`` /
  ``run_batch(warm_starts=...)``): the converged values are the *same
  fixed point* as a cold solve (within solver tolerance) but the
  iterate path differs — warm solves start from the seed, undamped —
  so warm runs are outside the bit-exactness contract. What *is*
  bit-pinned: warm batch == warm loop, and ``warm_starts=None`` ==
  the historical cold path, bit for bit.
- **Persistent compilation cache**: memoized plans/embeddings/families
  are bit-invisible — enabling or clearing the cache never changes a
  solved byte, only how much setup work ``run_batch`` repeats.
- **Stragglers**: small signature groups beside a big group never
  join it. They merge into padded families, whose all-zero dummy lanes
  keep every scenario bit-identical to the scalar oracle, or fall back
  to the scalar solver; the greedy family construction is independent
  of input order (hypothesis-pinned below).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nf.catalog import make_nf
from repro.nic import batch as batch_module
from repro.nic.batch import (
    _SCALAR_FALLBACK_GROUP_SIZE,
    _COMPILE_CACHE,
    _ScenarioPlan,
    _embed_signature,
    _merge_small_groups,
    clear_compile_cache,
    compile_cache_enabled,
    set_compile_cache_enabled,
)
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec, pensando_spec
from repro.obs import TraceRecorder, use_recorder
from repro.rng import make_rng
from repro.traffic.profile import TrafficProfile

from tests.nic.test_batch_run import assert_identical


def _mix(nic_seed=7, names=("nat", "nids", "nids"), flows=60_000):
    nic = SmartNic(bluefield2_spec(), seed=nic_seed, noise_std=0.0)
    traffic = TrafficProfile(flows, 64, 100.0)
    scenario = [
        make_nf(n).demand(traffic, instance=f"{n}#{j}")
        for j, n in enumerate(names)
    ]
    return nic, scenario


class TestWarmStartedRun:
    def test_same_fixed_point_fewer_iterations(self):
        nic, scenario = _mix()
        cold = nic.run(scenario)
        seed = {w.name: cold.throughput_of(w.name) for w in scenario}
        # Drift the traffic: structure identical, fixed point nearby.
        drifted = [
            make_nf(n).demand(
                TrafficProfile(63_000, 64, 100.0), instance=f"{n}#{j}"
            )
            for j, n in enumerate(("nat", "nids", "nids"))
        ]
        cold2 = nic.run(drifted)
        warm2 = nic.run(drifted, initial=seed)
        for w in drifted:
            a = cold2.throughput_of(w.name)
            b = warm2.throughput_of(w.name)
            assert abs(a - b) / a < 1e-6, w.name
        assert warm2.iterations < cold2.iterations

    def test_exact_seed_converges_immediately(self):
        nic, scenario = _mix()
        cold = nic.run(scenario)
        seed = {
            w.name: cold[w.name].true_throughput_mpps for w in scenario
        }
        warm = nic.run(scenario, initial=seed)
        assert warm.iterations <= 3
        for w in scenario:
            a = cold.throughput_of(w.name)
            b = warm.throughput_of(w.name)
            assert abs(a - b) / a < 1e-6, w.name

    def test_slowly_contracting_seed_joins_the_cold_schedule(self):
        """Four NIDS on Pensando's regex engine make a period-2 mode
        that full steps shrink by under 1% a sweep. Seeded from the
        neighbouring fixed point, the solve used to take 507 sweeps
        against a cold solve's 23; after ``_WARM_SWEEPS`` undamped
        sweeps it continues on the cold schedule instead."""
        names = ("nids", "nat", "nids", "acl", "nids", "nat", "nat", "nids")
        nic = SmartNic(pensando_spec(), seed=3, noise_std=0.0)
        base = TrafficProfile(60_000, 1024, 300.0)
        drift = TrafficProfile(63_000, 1024, 300.0)
        before = [
            make_nf(n).demand(base, instance=f"{n}#{j}")
            for j, n in enumerate(names)
        ]
        after = [
            make_nf(n).demand(drift if j == 5 else base, instance=f"{n}#{j}")
            for j, n in enumerate(names)
        ]
        solved = nic.run(before)
        seed = {w.name: solved[w.name].true_throughput_mpps for w in before}
        cold = nic.run(after)
        warm = nic.run(after, initial=seed)
        assert warm.iterations < 2 * cold.iterations
        for w in after:
            a = cold.throughput_of(w.name)
            b = warm.throughput_of(w.name)
            assert abs(a - b) / a < 1e-6, w.name
        warms = [seed, None, seed]
        batch = nic.run_batch([after] * 3, warm_starts=warms)
        for i, warm_start in enumerate(warms):
            assert_identical(
                nic.run(after, initial=warm_start), batch[i], f"row {i}"
            )

    def test_partial_seed_allowed(self):
        nic, scenario = _mix()
        cold = nic.run(scenario)
        seed = {scenario[0].name: cold.throughput_of(scenario[0].name)}
        warm = nic.run(scenario, initial=seed)
        for w in scenario:
            a = cold.throughput_of(w.name)
            b = warm.throughput_of(w.name)
            assert abs(a - b) / a < 1e-6, w.name

    def test_initial_none_is_the_cold_path(self):
        nic, scenario = _mix()
        assert_identical(nic.run(scenario), nic.run(scenario, initial=None))

    def test_batch_warm_matches_loop_warm_bit_for_bit(self):
        nic, scenario = _mix()
        cold = nic.run(scenario)
        seed = {w.name: cold.throughput_of(w.name) for w in scenario}
        other = [
            make_nf(n).demand(
                TrafficProfile(90_000, 128, 300.0), instance=f"{n}#{j}"
            )
            for j, n in enumerate(("nat", "nids", "nids"))
        ]
        # Mixed warm/cold rows inside one structural group: per-row
        # damping schedules must reproduce the scalar paths exactly.
        scenarios = [scenario, other, scenario]
        warms = [seed, None, seed]
        batch = nic.run_batch(scenarios, warm_starts=warms)
        for i, (scen, warm) in enumerate(zip(scenarios, warms)):
            assert_identical(
                nic.run(scen, initial=warm), batch[i], f"warm row {i}"
            )

    def test_warm_starts_none_is_bit_identical_to_cold_batch(self):
        nic, scenario = _mix()
        other = [
            make_nf(n).demand(
                TrafficProfile(90_000, 128, 300.0), instance=f"{n}#{j}"
            )
            for j, n in enumerate(("nat", "nids", "nids"))
        ]
        a = nic.run_batch([scenario, other])
        b = nic.run_batch([scenario, other], warm_starts=None)
        c = nic.run_batch([scenario, other], warm_starts=[None, None])
        for i in range(2):
            assert_identical(a[i], b[i], f"none {i}")
            assert_identical(a[i], c[i], f"explicit none {i}")


class TestCompileCache:
    def setup_method(self):
        clear_compile_cache()

    def teardown_method(self):
        set_compile_cache_enabled(True)
        clear_compile_cache()

    def _scenarios(self, nic_seed=3):
        rng = make_rng(17)
        mixes = [("flowstats", "nat"), ("nids",), ("nat", "nids", "acl")]
        out = []
        for _ in range(3):
            for mix in mixes:
                traffic = TrafficProfile(
                    int(rng.integers(5_000, 200_000)), 256, 500.0
                )
                out.append(
                    [
                        make_nf(n).demand(traffic, instance=f"{n}#{j}")
                        for j, n in enumerate(mix)
                    ]
                )
        return out

    def test_cache_is_bit_invisible(self):
        nic = SmartNic(bluefield2_spec(), seed=3)
        scenarios = self._scenarios()
        set_compile_cache_enabled(False)
        cold = nic.run_batch(scenarios)
        set_compile_cache_enabled(True)
        clear_compile_cache()
        first = nic.run_batch(scenarios)   # populates the cache
        second = nic.run_batch(scenarios)  # replays from the cache
        for i in range(len(scenarios)):
            assert_identical(cold[i], first[i], f"populate {i}")
            assert_identical(cold[i], second[i], f"replay {i}")

    def test_repeat_calls_hit_the_cache(self):
        nic = SmartNic(bluefield2_spec(), seed=3)
        scenarios = self._scenarios()
        assert compile_cache_enabled()
        nic.run_batch(scenarios)
        misses_after_first = _COMPILE_CACHE.misses
        hits_after_first = _COMPILE_CACHE.hits
        nic.run_batch(scenarios)
        assert _COMPILE_CACHE.misses == misses_after_first
        assert _COMPILE_CACHE.hits > hits_after_first

    def test_identical_spec_objects_share_plans(self):
        # The cache keys on spec *identity*: two NICs built around the
        # same spec object share compiled plans, distinct spec objects
        # (even equal ones) do not alias.
        spec = bluefield2_spec()
        nic_a = SmartNic(spec, seed=3)
        nic_b = SmartNic(spec, seed=4)
        scenarios = self._scenarios()
        nic_a.run_batch(scenarios)
        misses = _COMPILE_CACHE.misses
        nic_b.run_batch(scenarios)
        assert _COMPILE_CACHE.misses == misses
        nic_c = SmartNic(bluefield2_spec(), seed=3)
        nic_c.run_batch(scenarios)
        assert _COMPILE_CACHE.misses > misses

    def test_clear_empties_tables_keeps_counters(self):
        nic = SmartNic(bluefield2_spec(), seed=3)
        nic.run_batch(self._scenarios())
        assert _COMPILE_CACHE.plans
        misses = _COMPILE_CACHE.misses
        clear_compile_cache()
        assert not _COMPILE_CACHE.plans
        assert not _COMPILE_CACHE.embeddings
        assert not _COMPILE_CACHE.families
        assert _COMPILE_CACHE.misses == misses


class TestStragglers:
    """Small signature groups beside a big group take the small-group
    route: the big group solves with its own rows only, and the small
    ones merge into padded families or fall back to the scalar solver."""

    def _scenarios(self, rows_per_small=1):
        rng = make_rng(29)
        big_mix = ("flowstats", "nat", "nids")
        small_mixes = [("flowstats", "nids"), ("nat",)]
        scenarios = []
        for _ in range(_SCALAR_FALLBACK_GROUP_SIZE + 2):  # the big group
            traffic = [
                TrafficProfile(int(rng.integers(5_000, 300_000)), 512, 700.0)
                for _ in big_mix
            ]
            scenarios.append(
                [
                    make_nf(n).demand(t, instance=f"{n}#{j}")
                    for j, (n, t) in enumerate(zip(big_mix, traffic))
                ]
            )
        for mix in small_mixes:  # the straggler scenarios of each small sig
            for _ in range(rows_per_small):
                traffic = [
                    TrafficProfile(
                        int(rng.integers(5_000, 300_000)), 512, 700.0
                    )
                    for _ in mix
                ]
                scenarios.append(
                    [
                        make_nf(n).demand(t, instance=f"{n}#{j}")
                        for j, (n, t) in enumerate(zip(mix, traffic))
                    ]
                )
        return scenarios

    def test_big_group_solves_with_its_own_rows(self):
        nic = SmartNic(bluefield2_spec(), seed=11)
        scenarios = self._scenarios()
        plans = [_ScenarioPlan(nic, s) for s in scenarios]
        big = plans[0].signature
        stragglers = [p.signature for p in plans if p.signature != big]
        assert len(stragglers) == 2
        # Both embed into the big group's columns, yet neither joins it.
        assert all(_embed_signature(s, big) is not None for s in stragglers)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = nic.run_batch(scenarios)
        sizes = recorder.exec_histograms["batch.group_size"]
        assert (sizes["count"], sizes["max"]) == (1, len(scenarios) - 2)
        # Two one-row groups are too few rows for a family.
        assert recorder.exec_counters["batch.scalar_scenarios"] == 2
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"straggler {i}")

    def test_stragglers_match_scalar_oracle(self):
        nic = SmartNic(bluefield2_spec(), seed=11)
        scenarios = self._scenarios()
        batch = nic.run_batch(scenarios)
        for i, scenario in enumerate(scenarios):
            assert_identical(nic.run(scenario), batch[i], f"straggler {i}")

    def test_stragglers_with_warm_starts(self):
        nic = SmartNic(bluefield2_spec(), seed=11)
        scenarios = self._scenarios()
        cold = [nic.run(s) for s in scenarios]
        warms = [
            {w.name: cold[i].throughput_of(w.name) for w in s}
            if i % 2 == 0
            else None
            for i, s in enumerate(scenarios)
        ]
        batch = nic.run_batch(scenarios, warm_starts=warms)
        for i, (scenario, warm) in enumerate(zip(scenarios, warms)):
            assert_identical(
                nic.run(scenario, initial=warm), batch[i], f"warm straggler {i}"
            )

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_identical_signature_family_beside_a_big_group(
        self, warm, monkeypatch
    ):
        """Above the row cap, two-row stragglers merge by identical
        workload signature into one family beside the big group."""
        monkeypatch.setattr(batch_module, "_MIXED_FAMILY_MAX_ROWS", 0)
        nic = SmartNic(bluefield2_spec(), seed=11)
        scenarios = self._scenarios(rows_per_small=2)
        cold = [nic.run(s) for s in scenarios]
        warms = [
            {w.name: cold[i].throughput_of(w.name) for w in s}
            if warm and i % 2 == 0
            else None
            for i, s in enumerate(scenarios)
        ]
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = nic.run_batch(scenarios, warm_starts=warms)
        counters = recorder.exec_counters
        assert "batch.scalar_scenarios" not in counters
        assert counters["batch.padded_lanes"] > 0
        sizes = recorder.exec_histograms["batch.group_size"]
        assert (sizes["count"], sizes["min"], sizes["max"]) == (2, 4.0, 5.0)
        for i, (scenario, w) in enumerate(zip(scenarios, warms)):
            assert_identical(
                nic.run(scenario, initial=w), batch[i], f"straggler {i}"
            )

    def test_scenario_order_invariance(self):
        nic = SmartNic(bluefield2_spec(), seed=11)
        scenarios = self._scenarios()
        base = nic.run_batch(scenarios)
        order = list(range(len(scenarios)))[::-1]
        permuted = nic.run_batch([scenarios[i] for i in order])
        for out_pos, src in enumerate(order):
            assert_identical(base[src], permuted[out_pos], f"perm {src}")


class TestFamilyOrderIndependence:
    """The greedy family construction is a pure function of the group
    *multiset*: dict insertion order (an accident of scenario order)
    never changes which families form."""

    @staticmethod
    def _families(small):
        merged, leftovers = _merge_small_groups(list(small))
        families = tuple(
            sorted(
                (
                    super_sig,
                    tuple(sorted(sig for sig, _, _ in members)),
                )
                for super_sig, members in merged
            )
        )
        left = tuple(sorted(sig for sig, _, _ in leftovers))
        return families, left

    @given(
        order=st.permutations(list(range(6))),
        sizes=st.lists(
            st.integers(min_value=1, max_value=2), min_size=6, max_size=6
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_families_ignore_insertion_order(self, order, sizes):
        nic = SmartNic(bluefield2_spec(), seed=123)
        traffic = TrafficProfile(50_000, 256, 400.0)
        mixes = [
            ("flowstats", "nat", "nids"),
            ("flowstats", "nids"),
            ("nat", "nids"),
            ("flowstats",),
            ("nids",),
            ("nat",),
        ]
        groups = []
        for mix, size in zip(mixes, sizes):
            scenario = [
                make_nf(n).demand(traffic, instance=f"{n}#{j}")
                for j, n in enumerate(mix)
            ]
            plan = _ScenarioPlan(nic, scenario)
            groups.append((plan.signature, [plan] * size, list(range(size))))
        # The family memo would replay the first-seen answer and mask a
        # genuine order dependence — run the greedy cold both times.
        set_compile_cache_enabled(False)
        try:
            baseline = self._families(groups)
            shuffled = self._families([groups[i] for i in order])
        finally:
            set_compile_cache_enabled(True)
            clear_compile_cache()
        assert baseline == shuffled
