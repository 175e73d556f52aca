"""Integration tests for the SmartNIC co-location runtime."""

import pytest

from repro.errors import ConfigurationError, PlacementError, SimulationError
from repro.nf.catalog import make_nf
from repro.nf.synthetic import mem_bench, regex_bench, regex_nf
from repro.nic.counters import COUNTER_NAMES, PerfCounters
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec
from repro.traffic.profile import TrafficProfile

TRAFFIC = TrafficProfile()
SMALL = TrafficProfile(1_000, 86, 194.0)


@pytest.fixture(scope="module")
def nic() -> SmartNic:
    return SmartNic(bluefield2_spec(), seed=11, noise_std=0.0)


class TestRunBasics:
    def test_solo_run_reports_positive_throughput(self, nic):
        result = nic.run_solo(make_nf("flowstats").demand(TRAFFIC))
        assert result.throughput_mpps > 0.1

    def test_solo_throughputs_in_plausible_range(self, nic):
        """All catalog NFs land between 0.3 and 4 Mpps solo (paper-like)."""
        from repro.nf.catalog import NF_CATALOG

        for name in NF_CATALOG:
            if name == "firewall":
                continue
            result = nic.run_solo(make_nf(name).demand(TRAFFIC))
            assert 0.3 < result.throughput_mpps < 4.0, name

    def test_rejects_empty_run(self, nic):
        with pytest.raises(SimulationError):
            nic.run([])

    def test_rejects_duplicate_names(self, nic):
        demand = make_nf("acl").demand(TRAFFIC)
        with pytest.raises(SimulationError):
            nic.run([demand, demand])

    def test_rejects_core_oversubscription(self, nic):
        demands = [
            make_nf("acl").demand(TRAFFIC, instance=f"acl{i}") for i in range(5)
        ]
        with pytest.raises(PlacementError):
            nic.run(demands)

    def test_line_rate_caps_throughput(self, nic):
        result = nic.run_solo(make_nf("acl").demand(TRAFFIC))
        assert result.throughput_mpps <= nic.spec.line_rate_mpps(1500) * 1.001

    def test_open_loop_arrival_respected(self, nic):
        demand = make_nf("acl").demand(TRAFFIC, arrival_rate_mpps=0.5)
        assert nic.run_solo(demand).throughput_mpps == pytest.approx(0.5, rel=0.01)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_unsigned_64_bits(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            SmartNic(bluefield2_spec(), seed=seed)

    def test_deterministic_without_noise(self, nic):
        demand = make_nf("nat").demand(TRAFFIC)
        a = nic.run_solo(demand).throughput_mpps
        b = nic.run_solo(demand).throughput_mpps
        assert a == b


class TestContention:
    def test_memory_contention_reduces_throughput(self, nic):
        nf = make_nf("flowstats")
        solo = nic.run_solo(nf.demand(TRAFFIC)).throughput_mpps
        co = nic.run([nf.demand(TRAFFIC), mem_bench(220.0, wss_mb=10.0)])
        assert co.throughput_of("flowstats") < solo

    def test_memory_contention_monotone_in_car(self, nic):
        nf = make_nf("flowstats")
        rates = [
            nic.run([nf.demand(TRAFFIC), mem_bench(car, wss_mb=10.0)]).throughput_of(
                "flowstats"
            )
            for car in (50.0, 150.0, 250.0)
        ]
        assert rates[0] >= rates[1] >= rates[2]

    def test_regex_contention_hits_regex_nf_only(self, nic):
        nids = make_nf("nids")
        acl = make_nf("acl")
        bench = regex_bench(1.5, mtbr=900.0)
        solo_nids = nic.run_solo(nids.demand(TRAFFIC)).throughput_mpps
        solo_acl = nic.run_solo(acl.demand(TRAFFIC)).throughput_mpps
        co = nic.run([nids.demand(TRAFFIC), acl.demand(TRAFFIC), bench])
        assert co.throughput_of("nids") < 0.9 * solo_nids
        assert co.throughput_of("acl") > 0.95 * solo_acl

    def test_regex_equilibrium_equal_rates(self, nic):
        """Fig. 4's equilibrium: both saturated clients settle equal."""
        nf = regex_nf(mtbr=194.0)
        result = nic.run([nf.demand(SMALL), regex_bench(40.0, mtbr=417.0, payload_bytes=32.0)])
        assert result.throughput_of("regex-nf") == pytest.approx(
            result.throughput_of("regex-bench"), rel=0.01
        )

    def test_regex_linear_decline_before_equilibrium(self, nic):
        nf = regex_nf(mtbr=194.0)
        rates = []
        for bench_rate in (2.0, 6.0, 10.0):
            result = nic.run(
                [nf.demand(SMALL), regex_bench(bench_rate, mtbr=417.0, payload_bytes=32.0)]
            )
            rates.append(result.throughput_of("regex-nf"))
        drop1, drop2 = rates[0] - rates[1], rates[1] - rates[2]
        assert drop1 == pytest.approx(drop2, rel=0.1)

    def test_colocated_nfs_all_report(self, nic):
        names = ["flowmonitor", "nids", "flowstats", "nat"]
        demands = [make_nf(n).demand(TRAFFIC) for n in names]
        result = nic.run(demands)
        assert set(result.workloads) == set(names)


class TestCounters:
    def test_counter_vector_order(self, nic):
        counters = nic.run_solo(make_nf("flowstats").demand(TRAFFIC)).counters
        vector = counters.as_vector()
        assert vector.shape == (len(COUNTER_NAMES),)
        assert counters.wss == vector[-1]

    def test_car_scales_with_throughput(self, nic):
        nf = make_nf("flowstats")
        solo = nic.run_solo(nf.demand(TRAFFIC))
        contended = nic.run([nf.demand(TRAFFIC), mem_bench(250.0)])
        c = contended["flowstats"]
        assert c.counters.cache_access_rate < solo.counters.cache_access_rate

    def test_wss_reflects_flow_count(self, nic):
        nf = make_nf("flowstats")
        small = nic.run_solo(nf.demand(TrafficProfile(1_000, 1500, 600.0)))
        large = nic.run_solo(nf.demand(TrafficProfile(100_000, 1500, 600.0)))
        assert large.counters.wss > small.counters.wss

    def test_memrd_rises_under_cache_pressure(self, nic):
        nf = make_nf("flowstats")
        solo = nic.run_solo(nf.demand(TRAFFIC))
        contended = nic.run([nf.demand(TRAFFIC), mem_bench(250.0, wss_mb=12.0)])
        assert contended["flowstats"].counters.memrd > solo.counters.memrd

    def test_aggregate_adds_elementwise(self):
        a = PerfCounters(ipc=1.0, irt=2.0, l2crd=3.0)
        b = PerfCounters(ipc=0.5, irt=1.0, l2crd=1.0)
        total = PerfCounters.aggregate([a, b])
        assert total.ipc == 1.5 and total.irt == 3.0 and total.l2crd == 4.0


class TestNoiseAndBottleneck:
    def test_noise_is_deterministic_per_config(self):
        nic = SmartNic(bluefield2_spec(), seed=5)
        demand = make_nf("nat").demand(TRAFFIC)
        assert (
            nic.run_solo(demand).throughput_mpps
            == nic.run_solo(demand).throughput_mpps
        )

    def test_noise_differs_across_configs(self):
        nic = SmartNic(bluefield2_spec(), seed=5)
        a = nic.run_solo(make_nf("nat").demand(TrafficProfile(8_000, 1500, 600.0)))
        b = nic.run_solo(make_nf("nat").demand(TrafficProfile(9_000, 1500, 600.0)))
        ratio_a = a.throughput_mpps / a.true_throughput_mpps
        ratio_b = b.throughput_mpps / b.true_throughput_mpps
        assert ratio_a != ratio_b

    def test_noise_small(self):
        nic = SmartNic(bluefield2_spec(), seed=5)
        result = nic.run_solo(make_nf("nat").demand(TRAFFIC))
        assert abs(result.throughput_mpps / result.true_throughput_mpps - 1) < 0.05

    def test_bottleneck_reported(self, nic):
        result = nic.run_solo(make_nf("nids").demand(TRAFFIC))
        assert result.bottleneck in ("cpu", "memory", "regex", "compression")

    def test_regex_bound_nf_reports_regex(self, nic):
        result = nic.run(
            [
                make_nf("nids").demand(TRAFFIC),
                regex_bench(2.0, mtbr=1000.0),
            ]
        )
        assert result["nids"].bottleneck == "regex"

    def test_stage_reports_cover_all_stages(self, nic):
        nf = make_nf("flowmonitor")
        result = nic.run_solo(nf.demand(TRAFFIC))
        assert len(result.stages) == len(nf.stages(TRAFFIC))
