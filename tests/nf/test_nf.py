"""Unit tests for the NF framework, elements, catalog and benches."""

import pytest

from repro.errors import ConfigurationError
from repro.nf.catalog import (
    EVALUATION_NF_NAMES,
    NF_CATALOG,
    all_nf_names,
    make_nf,
    shared_nf,
    traffic_sensitive_nf_names,
)
from repro.nf.elements import (
    CompressStage,
    FixedTable,
    HashTable,
    HeaderParse,
    PacketCopy,
    PacketIo,
    RegexScan,
)
from repro.nf.framework import NetworkFunction
from repro.nf.synthetic import (
    compression_bench,
    mem_bench,
    nf1,
    nf2,
    pipeline_probe_nf,
    regex_bench,
    regex_nf,
    rtc_probe_nf,
)
from repro.nic.workload import ExecutionPattern, Resource
from repro.traffic.profile import TrafficProfile

TRAFFIC = TrafficProfile()


class TestElements:
    def test_packet_io_is_cpu(self):
        demand = PacketIo(cycles=500.0).demand(TRAFFIC)
        assert demand.resource is Resource.CPU
        assert demand.cycles_pp == 500.0

    def test_hash_table_wss_grows_with_flows(self):
        table = HashTable("t", entry_bytes=64.0, reads_pp=4.0, writes_pp=1.0)
        small = table.demand(TrafficProfile(1_000, 1500, 0.0))
        large = table.demand(TrafficProfile(100_000, 1500, 0.0))
        assert large.wss_bytes - small.wss_bytes == pytest.approx(64.0 * 99_000)

    def test_fixed_table_wss_constant(self):
        table = FixedTable("t", wss_bytes=1024.0, reads_pp=2.0)
        a = table.demand(TrafficProfile(1_000, 1500, 0.0))
        b = table.demand(TrafficProfile(500_000, 1500, 0.0))
        assert a.wss_bytes == b.wss_bytes == 1024.0

    def test_packet_copy_scales_with_packet_size(self):
        copy = PacketCopy("c", bytes_fraction=1.0)
        small = copy.demand(TrafficProfile(100, 64, 0.0))
        large = copy.demand(TrafficProfile(100, 1500, 0.0))
        assert large.reads_pp > small.reads_pp

    def test_regex_scan_matches_follow_mtbr(self):
        scan = RegexScan(payload_fraction=1.0)
        demand = scan.demand(TrafficProfile(100, 1054, 1000.0))
        assert demand.matches_per_request == pytest.approx(1.0)
        assert demand.accelerator == "regex"

    def test_regex_scan_partial_payload(self):
        scan = RegexScan(payload_fraction=0.5)
        demand = scan.demand(TrafficProfile(100, 1054, 1000.0))
        assert demand.bytes_per_request == pytest.approx(500.0)

    def test_compress_stage_targets_compression(self):
        demand = CompressStage().demand(TRAFFIC)
        assert demand.accelerator == "compression"

    def test_header_parse_per_byte_cycles(self):
        parse = HeaderParse(cycles=100.0, cycles_per_byte=1.0)
        demand = parse.demand(TrafficProfile(100, 200, 0.0))
        assert demand.cycles_pp == pytest.approx(300.0)

    def test_invalid_element_parameters(self):
        with pytest.raises(ConfigurationError):
            PacketIo(cycles=0.0)
        with pytest.raises(ConfigurationError):
            RegexScan(payload_fraction=0.0)
        with pytest.raises(ConfigurationError):
            HashTable("t", entry_bytes=0.0, reads_pp=1.0, writes_pp=0.0)


class TestNetworkFunction:
    def test_adjacent_same_resource_stages_merged(self):
        nf = make_nf("flowstats")
        stages = nf.stages(TRAFFIC)
        # io + parse merge into one CPU stage, table stays MEMORY.
        assert [s.resource for s in stages] == [Resource.CPU, Resource.MEMORY]

    def test_nids_merges_two_memory_elements(self):
        stages = make_nf("nids").stages(TRAFFIC)
        resources = [s.resource for s in stages]
        assert resources == [Resource.CPU, Resource.MEMORY, Resource.ACCELERATOR]

    def test_demand_uses_instance_name(self):
        demand = make_nf("acl").demand(TRAFFIC, instance="acl-7")
        assert demand.name == "acl-7"

    def test_demand_packet_size_from_profile(self):
        demand = make_nf("acl").demand(TrafficProfile(100, 256, 0.0))
        assert demand.packet_size_bytes == 256.0

    def test_uses_accelerators(self):
        assert make_nf("flowmonitor").uses_accelerators() == ["regex"]
        assert make_nf("ipcomp").uses_accelerators() == ["regex", "compression"]
        assert make_nf("acl").uses_accelerators() == []

    def test_with_pattern_copy(self):
        nf = make_nf("flowstats").with_pattern(ExecutionPattern.PIPELINE)
        assert nf.pattern is ExecutionPattern.PIPELINE
        assert make_nf("flowstats").pattern is ExecutionPattern.RUN_TO_COMPLETION

    def test_with_cores_copy(self):
        assert make_nf("acl").with_cores(4).cores == 4

    def test_rejects_unknown_framework(self):
        with pytest.raises(ConfigurationError):
            NetworkFunction(
                name="x", framework="ebpf",
                pattern=ExecutionPattern.PIPELINE,
                elements=(PacketIo(),),
            )

    def test_rejects_empty_elements(self):
        with pytest.raises(ConfigurationError):
            NetworkFunction(
                name="x", framework="click",
                pattern=ExecutionPattern.PIPELINE, elements=(),
            )


class TestCatalog:
    def test_table1_nf_set_present(self):
        expected = {
            "flowstats", "iprouter", "iptunnel", "nat", "flowmonitor",
            "nids", "ipcomp", "acl", "flowclassifier", "flowtracker",
            "packetfilter", "firewall",
        }
        assert set(NF_CATALOG) == expected

    def test_catalog_accelerator_metadata_matches_elements(self):
        for descriptor in NF_CATALOG.values():
            nf = descriptor.build()
            assert tuple(nf.uses_accelerators()) == descriptor.accelerators

    def test_evaluation_set_is_nine_nfs(self):
        assert len(EVALUATION_NF_NAMES) == 9
        assert "firewall" not in EVALUATION_NF_NAMES
        assert "packetfilter" not in EVALUATION_NF_NAMES

    def test_make_nf_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_nf("loadbalancer")

    def test_all_nf_names_excludes_firewall_by_default(self):
        assert "firewall" not in all_nf_names()
        assert "firewall" in all_nf_names(include_pensando=True)

    def test_traffic_sensitive_names(self):
        names = traffic_sensitive_nf_names()
        assert "flowstats" in names and "acl" not in names

    def test_frameworks_match_table1(self):
        assert NF_CATALOG["acl"].framework == "dpdk"
        assert NF_CATALOG["flowtracker"].framework == "doca"
        assert NF_CATALOG["flowmonitor"].framework == "click"

    def test_builders_produce_fresh_instances(self):
        assert make_nf("nat") is not make_nf("nat")

    def test_shared_nf_is_built_once(self):
        assert shared_nf("nat") is shared_nf("nat")
        traffic = TrafficProfile()
        assert shared_nf("nat").demand(traffic) == make_nf("nat").demand(traffic)


class TestSyntheticBenches:
    def test_mem_bench_is_open_loop_with_target_car(self):
        bench = mem_bench(128.0, wss_mb=8.0)
        refs_pp = sum(s.reads_pp + s.writes_pp for s in bench.stages)
        assert bench.arrival_rate_mpps * refs_pp == pytest.approx(128.0)
        assert bench.total_wss_bytes() == 8.0 * 1024 * 1024

    def test_mem_bench_no_reuse_locality(self):
        assert mem_bench(50.0).hot_access_fraction == 0.0

    def test_regex_bench_closed_loop_mode(self):
        assert regex_bench(None).is_closed_loop
        assert not regex_bench(1.0).is_closed_loop

    def test_regex_bench_matches_config(self):
        bench = regex_bench(1.0, mtbr=500.0, payload_bytes=1000.0)
        stage = bench.accelerator_stages()[0]
        assert stage.matches_per_request == pytest.approx(0.5)

    def test_compression_bench_uses_compression(self):
        bench = compression_bench(1.0, payload_bytes=2048.0)
        assert bench.uses_accelerator("compression")

    def test_regex_nf_fixed_request_size(self):
        nf = regex_nf(mtbr=194.0, payload_bytes=32.0)
        stage = nf.demand(TrafficProfile(1_000, 86, 194.0)).accelerator_stages()[0]
        assert stage.bytes_per_request == 32.0

    def test_nf1_nf2_patterns(self):
        assert nf1(ExecutionPattern.PIPELINE).pattern is ExecutionPattern.PIPELINE
        assert nf2().uses_accelerators() == ["regex", "compression"]
        assert nf1().uses_accelerators() == ["regex"]

    def test_probe_nfs_have_expected_patterns(self):
        assert pipeline_probe_nf().pattern is ExecutionPattern.PIPELINE
        assert rtc_probe_nf().pattern is ExecutionPattern.RUN_TO_COMPLETION

    def test_bench_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            mem_bench(-1.0)
        with pytest.raises(ConfigurationError):
            regex_bench(-0.5)
