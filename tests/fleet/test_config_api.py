"""Tests for the fleet front door: FleetConfig + simulate().

One validated object holds every knob; ``simulate(config)`` reproduces
the ``python -m repro.fleet`` CLI byte-identically; the JSON report
carries a pinned ``schema_version`` and a stable field-name structure
(the golden test pins *names*, never float values — the schema is the
contract, the numbers belong to the determinism tests).
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.fleet import __main__ as fleet_cli
from repro.fleet.config import DEFAULT_POOL, FleetConfig, simulate
from repro.fleet.engine import FLEET_REPORT_SCHEMA_VERSION


def _paths(node, prefix=""):
    """Recursive dict-key paths; lists descend into their first item."""
    out = set()
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            out.add(path)
            out |= _paths(value, path)
    elif isinstance(node, list) and node:
        out |= _paths(node[0], prefix + "[]")
    return out


class TestValidation:
    def test_defaults_valid(self):
        config = FleetConfig()
        assert config.policy == "yala"
        assert config.nf_pool == DEFAULT_POOL

    @pytest.mark.parametrize("kwargs", [
        {"policy": "nope"},
        {"engine": "steam"},
        {"score_mode": "vibes"},
        {"runtime": "threads"},
        {"epochs": 0},
        {"jobs": 0},
        {"quota": 0},
        {"nf_pool": ()},
        {"nic_mix": "bluefield2=0"},
        {"pods": 2, "pod_size": 4},
        {"migration_duration": -1.0},
        {"nic_fail_rate": -0.1},
        {"nic_fail_rate": 0.8, "nic_degrade_rate": 0.5},
        {"pod_outage_rate": 0.5},  # needs a fixed pod count
        {"mean_time_to_fail": 0.0},
        {"checkpoint_path": "snap.pkl"},  # needs checkpoint_every
        {"checkpoint_every": 2},  # needs checkpoint_path
        {"checkpoint_path": "snap.pkl", "checkpoint_every": 0},
        {"trace_format": "xml"},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            FleetConfig(**kwargs)

    def test_nf_pool_list_normalised_to_tuple(self):
        config = FleetConfig(nf_pool=["flowstats", "nat"])
        assert config.nf_pool == ("flowstats", "nat")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_unsigned_64_bits(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            FleetConfig(seed=seed)


class TestRoundTrip:
    def test_to_dict_from_dict(self):
        config = FleetConfig(
            policy="greedy",
            engine="event",
            epochs=7,
            seed=9,
            nic_mix="bluefield2=0.7,pensando=0.3",
            pods=4,
            runtime="process",
            jobs=2,
            migration_duration=0.5,
            cross_pod_migration_duration=1.5,
            nic_fail_rate=0.1,
            nic_degrade_rate=0.2,
            pod_outage_rate=0.3,
            mean_time_to_fail=5.0,
            mean_repair_time=2.0,
        )
        assert FleetConfig.from_dict(config.to_dict()) == config

    def test_fingerprint_drops_execution_knobs_only(self):
        serial = FleetConfig(policy="greedy", seed=7)
        process = FleetConfig(
            policy="greedy", seed=7, runtime="process", jobs=4,
            checkpoint_path="snap.pkl", checkpoint_every=2,
            trace_out="trace.json", trace_format="chrome",
            metrics_out="metrics.json",
        )
        assert serial.fingerprint() == process.fingerprint()
        other = FleetConfig(policy="greedy", seed=8)
        assert other.fingerprint() != serial.fingerprint()
        faulty = FleetConfig(policy="greedy", seed=7, nic_fail_rate=0.5)
        assert faulty.fingerprint() != serial.fingerprint()

    def test_to_dict_is_json_ready(self):
        payload = FleetConfig().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["nf_pool"] == list(DEFAULT_POOL)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="banana"):
            FleetConfig.from_dict({"banana": 1})


class TestFromCliArgs:
    def _args(self, argv):
        import argparse

        # The CLI parser lives inside main(); emulate its namespace.
        ns = argparse.Namespace(
            policy="greedy",
            engine="epoch",
            epochs=3,
            seed=1,
            score_mode="batch",
            nf_pool="flowstats,nat",
            arrival_rate=2.0,
            mean_lifetime=12.0,
            initial_services=4,
            nic_mix="bluefield2",
            pods=None,
            pod_size=None,
            quota=50,
            runtime="serial",
            jobs=1,
            workers=None,
            quantize_arrivals=False,
            migration_duration=0.0,
            cross_pod_migration_duration=None,
            spinup_latency=0.0,
            probe_period=1.0,
            nic_fail_rate=0.0,
            nic_degrade_rate=0.0,
            pod_outage_rate=0.0,
            mean_time_to_fail=8.0,
            mean_repair_time=3.0,
            checkpoint_every=None,
            checkpoint_path=None,
            resume=None,
            trace_out=None,
            trace_format="jsonl",
            metrics_out=None,
            warm_start=False,
        )
        for key, value in argv.items():
            setattr(ns, key, value)
        return ns

    def test_splits_nf_pool(self):
        config = FleetConfig.from_cli_args(self._args({}))
        assert config.nf_pool == ("flowstats", "nat")

    def test_workers_alias_warns_and_wins(self):
        with pytest.warns(DeprecationWarning, match="--jobs"):
            config = FleetConfig.from_cli_args(self._args({"workers": 3}))
        assert config.jobs == 3

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            fleet_cli.main(["--seed", "-1"])
        assert exit_info.value.code == 2
        assert "error: seed -1 is outside [0, 2**64)" in capsys.readouterr().err


class TestFacadeMatchesCli:
    CLI = [
        "--policy", "greedy",
        "--epochs", "3",
        "--seed", "11",
        "--arrival-rate", "2.0",
        "--nf-pool", "flowstats,nat,acl",
        "--format", "json",
    ]
    CONFIG = FleetConfig(
        policy="greedy",
        epochs=3,
        seed=11,
        arrival_rate=2.0,
        nf_pool=("flowstats", "nat", "acl"),
    )

    def test_byte_identical_stdout(self, capsys):
        assert fleet_cli.main(list(self.CLI)) == 0
        out = capsys.readouterr().out
        assert out == simulate(self.CONFIG).to_json() + "\n"

    def test_process_runtime_same_bytes(self, capsys):
        argv = list(self.CLI) + ["--runtime", "process", "--jobs", "2",
                                 "--pods", "2"]
        assert fleet_cli.main(argv) == 0
        out = capsys.readouterr().out
        config = FleetConfig.from_dict(
            {**self.CONFIG.to_dict(), "runtime": "process", "jobs": 2,
             "pods": 2}
        )
        serial_twin = FleetConfig.from_dict(
            {**config.to_dict(), "runtime": "serial", "jobs": 1}
        )
        payload = json.loads(out)
        assert payload["topology"]["pods"] == 2
        assert out == simulate(serial_twin).to_json() + "\n"


#: The fleet report schema, by field name. Adding a field is a schema
#: bump (update this set, FLEET_REPORT_SCHEMA_VERSION and
#: docs/fleet_report_schema.md together); renaming or removing one
#: breaks downstream consumers and must fail here first.
FLEET_REPORT_PATHS = {
    "epochs",
    "faults",
    "faults.failure_drop_service_seconds",
    "faults.failure_violation_service_seconds",
    "faults.max_time_to_recover",
    "faults.mean_time_to_recover",
    "faults.nic_degradations",
    "faults.nic_failures",
    "faults.nic_restores",
    "faults.pod_outages",
    "faults.pod_restores",
    "faults.replacements",
    "faults.services_evicted",
    "faults.services_lost",
    "faults.services_replaced",
    "metrics",
    "metrics[].aggregate_throughput_mpps",
    "metrics[].arrivals",
    "metrics[].departures",
    "metrics[].epoch",
    "metrics[].migrations",
    "metrics[].nics_used",
    "metrics[].services",
    "metrics[].sla_violations",
    "metrics[].utilisation_pct",
    "metrics[].violation_rate_pct",
    "metrics[].wastage_pct",
    "migrations",
    "nic_mix",
    "nic_mix[].target",
    "nic_mix[].weight",
    "policy",
    "pool_summary",
    "pool_summary.bluefield2",
    "pool_summary.bluefield2.mean_nics",
    "pool_summary.bluefield2.mean_services",
    "pool_summary.bluefield2.mean_utilisation_pct",
    "pool_summary.bluefield2.mean_wastage_pct",
    "pools",
    "pools[].epoch",
    "pools[].nics_used",
    "pools[].services",
    "pools[].target",
    "pools[].utilisation_pct",
    "pools[].wastage_pct",
    "schema_version",
    "score_mode",
    "seed",
    "summary",
    "summary.mean_nics",
    "summary.mean_utilisation_pct",
    "summary.mean_wastage_pct",
    "summary.total_migrations",
    "summary.violation_rate_pct",
    "telemetry",
    "telemetry.residuals",
    "telemetry.scoring",
    "telemetry.scoring.mixes_solved",
    "telemetry.scoring.pod_tasks",
    "telemetry.scoring.pod_tasks[].pod",
    "telemetry.scoring.pod_tasks[].tasks",
    "telemetry.solver",
    "telemetry.solver.iterations_total",
    "telemetry.solver.max_iterations",
    "telemetry.solver.per_epoch",
    "telemetry.solver.per_epoch[].epoch",
    "telemetry.solver.per_epoch[].iterations",
    "telemetry.solver.per_epoch[].scenarios",
    "telemetry.solver.scenarios_solved",
    "telemetry.warm_start",
    "telemetry.warm_start.cold_iterations",
    "telemetry.warm_start.cold_scenarios",
    "telemetry.warm_start.enabled",
    "telemetry.warm_start.hits",
    "telemetry.warm_start.invalidations",
    "telemetry.warm_start.misses",
    "telemetry.warm_start.warm_iterations",
    "telemetry.warm_start.warm_scenarios",
    "topology",
    "topology.pod_size",
    "topology.pods",
    "topology.pods_per_rack",
}

EVENT_REPORT_TOP_PATHS = {
    "config",
    "config.cross_pod_migration_duration",
    "config.migration_duration",
    "config.observe_changes",
    "config.probe_period",
    "config.quantize_arrivals",
    "config.rebalance_period",
    "config.spinup_latency",
    "engine",
    "event_log",
    "fleet",
    "horizon",
    "observations",
    "observations[].aggregate_throughput_mpps",
    "observations[].drop_sum",
    "observations[].kind",
    "observations[].nics_used",
    "observations[].services",
    "observations[].sla_violations",
    "observations[].time",
    "schema_version",
    "summary",
    "summary.drop_service_seconds",
    "summary.event_counts",
    "summary.events_processed",
    "summary.migrations_cancelled",
    "summary.migrations_completed",
    "summary.migrations_started",
    "summary.observations",
    "summary.probes",
    "summary.violation_service_seconds",
    "timed_migrations",
}


class TestReportSchema:
    @pytest.fixture(scope="class")
    def fleet_payload(self):
        report = simulate(
            FleetConfig(policy="greedy", epochs=3, arrival_rate=2.0)
        )
        return json.loads(report.to_json())

    @pytest.fixture(scope="class")
    def event_payload(self):
        report = simulate(
            FleetConfig(policy="greedy", engine="event", epochs=3,
                        arrival_rate=2.0)
        )
        return json.loads(report.to_json())

    def test_schema_version_pinned(self, fleet_payload, event_payload):
        assert FLEET_REPORT_SCHEMA_VERSION == 5
        assert fleet_payload["schema_version"] == 5
        assert event_payload["schema_version"] == 5
        assert event_payload["fleet"]["schema_version"] == 5

    def test_fleet_report_golden_structure(self, fleet_payload):
        assert _paths(fleet_payload) == FLEET_REPORT_PATHS

    def test_event_report_golden_structure(self, event_payload):
        got = {
            p for p in _paths(event_payload)
            if not p.startswith(("fleet.", "summary.event_counts."))
        }
        assert got == EVENT_REPORT_TOP_PATHS
        # The embedded fleet report is the same schema, reprefixed.
        embedded = _paths(event_payload["fleet"])
        assert embedded == FLEET_REPORT_PATHS

    def test_json_is_sorted_and_stable(self, fleet_payload):
        # sort_keys is part of the byte-identity contract.
        text = json.dumps(fleet_payload, sort_keys=True, indent=2)
        assert json.loads(text) == fleet_payload
