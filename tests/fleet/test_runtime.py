"""Tests for the execution-runtime layer (serial vs process).

The central contract: the runtime decides *where* epoch scoring
executes, never *what* it computes — same seed => byte-identical
reports at any runtime/worker count, on both engines, on heterogeneous
fleets, under pod topologies. Serial is the oracle arm; the process
runtime's inline-fallback threshold is size-only (deterministic), so
small batches exercise the same pure functions either way.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.fleet.churn import ChurnProcess
from repro.fleet.engine import EventEngine, FleetEngine
from repro.fleet.events import EventConfig
from repro.fleet.policies import PlacementModel
from repro.fleet.runtime import (
    RUNTIME_NAMES,
    ProcessRuntime,
    SerialRuntime,
    _chunk,
    make_runtime,
)
from repro.fleet.topology import Topology
from repro.profiling.collector import ProfilingCollector

PLAIN_POOL = ("flowstats", "nat", "acl")
EPOCHS = 5


def _churn(rate=2.5):
    return ChurnProcess(
        nf_names=PLAIN_POOL,
        seed=77,
        arrival_rate=rate,
        mean_lifetime=8.0,
        initial_services=5,
    )


@pytest.fixture(scope="module")
def plain_model(noisy_nic):
    return PlacementModel(collector=ProfilingCollector(noisy_nic), nic=noisy_nic)


class TestMakeRuntime:
    def test_none_is_serial(self):
        assert isinstance(make_runtime(None), SerialRuntime)

    def test_names_resolve(self):
        assert isinstance(make_runtime("serial"), SerialRuntime)
        runtime = make_runtime("process", jobs=3)
        assert isinstance(runtime, ProcessRuntime)
        assert runtime.jobs == 3

    def test_instance_passes_through(self):
        runtime = SerialRuntime()
        assert make_runtime(runtime) is runtime

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_runtime("threads")

    def test_names_constant(self):
        assert RUNTIME_NAMES == ("serial", "process")


class TestProcessRuntimeConstruction:
    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            ProcessRuntime(jobs=0)
        with pytest.raises(ConfigurationError):
            ProcessRuntime(jobs=2, min_parallel_items=0)

    def test_context_manager_closes(self, plain_model):
        with ProcessRuntime(jobs=2) as runtime:
            report = FleetEngine(
                "greedy", _churn(), plain_model, runtime=runtime
            ).run(2)
        assert report.metrics  # ran; pool (if any) is closed on exit


class TestChunk:
    def test_contiguous_cover_near_equal(self):
        items = list(range(10))
        chunks = _chunk(items, 4)
        assert [len(c) for c in chunks] == [3, 3, 2, 2]
        assert [x for chunk in chunks for x in chunk] == items

    def test_more_parts_than_items(self):
        assert _chunk([1, 2], 8) == [[1], [2]]

    def test_deterministic(self):
        assert _chunk(list(range(7)), 3) == _chunk(list(range(7)), 3)


class TestByteIdentity:
    """Same seed => byte-identical reports at any runtime/jobs."""

    @pytest.fixture(scope="class")
    def serial_report(self, plain_model):
        return FleetEngine(
            "greedy", _churn(), plain_model, topology=Topology(pods=2)
        ).run(EPOCHS)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_epoch_engine(self, plain_model, serial_report, jobs):
        # min_parallel_items=1 forces the pool path even on this small
        # fleet, so worker-side solving is what's being compared.
        runtime = ProcessRuntime(jobs=jobs, min_parallel_items=1)
        try:
            report = FleetEngine(
                "greedy",
                _churn(),
                plain_model,
                runtime=runtime,
                topology=Topology(pods=2),
            ).run(EPOCHS)
        finally:
            runtime.close()
        assert report.to_json() == serial_report.to_json()

    def test_inline_fallback_identical(self, plain_model, serial_report):
        # Default threshold: this small fleet solves inline — still the
        # same bytes (the fallback is size-only, numerically inert).
        runtime = ProcessRuntime(jobs=2)
        try:
            report = FleetEngine(
                "greedy",
                _churn(),
                plain_model,
                runtime=runtime,
                topology=Topology(pods=2),
            ).run(EPOCHS)
        finally:
            runtime.close()
        assert report.to_json() == serial_report.to_json()

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_event_engine(self, plain_model, jobs):
        def build(runtime):
            return EventEngine(
                "greedy",
                _churn(),
                plain_model,
                config=EventConfig(migration_duration=0.25),
                runtime=runtime,
                topology=Topology(pod_size=2),
            ).run(4)

        serial = build(SerialRuntime())
        runtime = ProcessRuntime(jobs=jobs, min_parallel_items=1)
        try:
            process = build(runtime)
        finally:
            runtime.close()
        assert process.to_json() == serial.to_json()

    def test_hetero_fleet(self, plain_model):
        # Heterogeneous pools route per-target batches through the
        # runtime; byte-identity must survive the extra dimension.
        from repro.fleet.cluster import NicProvisioner
        from repro.nic.nic import SmartNic
        from repro.nic.spec import get_spec, target_seed

        mix = {"bluefield2": 0.6, "pensando": 0.4}
        provisioner = NicProvisioner(mix, seed=5)
        nics = {
            name: SmartNic(get_spec(name), seed=target_seed(11, name))
            for name in mix
        }
        model = PlacementModel(
            collector=ProfilingCollector(nics["bluefield2"]),
            nic=nics["bluefield2"],
        )
        model.add_target(
            collector=ProfilingCollector(nics["pensando"]),
            nic=nics["pensando"],
        )

        def build(runtime):
            return FleetEngine(
                "greedy",
                _churn(rate=3.0),
                model,
                provisioner=provisioner,
                runtime=runtime,
                topology=Topology(pods=3),
            ).run(EPOCHS)

        serial = build(SerialRuntime())
        runtime = ProcessRuntime(jobs=2, min_parallel_items=1)
        try:
            process = build(runtime)
        finally:
            runtime.close()
        assert process.to_json() == serial.to_json()

    def test_report_never_names_the_runtime(self, plain_model, serial_report):
        # Where scoring ran must not leak into the report, or the
        # byte-identity contract could not hold.
        payload = json.loads(serial_report.to_json())
        assert "runtime" not in payload
        assert "jobs" not in payload
