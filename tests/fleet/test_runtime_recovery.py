"""Tests for the crash-surviving ProcessRuntime.

The recovery contract: worker deaths (and hangs, and broken pools) may
cost wall-clock, never bytes. :class:`FaultInjectingRuntime` SIGKILLs
its own workers on a seeded schedule and the resulting report must be
byte-identical to :class:`SerialRuntime`'s — the retry + pool-rebuild
+ deterministic-serial-re-execution path is exercised for real, not
mocked. Lifecycle: engines own their runtime teardown on error, and
``close()`` is idempotent everywhere.
"""

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    FaultInjectingRuntime,
    FleetConfig,
    FleetEngine,
    ProcessRuntime,
    SerialRuntime,
    build_model,
    simulate,
)

BASE = dict(
    policy="greedy", epochs=5, quota=40, initial_services=24,
    arrival_rate=6.0, pods=4, nic_fail_rate=0.3, mean_time_to_fail=2.0,
)


@pytest.fixture(scope="module")
def model():
    config = FleetConfig(**BASE)
    return build_model(
        config.policy, config.nf_pool, config.seed, config.quota, 1
    )


@pytest.fixture(scope="module")
def serial_report(model):
    return simulate(FleetConfig(**BASE), model=model).to_json()


def _engine(config, model, runtime):
    return FleetEngine(
        config.policy,
        config.churn(),
        model,
        score_mode=config.score_mode,
        provisioner=config.provisioner(),
        runtime=runtime,
        topology=config.topology(),
        faults=config.fault_schedule(),
    )


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"task_timeout": 0.0},
        {"task_timeout": -1.0},
        {"max_retries": -1},
        {"retry_backoff": -0.1},
    ])
    def test_process_runtime_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProcessRuntime(jobs=2, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"kill_every": 0},
        {"max_kills": -1},
    ])
    def test_injector_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultInjectingRuntime(jobs=2, **kwargs)


class TestLifecycle:
    def test_close_idempotent(self):
        for runtime in (SerialRuntime(), ProcessRuntime(jobs=2)):
            runtime.close()
            runtime.close()  # second close is a no-op, never an error

    def test_abort_then_close(self):
        runtime = ProcessRuntime(jobs=2)
        runtime._abort_pool()  # nothing to abort: still fine
        runtime.close()

    def test_engine_closes_runtime_on_error(self, model):
        class ExplodingRuntime(SerialRuntime):
            def __init__(self):
                super().__init__()
                self.closed = 0

            def score_pods(self, tasks, score_mode):
                raise RuntimeError("boom")

            def close(self):
                self.closed += 1
                super().close()

        runtime = ExplodingRuntime()
        engine = _engine(FleetConfig(**BASE), model, runtime)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(2)
        assert runtime.closed >= 1

    def test_engine_keeps_pool_warm_on_success(self, model):
        # Success must NOT tear the pool down mid-session — the next
        # run reuses the warm workers (simulate()'s finally owns the
        # final close).
        runtime = ProcessRuntime(jobs=2, min_parallel_items=4)
        try:
            engine = _engine(FleetConfig(**BASE), model, runtime)
            engine.run(2)
            assert runtime._pool is not None
        finally:
            runtime.close()
        assert runtime._pool is None


class TestKilledWorkersCostTimeNeverBytes:
    def test_injected_kills_reproduce_serial_bytes(
        self, model, serial_report
    ):
        runtime = FaultInjectingRuntime(
            jobs=4, kill_every=2, kill_seed=7, min_parallel_items=4,
            task_timeout=120.0, retry_backoff=0.01,
        )
        try:
            engine = _engine(FleetConfig(**BASE), model, runtime)
            report = engine.run(FleetConfig(**BASE).epochs)
        finally:
            runtime.close()
        assert runtime.kills > 0, "no worker was ever killed"
        assert runtime.recoveries > 0, "recovery path never exercised"
        assert report.to_json() == serial_report

    def test_kill_schedule_is_seeded(self, model):
        # Same kill_seed twice: identical kill/recovery counts — the
        # victim choice is pure in (kill_seed, batch), never in pids.
        counts = []
        for _ in range(2):
            runtime = FaultInjectingRuntime(
                jobs=2, kill_every=3, kill_seed=11,
                min_parallel_items=4, task_timeout=120.0,
                retry_backoff=0.01, max_kills=2,
            )
            try:
                engine = _engine(FleetConfig(**BASE), model, runtime)
                engine.run(3)
            finally:
                runtime.close()
            counts.append(runtime.kills)
        assert counts[0] == counts[1]
        assert counts[0] > 0

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_healthy_process_runtime_matches_serial(
        self, model, serial_report, jobs
    ):
        runtime = ProcessRuntime(jobs=jobs, min_parallel_items=4)
        try:
            engine = _engine(FleetConfig(**BASE), model, runtime)
            report = engine.run(FleetConfig(**BASE).epochs)
        finally:
            runtime.close()
        assert runtime.recoveries == 0
        assert report.to_json() == serial_report


class TestSerialFallback:
    def test_zero_retries_still_byte_identical(self, model, serial_report):
        # max_retries=0 forces the deterministic serial re-execution
        # path as soon as the first kill lands.
        runtime = FaultInjectingRuntime(
            jobs=2, kill_every=1, kill_seed=3, min_parallel_items=4,
            task_timeout=120.0, max_retries=0, retry_backoff=0.0,
        )
        try:
            engine = _engine(FleetConfig(**BASE), model, runtime)
            report = engine.run(FleetConfig(**BASE).epochs)
        finally:
            runtime.close()
        assert runtime.kills > 0
        assert report.to_json() == serial_report
