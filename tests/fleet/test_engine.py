"""Tests for the fleet epoch engine.

Covers the ISSUE's fleet contract: same seed => bit-identical
trajectory; batched epoch scoring == looped reference twin; policy
sanity (monopolization never violates SLAs, yala wastage <=
monopolization wastage).
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.fleet.checkpoint import Checkpointer, load_checkpoint
from repro.fleet.churn import ChurnProcess
from repro.fleet.engine import EventEngine, FleetEngine
from repro.fleet.events import EventConfig
from repro.fleet.faults import FaultConfig, FaultSchedule
from repro.fleet.policies import PlacementModel
from repro.profiling.collector import ProfilingCollector

PLAIN_POOL = ("flowstats", "nat", "acl")
TRAINED_POOL = ("flowmonitor", "flowstats", "nids")
EPOCHS = 5


def _churn(pool, rate=2.0):
    return ChurnProcess(
        nf_names=pool,
        seed=77,
        arrival_rate=rate,
        mean_lifetime=8.0,
        initial_services=4,
    )


@pytest.fixture(scope="module")
def plain_model(noisy_nic):
    return PlacementModel(collector=ProfilingCollector(noisy_nic), nic=noisy_nic)


@pytest.fixture(scope="module")
def trained_model(small_system):
    return PlacementModel(yala=small_system)


def _strip_mode(report):
    payload = json.loads(report.to_json())
    payload.pop("score_mode")
    return payload


class TestDeterminism:
    def test_same_seed_bit_identical_trajectory(self, plain_model):
        a = FleetEngine("greedy", _churn(PLAIN_POOL), plain_model).run(EPOCHS)
        b = FleetEngine("greedy", _churn(PLAIN_POOL), plain_model).run(EPOCHS)
        assert a.to_json() == b.to_json()
        assert a.metrics == b.metrics
        assert a.migrations == b.migrations

    def test_engine_rerun_identical(self, plain_model):
        engine = FleetEngine("greedy", _churn(PLAIN_POOL), plain_model)
        assert engine.run(EPOCHS).to_json() == engine.run(EPOCHS).to_json()

    def test_different_churn_seed_differs(self, plain_model):
        a = FleetEngine("greedy", _churn(PLAIN_POOL), plain_model).run(EPOCHS)
        other = ChurnProcess(nf_names=PLAIN_POOL, seed=78, arrival_rate=2.0)
        b = FleetEngine("greedy", other, plain_model).run(EPOCHS)
        assert a.to_json() != b.to_json()


class TestBatchLoopEquivalence:
    @pytest.mark.parametrize("policy", ["greedy", "monopolization"])
    def test_batch_matches_looped_reference(self, plain_model, policy):
        batched = FleetEngine(
            policy, _churn(PLAIN_POOL), plain_model, score_mode="batch"
        ).run(EPOCHS)
        looped = FleetEngine(
            policy, _churn(PLAIN_POOL), plain_model, score_mode="loop"
        ).run(EPOCHS)
        assert batched.metrics == looped.metrics
        assert batched.migrations == looped.migrations
        assert _strip_mode(batched) == _strip_mode(looped)

    def test_batch_matches_loop_with_yala_policy(self, trained_model):
        batched = FleetEngine(
            "yala", _churn(TRAINED_POOL), trained_model, score_mode="batch"
        ).run(4)
        looped = FleetEngine(
            "yala", _churn(TRAINED_POOL), trained_model, score_mode="loop"
        ).run(4)
        assert _strip_mode(batched) == _strip_mode(looped)


class TestPolicySanity:
    def test_monopolization_never_violates(self, plain_model):
        report = FleetEngine(
            "monopolization", _churn(PLAIN_POOL), plain_model
        ).run(EPOCHS)
        assert all(m.sla_violations == 0 for m in report.metrics)
        assert report.violation_rate_pct == 0.0
        # One service per NIC throughout.
        assert all(m.nics_used == m.services for m in report.metrics)

    def test_yala_wastage_not_above_monopolization(self, trained_model):
        churn = _churn(TRAINED_POOL)
        mono = FleetEngine("monopolization", churn, trained_model).run(EPOCHS)
        yala = FleetEngine("yala", churn, trained_model).run(EPOCHS)
        assert yala.mean_wastage_pct <= mono.mean_wastage_pct
        assert yala.mean_nics <= mono.mean_nics

    def test_rebalance_migrations_logged_consistently(self, trained_model):
        report = FleetEngine("rebalance", _churn(TRAINED_POOL), trained_model).run(
            EPOCHS
        )
        assert len(report.migrations) == report.total_migrations
        for record in report.migrations:
            assert record.reason == "sla-violation"
            assert 0 <= record.epoch < EPOCHS


class TestResumeToAnotherHorizon:
    """A snapshot resumes into a shorter or longer run, byte-identical
    to the uninterrupted run of that length."""

    @staticmethod
    def _engines(plain_model):
        faults = FaultSchedule(
            FaultConfig(nic_fail_rate=0.3, nic_degrade_rate=0.3,
                        mean_time_to_fail=2.0),
            seed=5,
        )
        return [
            lambda: FleetEngine("greedy", _churn(PLAIN_POOL), plain_model),
            lambda: EventEngine(
                "greedy", _churn(PLAIN_POOL), plain_model,
                config=EventConfig(migration_duration=0.5),
                faults=faults,
            ),
        ]

    @pytest.mark.parametrize("arm", [0, 1])
    def test_resumed_run_matches_uninterrupted(self, plain_model, tmp_path,
                                               arm):
        build = self._engines(plain_model)[arm]
        path = str(tmp_path / "snap.pkl")
        # every=2 over 5 epochs leaves the step-4 snapshot (t = 3).
        build().run(EPOCHS, checkpoint=Checkpointer(path, 2, {}))
        for horizon in (EPOCHS - 1, EPOCHS + 3):
            _, state = load_checkpoint(path)
            resumed = build().run(horizon, resume=state)
            assert resumed.to_json() == build().run(horizon).to_json()

    def test_snapshot_at_or_past_the_horizon_refused(self, plain_model,
                                                     tmp_path):
        path = str(tmp_path / "snap.pkl")
        FleetEngine("greedy", _churn(PLAIN_POOL), plain_model).run(
            3, checkpoint=Checkpointer(path, 3, {})
        )
        _, state = load_checkpoint(path)
        with pytest.raises(ConfigurationError, match="t=2"):
            FleetEngine("greedy", _churn(PLAIN_POOL), plain_model).run(
                2, resume=state
            )

    def test_other_event_config_refused(self, plain_model, tmp_path):
        path = str(tmp_path / "snap.pkl")
        FleetEngine("greedy", _churn(PLAIN_POOL), plain_model).run(
            2, checkpoint=Checkpointer(path, 1, {})
        )
        _, state = load_checkpoint(path)
        with pytest.raises(ConfigurationError, match="EventConfig"):
            EventEngine("greedy", _churn(PLAIN_POOL), plain_model).run(
                3, resume=state
            )


class TestReportAndRegistry:
    def test_report_renders(self, plain_model):
        report = FleetEngine("greedy", _churn(PLAIN_POOL), plain_model).run(3)
        text = report.render()
        assert "policy=greedy" in text
        assert "epoch" in text
        payload = json.loads(report.to_json())
        assert payload["policy"] == "greedy"
        assert len(payload["metrics"]) == 3

    def test_invalid_epochs_rejected(self, plain_model):
        with pytest.raises(ConfigurationError):
            FleetEngine("greedy", _churn(PLAIN_POOL), plain_model).run(0)

    def test_invalid_score_mode_rejected(self, plain_model):
        with pytest.raises(ConfigurationError):
            FleetEngine(
                "greedy", _churn(PLAIN_POOL), plain_model, score_mode="turbo"
            )

    def test_fleet_registered_in_experiment_runner(self):
        from repro.experiments.runner import CONTEXT_EXPERIMENTS, EXPERIMENTS

        assert "fleet" in EXPERIMENTS
        assert "fleet" in CONTEXT_EXPERIMENTS


class TestCli:
    def test_cli_deterministic_stdout(self, capsys):
        from repro.fleet.__main__ import main

        argv = [
            "--epochs", "3",
            "--policy", "greedy",
            "--arrival-rate", "1.0",
            "--initial-services", "3",
            "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["epochs"] == 3
        assert payload["policy"] == "greedy"
