"""Tests for the continuous-time event engine.

The central contract: under :meth:`EventConfig.epoch_equivalent` the
event engine reproduces the epoch engine's reports **byte-identically**
(JSON and rendered text) for every policy, including migration-active
rebalancing and heterogeneous fleets. On top of that sit the
continuous-time semantics the epoch clock cannot express — sub-epoch
arrivals, timed migrations with dual-NIC contention, NIC spin-up — and
the acceptance scenario where migration cost flips a policy ranking.
"""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.fleet.churn import ChurnProcess
from repro.fleet.cluster import NicProvisioner
from repro.fleet.engine import EventEngine, FleetEngine
from repro.fleet.events import EventConfig
from repro.fleet.policies import DiagnosisRebalancePolicy, PlacementModel
from repro.nic.nic import SmartNic
from repro.nic.spec import get_spec
from repro.profiling.collector import ProfilingCollector
from repro.rng import derive_seed

PLAIN_POOL = ("flowstats", "nat", "acl")
TRAINED_POOL = ("flowmonitor", "flowstats", "nids")
MIX = {"bluefield2": 0.6, "pensando": 0.4}
EPOCHS = 5


def _churn(pool, rate=2.0):
    return ChurnProcess(
        nf_names=pool,
        seed=77,
        arrival_rate=rate,
        mean_lifetime=8.0,
        initial_services=4,
    )


def _busy_churn(seed=78):
    """A tighter-SLA, higher-churn schedule that provokes migrations."""
    return ChurnProcess(
        nf_names=TRAINED_POOL,
        seed=seed,
        arrival_rate=6.0,
        mean_lifetime=10.0,
        sla_range=(0.005, 0.03),
        initial_services=8,
    )


@pytest.fixture(scope="module")
def plain_model(noisy_nic):
    return PlacementModel(collector=ProfilingCollector(noisy_nic), nic=noisy_nic)


@pytest.fixture(scope="module")
def trained_model(small_system):
    return PlacementModel(yala=small_system)


@pytest.fixture(scope="module")
def flip_model():
    """A trained model under which migration cost flips the yala-vs-
    rebalance ranking (the session-wide ``small_system`` never lets
    rebalancing fall strictly *behind* yala, so the acceptance scenario
    trains its own NIC-seed-909 system once per module)."""
    from repro.core.predictor import YalaSystem
    from repro.nic.spec import bluefield2_spec

    nic = SmartNic(bluefield2_spec(), seed=909)
    system = YalaSystem(nic, seed=909, quota=200)
    system.train(list(TRAINED_POOL))
    return PlacementModel(yala=system)


@pytest.fixture(scope="module")
def mixed_model():
    bf2 = SmartNic(get_spec("bluefield2"), seed=2025)
    pen = SmartNic(get_spec("pensando"), seed=derive_seed(2025, "pensando"))
    model = PlacementModel(collector=ProfilingCollector(bf2), nic=bf2)
    model.add_target(collector=ProfilingCollector(pen), nic=pen)
    return model


def _assert_byte_equal(event_report, epoch_report):
    assert event_report.fleet.to_json() == epoch_report.to_json()
    assert event_report.fleet.render() == epoch_report.render()


class TestEpochEquivalence:
    """Quantized event runs equal epoch runs byte for byte."""

    @pytest.mark.parametrize("policy", ["greedy", "monopolization"])
    def test_plain_policies(self, plain_model, policy):
        epoch = FleetEngine(policy, _churn(PLAIN_POOL), plain_model).run(EPOCHS)
        event = EventEngine(
            policy,
            _churn(PLAIN_POOL),
            plain_model,
            config=EventConfig.epoch_equivalent(),
        ).run(EPOCHS)
        _assert_byte_equal(event, epoch)

    def test_yala_policy(self, trained_model):
        epoch = FleetEngine("yala", _churn(TRAINED_POOL), trained_model).run(
            EPOCHS
        )
        event = EventEngine(
            "yala",
            _churn(TRAINED_POOL),
            trained_model,
            config=EventConfig.epoch_equivalent(),
        ).run(EPOCHS)
        _assert_byte_equal(event, epoch)

    def test_rebalance_policy_with_live_migrations(self, trained_model):
        epoch = FleetEngine("rebalance", _busy_churn(), trained_model).run(6)
        # The scenario must actually migrate, or this test pins nothing.
        assert epoch.total_migrations >= 1
        event = EventEngine(
            "rebalance",
            _busy_churn(),
            trained_model,
            config=EventConfig.epoch_equivalent(),
        ).run(6)
        _assert_byte_equal(event, epoch)
        assert event.migrations_started == epoch.total_migrations

    def test_heterogeneous_fleet(self, mixed_model):
        def hetero_churn():
            return ChurnProcess(
                nf_names=("flowstats", "nat", "nids"),
                seed=77,
                arrival_rate=2.5,
                mean_lifetime=8.0,
                initial_services=6,
            )

        def provisioner():
            return NicProvisioner(MIX, seed=derive_seed(11, "nic-mix"))

        epoch = FleetEngine(
            "greedy", hetero_churn(), mixed_model, provisioner=provisioner()
        ).run(EPOCHS)
        event = EventEngine(
            "greedy",
            hetero_churn(),
            mixed_model,
            provisioner=provisioner(),
            config=EventConfig.epoch_equivalent(),
        ).run(EPOCHS)
        _assert_byte_equal(event, epoch)

    @pytest.mark.parametrize("policy", ["greedy", "monopolization"])
    def test_mid_epoch_trace_change(self, flash_crowd, policy):
        """A trace change point between two epoch boundaries is not an
        observation point of the epoch grid."""
        nic = SmartNic(get_spec("bluefield2"), seed=7)
        model = PlacementModel(collector=ProfilingCollector(nic), nic=nic)
        epoch = FleetEngine(
            policy, flash_crowd.ScriptedChurn(flash_crowd.cast()), model
        ).run(flash_crowd.HORIZON)
        event = EventEngine(
            policy,
            flash_crowd.ScriptedChurn(flash_crowd.cast()),
            model,
            config=EventConfig.epoch_equivalent(),
        ).run(flash_crowd.HORIZON)
        _assert_byte_equal(event, epoch)

    def test_quantized_integral_matches_epoch_counts(self, plain_model):
        """On the grid the left-Riemann integral degenerates to the
        epoch sum: violation-seconds = sum of per-epoch violations x 1s."""
        event = EventEngine(
            "greedy",
            _churn(PLAIN_POOL),
            plain_model,
            config=EventConfig.epoch_equivalent(),
        ).run(EPOCHS)
        assert event.violation_service_seconds == float(
            sum(m.sla_violations for m in event.fleet.metrics)
        )
        # Every observation sits on the grid, so each left-Riemann
        # interval is exactly one second wide.
        assert event.drop_service_seconds == pytest.approx(
            sum(o.drop_sum for o in event.observations)
        )
        assert all(o.kind == "probe" for o in event.observations)


class TestEventDeterminism:
    def test_continuous_run_bit_identical(self, plain_model):
        def run():
            return EventEngine("greedy", _churn(PLAIN_POOL), plain_model).run(
                EPOCHS
            )

        a, b = run(), run()
        assert a.to_json() == b.to_json()
        assert a.event_log == b.event_log

    def test_batch_and_loop_pop_identical_event_sequences(self, plain_model):
        batched = EventEngine(
            "greedy", _churn(PLAIN_POOL), plain_model, score_mode="batch"
        ).run(EPOCHS)
        looped = EventEngine(
            "greedy", _churn(PLAIN_POOL), plain_model, score_mode="loop"
        ).run(EPOCHS)
        assert batched.event_log == looped.event_log
        assert batched.observations == looped.observations
        a = json.loads(batched.fleet.to_json())
        b = json.loads(looped.fleet.to_json())
        a.pop("score_mode"), b.pop("score_mode")
        assert a == b

    def test_continuous_observes_more_than_probes(self, plain_model):
        report = EventEngine("greedy", _churn(PLAIN_POOL), plain_model).run(
            EPOCHS
        )
        kinds = {o.kind for o in report.observations}
        assert kinds == {"probe", "change"}
        assert report.probes == EPOCHS
        assert len(report.observations) > report.probes
        # Change observations sit off the epoch grid (sub-epoch arrivals).
        assert any(
            o.time != math.floor(o.time)
            for o in report.observations
            if o.kind == "change"
        )
        # One epoch row per probe, regardless of extra observations.
        assert len(report.fleet.metrics) == EPOCHS

    def test_observation_times_strictly_increase(self, plain_model):
        report = EventEngine("greedy", _churn(PLAIN_POOL), plain_model).run(
            EPOCHS
        )
        times = [o.time for o in report.observations]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_horizon_validated(self, plain_model):
        with pytest.raises(ConfigurationError):
            EventEngine("greedy", _churn(PLAIN_POOL), plain_model).run(0)


class TestTimedMigrations:
    def test_migrations_take_time_and_complete(self, trained_model):
        report = EventEngine(
            "rebalance",
            _busy_churn(),
            trained_model,
            config=EventConfig(migration_duration=1.5),
        ).run(6)
        assert report.migrations_started >= 1
        assert report.migrations_completed >= 1
        assert any("migration-start" in line for line in report.event_log)
        assert any("migration-complete" in line for line in report.event_log)
        for record in report.timed_migrations:
            assert record.end_time == record.start_time + 1.5

    def test_zero_duration_is_the_atomic_path(self, trained_model):
        report = EventEngine(
            "rebalance",
            _busy_churn(),
            trained_model,
            config=EventConfig(migration_duration=0.0, quantize_arrivals=True),
        ).run(6)
        assert report.migrations_started >= 1
        assert report.timed_migrations == []
        assert not any("migration-complete" in line for line in report.event_log)


class TestSpinUpLatency:
    def test_booting_nics_drop_their_residents(self, plain_model):
        slow = EventEngine(
            "monopolization",
            _churn(PLAIN_POOL),
            plain_model,
            config=EventConfig(quantize_arrivals=True, spinup_latency=0.5),
        ).run(EPOCHS)
        instant = EventEngine(
            "monopolization",
            _churn(PLAIN_POOL),
            plain_model,
            config=EventConfig.epoch_equivalent(),
        ).run(EPOCHS)
        assert slow.drop_service_seconds > instant.drop_service_seconds


class TestMigrationCostRanking:
    """Acceptance: migration cost flips the yala-vs-rebalance ranking."""

    HORIZON = 8

    def _run(self, model, policy, duration):
        return EventEngine(
            policy,
            _busy_churn(seed=77),
            model,
            config=EventConfig(migration_duration=duration),
        ).run(self.HORIZON)

    def test_free_migration_rewards_rebalancing(self, flip_model):
        yala = self._run(flip_model, "yala", 0.0)
        rebalance = self._run(
            flip_model, DiagnosisRebalancePolicy(react_at_probes=True), 0.0
        )
        assert rebalance.migrations_started >= 1
        assert (
            rebalance.violation_service_seconds
            < yala.violation_service_seconds
        )

    def test_costly_migration_flips_the_ranking(self, flip_model):
        yala = self._run(flip_model, "yala", 2.5)
        rebalance = self._run(
            flip_model, DiagnosisRebalancePolicy(react_at_probes=True), 2.5
        )
        assert rebalance.migrations_started >= 1
        # Identical decisions, but 2.5s of dual-NIC contention per move
        # now costs more violation-time than the moves recover.
        assert (
            rebalance.violation_service_seconds
            > yala.violation_service_seconds
        )


class TestFlashCrowdExample:
    def test_example_asserts_the_epoch_blind_spot(self):
        """examples/flash_crowd_midpoint.py self-asserts that a mid-
        epoch flash crowd is invisible to the epoch engine but seen by
        the event engine; a clean exit is the smoke check."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        src = str(root / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
        result = subprocess.run(
            [sys.executable, str(root / "examples" / "flash_crowd_midpoint.py")],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "only the event engine saw the spike" in result.stdout


class TestCli:
    ARGV = [
        "--epochs", "3",
        "--policy", "greedy",
        "--arrival-rate", "1.0",
        "--initial-services", "3",
        "--engine", "event",
        "--format", "json",
    ]

    def test_event_cli_deterministic_stdout(self, capsys):
        from repro.fleet.__main__ import main

        assert main(list(self.ARGV)) == 0
        first = capsys.readouterr().out
        assert main(list(self.ARGV)) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["fleet"]["policy"] == "greedy"
        assert payload["horizon"] == 3.0
        assert payload["summary"]["events_processed"] > 0

    def test_out_flag_writes_json_report(self, capsys, tmp_path):
        from repro.fleet.__main__ import main

        out = tmp_path / "report.json"
        argv = list(self.ARGV) + ["--out", str(out)]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == stdout
        json.loads(out.read_text(encoding="utf-8"))  # well-formed

    def test_out_flag_with_text_format(self, capsys, tmp_path):
        from repro.fleet.__main__ import main

        out = tmp_path / "report.json"
        argv = [a for a in self.ARGV if a not in ("--format", "json")]
        assert main(argv + ["--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        # Text report on stdout, JSON in the file.
        assert "violation-seconds" in stdout
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["fleet"]["policy"] == "greedy"
