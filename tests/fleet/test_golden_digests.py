"""Absolute byte pins of canonical fleet reports.

Parity tests compare two arms of the same build, so both arms can
drift together unnoticed. These digests pin the exact report bytes of
small fleets instead, one per path worth pinning:

- every policy (``greedy``, ``monopolization``, ``slomo``, ``yala``)
  on the default engine, plus the ``loop`` scoring oracle;
- the diagnosis-triggered ``rebalance`` policy with NIC degradation
  faults, on both engines — migrations off degraded hardware go
  through the capacity-derated Yala verdict;
- hard NIC failures, degradations and a pod outage on a 4-pod fleet;
- warm-started scoring;
- a ``yala`` fleet over a mixed BlueField-2 + Pensando pool — placement
  probes evaluate both hardware targets within one decision;
- a continuous event run with timed migrations, NIC spin-up and
  half-second probes, hashed with its full event log;
- the flash-crowd cast of ``examples/flash_crowd_midpoint.py``, whose
  traffic changes between two epoch boundaries.

Each case also asserts that its run exercises the path it pins. A
deliberate numeric change must update a digest in the same change and
say why.
"""

import hashlib
import json

import pytest

from repro.fleet import FleetConfig, simulate
from repro.fleet.engine import FleetEngine
from repro.fleet.policies import PlacementModel
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec
from repro.profiling.collector import ProfilingCollector

_POOL = ("flowstats", "acl", "nat")


def _scores_mixes(payload):
    assert payload["telemetry"]["scoring"]["mixes_solved"] > 0


def _one_service_per_nic(payload):
    assert all(m["services"] == m["nics_used"] > 0 for m in payload["metrics"])


def _migrates_off_degraded(payload):
    fleet = payload.get("fleet", payload)
    assert fleet["faults"]["nic_degradations"] > 0
    assert fleet["summary"]["total_migrations"] > 0


def _both_pools(payload):
    assert len(payload["pool_summary"]) == 2
    assert all(
        stats["mean_services"] > 0
        for stats in payload["pool_summary"].values()
    )


def _loop_oracle(payload):
    assert payload["score_mode"] == "loop"
    _scores_mixes(payload)


def _all_fault_kinds(payload):
    faults = payload["faults"]
    assert faults["nic_failures"] > 0
    assert faults["nic_degradations"] > 0
    assert faults["pod_outages"] > 0
    assert faults["services_replaced"] > 0


def _warm_hits(payload):
    assert payload["telemetry"]["warm_start"]["hits"] > 0


def _timed_migrations(payload):
    summary = payload["summary"]
    assert summary["migrations_started"] > 0
    assert summary["migrations_completed"] > 0
    assert payload["fleet"]["faults"]["nic_degradations"] > 0
    assert any(o["kind"] == "change" for o in payload["observations"])
    assert payload["event_log"]


CASES = {
    "greedy": (
        dict(policy="greedy", seed=1),
        "42241f1da7bd65df5f724082c3e8e965d66c17743d524f18d04149dae639d012",
        _scores_mixes,
    ),
    "monopolization": (
        dict(policy="monopolization", seed=1),
        "e59821a29953c4d72f690ffa3f796c18498e0656a2f7bb3c682dcf4b3c06b783",
        _one_service_per_nic,
    ),
    "slomo": (
        dict(policy="slomo", seed=1),
        "544ac68c185df29da241bb7bb66ebfcf8a8149c39fb26a63c95cd69536f1da8c",
        _scores_mixes,
    ),
    "yala": (
        dict(policy="yala", seed=1),
        "d10f2493a629799fe9bda0189047ae6ff6cfb760c9395aa103e6dfcd6cd31174",
        _scores_mixes,
    ),
    "greedy-loop": (
        dict(policy="greedy", seed=1, score_mode="loop"),
        "ecdd5d75c01ccfd6e4648c59952e61beb9e4ebaa4f171636be9e2c60700e1394",
        _loop_oracle,
    ),
    "rebalance-degrade": (
        dict(
            policy="rebalance",
            seed=2,
            nic_degrade_rate=0.8,
            mean_time_to_fail=2.0,
        ),
        "9d15f54e9a005eeeaccc333eae1f43505f7be1566aad989fa8b8748bf9fe905e",
        _migrates_off_degraded,
    ),
    "rebalance-event-degrade": (
        dict(
            policy="rebalance",
            engine="event",
            seed=2,
            nic_degrade_rate=0.8,
            mean_time_to_fail=2.0,
        ),
        "5257fb5e98d6388b7f3c1527f73b0c518fbd43376c56813d2fa1604761cd890d",
        _migrates_off_degraded,
    ),
    "greedy-faults": (
        dict(
            policy="greedy",
            seed=1,
            pods=4,
            nic_fail_rate=0.5,
            nic_degrade_rate=0.3,
            pod_outage_rate=0.4,
            mean_time_to_fail=3.0,
        ),
        "b35585d5df0d042f1f4e412615f7dae5857a511d55862731b7fe88df37311483",
        _all_fault_kinds,
    ),
    "yala-warm": (
        dict(policy="yala", seed=1, warm_start=True),
        "bcbce4ecad33183296c8f1721f6d9d39be206603ee19ae2efa60fbc36e536a9f",
        _warm_hits,
    ),
    "yala-mixed-pool": (
        dict(policy="yala", seed=1, nic_mix="bluefield2=0.5,pensando=0.5"),
        "c61cedeadc0b611e330495e9e775f9d1f4b44314ca277132ac6f322e005e87c7",
        _both_pools,
    ),
    "event-timed-migrations": (
        dict(
            policy="rebalance",
            engine="event",
            seed=2,
            nic_degrade_rate=0.8,
            mean_time_to_fail=2.0,
            migration_duration=1.0,
            spinup_latency=0.5,
            probe_period=0.5,
        ),
        "e41f9944ad2b7067b28c9ff4db7a5f1659f09a8269d0444aaaa74579cbd37def",
        _timed_migrations,
    ),
}


def _report(overrides: dict) -> str:
    config = FleetConfig(
        quota=20,
        epochs=6,
        nf_pool=_POOL,
        arrival_rate=6.0,
        initial_services=12,
        **overrides,
    )
    return simulate(config).to_json()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name):
    overrides, digest, exercised = CASES[name]
    text = _report(overrides)
    # The pin is only worth its bytes if the run exercises the path.
    exercised(json.loads(text))
    assert _digest(text) == digest


def test_flash_crowd_digest(flash_crowd):
    nic = SmartNic(bluefield2_spec(), seed=7)
    model = PlacementModel(collector=ProfilingCollector(nic), nic=nic)
    report = FleetEngine(
        "greedy", flash_crowd.ScriptedChurn(flash_crowd.cast()), model
    ).run(flash_crowd.HORIZON)
    # Every epoch scores the whole cast, and the surge between two
    # epoch boundaries stays invisible to the epoch grid.
    assert [m.services for m in report.metrics] == [len(flash_crowd.NFS)] * 5
    assert sum(m.sla_violations for m in report.metrics) == 0
    assert _digest(report.to_json()) == (
        "16e807f97ab69a83e103b968f7f9566b67f4803eb89966686b49623c6405d699"
    )
