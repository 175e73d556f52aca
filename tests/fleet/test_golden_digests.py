"""Absolute byte pins for fleet paths no benchmark workload covers.

Parity tests compare two arms of the same build, so both arms can
drift together unnoticed. These digests pin the exact report bytes of
two small fleets instead:

- the diagnosis-triggered ``rebalance`` policy under the event engine
  with NIC degradation faults — migrations off degraded hardware go
  through the capacity-derated Yala verdict;
- a ``yala`` fleet over a mixed BlueField-2 + Pensando pool — placement
  probes evaluate both hardware targets within one decision.

A deliberate numeric change must update a digest in the same change
and say why.
"""

import hashlib
import json

import pytest

from repro.fleet import FleetConfig, simulate

_POOL = ("flowstats", "acl", "nat")

CASES = {
    "rebalance-event-degrade": (
        dict(
            policy="rebalance",
            engine="event",
            seed=2,
            nic_degrade_rate=0.8,
            mean_time_to_fail=2.0,
        ),
        "5257fb5e98d6388b7f3c1527f73b0c518fbd43376c56813d2fa1604761cd890d",
    ),
    "yala-mixed-pool": (
        dict(policy="yala", seed=1, nic_mix="bluefield2=0.5,pensando=0.5"),
        "c61cedeadc0b611e330495e9e775f9d1f4b44314ca277132ac6f322e005e87c7",
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name):
    overrides, digest = CASES[name]
    text = _report(overrides)
    payload = json.loads(text)
    fleet = payload.get("fleet", payload)
    # The pin is only worth its bytes if the run exercises the path.
    if name == "rebalance-event-degrade":
        assert fleet["faults"]["nic_degradations"] > 0
        assert fleet["summary"]["total_migrations"] > 0
    else:
        assert all(
            stats["mean_services"] > 0
            for stats in fleet["pool_summary"].values()
        )
        assert len(fleet["pool_summary"]) == 2
    assert hashlib.sha256(text.encode()).hexdigest() == digest
