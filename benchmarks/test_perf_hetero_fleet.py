"""Microbenchmark: padded super-groups on a heterogeneous fleet epoch.

Workload: the scenario lists a mixed-hardware fleet epoch produces — a
BlueField-2 pool and a Pensando pool, each hosting structurally
*diverse* resident mixes (table-driven NFs interleaved with the
regex-offloading NIDS in varying order and count, plus solo residents).
Every signature group holds at most two scenarios, i.e. everything sits
below the batch engine's scalar-fallback threshold: without padded
super-groups this entire epoch would solve scenario by scenario on the
scalar path. Solved two ways:

- **scalar**: ``[nic.run(s) for s in scenarios]`` — looped
  :meth:`SmartNic.run`, the bit-exactness oracle;
- **padded**: ``solve_batch(nic, scenarios)`` — small groups merge
  into padded super-groups (subsequence embedding into a grown
  super-signature, masked dummy lanes) and solve as one vectorized
  fixed point per family.

The NICs are noiseless so the gate measures the solvers, not the seeded
measurement-noise hashing both arms share. Correctness is asserted
before timing: the padded results must equal the scalar arm exactly
(throughputs, counters, stages, iteration counts) on both hardware
targets. Timing follows the suite conventions: CPU time, min of three
runs per arm, re-measured up to three times.
"""

from __future__ import annotations

from repro.nf.catalog import make_nf
from repro.nic.batch import solve_batch
from repro.nic.nic import SmartNic
from repro.nic.spec import get_spec
from repro.rng import make_rng
from repro.traffic.profile import TrafficProfile

#: Required advantage of padded super-groups over the scalar solver.
MIN_HETERO_SPEEDUP = 2.0

#: Hardware targets of the mixed fleet.
TARGETS = ("bluefield2", "pensando")

#: Resident mixes as a fleet epoch sees them: A = table-driven NFs
#: (one structural signature), B = NIDS (regex engine user). Order
#: matters to the structural signature, so these 14 mixes span 14
#: signature groups of two scenarios each.
MIXES = (
    ("flowstats", "nat", "nids", "acl"),
    ("flowstats", "nids", "nat", "acl"),
    ("nids", "flowstats", "nat", "acl"),
    ("flowstats", "nat", "acl", "nids"),
    ("flowstats", "nat", "acl", "iprouter"),
    ("flowstats", "nids", "nat"),
    ("flowstats", "nat", "nids"),
    ("nids", "flowstats", "nat"),
    ("flowstats", "nat", "acl"),
    ("flowstats", "nat"),
    ("flowstats", "nids"),
    ("nids", "nat"),
    ("flowstats",),
    ("nids",),
)


def build_scenarios(seed: int) -> list:
    """Two scenarios per mix at distinct seeded traffic points."""
    rng = make_rng(seed)
    scenarios = []
    for mix in MIXES:
        for _ in range(2):
            scenarios.append(
                [
                    make_nf(name).demand(
                        TrafficProfile(
                            int(rng.uniform(5_000, 400_000)), 1500, 600.0
                        ),
                        instance=f"{name}#{j}",
                    )
                    for j, name in enumerate(mix)
                ]
            )
    return scenarios


def solve_fleet(nics: dict, scenarios: list, padded: bool) -> dict:
    """One 'epoch': solve every pool's scenario list on its own NIC,
    padded or scenario by scenario."""
    return {
        target: solve_batch(nic, scenarios)
        if padded
        else [nic.run(scenario) for scenario in scenarios]
        for target, nic in nics.items()
    }


def test_padded_super_groups_match_scalar_and_are_2x_faster(
    benchmark, min_time
):
    nics = {
        target: SmartNic(get_spec(target), seed=0x5EED, noise_std=0.0)
        for target in TARGETS
    }
    scenarios = build_scenarios(42)

    # Bit-identical results first — the speedup must be free.
    padded = solve_fleet(nics, scenarios, padded=True)
    scalar = solve_fleet(nics, scenarios, padded=False)
    for target in TARGETS:
        for i in range(len(scenarios)):
            a, b = scalar[target][i], padded[target][i]
            assert b.iterations == a.iterations, (target, i)
            assert b.dram_utilisation == a.dram_utilisation, (target, i)
            for name in a.workloads:
                assert (
                    b[name].true_throughput_mpps
                    == a[name].true_throughput_mpps
                ), (target, i, name)
                assert b[name].counters == a[name].counters, (target, i, name)
                assert b[name].stages == a[name].stages, (target, i, name)
                assert b[name].bottleneck == a[name].bottleneck, (target, i)

    speedup = 0.0
    for _ in range(3):
        scalar_time = min_time(lambda: solve_fleet(nics, scenarios, False))
        padded_time = min_time(lambda: solve_fleet(nics, scenarios, True))
        speedup = max(speedup, scalar_time / padded_time)
        if speedup >= MIN_HETERO_SPEEDUP:
            break
    benchmark.extra_info["hetero_padded_speedup_vs_scalar_fallback"] = round(
        speedup, 2
    )
    benchmark.pedantic(
        lambda: solve_fleet(nics, scenarios, True), rounds=1, iterations=1
    )
    print(f"\nheterogeneous-fleet padded super-group speedup: {speedup:.2f}x")
    assert speedup >= MIN_HETERO_SPEEDUP
