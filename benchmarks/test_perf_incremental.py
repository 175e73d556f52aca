"""Perf gates: cross-epoch incremental solving (warm starts, compile
cache) and the batch solver's straggler route.

Three speedup gates plus one always-run correctness gate:

- **Warm-started fixed points (>= 1.5x)**: a 1,000-NIC Pensando fleet
  under low churn, measured in *steady state* — epoch 0 (the all-cold
  fleet build) runs once untimed and is checkpointed; both arms resume
  from that snapshot and re-score three epochs. Low churn means most
  NICs keep their resident mix between epochs, so the warm arm seeds
  nearly every solve from the previous epoch's fixed point. Pensando's
  16 cores pack 8 residents per NIC: deep mixes are contention-bound,
  which is where cold solves iterate longest and warm seeds pay most.
- **Compilation cache (>= 1.2x)**: a heterogeneous BlueField-2 +
  Pensando batch whose scenarios repeat a small set of (NF, traffic)
  demands many times — the fleet regime, where one epoch re-solves
  thousands of scenarios drawn from a few dozen distinct demands. The
  steady-state cached arm must beat the cache-disabled arm on plan
  construction alone (solves are identical: cached plans are the same
  objects).
- **Stragglers (>= 1.0x, i.e. never slower)**: one big signature group
  plus every proper-subsequence small signature as two-row stragglers.
  ``solve_batch`` of every row (the big group solves alone, the
  stragglers in padded families) against ``solve_batch`` of the big
  rows plus looped :meth:`SmartNic.run` over the stragglers. The gate
  holds the families to at-worst-parity with per-scenario scalar
  solves even when their dummy lanes join shared accelerator engines.
- **Correctness (always runs, 1/10 scale)**: ``warm_start=True``
  reports are byte-identical between the serial runtime and a 2-worker
  ``ProcessRuntime`` — the warm cache travels in task payloads, so
  sharding must not perturb a single byte.

All timed arms are serial CPU work, measured with
``time.process_time`` per the suite's CPU-time discipline.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.fleet.churn import ChurnProcess
from repro.fleet.checkpoint import Checkpointer, load_checkpoint
from repro.fleet.cluster import Cluster, ServiceInstance
from repro.fleet.engine import FleetEngine
from repro.fleet.policies import FleetPolicy, PlacementModel
from repro.fleet.runtime import ProcessRuntime
from repro.nf.catalog import make_nf
from repro.nic.batch import (
    clear_compile_cache,
    set_compile_cache_enabled,
    solve_batch,
)
from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec, pensando_spec
from repro.obs.recorder import TraceRecorder, use_recorder
from repro.profiling.collector import ProfilingCollector
from repro.traffic.profile import TrafficProfile

#: Required steady-state advantage of warm-started solves over the
#: cold oracle arm on the low-churn fleet (measured ~1.7x).
MIN_WARM_SPEEDUP = 1.5

#: Required steady-state advantage of the compilation cache over
#: rebuilding every scenario plan (measured ~1.4x).
MIN_COMPILE_CACHE_SPEEDUP = 1.2

#: Stragglers in padded families must never lose to the scalar solver
#: (measured ~2.5x).
MIN_STRAGGLER_SPEEDUP = 1.0

#: Warm-leg fleet: services / Pensando capacity (8) = 1,000 NICs.
WARM_SERVICES = 8_000

#: One untimed build epoch (checkpointed), then this many timed
#: steady-state epochs per arm.
WARM_TIMED_EPOCHS = 3

#: Low churn: ~0.25 arrivals and ~2 departures per epoch across 8,000
#: services, so almost every NIC's mix survives between epochs and the
#: warm cache hits nearly everywhere.
WARM_POOL = ("flowmonitor", "flowstats", "nids", "nat", "acl")

#: Shared fingerprint for the build-epoch snapshot both arms resume.
WARM_FINGERPRINT = {"bench": "incremental-warm"}

#: Compile-cache leg: structurally uniform table NFs — many distinct
#: mixes, few distinct demands, the cache's target regime.
TABLE_NFS = (
    "flowstats", "nat", "acl", "iprouter",
    "flowtracker", "packetfilter", "flowclassifier", "firewall",
)

#: Six repeating traffic variants: scenario demands recur both within
#: one batch and across calls, like fleet epochs under slow traces.
CACHE_TRAFFIC = [
    TrafficProfile(r, 512, 700.0)
    for r in (20_000, 45_000, 80_000, 120_000, 180_000, 240_000)
]

#: Straggler leg: a four-class big mix (each NF is a distinct
#: structural signature on BlueField-2), so every proper subsequence
#: is a *distinct* small signature.
STRAGGLER_BIG = ("flowmonitor", "nat", "nids", "iptunnel")

#: Repeated solve_batch calls per timed straggler arm.
STRAGGLER_CALLS = 4


class _FillPolicy(FleetPolicy):
    """O(1) sequential fill: top up the newest NIC, then open one.

    Benchmark-local on purpose (same rationale as the sharded-fleet
    gate): placements must cost nothing next to scoring.
    """

    name = "fill"

    def choose_nic(
        self, cluster: Cluster, instance: ServiceInstance, model: PlacementModel
    ) -> int | None:
        if cluster.nics:
            last = cluster.nics[-1]
            if len(last.residents) < last.max_residents:
                return last.nic_id
        return None


# ----------------------------------------------------------- warm leg
def build_warm_engine(
    warm_start: bool,
    services: int = WARM_SERVICES,
    runtime=None,
) -> FleetEngine:
    """A fresh Pensando engine + collector so no arm inherits state."""
    nic = SmartNic(pensando_spec(), seed=0x5EED, noise_std=0.0)
    model = PlacementModel(collector=ProfilingCollector(nic), nic=nic)
    churn = ChurnProcess(
        nf_names=WARM_POOL,
        seed=11,
        arrival_rate=0.25,
        mean_lifetime=4_000.0,
        initial_services=services,
    )
    return FleetEngine(
        _FillPolicy(), churn, model, runtime=runtime, warm_start=warm_start
    )


def _steady_state_snapshot(path: str) -> None:
    """Run the untimed all-cold build epoch once and checkpoint it."""
    build_warm_engine(False).run(
        1, checkpoint=Checkpointer(path, every=1, fingerprint=WARM_FINGERPRINT)
    )


def _timed_resume(path: str, warm_start: bool):
    """CPU seconds + report for the timed epochs of one arm."""
    _, state = load_checkpoint(path, WARM_FINGERPRINT)
    engine = build_warm_engine(warm_start)
    start = time.process_time()
    report = engine.run(1 + WARM_TIMED_EPOCHS, resume=state)
    return time.process_time() - start, report


def test_warm_start_steady_state_speedup(benchmark, tmp_path):
    snap = str(tmp_path / "warm-build.pkl")
    _steady_state_snapshot(snap)
    speedup, cold_s, warm_s = 0.0, 0.0, 0.0
    report = None
    for _ in range(3):  # re-measure up to 3x before failing
        cold_s, cold_report = _timed_resume(snap, False)
        warm_s, report = _timed_resume(snap, True)
        speedup = max(speedup, cold_s / warm_s)
        if speedup >= MIN_WARM_SPEEDUP:
            break
    benchmark.extra_info["warm_start_steady_state_speedup"] = round(speedup, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert report.metrics[-1].nics_used >= 1_000
    warm_stats = report.telemetry["warm_start"]
    assert warm_stats["enabled"] is True
    assert warm_stats["hits"] > 0
    mean_warm = warm_stats["warm_iterations"] / warm_stats["warm_scenarios"]
    mean_cold = warm_stats["cold_iterations"] / warm_stats["cold_scenarios"]
    print(
        f"\n# warm start: nics={report.metrics[-1].nics_used} "
        f"timed_epochs={WARM_TIMED_EPOCHS} "
        f"iters/scenario warm={mean_warm:.1f} cold={mean_cold:.1f} "
        f"cold={cold_s:.2f}s warm={warm_s:.2f}s speedup={speedup:.2f}x"
    )
    assert mean_warm < mean_cold
    assert speedup >= MIN_WARM_SPEEDUP


def test_warm_report_is_runtime_invariant():
    """Byte-identity of warm reports across runtimes, at 1/10 scale."""
    services = WARM_SERVICES // 10
    serial = build_warm_engine(True, services=services).run(3)
    runtime = ProcessRuntime(jobs=2)
    try:
        sharded = build_warm_engine(
            True, services=services, runtime=runtime
        ).run(3)
    finally:
        runtime.close()
    assert serial.metrics[-1].nics_used >= 100
    assert serial.telemetry["warm_start"]["hits"] > 0
    assert sharded.to_json() == serial.to_json()


# -------------------------------------------------- compile-cache leg
def _cache_scenarios(width: int, rng: np.random.Generator) -> list:
    """6 big shapes x 250 rows + 150 small shapes x 2 rows, cycling
    the six traffic variants: thousands of scenarios, dozens of
    distinct demands."""
    scens = []
    shapes = [tuple(rng.choice(len(TABLE_NFS), size=width)) for _ in range(6)]
    for si, shape in enumerate(shapes):
        for r in range(250):
            t = CACHE_TRAFFIC[(si + r) % len(CACHE_TRAFFIC)]
            scens.append(
                [
                    make_nf(TABLE_NFS[k]).demand(t, instance=f"b{si}.{j}")
                    for j, k in enumerate(shape)
                ]
            )
    for si in range(150):
        w = 1 + int(rng.integers(0, width))
        shape = tuple(rng.choice(len(TABLE_NFS), size=w))
        t = CACHE_TRAFFIC[si % len(CACHE_TRAFFIC)]
        for _ in range(2):
            scens.append(
                [
                    make_nf(TABLE_NFS[k]).demand(t, instance=f"s{si}.{j}")
                    for j, k in enumerate(shape)
                ]
            )
    return scens


def test_compile_cache_steady_state_speedup(benchmark):
    rng = np.random.default_rng(7)
    work = [
        (SmartNic(spec, seed=0x5EED, noise_std=0.0), _cache_scenarios(w, rng))
        for spec, w in ((bluefield2_spec(), 4), (pensando_spec(), 8))
    ]

    def one_pass():
        for nic, scens in work:
            solve_batch(nic, scens, on_error="return")

    speedup, off_s, on_s = 0.0, 0.0, 0.0
    try:
        for _ in range(3):  # re-measure up to 3x before failing
            clear_compile_cache()
            set_compile_cache_enabled(False)
            start = time.process_time()
            one_pass()
            off_s = time.process_time() - start
            set_compile_cache_enabled(True)
            clear_compile_cache()
            one_pass()  # prime: steady state is the cache's contract
            start = time.process_time()
            one_pass()
            on_s = time.process_time() - start
            speedup = max(speedup, off_s / on_s)
            if speedup >= MIN_COMPILE_CACHE_SPEEDUP:
                break
    finally:
        set_compile_cache_enabled(True)
        clear_compile_cache()
    benchmark.extra_info["compile_cache_steady_state_speedup"] = round(
        speedup, 2
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print(
        f"\n# compile cache: scenarios={sum(len(s) for _, s in work)} "
        f"off={off_s:.2f}s on={on_s:.2f}s speedup={speedup:.2f}x"
    )
    assert speedup >= MIN_COMPILE_CACHE_SPEEDUP


# ------------------------------------------------------ straggler leg
def _straggler_scenarios() -> tuple[list, list]:
    """48 big rows, and every proper subsequence of the big mix as a
    2-row small signature (light traffic, so the stragglers converge
    inside the big group's iteration envelope)."""
    rng = np.random.default_rng(29)

    def scen(mix, lo, hi):
        traffic = [
            TrafficProfile(int(rng.integers(lo, hi)), 512, 700.0) for _ in mix
        ]
        return [
            make_nf(n).demand(t, instance=f"{n}#{j}")
            for j, (n, t) in enumerate(zip(mix, traffic))
        ]

    big = [scen(STRAGGLER_BIG, 5_000, 300_000) for _ in range(48)]
    smalls = [
        tuple(STRAGGLER_BIG[i] for i in combo)
        for w in (1, 2, 3)
        for combo in itertools.combinations(range(len(STRAGGLER_BIG)), w)
    ]
    stragglers = [scen(mix, 5_000, 60_000) for mix in smalls for _ in range(2)]
    return big, stragglers


def test_adoption_never_loses_to_scalar_fallback(benchmark):
    big, stragglers = _straggler_scenarios()
    nic = SmartNic(bluefield2_spec(), seed=11, noise_std=0.0)
    speedup, padded_s, scalar_s = 0.0, 0.0, 0.0
    for _ in range(3):  # re-measure up to 3x before failing
        recorder = TraceRecorder()
        with use_recorder(recorder):
            start = time.process_time()
            for _ in range(STRAGGLER_CALLS):
                solve_batch(nic, big + stragglers, on_error="return")
            padded_s = time.process_time() - start
        start = time.process_time()
        for _ in range(STRAGGLER_CALLS):
            solve_batch(nic, big, on_error="return")
            for scenario in stragglers:
                nic.run(scenario)
        scalar_s = time.process_time() - start
        speedup = max(speedup, scalar_s / padded_s)
        if speedup >= MIN_STRAGGLER_SPEEDUP:
            break
    counters = recorder.exec_counters
    benchmark.extra_info["straggler_vs_scalar_speedup"] = round(speedup, 2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print(
        f"\n# stragglers: rows/call={len(stragglers)} padded_lanes/call="
        f"{counters.get('batch.padded_lanes', 0) // STRAGGLER_CALLS} "
        f"padded={padded_s * 1e3 / STRAGGLER_CALLS:.1f}ms "
        f"scalar={scalar_s * 1e3 / STRAGGLER_CALLS:.1f}ms "
        f"speedup={speedup:.2f}x"
    )
    assert "batch.scalar_scenarios" not in counters  # every straggler padded
    assert speedup >= MIN_STRAGGLER_SPEEDUP
