"""Microbenchmark: measurement-noise seeding, bulk vs per workload.

Workload: the noise keys of about 60 catalog-NF mixes of 1-8 workloads
at varying traffic, built exactly as :class:`~repro.nic.nic.SmartNic`
builds them (``repr(w)`` plus the scenario's sorted reprs, per
workload). Hashed two ways:

- **seed**: ``[derive_seed(base, *row) for row in rows]`` — the scalar
  FNV-1a loop, one Python step per byte;
- **fast**: ``derive_seeds(base, rows)`` — the bit-sliced NumPy kernel
  of :mod:`repro.rng`, in passes of at most 64 KB.

Timing follows the conventions of ``test_perf_training.py``: both arms
use ``time.process_time`` (CPU time, immune to co-tenant interference)
with the minimum of three runs per arm, re-measured up to three times
so one scheduler hiccup cannot fail the assertion spuriously. The seeds
must be identical before anything is timed.
"""

from __future__ import annotations

from repro.nf.catalog import EVALUATION_NF_NAMES, make_nf
from repro.nic.nic import _noise_keys
from repro.rng import derive_seed, derive_seeds, make_rng
from repro.traffic.profile import TrafficProfile

#: Required advantage of the bulk kernel over the scalar loop.
MIN_SEEDING_SPEEDUP = 4.0

#: Mixes in the batch; sizes cycle through 1..MAX_MIX.
N_MIXES = 60
MAX_MIX = 8

#: An arbitrary NIC seed.
BASE = 0x5EED


def build_noise_rows() -> list[tuple]:
    """The noise keys of N_MIXES catalog-NF mixes of 1..MAX_MIX workloads."""
    rng = make_rng(0x5EED5)
    mixes = []
    for index in range(N_MIXES):
        traffic = TrafficProfile(
            flow_count=int(rng.integers(1_000, 300_000)),
            packet_size=int(rng.integers(64, 1500)),
        )
        size = index % MAX_MIX + 1
        names = rng.choice(EVALUATION_NF_NAMES, size=size)
        mixes.append(
            [
                make_nf(str(name)).demand(traffic, instance=f"{name}#{j}")
                for j, name in enumerate(names)
            ]
        )
    return list(_noise_keys(mixes))


def test_bulk_seeding_matches_scalar_and_is_4x_faster(benchmark, min_time):
    rows = build_noise_rows()

    # Identical seeds first — the speedup must be numerically free.
    assert derive_seeds(BASE, rows) == [derive_seed(BASE, *row) for row in rows]

    speedup = 0.0
    for _ in range(3):
        scalar_time = min_time(lambda: [derive_seed(BASE, *row) for row in rows])
        bulk_time = min_time(lambda: derive_seeds(BASE, rows))
        speedup = max(speedup, scalar_time / bulk_time)
        if speedup >= MIN_SEEDING_SPEEDUP:
            break
    benchmark.extra_info["noise_seeding_speedup_vs_scalar"] = round(speedup, 2)
    benchmark.pedantic(lambda: derive_seeds(BASE, rows), rounds=1, iterations=1)
    size_kb = sum(len(repr(a)) + len(repr(b)) for a, b in rows) / 1024
    print(
        f"\nnoise seeding: {len(rows)} rows, {size_kb:.0f} KB; "
        f"derive_seeds speedup vs scalar loop: {speedup:.2f}x"
    )
    assert speedup >= MIN_SEEDING_SPEEDUP
