"""CLI for the fleet serving simulator.

``python -m repro.fleet --epochs 20 --policy yala`` trains the
predictors the chosen policy needs, runs the fleet simulation on the
epoch grid and prints a text (or ``--format json``) report. A
heterogeneous pool is one flag away: ``--nic-mix
bluefield2=0.7,pensando=0.3`` provisions a seeded mixed fleet and
trains the policy's predictors per hardware target; the report header
then carries the per-pool NIC composition and per-target
utilisation/wastage breakdowns.

``--engine event`` runs the same event loop in continuous time:
arrivals land at Poisson instants inside each epoch, migrations take
``--migration-duration`` seconds (contending on both NICs while in
flight), fresh NICs boot for ``--spinup-latency`` seconds, and the
fleet is scored at ``--probe-period``-spaced probes plus every state
change, yielding second-granularity violation/drop integrals on top of
the epoch table. ``--quantize-arrivals`` (with the zero-cost defaults)
reproduces the epoch engine's report byte-identically.

``--runtime process`` shards epoch scoring across ``--jobs`` worker
processes; ``--pods N`` / ``--pod-size K`` lay the fleet out as pods
(the unit of sharding, and what topology-aware policies keep
migrations inside). Runtime and worker count never change a byte of
the report — serial is the oracle arm.

``--nic-fail-rate`` / ``--nic-degrade-rate`` / ``--pod-outage-rate``
turn on seeded failure injection: NICs hard-fail or run degraded,
whole pods black out, evicted services queue for re-placement, and the
report's ``faults`` section accounts for every eviction and recovery.
``--checkpoint-every N --checkpoint-path PATH`` snapshots engine state
every N epochs (atomically); ``--resume PATH`` continues a killed run
to a **byte-identical** final report.

``--warm-start`` turns on cross-epoch incremental solving: each NIC's
last converged throughput vector seeds the next epoch's fixed-point
solve whenever the resident mix is structurally unchanged. The fixed
point (and hence every placement decision) is the same — only the
iterate path is shorter — and warm runs stay byte-identical across
engines, runtimes and job counts; the report's ``telemetry`` section
gains warm-cache hit/miss counts and the warm-vs-cold iteration split.
Off by default: the cold run is the oracle arm tier-1 pins, and a warm
checkpoint only resumes into a warm run (the flag is part of the
fingerprint).

``--trace-out PATH`` attaches a telemetry recorder and writes its
trace on completion — ``--trace-format jsonl`` for the deterministic
sim-time event log, ``--trace-format chrome`` for a wall-clock
trace-event timeline loadable in Perfetto (pods as tracks);
``--metrics-out PATH`` dumps the counters/gauges/histograms snapshot.
Attaching a recorder never changes a byte of the report (tier-1
pinned); see ``docs/observability.md``.

The CLI is a thin shell over :class:`repro.fleet.FleetConfig` +
:func:`repro.fleet.simulate`; everything is seeded, and two
invocations with the same arguments produce identical stdout, byte
for byte. ``--out PATH`` additionally writes the full JSON report to a
file, atomically (temp file + rename — a crash mid-write never leaves
a truncated report), without touching stdout.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.fleet.checkpoint import atomic_write_text
from repro.fleet.config import (
    DEFAULT_POOL,
    FleetConfig,
    build_model_for,
    simulate,
)
from repro.fleet.policies import FLEET_POLICY_NAMES
from repro.fleet.runtime import RUNTIME_NAMES
from repro.nic.spec import DEFAULT_TARGET
from repro.obs import TRACE_FORMATS


def _progress(message: str) -> None:
    """Emit one human-facing progress line to stderr, atomically.

    All CLI progress goes through this single helper: one
    ``sys.stderr.write`` per line (prefixed ``# ``) followed by a
    flush, so lines from interleaved runs (or a runtime's worker
    processes) can't shear mid-line the way buffered ``print`` calls
    can. stdout stays reserved for the report (``--format json``
    pipelines parse it), and ``--out`` files never see progress text.
    """
    sys.stderr.write(f"# {message}\n")
    sys.stderr.flush()


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.fleet`` argument parser (tested directly)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet", description=__doc__
    )
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--policy", default="yala", choices=FLEET_POLICY_NAMES)
    parser.add_argument(
        "--nic-mix",
        default=DEFAULT_TARGET,
        help="hardware pool composition, e.g. 'bluefield2=0.7,pensando=0.3' "
        "(weights are relative; a bare name means a homogeneous pool)",
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=1.5,
        help="mean service arrivals per epoch (Poisson)",
    )
    parser.add_argument(
        "--mean-lifetime",
        type=float,
        default=12.0,
        help="mean service lifetime in epochs",
    )
    parser.add_argument(
        "--initial-services",
        type=int,
        default=4,
        help="services seeded into epoch 0",
    )
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--quota",
        type=int,
        default=200,
        help="profiling quota / SLOMO samples per NF when training",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for predictor training and the process "
        "runtime (results identical at any job count)",
    )
    parser.add_argument(
        "--nf-pool",
        default=",".join(DEFAULT_POOL),
        help="comma-separated NF names services are drawn from",
    )
    parser.add_argument("--format", default="text", choices=("text", "json"))
    parser.add_argument(
        "--score-mode",
        default="batch",
        choices=("batch", "loop"),
        help="'loop' solves per-scenario (the bit-exactness oracle)",
    )
    parser.add_argument(
        "--engine",
        default="epoch",
        choices=("epoch", "event"),
        help="'epoch' runs the event loop on the epoch grid and reports "
        "per epoch; 'event' runs it in continuous time (the event knobs "
        "below) and adds the second-granularity report",
    )
    parser.add_argument(
        "--runtime",
        default="serial",
        choices=RUNTIME_NAMES,
        help="where epoch scoring executes: 'serial' (in-process, the "
        "oracle arm) or 'process' (pods solve in --jobs workers); the "
        "report is byte-identical either way",
    )
    parser.add_argument(
        "--pods",
        type=int,
        default=None,
        help="fixed pod count (NICs dealt round-robin); the unit of "
        "sharding and pod-local migration preference",
    )
    parser.add_argument(
        "--pod-size",
        type=int,
        default=None,
        help="NICs per pod (sequential fill; pod count grows with the "
        "fleet); mutually exclusive with --pods",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH (stdout is unchanged)",
    )
    parser.add_argument(
        "--migration-duration",
        type=float,
        default=0.0,
        help="seconds a migrating service contends on both NICs "
        "(event engine; 0 = instantaneous)",
    )
    parser.add_argument(
        "--cross-pod-migration-duration",
        type=float,
        default=None,
        help="seconds a migration crossing a pod boundary takes instead "
        "of --migration-duration (event engine; unset = no distinction)",
    )
    parser.add_argument(
        "--spinup-latency",
        type=float,
        default=0.0,
        help="seconds a fresh NIC boots before serving (event engine)",
    )
    parser.add_argument(
        "--probe-period",
        type=float,
        default=1.0,
        help="seconds between scoring probes (event engine)",
    )
    parser.add_argument(
        "--nic-fail-rate",
        type=float,
        default=0.0,
        help="probability a NIC ever hard-fails (seeded per NIC ordinal; "
        "evicted residents queue for re-placement)",
    )
    parser.add_argument(
        "--nic-degrade-rate",
        type=float,
        default=0.0,
        help="probability a NIC degrades to fractional capacity instead "
        "of failing (restored after a seeded repair time)",
    )
    parser.add_argument(
        "--pod-outage-rate",
        type=float,
        default=0.0,
        help="probability a pod suffers one outage window (needs --pods)",
    )
    parser.add_argument(
        "--mean-time-to-fail",
        type=float,
        default=8.0,
        help="mean epochs between a NIC's spin-up and its fault",
    )
    parser.add_argument(
        "--mean-repair-time",
        type=float,
        default=3.0,
        help="mean epochs a degraded NIC stays degraded",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="snapshot engine state every N epochs (with "
        "--checkpoint-path); a resumed run finishes byte-identically",
    )
    parser.add_argument(
        "--checkpoint-path",
        default=None,
        metavar="PATH",
        help="where periodic snapshots are written (atomic replace)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume a run from a snapshot written by --checkpoint-path "
        "(the configuration must match the checkpointed run's)",
    )
    parser.add_argument(
        "--quantize-arrivals",
        action="store_true",
        help="snap arrival times to epoch boundaries (event engine; with "
        "the zero-cost defaults this reproduces the epoch engine's "
        "report byte-identically)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a telemetry trace to PATH on completion (attaching "
        "the recorder never changes a byte of the report)",
    )
    parser.add_argument(
        "--trace-format",
        default="jsonl",
        choices=TRACE_FORMATS,
        help="'jsonl' is the deterministic sim-time event log; 'chrome' "
        "the wall-clock trace-event timeline (load in Perfetto)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the JSON metrics snapshot (counters, gauges, "
        "histograms) to PATH on completion",
    )
    parser.add_argument(
        "--warm-start",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="seed each mix's fixed-point solve from the hosting NIC's "
        "last converged vector (same fixed point, fewer iterations; "
        "byte-deterministic at any runtime/jobs, but a different "
        "iterate path than the cold oracle arm)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = FleetConfig.from_cli_args(args)
    except Exception as error:
        parser.error(str(error))

    start = time.perf_counter()
    model = build_model_for(config)
    _progress(
        f"model ready in {time.perf_counter() - start:.1f}s "
        f"(policy={config.policy}, pool={','.join(config.nf_pool)}, "
        f"targets={','.join(config.target_names())})"
    )

    start = time.perf_counter()
    report = simulate(config, model=model)
    _progress(
        f"simulated {config.epochs} epochs in "
        f"{time.perf_counter() - start:.1f}s "
        f"(runtime={config.runtime}, jobs={config.jobs}, "
        f"topology={config.topology().describe()})"
    )
    if config.trace_out is not None:
        _progress(f"trace written to {config.trace_out}")
    if config.metrics_out is not None:
        _progress(f"metrics written to {config.metrics_out}")
    if args.out is not None:
        atomic_write_text(args.out, report.to_json() + "\n")
    print(report.to_json() if args.format == "json" else report.render())
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
