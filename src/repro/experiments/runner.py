"""Run all (or selected) experiments and print their rendered tables.

``python -m repro.experiments --scale default`` regenerates every table
and figure; ``--only table2,fig4`` restricts the set. ``--jobs N`` runs
the selected experiments in N worker processes: every experiment is
deterministic given its own seeds, so results are identical to a serial
run — only the wall-clock changes. Rendered tables go to stdout;
per-experiment wall-clock timing lines (``# <id> finished in ...s``) go
to *stderr* so piped table output stays clean. The experiments listed
in :data:`CONTEXT_EXPERIMENTS` share one pre-trained model context per
(scale, seed) — the runner warms it before forking workers. Output of
the ``full`` scale is what EXPERIMENTS.md records.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.experiments import (
    fig1_contention_drop,
    fig2_single_resource,
    fig3_traffic_motivation,
    fig4_regex_equilibrium,
    fig5_execution_patterns,
    fig6_traffic_attributes,
    fleet_serving,
    table2_overall_accuracy,
    table3_multi_resource,
    table4_composition,
    table5_traffic,
    table6_scheduling,
    table7_diagnosis,
    table8_profiling,
    table9_pensando,
)

__all__ = [
    "CONTEXT_EXPERIMENTS",
    "EXPERIMENTS",
    "main",
    "run_experiments",
]

#: Experiments that evaluate through the shared trained context
#: (repro.experiments.context). Only these benefit from pre-training it
#: before forking parallel workers. All except ``table9`` use the
#: default (BlueField-2) target; ``table9`` uses the Pensando target of
#: the same multi-target context.
CONTEXT_EXPERIMENTS: frozenset[str] = frozenset(
    {
        "fig2",
        "fig3",
        "table2",
        "table3+fig7a",
        "table4",
        "table5+fig7b",
        "table6",
        "table7",
        "table9",
        "fleet",
        "fleet-event",
    }
)

#: Experiment registry: id -> run() callable. Figure 7 is produced by
#: the table3 (7a) and table5 (7b) modules; Figure 8 by table8.
EXPERIMENTS: dict[str, Callable] = {
    "fig1": fig1_contention_drop.run,
    "fig2": fig2_single_resource.run,
    "fig3": fig3_traffic_motivation.run,
    "fig4": fig4_regex_equilibrium.run,
    "fig5": fig5_execution_patterns.run,
    "fig6": fig6_traffic_attributes.run,
    "table2": table2_overall_accuracy.run,
    "table3+fig7a": table3_multi_resource.run,
    "table4": table4_composition.run,
    "table5+fig7b": table5_traffic.run,
    "table6": table6_scheduling.run,
    "table7": table7_diagnosis.run,
    "table8+fig8": table8_profiling.run,
    "table9": table9_pensando.run,
    "fleet": fleet_serving.run,
    "fleet-event": fleet_serving.run_event,
}


def _select(names: list[str] | None) -> list[str]:
    """Resolve (possibly partial) experiment names to registry keys."""
    selected = names or list(EXPERIMENTS)
    keys: list[str] = []
    for name in selected:
        matches = [key for key in EXPERIMENTS if name in key.split("+") or key == name]
        if not matches:
            raise KeyError(f"unknown experiment {name!r}; known: {list(EXPERIMENTS)}")
        for key in matches:
            if key not in keys:
                keys.append(key)
    return keys


def _run_one(key: str, scale: str) -> tuple[str, object, float]:
    """Run one experiment (worker-process entry point)."""
    start = time.perf_counter()
    result = EXPERIMENTS[key](scale=scale)
    return key, result, time.perf_counter() - start


def run_experiments(
    names: list[str] | None = None,
    scale: str = "default",
    jobs: int = 1,
    pretrain_context: bool = True,
) -> dict[str, object]:
    """Run the selected experiments and return their result objects.

    With ``jobs > 1`` experiments run in worker processes. The shared
    trained context is built once in this process first (with NF-level
    training parallelism) so that fork-based workers inherit it instead
    of retraining; on platforms without fork, workers rebuild it
    deterministically. The warm-up is skipped automatically when no
    selected experiment uses the shared context (and can be forced off
    with ``pretrain_context=False``).
    """
    keys = _select(names)
    results: dict[str, object] = {}
    if jobs <= 1 or len(keys) == 1:
        for key in keys:
            _, results[key], elapsed = _run_one(key, scale)
            print(f"# {key} finished in {elapsed:.1f}s", file=sys.stderr)
        return results

    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    if pretrain_context and any(key in CONTEXT_EXPERIMENTS for key in keys):
        # Pre-train the shared context's targets the selected
        # experiments use, so forked workers inherit the trained
        # predictors through copy-on-write memory.
        from repro.experiments.context import get_context

        context = get_context(scale)
        if any(
            key in CONTEXT_EXPERIMENTS and key != "table9" for key in keys
        ):
            # Default target: the full NF catalog, trained with the
            # runner's parallelism (identical results at any job count).
            context.target(train_jobs=jobs)
        if "table9" in keys:
            table9_pensando.warm_context(context)

    completed: dict[str, object] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(keys))) as pool:
        futures = {pool.submit(_run_one, key, scale): key for key in keys}
        remaining = set(futures)
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                key, result, elapsed = future.result()
                completed[key] = result
                print(f"# {key} finished in {elapsed:.1f}s", file=sys.stderr)
    for key in keys:  # registry order, independent of completion order
        results[key] = completed[key]
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", default="default", choices=("smoke", "default", "full")
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated experiment ids (e.g. table2,fig4)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for experiments (1 = serial; results are "
        "identical at any job count; per-experiment timing lines are "
        "printed to stderr, rendered tables to stdout)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        keys = _select(args.only.split(",") if args.only else None)
    except KeyError as error:
        parser.error(error.args[0])
    results = run_experiments(keys, scale=args.scale, jobs=args.jobs)
    for key, result in results.items():
        print()
        print(f"=== {key} ===")
        print(result.render())
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
