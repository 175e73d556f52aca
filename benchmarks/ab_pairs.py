"""Alternating A/B pairs of two checkouts on one perfbench workload.

    python3 benchmarks/ab_pairs.py PARENT CHANGE --workload greedy-score \\
        --seed 1 --pairs 10

``PARENT`` and ``CHANGE`` are two checkouts of this repository (for
example the parent commit unpacked with ``git archive``). Each pair runs
``perfbench/sample.py`` once in each checkout, each in a fresh
interpreter, back to back; the order flips from pair to pair, so neither
side always runs first on a host whose speed drifts. Times are the
samples' reference-speed times (see ``perfbench/README.md``).

For every end-to-end metric of ``BENCHMARK.json`` it prints both
medians, the change's delta, in how many pairs the change read lower,
and the parent's interquartile range (a median delta smaller than that
range is not a measured change). It exits 1 when a pair's output
SHA-256 or quality metrics differ: a change that claims only speed must
leave both as they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``(name, better)`` of every end-to-end metric, as ``BENCHMARK.json``
#: declares them.
END_TO_END = tuple(
    (entry["name"], entry["better"])
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
)


def run_sample(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced ``perfbench/sample.py`` run of ``checkout``."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "sample.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(sample: dict, name: str) -> float:
    """A sample's end-to-end metric (``work_per_s`` is derived)."""
    if name == "work_per_s":
        return sample["work_units"] / sample["run_s"]
    return sample[name]


def iqr(values: list[float]) -> float:
    """Interquartile range (0.0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[tuple[dict, dict]]) -> dict:
    """Per metric, both medians, the delta, the pairs where the change
    read lower and the parent's IQR; plus every pair whose output hash
    or quality metrics differ."""
    metrics = {}
    for name, better in END_TO_END:
        parent = [metric(p, name) for p, _ in pairs]
        change = [metric(c, name) for _, c in pairs]
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        metrics[name] = {
            "better": better,
            "parent": parent_median,
            "change": change_median,
            "delta_pct": (
                100.0 * (change_median - parent_median) / parent_median
                if parent_median else 0.0
            ),
            "change_lower": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "parent_iqr": iqr(parent),
        }
    mismatches = []
    for index, (p, c) in enumerate(pairs):
        if p["sha256"] != c["sha256"]:
            mismatches.append(f"pair {index}: output sha256 differs")
        if p.get("quality") != c.get("quality"):
            mismatches.append(f"pair {index}: quality metrics differ "
                              f"({p.get('quality')} vs {c.get('quality')})")
    return {"metrics": metrics, "mismatches": mismatches}


def format_summary(summary: dict) -> list[str]:
    lines = [f"{'metric':<14s}{'parent':>12s}{'change':>12s}{'delta':>9s}"
             f"{'lower':>8s}{'parent IQR':>12s}  better"]
    for name, row in summary["metrics"].items():
        lines.append(
            f"{name:<14s}{row['parent']:12.4f}{row['change']:12.4f}"
            f"{row['delta_pct']:+8.1f}%"
            f"{row['change_lower']:>4d}/{row['pairs']:<3d}"
            f"{row['parent_iqr']:12.4f}  {row['better']}"
        )
    lines.extend(f"MISMATCH {text}" for text in summary["mismatches"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    pairs = []
    for index in range(args.pairs):
        order = ((args.parent, "parent"), (args.change, "change"))
        if index % 2:
            order = order[::-1]
        pair = {}
        for checkout, side in order:
            pair[side] = run_sample(checkout, args.workload, args.seed)
        pairs.append((pair["parent"], pair["change"]))
        print(f"pair {index}: run_s parent {pair['parent']['run_s']:.4f} "
              f"change {pair['change']['run_s']:.4f}", flush=True)
    summary = summarize(pairs)
    print(f"{args.workload} seed {args.seed}, {len(pairs)} alternating pairs "
          "(medians; times at the reference host speed):")
    print("\n".join(format_summary(summary)))
    return 1 if summary["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
