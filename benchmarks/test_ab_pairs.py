"""`benchmarks/ab_pairs.py`'s summary of alternating pairs, over canned samples."""

from __future__ import annotations

import pytest

from ab_pairs import END_TO_END, format_summary, summarize


def sample(run_s, rss=50.0, sha="a" * 64, quality=None):
    return {
        "sha256": sha,
        "setup_s": 0.5,
        "run_s": run_s,
        "cpu_s": run_s + 0.5,
        "peak_rss_mb": rss,
        "work_units": 100,
        "quality": {"wastage_pct": 1.5} if quality is None else quality,
    }


def test_metrics_are_the_benchmark_end_to_end_list():
    assert [name for name, _ in END_TO_END] == [
        "setup_s", "run_s", "cpu_s", "work_per_s", "peak_rss_mb"]


def test_summary_of_pairs():
    parent_runs = [1.0, 1.2, 1.1, 1.4]
    change_runs = [0.9, 1.0, 1.15, 1.0]
    pairs = [(sample(p), sample(c, rss=51.0))
             for p, c in zip(parent_runs, change_runs)]
    summary = summarize(pairs)
    run = summary["metrics"]["run_s"]
    assert run["parent"] == pytest.approx(1.15)
    assert run["change"] == pytest.approx(1.0)
    assert run["delta_pct"] == pytest.approx(100.0 * (1.0 - 1.15) / 1.15)
    assert (run["change_lower"], run["pairs"]) == (3, 4)
    # Inclusive quartiles of 1.0, 1.1, 1.2, 1.4: 1.075 and 1.25.
    assert run["parent_iqr"] == pytest.approx(0.175)
    work = summary["metrics"]["work_per_s"]
    # The median of each sample's rate, not a rate of the median.
    assert work["parent"] == pytest.approx((100.0 / 1.2 + 100.0 / 1.1) / 2)
    assert work["change_lower"] == 1  # only the slower change run
    assert work["better"] == "higher"
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["change_lower"], rss["delta_pct"]) == (0, pytest.approx(2.0))
    assert summary["mismatches"] == []
    lines = format_summary(summary)
    assert len(lines) == 1 + len(END_TO_END)
    assert lines[2].startswith("run_s")


def test_hash_and_quality_mismatches_are_reported():
    pairs = [
        (sample(1.0), sample(0.9)),
        (sample(1.0), sample(0.9, sha="b" * 64)),
        (sample(1.0), sample(0.9, quality={"wastage_pct": 1.6})),
    ]
    mismatches = summarize(pairs)["mismatches"]
    assert len(mismatches) == 2
    assert mismatches[0].startswith("pair 1: output sha256")
    assert mismatches[1].startswith("pair 2: quality")
    assert format_summary(summarize(pairs))[-1].startswith("MISMATCH pair 2")


def test_single_pair_has_no_spread():
    summary = summarize([(sample(1.0), sample(1.0))])
    assert summary["metrics"]["run_s"]["parent_iqr"] == 0.0
    assert summary["metrics"]["run_s"]["change_lower"] == 0
