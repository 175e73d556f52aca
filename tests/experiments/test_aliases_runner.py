"""Tests for the experiment runner and figure aliases."""

import pytest

from repro.experiments import fig7_fig8_aliases
from repro.experiments.runner import EXPERIMENTS, main, run_experiments


class _StubResult:
    """Picklable stand-in for an experiment result."""

    def __init__(self, tag: str, scale: str) -> None:
        self.value = (tag, scale)

    def render(self) -> str:
        return f"{self.value}"


def _stub_alpha(scale="default"):
    return _StubResult("alpha", scale)


def _stub_beta(scale="default"):
    return _StubResult("beta", scale)


def _stub_gamma(scale="default"):
    return _StubResult("gamma", scale)


class TestRunnerRegistry:
    def test_all_paper_artifacts_registered(self):
        keys = set(EXPERIMENTS)
        for artifact in (
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "table2", "table4", "table6", "table7", "table9",
        ):
            assert artifact in keys
        assert "table3+fig7a" in keys
        assert "table5+fig7b" in keys
        assert "table8+fig8" in keys

    def test_selection_by_partial_name(self):
        results = run_experiments(["fig4"], scale="smoke")
        assert "fig4" in results

    def test_selection_resolves_combined_ids(self):
        results = run_experiments(["fig7a"], scale="smoke")
        assert "table3+fig7a" in results

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["fig99"], scale="smoke")

    def test_context_experiments_subset_of_registry(self):
        from repro.experiments.runner import CONTEXT_EXPERIMENTS

        assert CONTEXT_EXPERIMENTS <= set(EXPERIMENTS)


class TestParallelRunner:
    """--jobs runs experiments in worker processes with identical results."""

    @pytest.fixture()
    def stub_registry(self, monkeypatch):
        stubs = {
            "stub-alpha": _stub_alpha,
            "stub-beta": _stub_beta,
            "stub-gamma": _stub_gamma,
        }
        monkeypatch.setattr(
            "repro.experiments.runner.EXPERIMENTS", stubs
        )
        return stubs

    def test_parallel_matches_serial(self, stub_registry):
        serial = run_experiments(None, scale="smoke", jobs=1)
        parallel = run_experiments(
            None, scale="smoke", jobs=2, pretrain_context=False
        )
        assert list(serial) == list(parallel) == list(stub_registry)
        assert [r.value for r in serial.values()] == [
            r.value for r in parallel.values()
        ]

    def test_parallel_results_in_selection_order(self, stub_registry):
        results = run_experiments(
            ["stub-gamma", "stub-alpha"], scale="smoke", jobs=2,
            pretrain_context=False,
        )
        # Output ordering follows the (deterministic) selection order,
        # never the workers' completion order.
        assert list(results) == ["stub-gamma", "stub-alpha"]

    def test_single_selection_runs_serially(self, stub_registry):
        results = run_experiments(["stub-beta"], scale="smoke", jobs=4)
        assert [r.value for r in results.values()] == [("beta", "smoke")]

    def test_cli_rejects_bad_jobs(self, stub_registry, capsys):
        with pytest.raises(SystemExit):
            main(["--jobs", "0"])
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_cli_rejects_unknown_experiment(self, stub_registry, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--only", "stub-alpha,bogus"])
        assert excinfo.value.code == 2
        assert "unknown experiment 'bogus'" in capsys.readouterr().err

    def test_cli_runs_with_jobs_flag(self, stub_registry, capsys):
        assert main(["--only", "stub-alpha", "--scale", "smoke", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "stub-alpha" in out and "('alpha', 'smoke')" in out


class TestAliases:
    def test_fig7a_alias_matches_table3(self):
        result = fig7_fig8_aliases.run_fig7a(scale="smoke")
        assert result.fig7a_low and result.fig7a_high

    def test_fig7b_alias_matches_table5(self):
        result = fig7_fig8_aliases.run_fig7b(scale="smoke")
        assert ("yala", "low") in result.fig7b

    def test_fig8_alias_matches_table8(self):
        result = fig7_fig8_aliases.run_fig8(scale="smoke")
        assert set(result.fig8) == {"random", "adaptive"}
