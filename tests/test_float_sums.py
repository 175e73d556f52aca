"""Simulated bytes must not depend on the Python version's ``sum``.

Since Python 3.12 the builtin ``sum`` adds exact floats with Neumaier
compensation; 3.11 adds them left to right. The scalar solver's sums
and the batch solver's sequential NumPy adds agree only under the
latter, so the program sums floats with :func:`repro.numeric.left_sum`.
These tests install a pure-Python model of 3.12's ``sum`` as the
builtin and check that the batch-vs-scalar parity and the fleet byte
pins still hold, and a lint keeps new builtin ``sum`` calls out of
``src/`` unless they are listed as int-only.
"""

from __future__ import annotations

import ast
import builtins
import math
from collections import Counter
from pathlib import Path

import pytest

from repro.nic.nic import SmartNic
from repro.nic.spec import bluefield2_spec
from repro.numeric import left_sum
from repro.rng import make_rng
from tests.fleet.test_golden_digests import CASES, _digest, _report
from tests.nic.test_batch_run import assert_identical, random_profiling_scenario

_LONG_RANGE = range(-(2**63), 2**63)


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``builtin_sum``, transcribed to Python.

    An int fast path, then a float path that adds exact floats with
    Neumaier's compensation (and machine-size ints without it), then
    plain ``+`` for anything else.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and item in _LONG_RANGE:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


@pytest.fixture()
def compensated_builtin_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def test_model_compensates_where_a_left_fold_does_not():
    values = [1e16, 1.0, -1e16]
    assert compensated_sum(values) == 1.0
    assert left_sum(values) == 0.0
    assert compensated_sum([0.1] * 10) == 1.0
    assert left_sum([0.1] * 10) != 1.0
    # Int runs stay exact ints; an int start is kept until a float comes.
    assert compensated_sum([1, 2, True]) == left_sum([1, 2, True]) == 4
    assert type(left_sum([1, 2.5])) is float


def test_left_sum_equals_the_plain_fold():
    rng = make_rng(5)
    for _ in range(200):
        values = [float(v) for v in rng.normal(size=int(rng.integers(0, 12)))]
        expected = 0
        for value in values:
            expected = expected + value
        assert left_sum(values) == expected


def test_batch_matches_scalar_under_compensated_sum(compensated_builtin_sum):
    nic = SmartNic(bluefield2_spec(), seed=123)
    rng = make_rng(7)
    scenarios = [random_profiling_scenario(nic, rng, i) for i in range(6)]
    batch = nic.run_batch(scenarios)
    for i, scenario in enumerate(scenarios):
        assert_identical(nic.run(scenario), batch[i], f"scenario {i}")


@pytest.mark.parametrize("name", ["greedy", "yala"])
def test_golden_digest_under_compensated_sum(compensated_builtin_sum, name):
    overrides, digest, _ = CASES[name]
    assert _digest(_report(overrides)) == digest


#: Builtin ``sum`` calls in ``src/`` that add only ints (core counts,
#: row counts, tallies): (path under ``src/``, enclosing function) ->
#: the arguments of each call there, as ``ast.unparse`` writes them.
#: Any other builtin ``sum``, including a new one inside a listed
#: function, fails the lint below, and so does an entry whose call is
#: gone from its function.
INT_ONLY_SUMS = {
    ("repro/core/predictor.py", "YalaPredictor.predict_many"): (
        "(spec.contention.actor_count if spec.kind == 'bench' else 1 "
        "for spec in competitors)",
    ),
    ("repro/core/predictor.py",
     "YalaSystem.predict_colocation_batch_with_solos"): (
        "(spec.contention.actor_count if spec.kind == 'bench' else 1 "
        "for spec in competitors)",
    ),
    ("repro/fleet/engine.py", "FleetReport.violation_rate_pct"): (
        "(m.services for m in self.metrics)",
        "(m.sla_violations for m in self.metrics)",
    ),
    ("repro/fleet/engine.py", "FleetReport.total_migrations"): (
        "(m.migrations for m in self.metrics)",
    ),
    ("repro/fleet/engine.py", "_score_cluster"): ("iteration_counts",),
    ("repro/fleet/engine.py", "_pool_rows"): (
        "(1 for nic in pool for r in nic.residents "
        "if cluster.is_home(nic, r.instance_id))",
        "(nic.spec.num_cores for nic in pool)",
        "(nic.cores_used() for nic in pool)",
    ),
    ("repro/fleet/engine.py", "EventReport.probes"): (
        "(1 for o in self.observations if o.kind == 'probe')",
    ),
    ("repro/fleet/engine.py", "EventEngine._observe"): (
        "(nic.spec.num_cores for nic in cluster.nics)",
        "(nic.cores_used() for nic in cluster.nics)",
    ),
    ("repro/fleet/runtime.py", "PodScoreTask.scenario_count"): (
        "(len(keys) for _, keys in self.mixes)",
    ),
    ("repro/fleet/runtime.py", "ProcessRuntime.score_pods"): (
        "(task.scenario_count for task in tasks)",
    ),
    ("repro/fleet/topology.py", "Topology.cross_pod_migrations"): (
        "(1 for record in migrations "
        "if self.is_cross_pod(record.from_nic, record.to_nic))",
    ),
    ("repro/nic/batch.py", "_validate"): ("(w.cores for w in workloads)",),
    ("repro/nic/batch.py", "_merge_small_groups"): (
        "(len(by_sig[sig][0]) for sig in member_sigs)",
    ),
    ("repro/nic/batch.py", "solve_batch"): (
        "(len(plans) for _, plans, _ in small)",
        "(len(plans) * (len(super_sig) - len(sig)) "
        "for sig, plans, _ in members)",
    ),
    ("repro/nic/nic.py", "SmartNic.run"): ("(w.cores for w in workloads)",),
    ("repro/profiling/collector.py", "ProfilingCollector.co_run_with"): (
        "(d.cores for d in demands)",
    ),
    ("repro/profiling/collector.py", "ProfilingCollector.co_run_many"): (
        "(d.cores for d in demands)",
    ),
    ("repro/traffic/payload.py", "measure_mtbr"): (
        "(len(p) for p in payloads)",
        "(ruleset.total_matches(p) for p in payloads)",
    ),
    ("repro/traffic/rules.py", "RuleSet.total_matches"): (
        "self.scan(payload).values()",
    ),
    ("repro/usecases/scheduling.py", "Scheduler.place"): (
        "(1 for drop, resident in zip(drops, residents) "
        "if drop > resident.sla_drop_fraction)",
    ),
}

_SRC = Path(__file__).resolve().parents[1] / "src"


def builtin_sum_calls(source: str) -> list[tuple[str, int, str]]:
    """``(enclosing qualified name, line, arguments)`` of every ``sum(...)``."""
    calls: list[tuple[str, int, str]] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = scope + (child.name,)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "sum"
            ):
                arguments = ast.unparse(child)[len("sum("):-1]
                calls.append(
                    (".".join(scope) or "<module>", child.lineno, arguments)
                )
            visit(child, inner)

    visit(ast.parse(source), ())
    return calls


def unlisted_sums(files: dict[str, str]) -> list[str]:
    """Builtin ``sum`` calls of ``{path: source}`` not on the allowlist.

    Each listed call admits one call with the same arguments in the
    same function, so a second copy of a listed call fails too.
    """
    unlisted = []
    for path, source in sorted(files.items()):
        allowed: dict[str, Counter] = {}
        for scope, line, arguments in builtin_sum_calls(source):
            budget = allowed.setdefault(
                scope, Counter(INT_ONLY_SUMS.get((path, scope), ()))
            )
            if budget[arguments] > 0:
                budget[arguments] -= 1
            else:
                unlisted.append(f"{path}:{line} in {scope}: sum({arguments})")
    return unlisted


def stale_entries(files: dict[str, str], allowlist=INT_ONLY_SUMS) -> list[str]:
    """Allowlisted calls that ``{path: source}`` no longer makes.

    Each entry needs its own call with the same arguments in its
    function; an entry left over would admit a new float sum there.
    """
    made = Counter(
        (path, scope, arguments)
        for path, source in files.items()
        for scope, _, arguments in builtin_sum_calls(source)
    )
    stale = []
    for (path, scope), calls in sorted(allowlist.items()):
        for arguments, count in sorted(Counter(calls).items()):
            if made[(path, scope, arguments)] < count:
                stale.append(f"{path} in {scope}: sum({arguments})")
    return stale


def _src_files() -> dict[str, str]:
    return {
        path.relative_to(_SRC).as_posix(): path.read_text()
        for path in sorted(_SRC.rglob("*.py"))
    }


def test_src_has_no_unlisted_builtin_sum():
    unlisted = unlisted_sums(_src_files())
    assert not unlisted, (
        "builtin sum() over floats is Python-version dependent; add floats "
        "with repro.numeric.left_sum, or list an int-only sum in "
        "INT_ONLY_SUMS: " + ", ".join(unlisted)
    )


def test_allowlist_has_no_stale_entry():
    stale = stale_entries(_src_files())
    assert not stale, (
        "INT_ONLY_SUMS lists calls their function no longer makes; "
        "delete them: " + ", ".join(stale)
    )


def test_lint_flags_a_float_sum():
    source = (
        "class SmartNic:\n"
        "    def run(self, workloads):\n"
        "        return sum(w.cores for w in workloads)\n"
        "    def load(self, rates):\n"
        "        return sum(rate * 0.5 for rate in rates)\n"
    )
    assert builtin_sum_calls(source) == [
        ("SmartNic.run", 3, "(w.cores for w in workloads)"),
        ("SmartNic.load", 5, "(rate * 0.5 for rate in rates)"),
    ]
    assert unlisted_sums({"repro/nic/nic.py": source}) == [
        "repro/nic/nic.py:5 in SmartNic.load: sum((rate * 0.5 for rate in rates))"
    ]


def test_lint_flags_a_new_sum_in_a_listed_function():
    source = (
        "class SmartNic:\n"
        "    def run(self, workloads, rates):\n"
        "        cores = sum(w.cores for w in workloads)\n"
        "        load = sum(rates)\n"
        "        return sum(w.cores for w in workloads)\n"
    )
    assert unlisted_sums({"repro/nic/nic.py": source}) == [
        "repro/nic/nic.py:4 in SmartNic.run: sum(rates)",
        "repro/nic/nic.py:5 in SmartNic.run: sum((w.cores for w in workloads))",
    ]


def test_lint_flags_a_stale_entry():
    source = (
        "class SmartNic:\n"
        "    def run(self, workloads):\n"
        "        return sum(w.cores for w in workloads)\n"
    )
    path = "repro/nic/nic.py"
    allowlist = {
        (path, "SmartNic.run"): (
            "(w.cores for w in workloads)",
            "(w.cores for w in workloads)",
            "(len(w.stages) for w in workloads)",
        ),
        (path, "SmartNic.load"): ("(1 for _ in workloads)",),
    }
    assert stale_entries({path: source}, allowlist) == [
        "repro/nic/nic.py in SmartNic.load: sum((1 for _ in workloads))",
        "repro/nic/nic.py in SmartNic.run: sum((len(w.stages) for w in workloads))",
        "repro/nic/nic.py in SmartNic.run: sum((w.cores for w in workloads))",
    ]
    assert stale_entries({path: source}, {(path, "SmartNic.run"): (
        "(w.cores for w in workloads)",
    )}) == []
